#!/usr/bin/env python3
"""dpsco benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload snowball_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

The workload seed makes the inputs (a sweep config, or a list of accounting
queries with their schedule files); dpsco receives only those inputs. After
set-up, identical rounds of work run until ``--seconds`` have passed, all
from this one process with BLAS pinned to one thread.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs half the time untraced and half traced: the traced half
wraps the public dpsco functions from outside (see tracing.py) and reports
per-layer counts and times per round, plus the tracing overhead.

Every round's outputs are checked (see workloads.py); a failed or raising op
counts in ``failed``, and any failure makes the exit code 1. A report for
people goes to stdout first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record with the
machine, every round and (traced) the kept spans is written to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

# One BLAS thread, set before numpy loads; child processes inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the BLAS thread setting

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE_PATH = BENCH / "reference.json"
WORKLOADS = ("snowball_sweep", "phased_sweep", "accounting")

# Set-up is timed in this many fresh processes; the median is reported.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

# The machine this was built on is a 2-core virtual machine whose speed
# switches between two levels about 1.8x apart many times a second, and the
# share of time at the fast level drifts over minutes, which moved the time
# of the same round by up to 40 % between runs. A speed probe (a fixed loop of
# small numpy operations, like one optimizer step) runs after every timed op
# for PROBE_SHARE of that op's time, and end-to-end times are scaled to the
# speed at which one probe unit takes PROBE_REFERENCE_S (its typical time on
# that machine). Over ten runs this cut the spread of a round's time 2-3x.
PROBE_SHARE = 0.1
PROBE_STEPS = 200
PROBE_REFERENCE_S = 8e-4


def p95(values) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def machine() -> dict:
    record = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "caches": {},
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            record["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    return record


class SpeedProbe:
    """Runs the probe loop after each timed op (``after_timed``) and keeps
    the mean time of one probe unit."""

    def __init__(self):
        self.seconds = 0.0
        self.units = 0

    @staticmethod
    def _unit() -> float:
        w, x = np.zeros(16), np.full(16, 0.1)
        t0 = time.perf_counter()
        for _ in range(PROBE_STEPS):
            w = w - 0.01 * (w - x)
            norm = float(np.linalg.norm(w))
            if norm > 1.0:
                w = w / norm
        return time.perf_counter() - t0

    def after_timed(self, busy_s: float) -> None:
        end = time.perf_counter() + PROBE_SHARE * busy_s
        while True:
            self.seconds += self._unit()
            self.units += 1
            if time.perf_counter() >= end:
                return

    @property
    def scale(self) -> float:
        """Factor from this phase's seconds to seconds at the reference speed."""
        return PROBE_REFERENCE_S * self.units / self.seconds


class Phase(list):
    """The rounds of one timed phase and the speed probe run between them."""

    def __init__(self, rounds, probe):
        super().__init__(rounds)
        self.probe = probe

    @property
    def raw_round_s(self) -> float:
        """The timed ops' seconds over the number of rounds."""
        return statistics.fmean(r.wall_s for r in self)

    @property
    def round_s(self) -> float:
        """``raw_round_s`` at the reference speed."""
        return self.raw_round_s * self.probe.scale


def setup_seconds(args) -> float:
    """Median wall time of a fresh process doing imports, input generation
    and the first call (``--setup-only``), at the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    walls, probe = [], SpeedProbe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        probe.after_timed(walls[-1])
    return statistics.median(walls) * probe.scale


def run_rounds(workload, seconds: float, span, tracer=None) -> Phase:
    """Rounds until ``seconds`` have passed (at least one). Warnings raised in
    a round are recorded, not printed, so stderr stays out of the timings."""
    rounds, probe = [], SpeedProbe()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.warning_log = log
            result = workload.run_round(span, probe.after_timed)
            if tracer is not None:
                tracer.warning_log = None
        result.warnings = len(log)
        rounds.append(result)
    return Phase(rounds, probe)


def end_to_end(workload, rounds: Phase, setup_s: float) -> dict:
    wall = rounds.round_s
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "ops_per_s": (workload.ops / wall, "1/s"),
        "items_per_s": (workload.items / wall, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


# Ratios of per-layer metrics, reported where their base is not 0:
# (name, numerator, denominator, scale).
DERIVED = (
    ("optimizers.pnsgd.us_per_step", "optimizers.pnsgd.time_s", "optimizers.pnsgd.steps", 1e6),
    ("optimizers.pnsgd.self_us_per_step", "optimizers.pnsgd.self_s", "optimizers.pnsgd.steps",
     1e6),
    ("optimizers.NoiseStream.gaussian.mean_us", "optimizers.NoiseStream.gaussian.time_s",
     "optimizers.NoiseStream.gaussian.calls", 1e6),
    ("losses.LossFamily.batch_grad.mean_us", "losses.LossFamily.batch_grad.time_s",
     "losses.LossFamily.batch_grad.calls", 1e6),
    ("losses.LossFamily.grad.mean_us", "losses.LossFamily.grad.time_s",
     "losses.LossFamily.grad.calls", 1e6),
    ("geometry.project.mean_us", "geometry.project.time_s", "geometry.project.calls", 1e6),
    ("geometry.project.active_frac", "geometry.project.active", "geometry.project.calls", 1.0),
    ("schedules.snowball_batches.calls_per_trial", "schedules.snowball_batches.calls",
     "empirics.trial.calls", 1.0),
    ("schedules.Schedule.validate.ns_per_step", "schedules.Schedule.validate.time_s",
     "schedules.Schedule.validate.steps", 1e9),
    ("accountant.pai_rho.ns_per_step", "accountant.pai_rho.time_s",
     "accountant.pai_rho.steps", 1e9),
)


def per_layer(tracer, traced, untraced) -> tuple[dict, dict, list]:
    """Per-round layer metrics, the derived ratios, and the absent names."""
    totals, absent = tracer.totals()
    metrics = {name: (value / len(traced), unit) for name, (value, unit) in totals.items()}
    traced_wall = traced.round_s
    untraced_wall = untraced.round_s
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics["trace.coverage"] = (tracer.self_total() / sum(r.wall_s for r in traced), "ratio")
    derived = {}
    for name, num, den, scale in DERIVED:
        if num in metrics and den in metrics and metrics[den][0] > 0:
            derived[name] = metrics[num][0] / metrics[den][0] * scale
    trial_ms = tracer.trial_ms()
    if trial_ms:
        derived["empirics.trial_ms_p50"] = statistics.median(trial_ms)
        derived["empirics.trial_ms_p95"] = p95(trial_ms)
    return metrics, derived, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit; used to time set-up in a fresh process")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the outputs of the default seed as the reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dpsco" / "__init__.py").is_file():
        print(f"dpsco sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        bench = Bench(workloads, args.workload, workdir, with_reference=not args.write_reference)
        if args.setup_only:
            bench.build(args.seed, "setup")
            return 0
        if args.write_reference:
            return write_reference(bench)
        return run_one(args, bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}


class Bench:
    """Builds one workload's inputs in subdirectories of ``workdir``, with the
    stored reference attached when the seed is the default one."""

    def __init__(self, workloads, name: str, workdir: Path, with_reference: bool):
        self.workloads = workloads
        self.name = name
        self.workdir = workdir
        self.stored = load_reference() if with_reference else {}
        if with_reference and name not in self.stored:
            raise SystemExit(f"{REFERENCE_PATH} has no entry for {name}")

    def _reference(self, seed: int):
        return self.stored.get(self.name) if seed == self.workloads.DEFAULT_SEED else None

    def build(self, seed: int, label: str, verify: bool = False):
        workdir = self.workdir / label
        workdir.mkdir()
        if verify:
            workload = self.workloads.build_verification(self.name, workdir, self._reference(seed))
        else:
            workload = self.workloads.build(self.name, seed, workdir, self._reference(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            workload.warm_up()
        return workload


def no_span(name):
    return contextlib.nullcontext()


def run_one(args, bench: Bench) -> int:
    from tracing import Tracer

    setup_s = None if args.trace else setup_seconds(args)
    workload = bench.build(args.seed, "run")
    tracer = None
    if args.trace:
        untraced = run_rounds(workload, args.seconds / 2.0, no_span)
        tracer = Tracer()
        tracer.install()
        try:
            rounds = run_rounds(workload, args.seconds / 2.0, tracer.span, tracer)
        finally:
            tracer.uninstall()
        phases = [("untraced", untraced), ("traced", rounds)]
    else:
        untraced = rounds = run_rounds(workload, args.seconds, no_span)
        phases = [("untraced", untraced)]

    # Outputs of the default seed are compared with the stored reference on
    # every run, whatever seed was timed.
    if args.seed != bench.workloads.DEFAULT_SEED:
        verify = bench.build(bench.workloads.DEFAULT_SEED, "verify", verify=True)
        phases.append(("verify", run_rounds(verify, 0.0, no_span)))
    checked = [r for _, phase in phases for r in phase]
    attempted = sum(r.ops for r in checked)
    failed = sum(r.failed for r in checked)
    errors = [e for r in checked for e in r.errors]
    if args.trace:
        metrics, derived, absent = per_layer(tracer, rounds, untraced)
    else:
        metrics, derived, absent = end_to_end(workload, rounds, setup_s), {}, []

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "phases": {label: {"raw_round_s": phase.raw_round_s,
                           "probe_unit_s": phase.probe.seconds / phase.probe.units,
                           "scale": phase.probe.scale}
                   for label, phase in phases},
        "rounds": [{"phase": label, "wall_s": r.wall_s, "ops": r.ops, "failed": r.failed,
                    "warnings": r.warnings} for label, phase in phases for r in phase],
        "metrics": {k: v[0] for k, v in metrics.items()}, "derived": derived,
        "absent": absent, "errors": errors[:20],
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    out_path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    report(args, workload, rounds, untraced, metrics, derived, absent, errors,
           attempted, failed, record["machine"], out_path)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def report(args, workload, rounds, untraced, metrics, derived, absent, errors,
           attempted, failed, mach, out_path) -> None:
    print(f"# dpsco benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(rounds)} timed rounds")
    print(f"# machine: {mach['nproc']} cpus ({mach['cpus_usable']} usable), {mach['cpu_model']}, "
          f"caches {mach['caches']}, python {mach['python']}, numpy {mach['numpy']}, "
          f"BLAS threads {mach['blas_threads']}")
    print(f"# one round: {workload.ops} {workload.ops_unit}, {workload.items} "
          f"{workload.items_unit}; queues, waits and retries: none on this workload "
          "(one process, no pools, no retry paths)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<55} {value:>14.6g} {unit}")
    print(f"{'round seconds as measured (untraced)':<55} {untraced.raw_round_s:>14.6g} s "
          f"(x {untraced.probe.scale:.4g} to the reference speed)")
    if not args.trace:
        ops_per_s, items_per_s = metrics["ops_per_s"][0], metrics["items_per_s"][0]
        if workload.name == "accounting":
            latencies = [ms for r in rounds for ms in r.latencies_ms]
            print(f"{'queries_per_s':<55} {ops_per_s:>14.6g} 1/s")
            print(f"{'steps_accounted_per_s':<55} {items_per_s:>14.6g} 1/s")
            print(f"{'query_ms_p50':<55} {statistics.median(latencies):>14.6g} ms "
                  f"({len(latencies)} queries)")
            print(f"{'query_ms_p95':<55} {p95(latencies):>14.6g} ms")
        else:
            print(f"{'trials_per_s':<55} {ops_per_s:>14.6g} 1/s")
            print(f"{'examples_per_s':<55} {items_per_s:>14.6g} 1/s")
    for name, value in derived.items():
        print(f"{name:<55} {value:>14.6g}")
    for name in absent:
        print(f"{name:<55} {'absent':>14}")
    warned = sum(r.warnings for r in untraced)
    print(f"{'warnings_per_round (untraced, captured)':<55} {warned / len(untraced):>14.6g} count")
    print(f"{'error_rate':<55} {failed / attempted:>14.6g} ({failed} of {attempted} ops failed)")
    for error in errors[:5]:
        print(f"# FAILED: {error.strip()}")
    print(f"# run record: {out_path.relative_to(ROOT)}")


def write_reference(bench: Bench) -> int:
    seed = bench.workloads.DEFAULT_SEED
    workload = bench.build(seed, "reference")
    result, = run_rounds(workload, 0.0, no_span)
    if result.failed:
        print("\n".join(result.errors), file=sys.stderr)
        return 1
    stored = load_reference()
    stored[bench.name] = workload.reference_entry()
    REFERENCE_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"stored the {bench.name} reference for seed {seed}")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, worst = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.write_reference:
            cmd.append("--write-reference")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if not args.write_reference and lines:
            results[name] = json.loads(lines[-1])
    if not args.write_reference:
        print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
