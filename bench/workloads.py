"""The benchmark's workloads: inputs made from a seed, one round of work
through the public dpsco entry points, and the checks on what it returned.

``snowball_sweep`` and ``phased_sweep`` each run one ``dpsco run`` sweep per
round; ``accounting`` runs a fixed list of privacy-accounting queries per
round. A round repeats identical inputs, so its outputs must repeat exactly.

``run_round(span, after_timed)`` wraps each query in ``span(QUERY)`` (a
no-op unless traced) and calls ``after_timed(seconds)`` after each timed op
(the whole ``dpsco run`` of a sweep, or one query), outside its timing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dpsco import accountant, cli, schedules
from tracing import QUERY

# Outputs for this seed are stored in reference.json and checked every run.
DEFAULT_SEED = 0

# Both sweeps: a unit ball, rho = 1, the grid below, SWEEP_TRIALS per point.
GRID_N = (2**12, 2**14)
SWEEP_RHO = 1.0
SWEEP_TRIALS = 2
SWEEP_REL_TOL = 1e-9

# Accounting: N_QUERIES queries, T log-uniform over [10^2, 10^6] (one query
# per equal slice of log T, so the total work barely moves with the seed),
# cycling over schedule kinds and dimensions.
N_QUERIES = 200
LOG10_T_RANGE = (2.0, 6.0)
KINDS = ("snowball_sz", "snowball_jnn", "constant")
DIMS = (1, 16, 256)
RHO_TARGET_RANGE = (0.25, 8.0)
DELTAS = (1e-5, 1e-6, 1e-8)
LIPSCHITZ = 2.0  # quadratic loss, unit ball, data on the unit sphere
DIAMETER = 2.0
# Every CLI_EVERY-th query of the lower half of the T range goes through
# `dpsco account` on a schedule file; larger files would time JSON I/O.
CLI_EVERY = 5
RHO_REL_TOL = 1e-12
# Runs timed on another seed also check the default seed's queries up to
# this T against the reference: about 10 % of a full round's work.
VERIFY_MAX_STEPS = 10**5
# `dpsco account` prints 12 significant digits.
PRINTED_REL_TOL = 1e-11


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))


def _quiet(argv) -> tuple[int, str]:
    """``dpsco.cli.main`` with its stdout captured, so terminal I/O stays out
    of the timings and the last line of our own stdout stays the result."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@dataclass
class Round:
    wall_s: float
    ops: int
    failed: int = 0
    warnings: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.errors.append(message)


class Sweep:
    """One ``dpsco run`` over the grid per round; one op is one trial."""

    ops_unit, items_unit = "trials", "examples"

    def __init__(self, name: str, algorithm: str, loss: dict, d: int, seed: int, workdir: Path,
                 reference: dict | None):
        self.name = name
        self.seed = seed
        self.reference = reference
        self.ops = len(GRID_N) * SWEEP_TRIALS
        self.items = sum(GRID_N) * SWEEP_TRIALS
        self.csv_path = workdir / f"{name}.csv"
        self.config_path = workdir / f"{name}.json"
        self._warm_path = workdir / f"{name}.warm.json"
        base = {"algorithm": algorithm, "loss": loss, "domain": {"kind": "ball", "radius": 1.0}}
        config = dict(base, grid=[{"n": n, "d": d, "rho": SWEEP_RHO} for n in GRID_N],
                      trials=SWEEP_TRIALS, seed=seed, output=str(self.csv_path))
        self.config_path.write_text(json.dumps(config, indent=1, sort_keys=True))
        warm = dict(base, grid=[{"n": 256, "d": d, "rho": SWEEP_RHO}], trials=2, seed=seed,
                    output=str(workdir / f"{name}.warm.csv"))
        self._warm_path.write_text(json.dumps(warm, indent=1, sort_keys=True))
        self._first_csv: bytes | None = None

    def warm_up(self) -> None:
        rc, _ = _quiet(["run", "--config", str(self._warm_path)])
        if rc != 0:
            raise RuntimeError(f"warm-up sweep exited with code {rc}")

    def run_round(self, span, after_timed) -> Round:
        t0 = time.perf_counter()
        try:
            rc, _ = _quiet(["run", "--config", str(self.config_path)])
            error = None if rc == 0 else f"dpsco run exited with code {rc}"
        except Exception:  # noqa: BLE001 - a raising op is a failed op, not a crash
            error = traceback.format_exc(limit=3)
        result = Round(time.perf_counter() - t0, self.ops)
        after_timed(result.wall_s)
        if error is not None:
            result.fail(self.ops, error)
            return result
        try:
            self._check(result)
        except (KeyError, ValueError) as exc:
            result.fail(self.ops, f"unreadable sweep CSV: {exc!r}")
        return result

    def _check(self, result: Round) -> None:
        data = self.csv_path.read_bytes()
        if self._first_csv is None:
            self._first_csv = data
        elif data != self._first_csv:
            result.fail(self.ops, "sweep CSV differs from the first round's")
            return
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if [int(r["n"]) for r in rows] != list(GRID_N):
            result.fail(self.ops, f"sweep CSV rows {[r['n'] for r in rows]} != grid {GRID_N}")
            return
        reference = None if self.reference is None else self.reference["mean_excess"]
        for i, row in enumerate(rows):
            mean, ratio = float(row["mean"]), float(row["ratio"])
            if not (math.isfinite(mean) and 0.0 <= ratio < 1.0):
                result.fail(SWEEP_TRIALS, f"n={row['n']}: mean {mean}, ratio {ratio} not < 1")
            elif reference is not None and not _close(mean, reference[i], SWEEP_REL_TOL):
                result.fail(SWEEP_TRIALS, f"n={row['n']}: mean {mean!r} != reference {reference[i]!r}")

    def reference_entry(self) -> dict:
        rows = list(csv.DictReader(io.StringIO(self._first_csv.decode())))
        return {"seed": self.seed, "mean_excess": [float(r["mean"]) for r in rows]}


@dataclass(frozen=True)
class Query:
    index: int  # position in T order; keys the stored reference
    kind: str
    T: int
    d: int
    rho_target: float
    batch: int  # constant-batch queries only
    schedule_file: str | None  # set for queries sent through `dpsco account`


def make_queries(seed: int, workdir: Path) -> list[Query]:
    rng = np.random.default_rng(seed)
    lo, hi = LOG10_T_RANGE
    log_t = lo + (hi - lo) * (np.arange(N_QUERIES) + rng.random(N_QUERIES)) / N_QUERIES
    steps = np.clip(np.rint(10.0 ** log_t), 10 ** lo, 10 ** hi).astype(int)
    rho_lo, rho_hi = np.log10(RHO_TARGET_RANGE)
    targets = 10.0 ** rng.uniform(rho_lo, rho_hi, N_QUERIES)
    queries = []
    for i in range(N_QUERIES):
        kind, d = KINDS[i % len(KINDS)], DIMS[(i // len(KINDS)) % len(DIMS)]
        T, rho_target = int(steps[i]), float(targets[i])
        batch = max(1, math.ceil(2.0 * math.sqrt(d) / rho_target))
        path = None
        if i < N_QUERIES // 2 and i % CLI_EVERY == 0:
            path = workdir / f"schedule-{i:03d}.json"
            path.write_text(_schedule(kind, T, d, rho_target, batch).to_json())
        queries.append(Query(i, kind, T, d, rho_target, batch,
                             None if path is None else str(path)))
    return [queries[j] for j in rng.permutation(N_QUERIES)]


def _schedule(kind: str, T: int, d: int, rho_target: float, batch: int):
    sigma = LIPSCHITZ / math.sqrt(d)
    if kind == "constant":
        eta = DIAMETER / (math.sqrt(2.0) * LIPSCHITZ * math.sqrt(T))
        return schedules.Schedule.constant(T, batch, eta, sigma)
    if kind == "snowball_sz":
        batches = schedules.snowball_batches(T, d, rho_target, schedules.MULTIPLIER_SZ)
        steps = schedules.constant_step(T, DIAMETER, math.sqrt(2.0) * LIPSCHITZ)
    else:
        batches = schedules.snowball_batches(T, d, rho_target, schedules.MULTIPLIER_JNN)
        steps = schedules.jnn_steps(T, DIAMETER / (math.sqrt(2.0) * LIPSCHITZ))
    return schedules.Schedule(tuple(batches), tuple(steps), (sigma,) * T)


def _api_query(q: Query):
    budget = accountant.pai_rho(_schedule(q.kind, q.T, q.d, q.rho_target, q.batch), LIPSCHITZ)
    return budget.rho, [(accountant.rdp_to_dp(budget, delta),
                         accountant.rdp_to_dp_general(budget, delta)) for delta in DELTAS]


_CLI_DELTAS = [arg for delta in DELTAS for arg in ("--delta", repr(delta))]


def _cli_query(q: Query):
    return _quiet(["account", "--schedule", q.schedule_file,
                   "--lipschitz", repr(LIPSCHITZ)] + _CLI_DELTAS)


def _parse_account(text: str):
    """(rho, [(eps, eps_alpha_opt) per delta]) from `dpsco account` output."""
    lines = text.splitlines()
    rho = float(lines[0].split(":", 1)[1])
    eps = []
    for line in lines[1:]:
        fields = dict(part.split("=", 1) for part in line.split())
        eps.append((float(fields["eps"]), float(fields["eps_alpha_opt"])))
    return rho, eps


class Accounting:
    """A fixed list of accounting queries per round; one op is one query."""

    ops_unit, items_unit = "queries", "accounted steps"

    def __init__(self, seed: int, workdir: Path, reference: dict | None,
                 max_steps: int | None = None):
        self.name = "accounting"
        self.seed = seed
        self.reference = reference
        self.queries = [q for q in make_queries(seed, workdir)
                        if max_steps is None or q.T <= max_steps]
        self.ops = len(self.queries)
        self.items = sum(q.T for q in self.queries)
        self._first_rho: list[float] | None = None

    def warm_up(self) -> None:
        small = Query(-1, "snowball_jnn", 100, 16, 1.0, 1, None)
        _api_query(small)
        cli_query = next(q for q in self.queries if q.schedule_file is not None)
        rc, _ = _cli_query(cli_query)
        if rc != 0:
            raise RuntimeError(f"warm-up `dpsco account` exited with code {rc}")

    def run_round(self, span, after_timed) -> Round:
        outputs = []
        latencies = []
        clock = time.perf_counter
        for q in self.queries:
            t0 = clock()
            try:
                with span(QUERY):
                    out = _cli_query(q) if q.schedule_file is not None else _api_query(q)
            except Exception:  # noqa: BLE001 - a raising op is a failed op, not a crash
                out = traceback.format_exc(limit=3)
            seconds = clock() - t0
            after_timed(seconds)
            latencies.append(1e3 * seconds)
            outputs.append(out)
        result = Round(sum(latencies) / 1e3, self.ops, latencies_ms=latencies)
        self._check(result, outputs)
        return result

    def _check(self, result: Round, outputs) -> None:
        reference = None if self.reference is None else self.reference["rho"]
        rhos = []
        for i, (q, out) in enumerate(zip(self.queries, outputs)):
            rho = math.nan
            if isinstance(out, str):
                problem = out
            else:
                if q.schedule_file is not None:
                    rc, text = out
                    try:
                        rho, eps = _parse_account(text) if rc == 0 else (math.nan, [])
                    except (IndexError, KeyError, ValueError):
                        rho, eps = math.nan, []
                    tol = PRINTED_REL_TOL
                else:
                    rho, eps = out
                    tol = RHO_REL_TOL
                problem = self._problem(q, rho, eps, tol)
                if problem is None and reference is not None and not _close(
                        rho, reference[q.index], RHO_REL_TOL):
                    problem = f"rho {rho!r} != reference {reference[q.index]!r}"
                if problem is None and self._first_rho is not None and rho != self._first_rho[i]:
                    problem = f"rho {rho!r} differs from the first round's {self._first_rho[i]!r}"
            rhos.append(rho)
            if problem is not None:
                result.fail(1, f"query {i} ({q.kind}, T={q.T}, d={q.d}): {problem}")
        if self._first_rho is None:
            self._first_rho = rhos

    @staticmethod
    def _problem(q: Query, rho: float, eps, tol: float) -> str | None:
        if not (math.isfinite(rho) and rho > 0.0):
            return f"rho = {rho}"
        if q.kind == "constant":
            # the last step has the smallest suffix sum: rho = 2 L / (B sigma)
            exact = 2.0 * LIPSCHITZ / (q.batch * (LIPSCHITZ / math.sqrt(q.d)))
            if not _close(rho, exact, tol):
                return f"constant-batch rho {rho!r} != 2L/(B sigma) = {exact!r}"
        elif rho > q.rho_target * (1.0 + 1e-9):
            return f"snowball rho {rho!r} exceeds its target {q.rho_target!r}"
        if len(eps) != len(DELTAS):
            return f"{len(eps)} epsilon pairs for {len(DELTAS)} deltas"
        for delta, (closed, general) in zip(DELTAS, eps):
            if not _close(closed, general, tol):
                return f"delta={delta}: rdp_to_dp {closed!r} != rdp_to_dp_general {general!r}"
        return None

    def reference_entry(self) -> dict:
        rho = [None] * len(self.queries)
        for q, value in zip(self.queries, self._first_rho):
            rho[q.index] = value
        return {"seed": self.seed, "rho": rho}


def build(name: str, seed: int, workdir: Path, reference: dict | None = None):
    """The workload ``name`` with inputs made from ``seed`` under ``workdir``.
    With ``reference`` (the stored outputs for this seed) every round is also
    compared against it."""
    if reference is not None and reference["seed"] != seed:
        raise ValueError(f"reference is for seed {reference['seed']}, not {seed}")
    if name == "snowball_sweep":
        return Sweep(name, "snowball_sz",
                     {"family": "quadratic_sphere", "center": 0.0, "data_radius": 1.0},
                     16, seed, workdir, reference)
    if name == "phased_sweep":
        return Sweep(name, "phased_sgd",
                     {"family": "linear_regression_sphere", "feature_radius": 1.0,
                      "w_true": 0.1, "noise_half_width": 0.1},
                     64, seed, workdir, reference)
    if name == "accounting":
        return Accounting(seed, workdir, reference)
    raise ValueError(f"unknown workload {name!r}")


def build_verification(name: str, workdir: Path, reference: dict):
    """The default seed's inputs, checked against ``reference``; for
    accounting only the queries with T <= VERIFY_MAX_STEPS."""
    if name == "accounting":
        return Accounting(DEFAULT_SEED, workdir, reference, VERIFY_MAX_STEPS)
    return build(name, DEFAULT_SEED, workdir, reference)

