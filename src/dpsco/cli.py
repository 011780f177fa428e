"""Command-line front end: config-driven sweeps, accounting queries, the
averaging counterexample, and sensitivity probes.

No numerical logic lives here; every subcommand is a thin adapter over the
library. Experiment sweeps are driven by JSON configs (they have too many
axes for flags); quick queries use flags. All randomness flows from seeds
named in the config or on the command line - a missing seed is an error.

Exit codes: 0 success; 2 usage error, or a refusal: any ``ValueError`` or
``OSError`` a subcommand raises is printed by :func:`main` as one line,
``<command> refused: <message>``; 3 runtime invariant violation (a sweep
flushes partial results with a ``partial`` manifest flag).

The CLI owns its process, so :func:`main` also sets one process-wide policy
that importing the library does not: under glibc it pins malloc's mmap and
trim thresholds (see :func:`_pin_malloc_thresholds`), so the megabytes each
sweep trial or accounting query frees are reused, not returned to the kernel
and faulted in again by the next one.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .accountant import pai_rho, rdp_to_dp, rdp_to_dp_general
from .empirics import (
    ALGORITHMS,
    counterexample_empirical,
    counterexample_exact,
    counterexample_to_csv,
    default_k_grid,
    excess_loss_sweep,
    sensitivity_probe,
    sweep_to_csv,
    sweepable,
)
from .geometry import ConvexDomain
from .losses import FAMILIES, SyntheticDistribution
from .schedules import Schedule, _real, _whole, _vector as _real_vector

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# glibc's mallopt parameters, and the ceilings its dynamic thresholds climb to
# on 64-bit: mmap at 32 MiB (DEFAULT_MMAP_THRESHOLD_MAX), trim at twice that
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _number(spec: dict, key: str, default: float | None = None) -> float:
    """``spec[key]``, or ``default`` when absent, as a finite float
    (:func:`dpsco.schedules._real`): not a bool, a string or null."""
    if key not in spec and default is None:
        raise ValueError(f"missing field {key!r}")
    return _real(spec.get(key, default), repr(key), "finite")


def _count(value, least: int, name: str) -> int:
    """A count through ``_whole``; an integer-valued float (JSON's 64.0) is its integer."""
    return _whole(int(value) if type(value) is float and value.is_integer() else value,
                  least, name)


def _vector(spec: dict, key: str, d: int, default: float | None = None) -> np.ndarray:
    """``spec[key]`` as a d-vector: one number for every coordinate, or a
    list of d numbers."""
    value = spec.get(key, default)
    if not isinstance(value, list):
        return np.full(d, _number(spec, key, default))
    return _real_vector(value, repr(key), dim=d)


def _object(spec, name: str) -> dict:
    if not isinstance(spec, dict):
        raise ValueError(f"{name} must be an object, got {spec!r}")
    return spec


def _build_domain(spec: dict, d: int) -> ConvexDomain:
    kind = _object(spec, "domain").get("kind", "ball")
    if kind == "ball":
        return ConvexDomain.ball(_vector(spec, "center", d, 0.0), _number(spec, "radius", 1.0))
    if kind == "box":
        return ConvexDomain.box(_vector(spec, "lower", d), _vector(spec, "upper", d))
    raise ValueError(f"unknown domain kind {kind!r}")


def _build_distribution(spec: dict, domain: ConvexDomain) -> SyntheticDistribution:
    """The family that ``spec["family"]`` names in :data:`dpsco.losses.FAMILIES`,
    each field read from ``spec`` or its default: a scalar by :func:`_number`,
    a vector by :func:`_vector`."""
    family = _object(spec, "loss").get("family")
    if not (isinstance(family, str) and family in FAMILIES):
        raise ValueError(f"unknown or missing loss family {family!r}")
    d = domain.dimension
    return FAMILIES[family].build(domain, *(
        _vector(spec, f.name, d, f.default) if f.vector else _number(spec, f.name, f.default)
        for f in FAMILIES[family].fields))


def _parse_run_config(obj) -> tuple[list[tuple[int, int, float]], int, int, float]:
    """Check a ``dpsco run`` config and return its parsed (grid, trials, seed,
    sigma_scale); the loss and domain are checked when they are built."""
    for key in ("algorithm", "loss", "domain", "grid", "trials", "seed", "output"):
        if key not in _object(obj, "config"):
            raise ValueError(f"config is missing required field {key!r}")
    if not (isinstance(obj["algorithm"], str) and obj["algorithm"] in ALGORITHMS):
        raise ValueError(f"unknown algorithm {obj['algorithm']!r}; "
                         f"known: {sorted(ALGORITHMS)}")
    if not (isinstance(obj["output"], str) and obj["output"]):
        raise ValueError(f"output must be a nonempty path, got {obj['output']!r}")
    grid = obj["grid"]
    if not isinstance(grid, list) or not grid:
        raise ValueError("grid must be a nonempty list")
    parsed_grid = []
    for entry in grid:
        try:
            n, d, rho = (entry[key] for key in ("n", "d", "rho"))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"grid entry {entry!r} must have n, d, rho") from exc
        try:
            parsed_grid.append((_count(n, 1, "n"), _count(d, 1, "d"), _real(rho, "rho")))
        except ValueError as exc:
            raise ValueError(f"grid entry {entry!r}: {exc}") from None
    sigma_scale = _real(_object(obj.get("overrides", {}), "overrides").get("sigma_scale", 1.0),
                        "overrides.sigma_scale", "nonnegative and finite")
    return (parsed_grid, _count(obj["trials"], 2, "trials"), _count(obj["seed"], 0, "seed"),
            sigma_scale)


def cmd_run(args) -> int:
    with open(args.config) as fh:
        raw = fh.read()
    cfg = json.loads(raw)
    grid, trials, seed, sigma_scale = _parse_run_config(cfg)
    # every grid point's problem is built, and refused where no trial could
    # run on it, before the first trial, so nothing is written
    problems = [sweepable(_build_distribution(cfg["loss"], _build_domain(cfg["domain"], d)),
                          n, d, trials) for n, d, _ in grid]

    manifest = {
        "config": cfg,
        "config_sha256": hashlib.sha256(raw.encode()).hexdigest(),
        "version": __version__,
        "seed_rule": "SeedSequence(seed, spawn_key=(grid_index, trial, 0|1)) -> data|noise seed",
        "partial": False,
    }
    results, failure = [], None
    try:
        for gi, (point, dist) in enumerate(zip(grid, problems)):
            results += excess_loss_sweep(dist, cfg["algorithm"], [point], trials, seed,
                                         sigma_scale=sigma_scale, grid_index_base=gi)
    except Exception as exc:  # noqa: BLE001 - flush partial results, then report
        failure = exc
        manifest["partial"] = True
        manifest["error"] = f"{type(exc).__name__}: {exc}"

    sweep_to_csv(results, cfg["output"])
    with open(cfg["output"] + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    if failure is not None:
        print(f"runtime error: {failure}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(results)} rows to {cfg['output']}")
    return EXIT_OK


def cmd_account(args) -> int:
    lipschitz = _real(args.lipschitz, "--lipschitz", "nonnegative and finite")
    if not args.delta:
        raise ValueError("at least one --delta is required")
    deltas = [_real(delta, "--delta", "in (0, 1)") for delta in args.delta]
    with open(args.schedule) as fh:
        schedule = Schedule.from_json(fh.read())
    budget = pai_rho(schedule, lipschitz)
    if budget.is_infinite:
        print("rho: infinite (some step has zero noise)")
        for delta in deltas:
            print(f"delta={delta:g}  eps=infinite")
        return EXIT_OK
    print(f"rho: {budget.rho:.12g}")
    for delta in deltas:
        eps_closed = rdp_to_dp(budget, delta)
        eps_general = rdp_to_dp_general(budget, delta)
        print(f"delta={delta:g}  eps={eps_closed:.12g}  eps_alpha_opt={eps_general:.12g}")
    return EXIT_OK


def cmd_counterexample(args) -> int:
    rows = []
    for k in args.k or default_k_grid(args.steps):
        report = counterexample_exact(args.steps, k, args.sigma, args.offset)
        emp = counterexample_empirical(args.steps, k, args.sigma, args.trials,
                                       args.seed, args.offset)
        rows.append((report, emp.accuracy))
    counterexample_to_csv(rows, args.output)
    print(f"wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


def cmd_probe_sensitivity(args) -> int:
    domain = ConvexDomain.ball(np.zeros(args.dimension), args.radius)
    family, radius = {"quadratic": ("quadratic_sphere", "data_radius"),
                      "logistic": ("logistic_sphere", "feature_radius")}[args.family]
    dist = _build_distribution({"family": family, radius: args.data_radius}, domain)
    report = sensitivity_probe(dist, args.n, args.eta, args.pairs, args.seed)
    print(f"max_observed: {report.max_observed:.12g}")
    print(f"bound_2Leta:  {report.bound:.12g}")
    return EXIT_OK if report.max_observed <= report.bound + 1e-9 else EXIT_RUNTIME


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dpsco`` parser, built once: parsing leaves it unchanged (an
    ``append`` option copies its default list before appending)."""
    parser = argparse.ArgumentParser(
        prog="dpsco",
        description="Differentially private stochastic convex optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON-configured excess-loss sweep")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=cmd_run)

    p_acc = sub.add_parser("account", help="privacy of a schedule file")
    p_acc.add_argument("--schedule", required=True, help="JSON with arrays B, eta, sigma")
    p_acc.add_argument("--lipschitz", type=float, required=True)
    p_acc.add_argument("--delta", type=float, action="append", default=[],
                       help="repeatable; at least one required")
    p_acc.set_defaults(func=cmd_account)

    p_ce = sub.add_parser("counterexample", help="averaged-iterate privacy failure study")
    p_ce.add_argument("--steps", type=int, required=True)
    p_ce.add_argument("--sigma", type=float, required=True)
    p_ce.add_argument("--k", type=int, action="append", default=[],
                      help="repeatable; default grid {1, T^(1/3), sqrt(T), T^(2/3), T}")
    p_ce.add_argument("--trials", type=int, default=10000)
    p_ce.add_argument("--seed", type=int, required=True)
    p_ce.add_argument("--offset", type=float, default=1.0)
    p_ce.add_argument("--output", required=True)
    p_ce.set_defaults(func=cmd_counterexample)

    p_probe = sub.add_parser("probe-sensitivity", help="empirical L2-sensitivity probe")
    p_probe.add_argument("--family", choices=("quadratic", "logistic"), default="quadratic")
    p_probe.add_argument("--n", type=int, default=32)
    p_probe.add_argument("--pairs", type=int, default=100)
    p_probe.add_argument("--eta", type=float, required=True)
    p_probe.add_argument("--seed", type=int, required=True)
    p_probe.add_argument("--dimension", type=int, default=2)
    p_probe.add_argument("--radius", type=float, default=1.0)
    p_probe.add_argument("--data-radius", type=float, default=1.0)
    p_probe.set_defaults(func=cmd_probe_sensitivity)

    return parser


@functools.cache
def _pin_malloc_thresholds() -> None:
    """Set glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB,
    once per process; elsewhere do nothing.

    By default glibc raises both only after a large free (trim = 2 x the
    largest mmap'd chunk freed so far), so a process that frees a few MiB at a
    time hands them back to the kernel and pays about a page fault per 4 KiB
    to take them again. The pinned values are the ceilings that rule climbs
    to, set at once. ``ctypes`` is imported here, so importing this module
    costs no more than before.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        libc = None
    if not (libc or "").startswith("glibc"):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"{args.command} refused: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
