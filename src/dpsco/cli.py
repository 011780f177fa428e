"""Command-line front end: config-driven sweeps, accounting queries, the
averaging counterexample, sensitivity probes, and contraction checks.

No numerical logic lives here; every subcommand is a thin adapter over the
library. Experiment sweeps are driven by JSON configs (they have too many
axes for flags); quick queries use flags. All randomness flows from seeds
named in the config or on the command line - a missing seed is an error.

Exit codes: 0 success, 2 usage or config error, 3 runtime invariant violation
(partial results are flushed with a ``partial`` manifest flag).
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
)
from .geometry import ConvexDomain, check_contraction, gradient_step_map
from .losses import (
    SyntheticDistribution,
    absolute_deviation_uniform,
    linear_regression_sphere,
    logistic_sphere,
    quadratic_gaussian,
    quadratic_point_mass,
    quadratic_sphere,
)
from .schedules import Schedule

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    pass


def _build_domain(spec: dict, d: int) -> ConvexDomain:
    kind = spec.get("kind", "ball")
    if kind == "ball":
        center = spec.get("center", 0.0)
        center = np.full(d, float(center)) if np.isscalar(center) else np.asarray(center)
        return ConvexDomain.ball(center, float(spec.get("radius", 1.0)))
    if kind == "box":
        lower = spec["lower"]
        upper = spec["upper"]
        lower = np.full(d, float(lower)) if np.isscalar(lower) else np.asarray(lower)
        upper = np.full(d, float(upper)) if np.isscalar(upper) else np.asarray(upper)
        return ConvexDomain.box(lower, upper)
    raise ConfigError(f"unknown domain kind {kind!r}")


def _build_distribution(spec: dict, domain: ConvexDomain) -> SyntheticDistribution:
    family = spec.get("family")
    d = domain.dimension
    if family == "quadratic_sphere":
        center = np.full(d, float(spec.get("center", 0.0)))
        return quadratic_sphere(domain, center, float(spec.get("data_radius", 1.0)))
    if family == "quadratic_point_mass":
        return quadratic_point_mass(domain, np.full(d, float(spec.get("center", 0.0))))
    if family == "quadratic_gaussian":
        return quadratic_gaussian(domain, np.full(d, float(spec.get("mean", 0.0))),
                                  float(spec.get("sigma", 1.0)))
    if family == "absolute_deviation_uniform":
        return absolute_deviation_uniform(domain, float(spec.get("median", 0.0)),
                                          float(spec.get("half_width", 1.0)))
    if family == "linear_regression_sphere":
        w_true = np.full(d, float(spec.get("w_true", 0.0)))
        return linear_regression_sphere(domain, float(spec.get("feature_radius", 1.0)),
                                        w_true, float(spec.get("noise_half_width", 0.0)))
    if family == "logistic_sphere":
        w_ref = np.full(d, float(spec.get("w_ref", 0.0)))
        return logistic_sphere(domain, float(spec.get("feature_radius", 1.0)), w_ref)
    raise ConfigError(f"unknown or missing loss family {family!r}")


def _parse_run_config(obj: dict) -> dict:
    for key in ("algorithm", "loss", "domain", "grid", "trials", "seed", "output"):
        if key not in obj:
            raise ConfigError(f"config is missing required field {key!r}")
    if obj["algorithm"] not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {obj['algorithm']!r}; known: {sorted(ALGORITHMS)}"
        )
    grid = obj["grid"]
    if not isinstance(grid, list) or not grid:
        raise ConfigError("grid must be a nonempty list")
    parsed_grid = []
    for entry in grid:
        try:
            parsed_grid.append((int(entry["n"]), int(entry["d"]), float(entry["rho"])))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"grid entry {entry!r} must have n, d, rho") from exc
    trials = int(obj["trials"])
    if trials < 2:
        raise ConfigError("trials must be >= 2")
    overrides = obj.get("overrides", {})
    sigma_scale = float(overrides.get("sigma_scale", 1.0))
    return {
        "algorithm": obj["algorithm"],
        "loss": obj["loss"],
        "domain": obj["domain"],
        "grid": parsed_grid,
        "trials": trials,
        "seed": int(obj["seed"]),
        "output": obj["output"],
        "sigma_scale": sigma_scale,
    }


def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = fh.read()
        cfg = _parse_run_config(json.loads(raw))
    except (OSError, json.JSONDecodeError, ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    manifest = {
        "config": json.loads(raw),
        "config_sha256": hashlib.sha256(raw.encode()).hexdigest(),
        "version": __version__,
        "seed_rule": "SeedSequence(seed, spawn_key=(grid_index, trial, 0|1)) -> data|noise seed",
        "partial": False,
    }
    results = []
    try:
        for gi, point in enumerate(cfg["grid"]):
            domain = _build_domain(cfg["domain"], point[1])
            dist = _build_distribution(cfg["loss"], domain)
            results += excess_loss_sweep(
                dist, cfg["algorithm"], [point], cfg["trials"],
                cfg["seed"], sigma_scale=cfg["sigma_scale"], grid_index_base=gi,
            )
    except Exception as exc:  # noqa: BLE001 - flush partial results, then report
        manifest["partial"] = True
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        sweep_to_csv(results, cfg["output"])
        with open(str(cfg["output"]) + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    sweep_to_csv(results, cfg["output"])
    with open(str(cfg["output"]) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    print(f"wrote {len(results)} rows to {cfg['output']}")
    return EXIT_OK


def cmd_account(args) -> int:
    try:
        with open(args.schedule) as fh:
            schedule = Schedule.from_json(fh.read())
    except (OSError, ValueError) as exc:
        print(f"schedule error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    budget = pai_rho(schedule, args.lipschitz)
    if budget.is_infinite:
        print("rho: infinite (some step has zero noise)")
        for delta in args.delta:
            print(f"delta={delta:g}  eps=infinite")
        return EXIT_OK
    print(f"rho: {budget.rho:.12g}")
    for delta in args.delta:
        eps_closed = rdp_to_dp(budget, delta)
        eps_general = rdp_to_dp_general(budget, delta)
        print(f"delta={delta:g}  eps={eps_closed:.12g}  eps_alpha_opt={eps_general:.12g}")
    return EXIT_OK


def cmd_counterexample(args) -> int:
    if args.k and any(k > args.steps or k < 1 for k in args.k):
        print("k values must lie in [1, T]", file=sys.stderr)
        return EXIT_CONFIG
    ks = args.k if args.k else default_k_grid(args.steps)
    rows = []
    for k in ks:
        report = counterexample_exact(args.steps, k, args.sigma, args.offset)
        emp = counterexample_empirical(args.steps, k, args.sigma, args.trials, args.seed)
        rows.append((report, emp.accuracy))
    counterexample_to_csv(rows, args.output)
    print(f"wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


def cmd_probe_sensitivity(args) -> int:
    domain = _build_domain({"kind": "ball", "radius": args.radius}, args.dimension)
    if args.family == "quadratic":
        center = np.zeros(args.dimension)
        dist = quadratic_sphere(domain, center, args.data_radius)
    elif args.family == "logistic":
        dist = logistic_sphere(domain, args.data_radius, np.zeros(args.dimension))
    else:
        print(f"unknown family {args.family!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = sensitivity_probe(dist, args.n, args.eta, args.pairs, args.seed)
    except ValueError as exc:
        print(f"probe refused: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"max_observed: {report.max_observed:.12g}")
    print(f"bound_2Leta:  {report.bound:.12g}")
    return EXIT_OK if report.max_observed <= report.bound + 1e-9 else EXIT_RUNTIME


def cmd_contraction_check(args) -> int:
    domain = _build_domain({"kind": "ball", "radius": args.radius}, args.dimension)
    grad_fn = lambda w: args.beta * w  # noqa: E731 - gradient of (beta/2) |w|^2
    report = check_contraction(
        gradient_step_map(grad_fn, args.eta), domain, args.pairs, args.seed
    )
    print(f"max_ratio: {report.max_ratio:.12g}")
    threshold = 1.0 + 1e-9
    print("contractive" if report.max_ratio <= threshold else "NOT contractive")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p_probe.add_argument("--family", default="quadratic")
    p_probe.add_argument("--n", type=int, default=32)
    p_probe.add_argument("--pairs", type=int, default=100)
    p_probe.add_argument("--eta", type=float, required=True)
    p_probe.add_argument("--seed", type=int, required=True)
    p_probe.add_argument("--dimension", type=int, default=2)
    p_probe.add_argument("--radius", type=float, default=1.0)
    p_probe.add_argument("--data-radius", type=float, default=1.0)
    p_probe.set_defaults(func=cmd_probe_sensitivity)

    p_con = sub.add_parser("contraction-check", help="sampled contraction ratio of a gradient step")
    p_con.add_argument("--beta", type=float, required=True)
    p_con.add_argument("--eta", type=float, required=True)
    p_con.add_argument("--dimension", type=int, default=2)
    p_con.add_argument("--radius", type=float, default=1.0)
    p_con.add_argument("--pairs", type=int, default=500)
    p_con.add_argument("--seed", type=int, required=True)
    p_con.set_defaults(func=cmd_contraction_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "account" and not args.delta:
        print("at least one --delta is required", file=sys.stderr)
        return EXIT_CONFIG
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
