"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is fixed
here, not calibrated at runtime; all randomness is seeded, so reruns are
bit-identical (criterion 12 checks this on the CSV artifacts).
"""

import math
import time

import numpy as np
import pytest

from dpsco.accountant import gaussian_renyi, pai_rho
from dpsco.empirics import (
    counterexample_empirical,
    counterexample_exact,
    counterexample_to_csv,
    excess_loss_sweep,
    sensitivity_probe,
    sweep_to_csv,
)
from dpsco.geometry import ConvexDomain
from dpsco.losses import (
    Dataset,
    LossFamily,
    absolute_deviation_uniform,
    logistic_sphere,
    quadratic_sphere,
)
from dpsco.optimizers import NoiseStream, phased_erm, psgd, sc_snowball, sc_weighted_sgd
from dpsco.schedules import Schedule, phase_plan, snowball_batches

from contraction import check_contraction, gradient_step_map
from test_accountant import brute_force_pai_rho, renyi_divergence_quadrature

SEED = 20260808


def report(number: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number}: {label}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s runtime budget"


def quadratic_over_ball(d: int):
    """The canonical closed-form family: D = 2, L = 2, beta = lam = 1."""
    domain = ConvexDomain.ball([0.0] * d, 1.0)
    return quadratic_sphere(domain, [0.0] * d, 1.0)


def test_criterion_01_privacy_formula_reproduction():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(100):
        T = int(rng.integers(1, 60))
        sched = Schedule(
            tuple(int(b) for b in rng.integers(1, 8, size=T)),
            tuple(float(e) for e in rng.uniform(0.001, 3.0, size=T)),
            tuple(float(s) for s in rng.uniform(0.05, 4.0, size=T)),
        )
        L = float(rng.uniform(0.1, 5.0))
        fast = pai_rho(sched, L).rho
        slow = brute_force_pai_rho(sched, L)
        ok &= abs(fast - slow) <= 1e-12 * max(slow, 1e-300)
    report(1, "pai_rho matches O(T^2) brute force to 1e-12 on 100 schedules",
           ok, time.perf_counter() - start, 1.0)


def test_criterion_02_snowball_self_consistency():
    start = time.perf_counter()
    L = 2.0
    ok = True
    for d in (1, 16, 256):
        sigma = L / math.sqrt(d)
        for rho0 in (0.1, 1.0, 10.0):
            for T in range(1, 1001):
                batches = snowball_batches(T, d, rho0)
                eta = 2.0 / (L * math.sqrt(2.0 * T))  # D/(L sqrt(2T)) with D = 2
                sched = Schedule(tuple(batches), (eta,) * T, (sigma,) * T)
                ok &= pai_rho(sched, L).rho <= rho0 * (1.0 + 1e-9)
                ok &= sum(batches) <= T + 4.0 * math.sqrt(d * T) / rho0
                if not ok:
                    break
    report(2, "snowball schedules meet their rho target and sample bound",
           ok, time.perf_counter() - start, 5.0)


def test_criterion_03_gaussian_renyi_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 3)
    ok = True
    for _ in range(50):
        a = float(rng.uniform(0.0, 3.0))
        sigma = float(rng.uniform(0.3, 3.0))
        alpha = float(rng.uniform(1.05, 10.0))
        ok &= abs(gaussian_renyi(a, sigma, alpha)
                  - renyi_divergence_quadrature(a, sigma, alpha)) <= 1e-6
    report(3, "analytic Gaussian Renyi divergence matches 1-D quadrature to 1e-6",
           ok, time.perf_counter() - start, 5.0)


def test_criterion_04_sensitivity_bound_and_attainment():
    start = time.perf_counter()
    d = 2
    domain = ConvexDomain.ball([0.0] * d, 1.0)
    pairs_per_family = 5000
    n, eta_q = 20, 0.5
    quad = quadratic_sphere(domain, [0.0] * d, 1.0)
    rep_q = sensitivity_probe(quad, n=n, eta=eta_q, num_pairs=pairs_per_family,
                              seed=SEED + 4)
    logi = logistic_sphere(domain, 1.0, [0.2, -0.1])
    eta_l = 1.0  # 2/beta = 8 for feature radius 1
    rep_l = sensitivity_probe(logi, n=n, eta=eta_l, num_pairs=pairs_per_family,
                              seed=SEED + 5)
    ok = rep_q.max_observed <= rep_q.bound + 1e-9
    ok &= rep_l.max_observed <= rep_l.bound + 1e-9

    # 1-D worst case: tiny domain, wide data, single noiseless step
    tiny = ConvexDomain.ball([0.0], 1.0)
    loss = LossFamily("quadratic", lipschitz=200.0, smoothness=1.0, strong_convexity=1.0)
    eta1 = 0.004
    rec_a = psgd(Dataset(np.array([[199.0]])), loss, tiny, [0.0], [eta1])
    rec_b = psgd(Dataset(np.array([[-199.0]])), loss, tiny, [0.0], [eta1])
    attained = abs(float(rec_a.final_iterate[0] - rec_b.final_iterate[0]))
    ok &= attained >= 0.99 * 2.0 * loss.lipschitz * eta1
    ok &= attained <= 2.0 * loss.lipschitz * eta1 + 1e-9
    report(4, "10^4 coupled neighbor pairs stay within 2 L eta; 1-D case attains it",
           ok, time.perf_counter() - start, 60.0)


def test_criterion_05_contraction_threshold():
    start = time.perf_counter()
    beta = 2.5
    ball = ConvexDomain.ball([0.0, 0.0, 0.0], 2.0)
    ok = True
    for H in (np.diag([beta] * 3), np.diag([beta, beta / 2.0, beta / 8.0])):
        for eta in (0.3 / beta, 1.7 / beta, 2.0 / beta):
            step = gradient_step_map(lambda w, H=H: H @ w, eta)
            ok &= check_contraction(step, ball, 400, SEED + 6).max_ratio <= 1.0 + 1e-9
    # isotropic case scales every difference by |1 - 3| = 2 at eta = 3/beta
    step = gradient_step_map(lambda w: beta * w, 3.0 / beta)
    ok &= check_contraction(step, ball, 400, SEED + 7).max_ratio >= 1.5
    report(5, "gradient steps contract iff eta <= 2/beta on smooth quadratics",
           ok, time.perf_counter() - start, 5.0)


def test_criterion_06_convex_utility_scaling():
    start = time.perf_counter()
    d, rho = 16, 1.0
    dist = quadratic_over_ball(d)
    D, L = dist.domain.diameter, dist.loss.lipschitz
    grid = [(2**10, d, rho), (2**12, d, rho), (2**14, d, rho)]
    ok = True
    sz = excess_loss_sweep(dist, "snowball_sz", grid, trials=50, seed=SEED)
    for r in sz:
        crit_bound = math.sqrt(32.0) * math.log(10.0 * r.n) * D * L * (
            1.0 / math.sqrt(r.n) + math.sqrt(d) / (rho * r.n))
        ok &= r.mean_excess <= crit_bound + 3.0 * r.std_err
    jnn = excess_loss_sweep(dist, "snowball_jnn", grid, trials=50, seed=SEED)
    for r in jnn:
        crit_bound = 30.0 * math.sqrt(2.0) * D * L * (
            1.0 / math.sqrt(r.n) + math.sqrt(d) / (rho * r.n))
        ok &= r.mean_excess <= crit_bound + 3.0 * r.std_err
    # statistical-error-dominated regime (sqrt(d)/rho << sqrt(n)): the
    # constant-step sweep must scale like 1/sqrt(n)
    slope = float(np.polyfit(np.log([r.n for r in sz]),
                             np.log([r.mean_excess for r in sz]), 1)[0])
    ok &= -0.65 <= slope <= -0.35
    report(6, f"snowball excess within theorem bounds; SZ slope {slope:.2f} in [-0.65,-0.35]",
           ok, time.perf_counter() - start, 600.0)


def test_criterion_07_phased_sgd_bound():
    start = time.perf_counter()
    d, rho = 16, 1.0
    dist = quadratic_over_ball(d)
    D, L = dist.domain.diameter, dist.loss.lipschitz
    grid = [(2**10, d, rho), (2**12, d, rho), (2**14, d, rho)]
    results = excess_loss_sweep(dist, "phased_sgd", grid, trials=50, seed=SEED)
    ok = True
    for r in results:
        bound = 10.0 * L * D * (1.0 / math.sqrt(r.n) + math.sqrt(d) / (rho * r.n))
        ok &= r.mean_excess <= bound + 3.0 * r.std_err
    report(7, "phased SGD excess within 10 L D (1/sqrt(n) + sqrt(d)/(rho n))",
           ok, time.perf_counter() - start, 600.0)


def test_criterion_08_strongly_convex_weighted_average():
    start = time.perf_counter()
    domain = ConvexDomain.ball([0.0], 1.0)
    dist = quadratic_sphere(domain, [0.0], 1.0)  # 1-D, lam = 1, L = 2
    L, lam = dist.loss.lipschitz, dist.loss.strong_convexity
    ok = True
    for T in (10**3, 10**4):
        excesses = np.empty(50)
        for trial in range(50):
            data = dist.sample_dataset(T, rng_seed=SEED + 100 * T + trial)
            rec = sc_weighted_sgd(data, dist.loss, domain, [1.0], T, noise_scale=0.0)
            excesses[trial] = dist.excess_loss(rec.weighted_average)
        mean = float(np.mean(excesses))
        sem = float(np.std(excesses, ddof=1) / math.sqrt(50))
        bound = 5.0 * L * L * math.log(T) / (lam * T)
        ok &= mean <= bound + 3.0 * sem
    report(8, "fixed-step weighted average meets 5 L^2 log T / (lam T)",
           ok, time.perf_counter() - start, 120.0)


def test_criterion_09_strongly_convex_snowball():
    start = time.perf_counter()
    d, rho = 16, 1.0
    dist = quadratic_over_ball(d)
    L, lam = dist.loss.lipschitz, dist.loss.strong_convexity
    ok = True
    # declared budget must equal the accountant's value exactly
    rng = np.random.default_rng(SEED + 9)
    for _ in range(10):
        T = int(rng.integers(2, 60))
        dd = int(rng.integers(1, 5))
        r0 = float(rng.uniform(0.2, 4.0))
        dom = ConvexDomain.ball([0.0] * dd, 1.0)
        di = quadratic_sphere(dom, [0.0] * dd, 1.0)
        batches = snowball_batches(T, dd, r0)
        data = di.sample_dataset(sum(batches), rng_seed=int(rng.integers(2**31)))
        rec = sc_snowball(data, di.loss, dom, [0.0] * dd, T, dd, r0, NoiseStream(7))
        eta = 2.0 * math.log(T) / T
        sched = Schedule(tuple(batches), (eta,) * T, (di.loss.lipschitz / math.sqrt(dd),) * T)
        want = pai_rho(sched, di.loss.lipschitz).rho
        ok &= abs(rec.declared_budget.rho - want) <= 1e-12 * max(want, 1.0)
    results = excess_loss_sweep(dist, "sc_snowball", [(2**12, d, rho), (2**14, d, rho)],
                                trials=50, seed=SEED)
    for r in results:
        logn = math.log(r.n)
        bound = 40.0 * L * L * logn * logn / lam * (
            1.0 / r.n + 16.0 * d / (rho * rho * r.n * r.n))
        ok &= r.mean_excess <= bound + 3.0 * r.std_err
    report(9, "sc snowball budget equals accountant; excess within 40 L^2 log^2 n bound",
           ok, time.perf_counter() - start, 600.0)


def test_criterion_10_average_iterate_counterexample():
    start = time.perf_counter()
    T = 10**4
    sigma = 1.0 / math.sqrt(T)
    k_mid = math.ceil(math.sqrt(T))
    mid = counterexample_exact(T, k_mid, sigma, 1.0).rdp_average(2.0)
    low = counterexample_exact(T, 1, sigma, 1.0).rdp_average(2.0)
    high = counterexample_exact(T, T, sigma, 1.0).rdp_average(2.0)
    ok = mid >= 10.0 * low and mid >= 10.0 * high
    trials = 10**4
    for k in (1, k_mid, T):
        rep = counterexample_empirical(T, k, sigma, trials, seed=SEED + k)
        ok &= abs(rep.accuracy - rep.predicted_accuracy) <= 3.0 / math.sqrt(trials)
    report(10, "intermediate-k averaging leaks >= 10x; accuracy tracks Gaussian prediction",
           ok, time.perf_counter() - start, 60.0)


def test_criterion_11_phased_erm_nonsmooth():
    start = time.perf_counter()
    n, delta = 2**12, 1e-5
    domain = ConvexDomain.ball([0.0], 1.0)
    dist = absolute_deviation_uniform(domain, median=0.3, half_width=1.0)
    L, D = dist.loss.lipschitz, domain.diameter
    eta = (D / L) * min(4.0 / math.sqrt(n), 1.0 / math.sqrt(1.0 * math.log(1.0 / delta)))
    data = dist.sample_dataset(n, rng_seed=SEED + 11)
    exact = phased_erm(data, dist.loss, domain, [-1.0], eta, epsilon=1.0, delta=delta,
                       noise=NoiseStream(SEED), inner="exact", sigma_scale=0.0)
    ok = dist.excess_loss(exact.final_iterate) <= 4.0 * L * D / math.sqrt(n)
    certified = phased_erm(data, dist.loss, domain, [-1.0], eta, epsilon=1.0, delta=delta,
                           noise=NoiseStream(SEED), inner="sgd", sigma_scale=0.0)
    cap = 8.0 * sum(ni * ni for ni, _ in phase_plan(n, eta))
    cap *= max(1.0, math.log(1.0 / delta))
    ok &= certified.gradient_evaluations <= cap
    ok &= dist.excess_loss(certified.final_iterate) <= 4.0 * L * D / math.sqrt(n)
    report(11, "phased ERM converges on the non-smooth family within its oracle budget",
           ok, time.perf_counter() - start, 300.0)


def test_criterion_12_deterministic_artifacts(tmp_path):
    start = time.perf_counter()
    d = 2
    dist = quadratic_over_ball(d)
    grid = [(256, d, 1.0), (512, d, 1.0)]
    ok = True
    blobs = []
    for rep in range(2):
        sweep_path = tmp_path / f"sweep{rep}.csv"
        rows = []
        for algo in ("snowball_sz", "phased_sgd"):
            rows.extend(excess_loss_sweep(dist, algo, grid, trials=5, seed=SEED))
        sweep_to_csv(rows, sweep_path)
        ce_path = tmp_path / f"ce{rep}.csv"
        reports = []
        for k in (1, 8, 64):
            exact = counterexample_exact(64, k, 0.125, 1.0)
            emp = counterexample_empirical(64, k, 0.125, 500, seed=SEED)
            reports.append((exact, emp.accuracy))
        counterexample_to_csv(reports, ce_path)
        blobs.append((sweep_path.read_bytes(), ce_path.read_bytes()))
    ok &= blobs[0] == blobs[1]
    report(12, "identical seeds reproduce CSV artifacts byte-for-byte",
           ok, time.perf_counter() - start, 120.0)
