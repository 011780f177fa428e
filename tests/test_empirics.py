"""Sweeps, sensitivity probes, and the averaged-iterate counterexample."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsco.accountant import gaussian_renyi
from dpsco.empirics import (
    ALGORITHMS,
    _snowball_plan,
    counterexample_empirical,
    counterexample_exact,
    counterexample_to_csv,
    default_k_grid,
    excess_loss_sweep,
    sensitivity_probe,
    sweep_to_csv,
)
from dpsco.geometry import ConvexDomain
from dpsco.losses import (
    Dataset,
    LossFamily,
    absolute_deviation_uniform,
    linear_regression_sphere,
    quadratic_point_mass,
    quadratic_sphere,
)
from dpsco.optimizers import psgd
from dpsco.schedules import MULTIPLIER_JNN, MULTIPLIER_SZ, snowball_batches

BALL2 = ConvexDomain.ball([0.0, 0.0], 1.0)


def oracle_largest_feasible_steps(n, d, rho, multiplier):
    """The binary search over T that sized snowball runs before the prefix-sum
    plan: every probe rebuilds a whole schedule."""

    def total(T):
        return int(sum(snowball_batches(T, d, rho, multiplier)))

    if total(1) > n:
        raise ValueError(f"n = {n} cannot fund even one step at d = {d}, rho = {rho}")
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if total(mid) <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


class TestSweepPlumbing:
    def test_snowball_plan_is_tight(self):
        for n in (16, 100, 1000):
            for d in (1, 4):
                batches = _snowball_plan(n, d, 1.0, MULTIPLIER_SZ)
                T = len(batches)
                assert batches.tolist() == snowball_batches(T, d, 1.0)
                assert sum(snowball_batches(T, d, 1.0)) <= n
                assert sum(snowball_batches(T + 1, d, 1.0)) > n

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 5000), d=st.integers(1, 256),
           rho=st.floats(0.05, 20.0, allow_nan=False),
           multiplier=st.sampled_from((MULTIPLIER_SZ, MULTIPLIER_JNN)))
    def test_snowball_plan_equals_binary_search(self, n, d, rho, multiplier):
        try:
            T = oracle_largest_feasible_steps(n, d, rho, multiplier)
        except ValueError as exc:
            with pytest.raises(ValueError, match="cannot fund") as got:
                _snowball_plan(n, d, rho, multiplier)
            assert str(got.value) == str(exc)
            return
        batches = _snowball_plan(n, d, rho, multiplier)
        assert batches.dtype == np.int64
        np.testing.assert_array_equal(batches, snowball_batches(T, d, rho, multiplier))

    def test_snowball_plan_at_scale(self):
        # n = 2^20 at d = 16: the binary search's largest case, T = 1 048 484
        T = oracle_largest_feasible_steps(2**20, 16, 1.0, MULTIPLIER_SZ)
        batches = _snowball_plan(2**20, 16, 1.0, MULTIPLIER_SZ)
        np.testing.assert_array_equal(batches, snowball_batches(T, 16, 1.0))

    def test_refuses_numeric_optimum(self):
        from dpsco.losses import logistic_sphere

        dist = logistic_sphere(BALL2, 1.0, [0.0, 0.0])
        with pytest.raises(ValueError, match="closed-form"):
            excess_loss_sweep(dist, "snowball_sz", [(64, 2, 1.0)], trials=2, seed=0)

    def test_bound_holds_on_small_grid(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        results = excess_loss_sweep(dist, "snowball_sz", [(128, 2, 1.0), (512, 2, 1.0)],
                                    trials=8, seed=3)
        for r in results:
            assert r.mean_excess <= r.theory_bound + 3 * r.std_err
            assert r.bound_ratio == r.mean_excess / r.theory_bound
            assert r.std_err >= 0

    def test_reproducible_bit_for_bit(self, tmp_path):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        grid = [(64, 2, 1.0)]
        a = excess_loss_sweep(dist, "phased_sgd", grid, trials=4, seed=11)
        b = excess_loss_sweep(dist, "phased_sgd", grid, trials=4, seed=11)
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep_to_csv(a, pa)
        sweep_to_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_noiseless_snowball_matches_plain_psgd(self):
        # with the noise scaled to zero and rho huge (all batches of one), the
        # growing-batch run degenerates to plain one-example-per-step SGD
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        n = 256
        huge_rho = 1e9
        results = excess_loss_sweep(dist, "snowball_sz", [(n, 2, huge_rho)],
                                    trials=10, seed=5, sigma_scale=0.0)
        # same step size as the snowball run uses (L_G = sqrt(2) L)
        D, L = BALL2.diameter, dist.loss.lipschitz
        eta = D / (math.sqrt(2.0) * L * math.sqrt(n))
        excesses = []
        for trial in range(10):
            data = dist.sample_dataset(n, rng_seed=700 + trial)
            rec = psgd(data, dist.loss, BALL2, [1.0, 0.0], [eta] * n)
            excesses.append(dist.excess_loss(rec.final_iterate))
        gap = abs(results[0].mean_excess - float(np.mean(excesses)))
        spread = 2.0 * (results[0].std_err + float(np.std(excesses) / math.sqrt(10)))
        assert gap <= spread

    def test_all_registered_algorithms_have_bounds(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        for name, algo in ALGORITHMS.items():
            assert algo.bound(dist, 1024, 2, 1.0) > 0

    def test_doubling_n_shrinks_excess_like_sqrt_two(self):
        # statistical-error-dominated regime: one doubling of n should shrink
        # the mean excess by roughly sqrt(2)
        d = 4
        domain = ConvexDomain.ball([0.0] * d, 1.0)
        dist = quadratic_sphere(domain, [0.0] * d, 1.0)
        res = excess_loss_sweep(dist, "snowball_sz", [(2**12, d, 1.0), (2**13, d, 1.0)],
                                trials=20, seed=31)
        factor = res[0].mean_excess / res[1].mean_excess
        assert 1.2 <= factor <= 1.8


class TestSensitivityProbe:
    def test_identical_datasets_zero_distance(self):
        dist = quadratic_point_mass(BALL2, [0.25, 0.0])
        report = sensitivity_probe(dist, n=10, eta=0.5, num_pairs=5, seed=0)
        # every example equals the center, so the replacement is a no-op
        assert report.max_observed == 0.0

    def test_probe_respects_bound(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        report = sensitivity_probe(dist, n=20, eta=0.4, num_pairs=60, seed=1)
        assert report.bound == pytest.approx(2 * dist.loss.lipschitz * 0.4)
        assert report.max_observed <= report.bound + 1e-9
        assert report.max_observed > 0.0

    def test_single_step_worst_case_attains_bound(self):
        # tiny domain next to wide data: the single-step gradient gap comes
        # within 0.5% of 2L, and no projection bites before measurement
        domain = ConvexDomain.ball([0.0], 1.0)
        loss = LossFamily("quadratic", lipschitz=200.0, smoothness=1.0, strong_convexity=1.0)
        eta = 0.004
        data_a = Dataset(np.array([[199.0]]))
        data_b = Dataset(np.array([[-199.0]]))
        rec_a = psgd(data_a, loss, domain, [0.0], [eta])
        rec_b = psgd(data_b, loss, domain, [0.0], [eta])
        observed = abs(float(rec_a.final_iterate[0] - rec_b.final_iterate[0]))
        assert observed >= 0.99 * 2 * loss.lipschitz * eta
        assert observed <= 2 * loss.lipschitz * eta + 1e-9

    def test_rejects_overlong_step(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            sensitivity_probe(dist, n=10, eta=3.0, num_pairs=5, seed=0)

    def test_rejects_data_beyond_declared_smoothness(self):
        # the sampler draws features of norm 3 (beta = 9) for a loss declaring
        # beta = 1, so eta = 1.5 passes the 2/beta check but is not contractive
        dist = linear_regression_sphere(BALL2, 3.0, [0.0, 0.0], 1.0)
        dist = dataclasses.replace(dist, loss=dataclasses.replace(dist.loss, smoothness=1.0))
        with pytest.raises(ValueError, match="declared beta"):
            sensitivity_probe(dist, n=16, eta=1.5, num_pairs=3, seed=0)

    def test_rejects_nonsmooth_loss(self):
        # for a non-smooth loss one-pass SGD's sensitivity is not bounded by
        # 2 L eta, so there is no bound to report against
        dist = absolute_deviation_uniform(ConvexDomain.ball([0.0], 1.0), 0.0, 1.0)
        with pytest.raises(ValueError, match="not smooth"):
            sensitivity_probe(dist, n=64, eta=0.05, num_pairs=5, seed=0)


class TestCounterexampleExact:
    def test_single_step_equals_gaussian_mechanism(self):
        report = counterexample_exact(T=1, k=1, sigma=0.5, x0_offset=1.0)
        for alpha in (1.5, 2.0, 8.0):
            expected = gaussian_renyi(1.0, 0.5, alpha)
            assert report.rdp_average(alpha) == pytest.approx(expected, rel=1e-12)
            assert report.rdp_last(alpha) == pytest.approx(expected, rel=1e-12)

    def test_full_accumulation_last_iterate_is_single_gaussian(self):
        # k = T: the last iterate is X_0 plus T noise terms, a single Gaussian
        # with scale sigma sqrt(T)
        T, sigma, x0 = 25, 0.3, 1.4
        report = counterexample_exact(T=T, k=T, sigma=sigma, x0_offset=x0)
        for alpha in (1.0, 2.0, 6.0):
            expected = gaussian_renyi(x0, sigma * math.sqrt(T), alpha)
            assert report.rdp_last(alpha) == pytest.approx(expected, rel=1e-12)

    def test_k_one_large_T_vanishes(self):
        T = 1000
        report = counterexample_exact(T=T, k=1, sigma=1.0, x0_offset=1.0)
        # variance = sigma^2 (1 + T - 1)/T^2 = sigma^2 / T, shift = 1/T
        assert report.variance == pytest.approx(1.0 / T, rel=1e-12)
        assert report.rdp_average(2.0) == pytest.approx(2.0 / (2.0 * T), rel=1e-12)
        assert report.rdp_last(2.0) == 0.0

    def test_variance_matches_simulation(self):
        # the closed form uses the exact triangular-square sum rather than an
        # order-of-magnitude cubic; verify against a direct simulation before
        # trusting it
        rng = np.random.default_rng(17)
        T, k, sigma = 40, 12, 0.7
        trials = 200_000
        x = np.zeros(trials)
        avg = np.zeros(trials)
        for t in range(1, T + 1):
            noise = sigma * rng.standard_normal(trials)
            x = x + noise if t <= k else noise
            avg += x
        avg /= T
        report = counterexample_exact(T, k, sigma, x0_offset=1.0)
        sim_var = float(np.var(avg))
        assert sim_var == pytest.approx(report.variance, rel=0.02)

    def test_intermediate_k_blows_up(self):
        T = 10_000
        sigma = 1.0 / math.sqrt(T)
        values = {
            k: counterexample_exact(T, k, sigma, 1.0).rdp_average(2.0)
            for k in default_k_grid(T)
        }
        assert values[math.ceil(math.sqrt(T))] >= 10.0 * values[1]
        assert values[math.ceil(math.sqrt(T))] >= 10.0 * values[T]

    def test_k_range_checked(self):
        with pytest.raises(ValueError):
            counterexample_exact(5, 6, 1.0, 1.0)
        with pytest.raises(ValueError):
            counterexample_exact(5, 0, 1.0, 1.0)

    def test_oco_flag_scales_location_not_divergence(self):
        plain = counterexample_exact(100, 10, 0.1, 1.0)
        oco = counterexample_exact(100, 10, 0.1, 1.0, oco=True)
        assert oco.mean_shift == pytest.approx(plain.mean_shift / 10.0, rel=1e-12)
        assert oco.variance == pytest.approx(plain.variance / 100.0, rel=1e-12)
        assert oco.rdp_average(2.0) == pytest.approx(plain.rdp_average(2.0), rel=1e-12)


class TestCounterexampleEmpirical:
    def test_no_signal_at_huge_noise(self):
        report = counterexample_empirical(T=1, k=1, sigma=1e6, trials=4000, seed=0)
        assert abs(report.accuracy - 0.5) < 0.03
        assert abs(report.predicted_accuracy - 0.5) < 1e-6

    def test_zero_noise_perfect(self):
        report = counterexample_empirical(T=8, k=3, sigma=0.0, trials=200, seed=0)
        assert report.accuracy == 1.0
        assert report.predicted_accuracy == 1.0

    def test_accuracy_tracks_gaussian_prediction(self):
        T, trials = 1000, 10_000
        sigma = 1.0 / math.sqrt(T)
        for k in default_k_grid(T):
            report = counterexample_empirical(T, k, sigma, trials, seed=k)
            assert abs(report.accuracy - report.predicted_accuracy) <= 3.0 / math.sqrt(trials)

    def test_trials_precondition(self):
        with pytest.raises(ValueError):
            counterexample_empirical(10, 2, 1.0, trials=99, seed=0)


class TestCsv:
    def test_counterexample_csv_columns(self, tmp_path):
        report = counterexample_exact(10, 3, 1.0, 1.0)
        path = tmp_path / "ce.csv"
        counterexample_to_csv([(report, 0.75)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "T,k,sigma,shift,variance,rdp_avg_alpha2,rdp_last_alpha2,accuracy"
        assert lines[1].startswith("10,3,1.0,")

    def test_sweep_csv_columns(self, tmp_path):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        results = excess_loss_sweep(dist, "phased_sgd", [(32, 2, 1.0)], trials=2, seed=0)
        path = tmp_path / "sweep.csv"
        sweep_to_csv(results, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,d,rho,algorithm,trials,mean,std_err,bound,ratio"
        assert lines[1].startswith("32,2,1.0,phased_sgd,2,")

    def test_default_k_grid(self):
        assert default_k_grid(1) == [1]
        grid = default_k_grid(10_000)
        assert grid[0] == 1 and grid[-1] == 10_000
        assert math.ceil(math.sqrt(10_000)) in grid
