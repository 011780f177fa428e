"""Optimization algorithms: exact small cases, coupling-based sensitivity,
phase noise calibration, and determinism."""

import dataclasses
import math
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from absdev_scan import absdev_scan
from contraction import batch_value, check_contraction
from dpsco import optimizers
from dpsco.accountant import ApproxDP, PrivacyBudget, pai_rho
from dpsco.empirics import sensitivity_probe
from dpsco.geometry import ConvexDomain, project
from dpsco.losses import (
    ABSOLUTE_DEVIATION,
    Dataset,
    LossFamily,
    absolute_deviation_uniform,
    linear_regression_sphere,
    logistic_sphere,
    quadratic_point_mass,
    quadratic_sphere,
)
from dpsco.optimizers import (
    DataSizeError,
    NoiseStream,
    RunRecord,
    StepSizeError,
    _derive_seeds,
    _exact_regularized_erm,
    _gap_bound,
    phased_erm,
    phased_sgd,
    pnsgd,
    psgd,
    sc_reduction,
    sc_snowball,
    sc_weighted_sgd,
)
from dpsco.schedules import InvalidScheduleError, Schedule, phase_plan, snowball_batches

BALL1 = ConvexDomain.ball([0.0], 10.0)
BALL2 = ConvexDomain.ball([0.0, 0.0], 1.0)
BALL4 = ConvexDomain.ball([0.0] * 4, 1.0)
SPHERE4 = quadratic_sphere(BALL4, [0.0] * 4, 1.0)  # L = 2, beta = lam = 1


def quadratic_loss(domain, center=None):
    c = np.zeros(domain.dimension) if center is None else np.asarray(center, dtype=float)
    return quadratic_point_mass(domain, c).loss


ABSDEV = LossFamily(ABSOLUTE_DEVIATION, lipschitz=1.0, smoothness=math.inf, strong_convexity=0.0)


def _random_domain(rng, dim, box):
    """A ball or a box of random centre and size around the origin."""
    if box:
        lower = rng.uniform(-1.0, 0.0, dim)
        return ConvexDomain.box(lower, lower + rng.uniform(0.1, 2.0, dim))
    return ConvexDomain.ball(rng.uniform(-0.5, 0.5, dim), rng.uniform(0.1, 2.0))


def _phase_objective(loss, block, w_prev, lam):
    """F(v) = mean f(v) + (lam / 2) |v - w_prev|^2 over the block."""
    return lambda v: batch_value(loss, v, block) + 0.5 * lam * float(np.sum((v - w_prev) ** 2))


def _keyed_draws(seed, dim):
    """Draws start..start + count - 1 of dimension dim as the stream keys
    them: draw k is row k % 256 of a 256-row standard-normal block from
    Philox seeded by SeedSequence(seed, spawn_key=(dim, k // 256))."""
    blocks = {}

    def draws(start, count):
        rows = np.empty((count, dim))
        for i, k in enumerate(range(start, start + count)):
            if k // 256 not in blocks:
                key = np.random.SeedSequence(entropy=seed, spawn_key=(dim, k // 256))
                blocks[k // 256] = np.random.Generator(np.random.Philox(key)).standard_normal(
                    (256, dim))
            rows[i] = blocks[k // 256][k % 256]
        return rows

    return draws


class TestNoiseStream:
    def test_draw_is_pure_in_seed_and_index(self):
        a = NoiseStream(123)
        first = [a.gaussian(3) for _ in range(600)]
        b = NoiseStream(123)
        b.skip(599)
        np.testing.assert_array_equal(b.gaussian(3), first[599])

    def test_draws_are_read_only(self):
        s = NoiseStream(5)
        draw = s.gaussian(3)
        with pytest.raises(ValueError):
            draw[0] = 0.0
        with pytest.raises(ValueError):
            draw *= 0.0
        s.index = 0
        fresh = NoiseStream(5)
        for _ in range(300):
            np.testing.assert_array_equal(s.gaussian(3), fresh.gaussian(3))

    def test_different_seeds_differ(self):
        assert not np.allclose(NoiseStream(1).gaussian(4), NoiseStream(2).gaussian(4))

    def test_fork_is_deterministic_and_distinct(self):
        s = NoiseStream(7)
        f1 = s.fork(1).gaussian(2)
        f2 = NoiseStream(7).fork(1).gaussian(2)
        np.testing.assert_array_equal(f1, f2)
        assert not np.allclose(f1, NoiseStream(7).fork(2).gaussian(2))

    def test_fork_derives_its_seed_as_the_sweep_does(self):
        # fork keyed its own SeedSequence; it now goes through _derive_seeds,
        # which gives the same seed, up to the largest 64-bit seeds
        for seed in (0, 1, 7, 2**32 + 1, 2**53 + 1, 6 * 10**18, 12 * 10**18, 2**64 - 1):
            for tag in (0, 3):
                want = np.random.SeedSequence(entropy=seed, spawn_key=(0x5EED, tag))
                assert NoiseStream(seed).fork(tag).seed == _derive_seeds(
                    seed, 0x5EED, tag) == int(want.generate_state(1, dtype=np.uint64)[0])

    def test_negative_or_fractional_counts_and_small_dims_are_refused(self):
        s = NoiseStream(5)
        s.skip(10)
        calls = (lambda: s.gaussians(4, -3), lambda: s.skip(-20), lambda: s.gaussians(4, 2.5),
                 lambda: s.skip(1.5), lambda: s.gaussians(0, 3), lambda: s.gaussians(-1, 3),
                 lambda: s.gaussians(2.0, 3), lambda: s.prefetch(4, -1))
        for call in calls:
            with pytest.raises(ValueError):
                call()
            assert s.index == 10
        want = NoiseStream(5)
        want.skip(np.int64(10))
        np.testing.assert_array_equal(s.gaussians(4, np.int64(3)), want.gaussians(4, 3))

    @pytest.mark.parametrize("seed", [-1, 2.2, 2.7, True, "3", None, np.float64(2.0)])
    def test_seed_is_a_whole_number(self, seed):
        # 2.2 and 2.7 were truncated to the same stream, True was seed 1, and
        # -1 was taken and failed only at the first draw
        with pytest.raises(ValueError, match="^seed must be "):
            NoiseStream(seed)
        assert NoiseStream(np.uint64(3)).seed == 3

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), dim=st.sampled_from((1, 2, 3, 4, 5, 6, 64)),
           start=st.integers(0, 700), ahead=st.integers(0, 1500), cap=st.integers(0, 1100),
           requests=st.lists(st.tuples(st.sampled_from(("draw", "skip", "other")),
                                       st.integers(0, 600)), min_size=1, max_size=5))
    # the prefetched blocks end inside the first request
    @example(seed=1, dim=3, start=0, ahead=1000, cap=512, requests=[("draw", 600)])
    # a skip past the prefetched blocks
    @example(seed=2, dim=5, start=100, ahead=600, cap=256,
             requests=[("draw", 50), ("skip", 400), ("draw", 10)])
    # a request at another dimension first
    @example(seed=3, dim=64, start=0, ahead=600, cap=1024, requests=[("other", 5), ("draw", 5)])
    def test_prefetched_draws_equal_draws_on_demand(self, seed, dim, start, ahead, cap,
                                                     requests):
        other = dim % 6 + 1
        oracle = {d: _keyed_draws(seed, d) for d in (dim, other)}
        with mock.patch.object(optimizers, "_PREFETCH_ENTRIES", cap * dim), \
                mock.patch.object(optimizers, "_usable_cpus", lambda: 2):
            fetched, plain = NoiseStream(seed), NoiseStream(seed)
            fetched.skip(start)
            plain.skip(start)
            fetched.prefetch(dim, ahead)
            for kind, count in requests:
                if kind == "skip":
                    fetched.skip(count)
                    plain.skip(count)
                else:
                    d = dim if kind == "draw" else other
                    want = oracle[d](plain.index, count)
                    np.testing.assert_array_equal(plain.gaussians(d, count), want)
                    got = fetched.gaussians(d, count)
                    np.testing.assert_array_equal(got, want)
                    assert not got.flags.writeable
                assert fetched.index == plain.index

    @pytest.mark.parametrize("dim", (3, 16, 4096))
    def test_a_prefetch_holds_at_most_its_cap(self, dim, monkeypatch):
        filled, draw_blocks = [], optimizers._draw_blocks
        monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(optimizers, "_draw_blocks",
                            lambda seed, d, block, out: (filled.append(out.size),
                                                         draw_blocks(seed, d, block, out))[1])
        noise = NoiseStream(1)
        noise.skip(100)
        noise.prefetch(dim, 10**6)
        noise.gaussian(dim)
        cap = optimizers._PREFETCH_ENTRIES
        if dim > cap // 256:  # not one block fits: drawn on demand
            assert filled == [256 * dim]
        else:
            assert len(filled) == 1 and cap - 256 * dim < filled[0] <= cap

    def test_a_prefetch_failure_is_raised_by_the_request_that_needs_it(self, monkeypatch,
                                                                       started_threads):
        class EntropyError(RuntimeError):
            pass

        def broken(*args, **kwargs):
            raise EntropyError("no entropy")

        hooked = []
        monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        noise = NoiseStream(4)
        noise.skip(7)
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "SeedSequence", broken)
            noise.prefetch(3, 600)
            assert len(started_threads) == 1
            started_threads[0].join(2.0)  # the worker has raised
            with pytest.raises(EntropyError):
                noise.gaussians(3, 10)
        assert hooked == [] and noise.index == 7
        want = NoiseStream(4)
        want.skip(7)
        np.testing.assert_array_equal(noise.gaussians(3, 10), want.gaussians(3, 10))


class TestPnsgd:
    def test_exact_step_lands_on_batch_minimizer(self):
        # one noiseless full-batch step with eta = 1/beta reaches the mean
        dist = quadratic_point_mass(BALL2, [0.5, 0.25])
        data = dist.sample_dataset(6, rng_seed=0)
        sched = Schedule((6,), (1.0,), (0.0,))
        rec = pnsgd(data, dist.loss, BALL2, [0.0, 0.0], sched, NoiseStream(0))
        np.testing.assert_allclose(rec.final_iterate, [0.5, 0.25], atol=1e-12)

    def test_zero_steps_freeze_iterate(self):
        dist = quadratic_point_mass(BALL2, [0.5, 0.25])
        data = dist.sample_dataset(4, rng_seed=0)
        sched = Schedule((2, 2), (0.0, 0.0), (0.0, 0.0))
        w0 = np.array([0.1, -0.2])
        rec = pnsgd(data, dist.loss, BALL2, w0, sched, NoiseStream(0))
        np.testing.assert_array_equal(rec.final_iterate, w0)

    def test_one_dimensional_hand_step(self):
        # centred at the data point, the declared L = 2 + 10 is what the data give
        loss = quadratic_loss(BALL1, [2.0])
        data = Dataset(np.array([[2.0]]))
        sched = Schedule((1,), (0.5,), (0.0,))
        rec = pnsgd(data, loss, BALL1, [0.0], sched, NoiseStream(0))
        assert rec.final_iterate[0] == pytest.approx(1.0, abs=1e-15)

    def test_size_mismatch_is_hard_error(self):
        loss = quadratic_loss(BALL1)
        data = Dataset(np.array([[1.0], [2.0]]))
        sched = Schedule((1,), (0.5,), (0.0,))
        with pytest.raises(DataSizeError):
            pnsgd(data, loss, BALL1, [0.0], sched, NoiseStream(0))

    def test_outside_start_projected_with_warning(self):
        loss = quadratic_loss(BALL2)
        data = Dataset(np.zeros((1, 2)))
        sched = Schedule((1,), (0.0,), (0.0,))
        with pytest.warns(UserWarning, match="projecting"):
            rec = pnsgd(data, loss, BALL2, [5.0, 0.0], sched, NoiseStream(0))
        np.testing.assert_allclose(rec.final_iterate, [1.0, 0.0], atol=1e-12)

    def test_far_step_lands_on_the_sphere(self):
        # noise of 1e200 sends the iterate past the radius at which its squared
        # norm overflows; the step still lands on the sphere, not at the centre
        ball = ConvexDomain.ball([0.0, 0.0], 1e150)
        dist = logistic_sphere(ball, 1.0, [0.0, 0.0])
        sched = Schedule((1, 1, 1), (1.0,) * 3, (1e200,) * 3)
        with pytest.warns(RuntimeWarning, match="overflow"):  # the step loop's own dot
            rec = pnsgd(dist.sample_dataset(3, 0), dist.loss, ball, [0.0, 0.0], sched,
                        NoiseStream(0))
        assert np.linalg.norm(rec.final_iterate / 1e150) == pytest.approx(1.0, rel=1e-12)

    def test_declared_budget_matches_accountant(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        sched = Schedule((2, 2, 2), (0.1, 0.1, 0.1), (0.5, 0.5, 0.5))
        data = dist.sample_dataset(6, rng_seed=1)
        rec = pnsgd(data, dist.loss, BALL2, [0.0, 0.0], sched, NoiseStream(3))
        assert rec.declared_budget == pai_rho(sched, dist.loss.lipschitz)
        assert rec.gradient_evaluations == 6

    def test_step_above_two_over_beta_declares_no_budget(self):
        # the amplification-by-iteration value needs eta <= 2/beta at every step
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)  # beta = 1
        sched = Schedule((2, 2, 2), (0.1, 2.5, 0.1), (0.5, 0.5, 0.5))
        data = dist.sample_dataset(6, rng_seed=1)
        with pytest.warns(UserWarning, match="2/beta"):
            rec = pnsgd(data, dist.loss, BALL2, [0.0, 0.0], sched, NoiseStream(3))
        assert rec.declared_budget is None

    def test_data_beyond_declared_smoothness_declares_no_budget(self):
        # features of norm 3 give beta = 9 against the declared beta = 1, so
        # eta = 1.5 <= 2/1 scales the a-direction by |1 - 1.5 * 9| per step
        dist = linear_regression_sphere(BALL2, 1.0, [0.0, 0.0], 10.0)
        data = Dataset(np.tile([3.0, 0.0], (64, 1)), np.zeros(64))
        sched = Schedule.constant(64, 1, 1.5, 1.0)
        with pytest.warns(UserWarning, match="the data give beta = 9 > declared beta = 1"):
            rec = pnsgd(data, dist.loss, BALL2, [0.5, 0.0], sched, NoiseStream(3))
        assert rec.declared_budget is None
        # the declared features (norm 1) keep the budget
        rec = pnsgd(dist.sample_dataset(64, rng_seed=1), dist.loss, BALL2, [0.5, 0.0], sched,
                    NoiseStream(3))
        assert rec.declared_budget == pai_rho(sched, dist.loss.lipschitz)

    def test_nonsmooth_loss_declares_no_budget(self):
        # beta = inf: no step is contractive, so amplification by iteration
        # says nothing; the run still happens
        domain = ConvexDomain.ball([0.0], 1.0)
        dist = absolute_deviation_uniform(domain, median=0.0, half_width=1.0)
        sched = Schedule.constant(64, 1, 0.1, 0.5)
        data = dist.sample_dataset(64, rng_seed=1)
        with pytest.warns(UserWarning, match="not smooth"):
            rec = pnsgd(data, dist.loss, domain, [0.0], sched, NoiseStream(3))
        assert rec.declared_budget is None
        assert rec.gradient_evaluations == 64

    def test_cni_view_is_contractive(self):
        # projection-then-gradient-step composition, eta <= 2/beta
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = dist.sample_dataset(8, rng_seed=2)

        def composed(w):
            inner = project(BALL2, w)
            return inner - 1.5 * dist.loss.batch_grad(inner, data)

        report = check_contraction(composed, ConvexDomain.ball([0.0, 0.0], 3.0), 400, 11)
        assert report.max_ratio <= 1.0 + 1e-9

    def test_batches_are_consecutive_in_order(self):
        # batch t spans indices sum(B_{<t}) .. sum(B_{<=t}); with eta = 1 and
        # a quadratic the iterate lands exactly on each batch mean in turn;
        # the declared L = 4 + 10 is what the data give
        loss = quadratic_loss(BALL1, [4.0])
        data = Dataset(np.array([[0.0], [0.0], [4.0], [4.0]]))
        sched = Schedule((2, 2), (1.0, 1.0), (0.0, 0.0))
        rec = pnsgd(data, loss, BALL1, [0.0], sched, NoiseStream(0))
        assert rec.final_iterate[0] == pytest.approx(4.0, abs=1e-15)

    def test_coupled_noisy_neighbors_stay_within_sensitivity(self):
        # with identical noise streams the added noise cancels from the
        # pairwise distance, so noisy runs obey the noiseless 2 L eta bound
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        L, eta, n = dist.loss.lipschitz, 0.3, 20
        sched = Schedule((1,) * n, (eta,) * n, (0.5,) * n)
        rng = np.random.default_rng(77)
        for trial in range(50):
            data = dist.sample_dataset(n, rng_seed=2000 + trial)
            j = int(rng.integers(0, n))
            fresh = dist.sample_dataset(1, rng_seed=7000 + trial).example(0)
            neighbor = data.replace(j, fresh)
            rec_a = pnsgd(data, dist.loss, BALL2, [0.2, 0.1], sched, NoiseStream(trial))
            rec_b = pnsgd(neighbor, dist.loss, BALL2, [0.2, 0.1], sched, NoiseStream(trial))
            gap = np.linalg.norm(rec_a.final_iterate - rec_b.final_iterate)
            assert gap <= 2 * L * eta + 1e-9

    def test_determinism_bitwise(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        sched = Schedule((1,) * 12, (0.2,) * 12, (0.7,) * 12)
        data = dist.sample_dataset(12, rng_seed=5)
        rec1 = pnsgd(data, dist.loss, BALL2, [0.1, 0.0], sched, NoiseStream(17))
        rec2 = pnsgd(data, dist.loss, BALL2, [0.1, 0.0], sched, NoiseStream(17))
        assert rec1.final_iterate.tobytes() == rec2.final_iterate.tobytes()
        assert [p.iterate.tobytes() for p in rec1.phase_log] == [
            p.iterate.tobytes() for p in rec2.phase_log]
        assert rec1.declared_budget == rec2.declared_budget
        assert rec1.gradient_evaluations == rec2.gradient_evaluations
        assert rec1.rng_seed == rec2.rng_seed


class TestPsgd:
    def test_zero_steps(self):
        loss = quadratic_loss(BALL1)
        data = Dataset(np.array([[1.0], [1.0]]))
        rec = psgd(data, loss, BALL1, [0.5], [0.0, 0.0])
        assert rec.final_iterate[0] == 0.5
        assert rec.weighted_average[0] == 0.5

    def test_two_exact_steps_and_average(self):
        loss = quadratic_loss(BALL1)
        data = Dataset(np.array([[1.0], [1.0]]))
        rec = psgd(data, loss, BALL1, [0.0], [1.0, 1.0])
        assert rec.final_iterate[0] == 1.0
        assert rec.weighted_average[0] == 1.0
        assert rec.gradient_evaluations == 2

    def test_neighbor_sensitivity_bounded(self):
        # coupled runs on datasets differing in one example stay within 2 L eta
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        L = dist.loss.lipschitz
        eta = 0.35  # <= 2/beta = 2
        rng = np.random.default_rng(23)
        for trial in range(200):
            data = dist.sample_dataset(25, rng_seed=1000 + trial)
            j = int(rng.integers(0, 25))
            fresh = dist.sample_dataset(1, rng_seed=5000 + trial).example(0)
            neighbor = data.replace(j, fresh)
            w0 = [0.3, -0.1]
            rec_a = psgd(data, dist.loss, BALL2, w0, [eta] * 25)
            rec_b = psgd(neighbor, dist.loss, BALL2, w0, [eta] * 25)
            gap_final = np.linalg.norm(rec_a.final_iterate - rec_b.final_iterate)
            gap_avg = np.linalg.norm(rec_a.weighted_average - rec_b.weighted_average)
            assert gap_final <= 2 * L * eta + 1e-9
            assert gap_avg <= 2 * L * eta + 1e-9


    @pytest.mark.parametrize("steps", [[0.1, math.nan], [0.1, math.inf], [0.1, -0.1],
                                       ["0.1", "0.1"], [0.1, None], [True, False]])
    def test_refuses_steps_that_are_not_finite_nonnegative_numbers(self, steps):
        # a NaN step gave a NaN iterate, and "0.1" was parsed as a number
        loss = quadratic_loss(BALL1)
        data = Dataset(np.array([[1.0], [1.0]]))
        with pytest.raises(ValueError, match="step sizes"):
            psgd(data, loss, BALL1, [0.5], steps)


class TestPhasedSgd:
    def test_noiseless_localizes_point_mass(self):
        dist = quadratic_point_mass(BALL2, [0.4, -0.3])
        data = dist.sample_dataset(256, rng_seed=0)
        rec = phased_sgd(data, dist.loss, BALL2, [-1.0, 0.0], eta=0.5, rho=1.0,
                         noise=NoiseStream(0), sigma_scale=0.0)
        assert np.linalg.norm(rec.final_iterate - [0.4, -0.3]) < 0.05

    def test_two_samples_single_phase_noise_scale(self):
        # n = 2: one phase of one step, sigma_1 = 4 L (eta/4) / rho = L eta / rho
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = dist.sample_dataset(2, rng_seed=1)
        eta, rho = 0.8, 2.0
        rec = phased_sgd(data, dist.loss, BALL2, [0.0, 0.0], eta, rho, NoiseStream(4))
        assert len(rec.phase_log) == 1
        L = dist.loss.lipschitz
        assert rec.phase_log[0].noise_scale == pytest.approx(L * eta / rho, rel=1e-15)
        assert rec.declared_budget == PrivacyBudget(rho)

    @pytest.mark.parametrize("scale, declared", [(0.0, False), (0.5, False), (1.0, True),
                                                 (2.0, True)])
    def test_reduced_noise_declares_no_budget(self, scale, declared):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = dist.sample_dataset(16, rng_seed=1)
        rec = phased_sgd(data, dist.loss, BALL2, [0.0, 0.0], 0.5, 2.0, NoiseStream(4),
                         sigma_scale=scale)
        assert rec.declared_budget == (PrivacyBudget(2.0) if declared else None)

    def test_phase_noise_calibration(self):
        # per-phase sigma_i = 4 L eta_i / rho, so the mechanism budget of each
        # phase at sensitivity 2 L eta_i is exactly rho / 2
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = dist.sample_dataset(64, rng_seed=2)
        eta, rho = 0.5, 1.0
        L = dist.loss.lipschitz
        rec = phased_sgd(data, dist.loss, BALL2, [0.0, 0.0], eta, rho, NoiseStream(5))
        plan = phase_plan(64, eta)
        assert [p.samples for p in rec.phase_log] == [ni for ni, _ in plan]
        for entry, (_, eta_i) in zip(rec.phase_log, plan):
            assert entry.noise_scale == pytest.approx(4 * L * eta_i / rho, rel=1e-15)
            assert (2 * L * eta_i) / entry.noise_scale == pytest.approx(rho / 2, rel=1e-15)

    def test_phase_sensitivity_and_noise_second_moment(self):
        # noiseless phase output on neighbors moves at most 2 L eta_i; noise
        # second moment d sigma_i^2 <= (4 * 4^-i D)^2 when eta <= (D/L)(rho/sqrt d)
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        L, D, d = dist.loss.lipschitz, BALL2.diameter, 2
        rho = 1.0
        eta = (D / L) * (rho / math.sqrt(d))
        n = 64
        rng = np.random.default_rng(3)
        for trial in range(40):
            data = dist.sample_dataset(n, rng_seed=300 + trial)
            j = int(rng.integers(0, n))
            fresh = dist.sample_dataset(1, rng_seed=900 + trial).example(0)
            neighbor = data.replace(j, fresh)
            rec_a = phased_sgd(data, dist.loss, BALL2, [0.0, 0.0], eta, rho,
                               NoiseStream(42), sigma_scale=0.0)
            rec_b = phased_sgd(neighbor, dist.loss, BALL2, [0.0, 0.0], eta, rho,
                               NoiseStream(42), sigma_scale=0.0)
            plan = phase_plan(n, eta)
            offset = 0
            for (pa, pb, (ni, eta_i)) in zip(rec_a.phase_log, rec_b.phase_log, plan):
                if offset <= j < offset + ni:
                    # phases after the differing block coincide only up to
                    # propagation; the differing phase itself is the bound
                    assert np.linalg.norm(pa.iterate - pb.iterate) <= 2 * L * eta_i + 1e-9
                    break
                offset += ni
        # noise magnitude claim, as an arithmetic identity on the schedule
        for i, (_, eta_i) in enumerate(phase_plan(n, eta), start=1):
            sigma_i = 4 * L * eta_i / rho
            assert d * sigma_i**2 <= (4.0 * 4.0 ** (-i) * D) ** 2 * (1 + 1e-12)
            # the tighter display with the proof's noise convention
            assert d * (4.0 ** (-i) * L * eta / rho) ** 2 <= (4.0 ** (-i) * D) ** 2 * (1 + 1e-12)

    def test_nonsmooth_loss_declares_no_budget(self):
        # the 2 L eta_i sensitivity of a phase needs a smooth loss
        domain = ConvexDomain.ball([0.0], 1.0)
        dist = absolute_deviation_uniform(domain, median=0.0, half_width=1.0)
        data = dist.sample_dataset(64, rng_seed=2)
        with pytest.warns(UserWarning, match="not smooth"):
            rec = phased_sgd(data, dist.loss, domain, [0.0], eta=0.5, rho=1.0,
                             noise=NoiseStream(0))
        assert rec.declared_budget is None
        assert len(rec.phase_log) == 6

    def test_refuses_data_beyond_declared_smoothness(self):
        # the 2 L eta_i bound needs eta_i <= 2/beta for the beta the data give
        dist = linear_regression_sphere(BALL2, 1.0, [0.0, 0.0], 10.0)
        data = Dataset(np.tile([3.0, 0.0], (64, 1)), np.zeros(64))
        with pytest.raises(StepSizeError, match="declared beta"):
            phased_sgd(data, dist.loss, BALL2, [0.5, 0.0], eta=0.5, rho=1.0,
                       noise=NoiseStream(0))

    def test_refuses_nonsmooth_step(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = dist.sample_dataset(8, rng_seed=0)
        with pytest.raises(StepSizeError):
            phased_sgd(data, dist.loss, BALL2, [0.0, 0.0], eta=3.0, rho=1.0,
                       noise=NoiseStream(0))

    @pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -0.5])
    def test_refuses_steps_that_are_not_positive_and_finite(self, eta):
        # eta = NaN passed both eta <= 0 and eta > 2/beta, and the run ended
        # at a NaN iterate while it declared rho = 1
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = dist.sample_dataset(8, rng_seed=0)
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            phased_sgd(data, dist.loss, BALL2, [0.0, 0.0], eta=eta, rho=1.0,
                       noise=NoiseStream(0))

    def test_one_pass_budgets(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        n = 129
        data = dist.sample_dataset(n, rng_seed=9)
        rec = phased_sgd(data, dist.loss, BALL2, [0.0, 0.0], 0.5, 1.0, NoiseStream(1))
        plan_total = sum(ni for ni, _ in phase_plan(n, 0.5))
        assert rec.gradient_evaluations == plan_total <= n


class TestPhasedErm:
    def test_phase1_exact_matches_closed_form(self):
        # noiseless exact solve: phase 1 output is the regularized centroid
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        n, eta = 32, 0.25
        data = dist.sample_dataset(n, rng_seed=4)
        w0 = np.array([0.5, 0.5])
        rec = phased_erm(data, dist.loss, BALL2, w0, eta, epsilon=1.0, delta=1e-5,
                         noise=NoiseStream(0), inner="exact", sigma_scale=0.0)
        plan = phase_plan(n, eta)
        n1, eta1 = plan[0]
        lam1 = 2.0 / (eta1 * n1)
        centroid = data.features[:n1].mean(axis=0)
        expected = (centroid + lam1 * w0) / (1.0 + lam1)
        np.testing.assert_allclose(rec.phase_log[0].iterate, expected, atol=1e-12)
        # same thing said as shrinkage toward the start
        np.testing.assert_allclose(
            rec.phase_log[0].iterate, centroid + lam1 / (1 + lam1) * (w0 - centroid), atol=1e-12
        )

    def test_every_phase_uses_lam_two_over_eta_n(self):
        # reconstruct the full noiseless run independently: each phase output
        # must be the regularized centroid with strength 2 / (eta_i n_i)
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        n, eta = 64, 0.5
        data = dist.sample_dataset(n, rng_seed=14)
        w0 = np.array([0.3, -0.4])
        rec = phased_erm(data, dist.loss, BALL2, w0, eta, epsilon=1.0, delta=1e-5,
                         noise=NoiseStream(0), inner="exact", sigma_scale=0.0)
        w = w0.copy()
        offset = 0
        for entry, (ni, eta_i) in zip(rec.phase_log, phase_plan(n, eta)):
            lam_i = 2.0 / (eta_i * ni)
            centroid = data.features[offset:offset + ni].mean(axis=0)
            w = project(BALL2, (centroid + lam_i * w) / (1.0 + lam_i))
            np.testing.assert_allclose(entry.iterate, w, atol=1e-12)
            offset += ni

    def test_absdev_phases_shrink_toward_median(self):
        domain = ConvexDomain.ball([0.0], 2.0)
        dist = absolute_deviation_uniform(domain, median=0.0, half_width=1.0)
        feats = np.ones((64, 1))
        targets = np.zeros(64)  # every example pulls toward 0
        data = Dataset(feats, targets)
        rec = phased_erm(data, dist.loss, domain, [1.0], eta=0.5, epsilon=1.0,
                         delta=1e-5, noise=NoiseStream(0), inner="exact", sigma_scale=0.0)
        gaps = [abs(float(p.iterate[0])) for p in rec.phase_log]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_sgd_inner_certificate_and_budget(self):
        domain = ConvexDomain.ball([0.0], 2.0)
        dist = absolute_deviation_uniform(domain, median=0.3, half_width=1.0)
        n, delta = 64, 1e-4
        data = dist.sample_dataset(n, rng_seed=6)
        rec = phased_erm(data, dist.loss, domain, [-1.0], eta=0.5, epsilon=1.0,
                         delta=delta, noise=NoiseStream(2), inner="sgd", sigma_scale=0.0)
        cap = 8.0 * sum(ni**2 for ni, _ in phase_plan(n, 0.5))
        cap *= max(1.0, math.log(1.0 / delta))
        assert rec.gradient_evaluations <= cap
        L, D = dist.loss.lipschitz, domain.diameter
        assert dist.excess_loss(rec.final_iterate) <= 4.0 * L * D / math.sqrt(n)

    def test_sgd_inner_matches_exact_noiselessly(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = dist.sample_dataset(32, rng_seed=7)
        kwargs = dict(eta=0.25, epsilon=1.0, delta=1e-3, sigma_scale=0.0)
        exact = phased_erm(data, dist.loss, BALL2, [0.5, 0.0], noise=NoiseStream(0),
                           inner="exact", **kwargs)
        sgd = phased_erm(data, dist.loss, BALL2, [0.5, 0.0], noise=NoiseStream(0),
                         inner="sgd", **kwargs)
        # certified suboptimality L^2 eta_i / n_i implies iterates within
        # sqrt(2 gap / lam_i) = L eta_i of each phase's true minimizer
        plan = phase_plan(32, 0.25)
        L = dist.loss.lipschitz
        tol = sum(L * eta_i for _, eta_i in plan)
        assert np.linalg.norm(exact.final_iterate - sgd.final_iterate) <= 2 * tol

    def test_declared_guarantee(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = dist.sample_dataset(8, rng_seed=8)
        rec = phased_erm(data, dist.loss, BALL2, [0.0, 0.0], 0.25, epsilon=0.7,
                         delta=1e-5, noise=NoiseStream(3), inner="exact")
        assert rec.declared_budget == ApproxDP(0.7, 2e-5)

    @pytest.mark.parametrize("scale, declared", [(0.0, False), (0.5, False), (1.0, True)])
    def test_reduced_noise_declares_no_budget(self, scale, declared):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = dist.sample_dataset(8, rng_seed=8)
        rec = phased_erm(data, dist.loss, BALL2, [0.0, 0.0], 0.25, epsilon=0.7, delta=1e-5,
                         noise=NoiseStream(3), inner="exact", sigma_scale=scale)
        assert rec.declared_budget == (ApproxDP(0.7, 2e-5) if declared else None)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0])
    def test_refuses_steps_that_are_not_positive_and_finite(self, eta):
        # eta = NaN used up the first phase's 94314 oracle calls before raising
        domain = ConvexDomain.ball([0.0], 2.0)
        dist = absolute_deviation_uniform(domain, median=0.3, half_width=1.0)
        data = dist.sample_dataset(64, rng_seed=6)
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            phased_erm(data, dist.loss, domain, [-1.0], eta=eta, epsilon=1.0, delta=1e-4,
                       noise=NoiseStream(2))

    def test_delta_range_enforced(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = dist.sample_dataset(8, rng_seed=8)
        with pytest.raises(ValueError):
            phased_erm(data, dist.loss, BALL2, [0.0, 0.0], 0.25, epsilon=1.0,
                       delta=1.5, noise=NoiseStream(0))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), box=st.booleans(), dim=st.integers(1, 6),
           lam_exponent=st.floats(-2.0, 2.0))
    def test_gap_bound_covers_the_exact_gap(self, seed, box, dim, lam_exponent):
        # on the quadratic family the exact solver gives the constrained
        # minimizer w*, so the certificate's bound must reach F(w) - F(w*)
        rng = np.random.default_rng(seed)
        domain = _random_domain(rng, dim, box)
        loss = quadratic_loss(domain)
        block = Dataset(rng.uniform(-2.0, 2.0, (int(rng.integers(1, 21)), dim)))
        w_prev, w = (project(domain, rng.uniform(-2.0, 2.0, dim)) for _ in range(2))
        lam = 10.0 ** lam_exponent
        F = _phase_objective(loss, block, w_prev, lam)
        gap = F(w) - F(_exact_regularized_erm(loss, domain, block, w_prev, lam))
        assert _gap_bound(loss, domain, block, w, w_prev, lam) >= gap - 1e-12 * (1.0 + F(w))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), box=st.booleans(), dim=st.integers(1, 3),
           lam_exponent=st.floats(-2.0, 2.0))
    def test_gap_bound_covers_sampled_gaps_on_absolute_deviation(self, seed, box, dim,
                                                                 lam_exponent):
        # no closed-form minimizer in d >= 2: the bound must reach F(w) - F(v)
        # for points v sampled over the domain and near w
        rng = np.random.default_rng(seed)
        domain = _random_domain(rng, dim, box)
        n = int(rng.integers(1, 21))
        block = Dataset(rng.standard_normal((n, dim)), rng.standard_normal(n))
        w_prev, w = (project(domain, rng.uniform(-2.0, 2.0, dim)) for _ in range(2))
        lam = 10.0 ** lam_exponent
        F = _phase_objective(ABSDEV, block, w_prev, lam)
        lo, hi = domain.bounding_box()
        points = [*rng.uniform(lo, hi, (256, dim)),
                  *(w + r * rng.standard_normal(dim) for r in np.geomspace(1e-4, 1.0, 256))]
        gap = F(w) - min(F(project(domain, v)) for v in points)
        assert _gap_bound(ABSDEV, domain, block, w, w_prev, lam) >= gap - 1e-12 * (1.0 + F(w))

    @pytest.mark.parametrize("seed", (52, 55, 57))
    def test_sgd_inner_certifies_absolute_deviation_on_a_box(self, seed):
        # unit-norm features keep the data within the declared L = 1. On
        # these seeds the old certificate, |g| <= sqrt(2 lam gap), never
        # passed on the box and the run exhausted its budget; the projected
        # bound passes every phase on its first attempt: max(2 n_i^2, 16)
        # SGD steps and n_i certificate calls
        domain = ConvexDomain.box(np.full(5, -0.3), np.full(5, 0.4))
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((32, 5))
        data = Dataset(features / np.linalg.norm(features, axis=1, keepdims=True),
                       rng.standard_normal(32))
        w0 = [0.1, -0.2, 0.05, 0.3, -0.1]
        rec = phased_erm(data, ABSDEV, domain, w0, 0.5, 1.0, 1e-5, NoiseStream(53))
        assert rec.declared_budget == ApproxDP(1.0, 2e-5)
        plan = phase_plan(32, 0.5)
        assert rec.gradient_evaluations == sum(max(2 * ni * ni, 16) + ni for ni, _ in plan)


def _absdev_phase(rng, ties=False):
    """A random 1-D absolute-deviation phase: (domain, block, w_prev, lam).

    Some features are exactly 0, and every other block draws its kinks from
    a few dyadic values with dyadic features, so that kinks repeat exactly.
    lam is log-uniform in [1e-3, 1e3]; the domain is a ball or a box. With
    ``ties``, w_prev sits on a kink and lam is a power of 2, so the
    subgradient is often exactly 0 at a kink."""
    n = int(rng.integers(1, 13))
    if rng.random() < 0.5:
        a, b = rng.standard_normal(n), rng.standard_normal(n)
    else:
        a = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], n)
        b = a * rng.choice([-1.0, -0.25, 0.0, 0.5, 1.5], n)
    a[rng.random(n) < 0.2] = 0.0
    domain = _random_domain(rng, 1, bool(rng.integers(2)))
    if ties:
        live = a != 0.0
        c = b[live][0] / a[live][0] if live.any() else 0.0
        return domain, Dataset(a[:, None], b), np.array([c]), 2.0 ** int(rng.integers(-10, 11))
    return domain, Dataset(a[:, None], b), rng.uniform(-3.0, 3.0, 1), 10.0 ** rng.uniform(-3, 3)


class TestExactAbsoluteDeviation:
    def test_equals_the_segment_scan_bit_for_bit(self):
        rng = np.random.default_rng(2033)
        kinds = {"kink": 0, "segment": 0}
        for _ in range(12_000):
            domain, block, w_prev, lam = _absdev_phase(rng)
            got = _exact_regularized_erm(ABSDEV, domain, block, w_prev, lam)
            want = absdev_scan(domain, block, w_prev, lam)
            assert got.tobytes() == want.tobytes(), (block, w_prev, lam, got, want)
            a, (lo, hi) = block.features[:, 0], domain.bounding_box()
            if lo[0] < got[0] < hi[0]:  # not clamped by the domain
                kinks = block.targets[a != 0.0] / a[a != 0.0]
                kinds["kink" if np.any(kinks == got[0]) else "segment"] += 1
        # the scan stops at a kink and inside a segment, both many times
        assert min(kinds.values()) >= 1000, kinds

    @pytest.mark.parametrize("ties", [False, True])
    def test_minimizes_the_phase_objective_over_its_candidates(self, ties):
        # the minimizer of a strongly convex piecewise quadratic over an
        # interval is a kink, the zero of one segment's linear subgradient,
        # or an end of the interval; none may give a smaller F
        rng = np.random.default_rng(2034)
        for _ in range(2000):
            domain, block, w_prev, lam = _absdev_phase(rng, ties)
            a, b = block.features[:, 0], block.targets
            F = _phase_objective(ABSDEV, block, w_prev, lam)
            live = a != 0.0
            order = np.argsort(b[live] / a[live])
            kinks, weights = (b[live] / a[live])[order], np.abs(a[live])[order] / len(a)
            zeros = [w_prev[0] - (weights[:j].sum() - weights[j:].sum()) / lam
                     for j in range(len(kinks) + 1)]
            candidates = [*kinks, *zeros, *domain.bounding_box()]
            w = _exact_regularized_erm(ABSDEV, domain, block, w_prev, lam)
            assert domain.contains(w)
            best = min(F(project(domain, np.atleast_1d(np.float64(v)))) for v in candidates)
            assert F(w) <= best + 1e-12 * (1.0 + abs(best))

    def test_a_segment_zero_that_rounds_onto_its_kink_is_kept(self):
        # w_prev = -0.25 is a kink, and the sign sum left of it is 0 up to
        # rounding: the segment's zero, -0.25 - tiny / 1024, rounds onto the
        # kink. The scan's strict test missed it and fell through to
        # c - (sum of the weights) / lam = -0.25042, where F is larger
        a = np.array([0.0, -0.5, -0.5, -1.0, -0.5, -0.5, 0.0])
        block = Dataset(a[:, None], np.array([0.5, 0.125, -0.0, 1.0, 0.125, 0.5, -0.0]))
        domain, w_prev, lam = ConvexDomain.ball([0.19279746], 1.2746626398502747), [-0.25], 1024.0
        F = _phase_objective(ABSDEV, block, np.array(w_prev), lam)
        w = _exact_regularized_erm(ABSDEV, domain, block, np.array(w_prev), lam)
        scan = absdev_scan(domain, block, np.array(w_prev), lam)
        assert w.tolist() == [-0.25]
        assert scan[0] == pytest.approx(-0.25 - (3.0 / 7.0) / 1024.0, rel=1e-12)
        assert F(w) < F(scan)


class TestScReduction:
    def test_identity_inner_returns_start(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = dist.sample_dataset(256, rng_seed=0)

        def identity(block, loss, domain, w, noise):
            return RunRecord(np.asarray(w, dtype=float), None, 0, (), None,
                             PrivacyBudget(0.0))

        rec = sc_reduction(data, dist.loss, BALL2, [0.25, 0.0], identity, NoiseStream(0))
        np.testing.assert_array_equal(rec.final_iterate, [0.25, 0.0])

    def test_phase_counts_and_blocks(self):
        # n = 256: k = ceil(log2 log2 256) = 3 phases of sizes 16, 32, 64
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = dist.sample_dataset(256, rng_seed=1)
        seen = []

        def spy(block, loss, domain, w, noise):
            seen.append(len(block))
            return RunRecord(np.asarray(w, dtype=float), None, len(block), (), None,
                             PrivacyBudget(0.5))

        rec = sc_reduction(data, dist.loss, BALL2, [0.0, 0.0], spy, NoiseStream(0))
        assert seen == [16, 32, 64]
        assert rec.declared_budget == PrivacyBudget(0.5)
        assert rec.gradient_evaluations == 112

    def test_block_sums_within_budget(self):
        for n in (64, 256, 1024, 65536):
            log2n = math.log2(n)
            k = max(1, math.ceil(math.log2(log2n)))
            sizes = [math.floor(2.0 ** (i - 2) * n / log2n) for i in range(1, k + 1)]
            assert sum(sizes) <= n

    def test_reduction_with_phased_inner_converges(self):
        # end to end: the restart reduction wrapped around the localization
        # algorithm tightens a strongly convex instance phase over phase
        dist = quadratic_sphere(BALL2, [0.2, -0.1], 0.5)
        n, rho = 2048, 1.0
        data = dist.sample_dataset(n, rng_seed=12)
        D, L = BALL2.diameter, dist.loss.lipschitz

        def inner(block, loss, domain, w, noise):
            m = len(block)
            eta = (D / L) * min(4.0 / math.sqrt(m), rho / math.sqrt(domain.dimension))
            return phased_sgd(block, loss, domain, w, eta, rho, noise)

        rec = sc_reduction(data, dist.loss, BALL2, [-0.7, 0.7], inner, NoiseStream(31))
        assert rec.declared_budget == PrivacyBudget(rho)
        lam = dist.loss.strong_convexity
        bound = 8.0 * L * L / lam * (1.0 / n + BALL2.dimension / (rho * rho * n * n))
        # generous desk-scale factor over the reduction's O(.) guarantee
        assert dist.excess_loss(rec.final_iterate) <= 25.0 * bound


class TestScWeightedSgd:
    def test_near_uniform_weights_limit(self):
        # with eta * lam tiny the weighted average approaches the uniform one
        domain = ConvexDomain.ball([0.0], 5.0)
        dist = quadratic_sphere(domain, [0.0], 1.0)
        T = 50
        data = dist.sample_dataset(T, rng_seed=3)
        rec = sc_weighted_sgd(data, dist.loss, domain, [1.0], T, noise_scale=0.0,
                              eta=1e-9)
        uniform = psgd(data, dist.loss, domain, [1.0], [1e-9] * T)
        assert abs(rec.weighted_average[0] - uniform.weighted_average[0]) <= 1e-6

    def test_geometric_contraction_toward_center(self):
        # f = 0.5 (w - c)^2, eta = 1/(2 lam): each step halves the gap
        domain = ConvexDomain.ball([0.0], 10.0)
        loss = quadratic_loss(domain, [2.0])
        data = Dataset(np.full((8, 1), 2.0))
        rec = sc_weighted_sgd(data, loss, domain, [0.0], 8, noise_scale=0.0, eta=0.5)
        assert rec.final_iterate[0] == pytest.approx(2.0 * (1 - 0.5**8), rel=1e-12)

    def test_step_size_preconditions(self):
        domain = ConvexDomain.ball([0.0], 1.0)
        dist = quadratic_sphere(domain, [0.0], 1.0)
        data = dist.sample_dataset(4, rng_seed=0)
        with pytest.raises(StepSizeError):
            sc_weighted_sgd(data, dist.loss, domain, [0.0], 4, noise_scale=0.0, eta=0.9)

    def test_overflowing_weights_are_refused(self):
        # eta = 1/(2 lam) is a legal step; at T = 2000 its weights 2^t pass
        # float64, which raised a bare OverflowError
        domain = ConvexDomain.ball([0.0], 1.0)
        dist = quadratic_sphere(domain, [0.0], 1.0)
        data = dist.sample_dataset(2000, rng_seed=0)
        with pytest.raises(InvalidScheduleError, match="overflow"):
            sc_weighted_sgd(data, dist.loss, domain, [0.0], 2000, noise_scale=0.0, eta=0.5)

    def test_one_pass_discipline(self):
        domain = ConvexDomain.ball([0.0], 1.0)
        dist = quadratic_sphere(domain, [0.0], 1.0)
        data = dist.sample_dataset(32, rng_seed=2)
        rec = sc_weighted_sgd(data, dist.loss, domain, [0.0], 32, noise_scale=0.5,
                              noise=NoiseStream(1))
        assert rec.gradient_evaluations == len(data)

    def test_weighted_average_excess_within_lemma_bound(self):
        # desk-scale check of the 5 L^2 log T / (lam T) guarantee
        domain = ConvexDomain.ball([0.0], 1.0)
        dist = quadratic_sphere(domain, [0.0], 1.0)  # L = 2, lam = 1
        T = 2000
        L, lam = dist.loss.lipschitz, dist.loss.strong_convexity
        excesses = []
        for trial in range(20):
            data = dist.sample_dataset(T, rng_seed=100 + trial)
            rec = sc_weighted_sgd(data, dist.loss, domain, [1.0], T, noise_scale=0.0)
            excesses.append(dist.excess_loss(rec.weighted_average))
        bound = 5.0 * L * L * math.log(T) / (lam * T)
        mean = float(np.mean(excesses))
        sem = float(np.std(excesses, ddof=1) / math.sqrt(len(excesses)))
        assert mean <= bound + 3 * sem


class TestScSnowball:
    def test_budget_equals_accountant(self):
        domain = ConvexDomain.ball([0.0] * 3, 1.0)
        dist = quadratic_sphere(domain, [0.0] * 3, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            T = int(rng.integers(2, 40))
            rho = float(rng.uniform(0.2, 3.0))
            batches = snowball_batches(T, 3, rho)
            data = dist.sample_dataset(sum(batches), rng_seed=int(rng.integers(1e6)))
            rec = sc_snowball(data, dist.loss, domain, [0.0] * 3, T, 3, rho, NoiseStream(8))
            eta = 2.0 * math.log(T) / T
            sched = Schedule(tuple(batches), (eta,) * T,
                             (dist.loss.lipschitz / math.sqrt(3),) * T)
            assert rec.declared_budget.rho == pytest.approx(
                pai_rho(sched, dist.loss.lipschitz).rho, rel=1e-12
            )
            assert rec.declared_budget.rho <= rho * (1 + 1e-9)

    def test_degenerate_single_step(self):
        domain = ConvexDomain.ball([0.0, 0.0], 1.0)
        dist = quadratic_sphere(domain, [0.0, 0.0], 1.0)
        batches = snowball_batches(1, 2, 1.0)
        assert batches == (math.ceil(2 * math.sqrt(2)),)
        data = dist.sample_dataset(batches[0], rng_seed=0)
        rec = sc_snowball(data, dist.loss, domain, [0.0, 0.0], 1, 2, 1.0,
                          NoiseStream(0), eta=0.1)
        assert rec.gradient_evaluations == batches[0]
        with pytest.raises(ValueError):
            sc_snowball(data, dist.loss, domain, [0.0, 0.0], 1, 2, 1.0, NoiseStream(0))

    def test_noiseless_deterministic_rate(self):
        # strongly convex contraction: gap shrinks like (1 - eta lam)^T
        domain = ConvexDomain.ball([0.0], 10.0)
        loss = quadratic_loss(domain, [3.0])
        T = 64
        eta = 2.0 * math.log(T) / T
        batches = snowball_batches(T, 1, 1.0)
        data = Dataset(np.full((sum(batches), 1), 3.0))
        rec = sc_snowball(data, loss, domain, [0.0], T, 1, 1.0, NoiseStream(0),
                          eta=eta, sigma=0.0)
        expected_gap = 3.0 * (1.0 - eta) ** T
        assert abs(rec.final_iterate[0] - 3.0) <= expected_gap * (1 + 1e-9)


def _defect_cases():
    """Column -> (distribution, step): no defect ("ok") and each kind of
    defect, in d = 4 on the unit ball. The quadratic losses declare beta = 8
    and lam = 1, so 2/beta = 0.25 lies below sc_weighted_sgd's
    1/(2 lam) = 0.5."""
    sphere = SPHERE4
    quad = LossFamily("quadratic", lipschitz=2.0, smoothness=8.0, strong_convexity=1.0)
    wide = linear_regression_sphere(BALL4, 3.0, [0.0] * 4, 0.0)  # |a| = 3, b = 0: L 9, beta 9
    far = quadratic_point_mass(BALL4, [100.0] * 4)
    return {
        "ok": (dataclasses.replace(sphere, loss=quad), 0.2),
        "not smooth": (dataclasses.replace(
            sphere, loss=dataclasses.replace(quad, smoothness=math.inf)), 0.2),
        "2/beta": (dataclasses.replace(sphere, loss=quad), 0.4),
        "declared beta": (dataclasses.replace(wide, loss=LossFamily(
            "linear_regression", lipschitz=10.0, smoothness=8.0, strong_convexity=1.0)), 0.2),
        "declared L": (dataclasses.replace(far, loss=quad), 0.2),
    }


def _claim(caller, dist, eta, w0=np.zeros(4)):
    """The budget ``caller`` declares for a run on a sample of ``dist`` at
    step ``eta`` (sensitivity_probe's report)."""
    loss = dist.loss
    if caller == "sensitivity_probe":
        return sensitivity_probe(dist, n=16, eta=eta, num_pairs=2, seed=0)
    if caller == "sc_snowball":
        batches = snowball_batches(8, 4, 4.0)
        return sc_snowball(dist.sample_dataset(sum(batches), 1), loss, BALL4, w0, 8, 4, 4.0,
                           NoiseStream(2), eta=eta).declared_budget
    data = dist.sample_dataset(64, 1)
    if caller == "pnsgd":
        return pnsgd(data, loss, BALL4, w0, Schedule.constant(64, 1, eta, 0.5),
                     NoiseStream(2)).declared_budget
    if caller == "sc_weighted_sgd":
        return sc_weighted_sgd(data, loss, BALL4, w0, 64, 0.5, NoiseStream(2),
                               eta=eta).declared_budget
    if caller == "phased_sgd":
        return phased_sgd(data, loss, BALL4, w0, eta, 1.0, NoiseStream(2)).declared_budget
    return phased_erm(data, loss, BALL4, w0, eta, 1.0, 1e-5, NoiseStream(2),
                      inner="exact" if loss.kind == "quadratic" else "sgd").declared_budget


# Each caller's response to each kind of defect: "warn" (a UserWarning and no
# budget), an exception it raises, or "ok" where its claim does not rely on
# that constant.
RESPONSES = {
    #                    not smooth     2/beta         declared beta  declared L
    "pnsgd":             ("warn",       "warn",        "warn",        "warn"),
    "sc_snowball":       ("warn",       "warn",        "warn",        "warn"),
    "sc_weighted_sgd":   ("warn",       "warn",        "warn",        "warn"),
    "phased_sgd":        ("warn",       StepSizeError, StepSizeError, StepSizeError),
    "phased_erm":        ("ok",         "ok",          "ok",          "warn"),
    "sensitivity_probe": (ValueError,   ValueError,    ValueError,    ValueError),
}
COLUMNS = ("not smooth", "2/beta", "declared beta", "declared L")


def _expect(response, column, run):
    """Run ``run()`` and check that it gives ``response`` to a defect whose
    message contains ``column``."""
    if response == "ok":
        assert run() is not None
    elif response == "warn":
        with pytest.warns(UserWarning, match=column):
            assert run() is None
    else:
        with pytest.raises(response, match=column):
            run()


class TestPrivacyPreconditions:
    """One check, LossFamily.support_defect, decides every claim's
    preconditions; each caller keeps its own response to a defect."""

    @pytest.mark.parametrize("caller", RESPONSES)
    @pytest.mark.parametrize("column", COLUMNS)
    def test_response_to_each_defect(self, caller, column):
        response = RESPONSES[caller][COLUMNS.index(column)]
        cases = _defect_cases()
        assert _claim(caller, *cases["ok"]) is not None
        # the "declared L" case is the data at 100 in d = 4: gradients reach
        # |x| + 1 = 201 over the unit ball
        pattern = "the data give L = 201 > declared L = 2" if column == "declared L" else column
        _expect(response, pattern, lambda: _claim(caller, *cases[column]))

    @pytest.mark.parametrize("caller", [c for c in RESPONSES if c != "phased_erm"])
    def test_one_relative_tolerance_on_the_step(self, caller):
        # eta = (2/beta)(1 - 1e-11) is accepted and (2/beta)(1 + 1e-11) is not
        dist, _ = _defect_cases()["ok"]
        assert _claim(caller, dist, 0.25 * (1.0 - 1e-11)) is not None
        response = RESPONSES[caller][COLUMNS.index("2/beta")]
        _expect(response, "2/beta", lambda: _claim(caller, dist, 0.25 * (1.0 + 1e-11)))


class TestWarningAttribution:
    @pytest.mark.parametrize("caller", ["pnsgd", "psgd", "phased_sgd", "phased_erm",
                                        "sc_weighted_sgd", "sc_snowball", "sc_reduction"])
    def test_warnings_name_the_calling_line(self, caller):
        # a start outside the domain, and data beyond the declared L (for
        # phased_sgd, which raises on that, a loss that is not smooth)
        outside = np.array([2.0, 0.0, 0.0, 0.0])
        cases = _defect_cases()
        dist, eta = cases["not smooth" if caller == "phased_sgd" else "declared L"]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            if caller == "psgd":
                psgd(dist.sample_dataset(8, 1), dist.loss, BALL4, outside, [eta] * 8)
            elif caller == "sc_reduction":
                sc_reduction(dist.sample_dataset(64, 1), dist.loss, BALL4, outside,
                             lambda data, loss, domain, w, noise: pnsgd(
                                 data, loss, domain, w,
                                 Schedule.constant(len(data), 1, eta, 0.5), noise),
                             NoiseStream(2))
            else:
                _claim(caller, dist, eta, w0=outside)
        messages = [str(w.message) for w in seen]
        assert any("projecting" in m for m in messages)
        assert caller == "psgd" or any("declared" in m for m in messages)
        assert {w.filename for w in seen} == {__file__}
