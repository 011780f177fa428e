"""Optimization algorithms: exact small cases, coupling-based sensitivity,
phase noise calibration, and determinism."""

import math

import numpy as np
import pytest

from dpsco.accountant import ApproxDP, PrivacyBudget, pai_rho
from dpsco.geometry import ConvexDomain, check_contraction, project
from dpsco.losses import (
    Dataset,
    absolute_deviation_uniform,
    linear_regression_sphere,
    quadratic_point_mass,
    quadratic_sphere,
)
from dpsco.optimizers import (
    DataSizeError,
    NoiseStream,
    RunRecord,
    StepSizeError,
    phased_erm,
    phased_sgd,
    pnsgd,
    psgd,
    run_record_to_json,
    sc_reduction,
    sc_snowball,
    sc_weighted_sgd,
)
from dpsco.schedules import Schedule, phase_plan, snowball_batches

BALL1 = ConvexDomain.ball([0.0], 10.0)
BALL2 = ConvexDomain.ball([0.0, 0.0], 1.0)


def quadratic_loss(domain, center=None):
    c = np.zeros(domain.dimension) if center is None else np.asarray(center, dtype=float)
    return quadratic_point_mass(domain, c).loss


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
        loss = quadratic_loss(BALL1)
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
        # a quadratic the iterate lands exactly on each batch mean in turn
        loss = quadratic_loss(BALL1)
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
        np.testing.assert_array_equal(rec1.final_iterate, rec2.final_iterate)
        assert run_record_to_json(rec1) == run_record_to_json(rec2)


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
        plan = phase_plan(64, eta, "geometric")
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
            plan = phase_plan(n, eta, "geometric")
            offset = 0
            for (pa, pb, (ni, eta_i)) in zip(rec_a.phase_log, rec_b.phase_log, plan):
                if offset <= j < offset + ni:
                    # phases after the differing block coincide only up to
                    # propagation; the differing phase itself is the bound
                    assert np.linalg.norm(pa.iterate - pb.iterate) <= 2 * L * eta_i + 1e-9
                    break
                offset += ni
        # noise magnitude claim, as an arithmetic identity on the schedule
        for i, (_, eta_i) in enumerate(phase_plan(n, eta, "geometric"), start=1):
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

    def test_one_pass_budgets(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        n = 129
        data = dist.sample_dataset(n, rng_seed=9)
        rec = phased_sgd(data, dist.loss, BALL2, [0.0, 0.0], 0.5, 1.0, NoiseStream(1))
        plan_total = sum(ni for ni, _ in phase_plan(n, 0.5, "geometric"))
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
        plan = phase_plan(n, eta, "geometric")
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
        for entry, (ni, eta_i) in zip(rec.phase_log, phase_plan(n, eta, "geometric")):
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
        cap = 8.0 * sum(ni**2 for ni, _ in phase_plan(n, 0.5, "geometric"))
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
        plan = phase_plan(32, 0.25, "geometric")
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

    def test_delta_range_enforced(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = dist.sample_dataset(8, rng_seed=8)
        with pytest.raises(ValueError):
            phased_erm(data, dist.loss, BALL2, [0.0, 0.0], 0.25, epsilon=1.0,
                       delta=1.5, noise=NoiseStream(0))


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
        assert batches == [math.ceil(2 * math.sqrt(2))]
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


class TestRunRecordSerialization:
    def test_small_dimension_keeps_iterates(self):
        rec = RunRecord(np.array([1.0, 2.0]), None, 3, (), 5, PrivacyBudget(0.1))
        out = run_record_to_json(rec)
        assert '"final_iterate": [1.0, 2.0]' in out

    def test_large_dimension_elided(self):
        rec = RunRecord(np.ones(100), None, 3, (), 5, None)
        out = run_record_to_json(rec)
        assert '"dimension": 100' in out
        assert out.count("1.0,") < 100
