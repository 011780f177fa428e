"""Analytic accountant against independent numerical oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import log_ndtr

from dpsco.accountant import (
    ApproxDP,
    PrivacyBudget,
    gaussian_renyi,
    gaussian_sigma,
    pai_rho,
    rdp_to_dp,
    rdp_to_dp_general,
)
from dpsco.geometry import ConvexDomain
from dpsco.losses import quadratic_sphere
from dpsco.optimizers import NoiseStream, phased_erm, pnsgd
from dpsco.schedules import Schedule, constant_step, phase_plan, snowball_batches
from shift_allocation import (
    InvalidAllocationError,
    ShiftSequence,
    optimal_single_shift_allocation,
    pai_divergence_general,
)


def renyi_divergence_quadrature(shift: float, sigma: float, alpha: float) -> float:
    """Independent oracle: numerically integrate the order-alpha divergence
    between N(shift, sigma^2) and N(0, sigma^2) in one dimension."""

    def integrand(z):
        log_mu = -0.5 * ((z - shift) / sigma) ** 2
        log_nu = -0.5 * (z / sigma) ** 2
        return math.exp(alpha * (log_mu - log_nu) + log_nu) / (sigma * math.sqrt(2 * math.pi))

    lo = min(0.0, shift) - 12.0 * sigma * max(1.0, alpha)
    hi = max(0.0, shift) + 12.0 * sigma * max(1.0, alpha)
    value, _ = integrate.quad(integrand, lo, hi, limit=400)
    return math.log(value) / (alpha - 1.0)


def brute_force_pai_rho(schedule: Schedule, lipschitz: float) -> float:
    """Independent O(T^2) reference: recompute every suffix sum from scratch."""
    T = schedule.num_steps
    worst = 0.0
    for t in range(T):
        suffix = 0.0
        for s in range(t, T):
            suffix += (schedule.step_sizes[s] * schedule.noise_scales[s]) ** 2
        if schedule.step_sizes[t] == 0.0:
            continue
        if suffix == 0.0:
            return math.inf
        worst = max(worst, schedule.step_sizes[t] / (schedule.batch_sizes[t] * math.sqrt(suffix)))
    return 2.0 * lipschitz * worst


class TestGaussianRenyi:
    def test_zero_shift_is_free(self):
        assert gaussian_renyi(0.0, 2.0, 5.0) == 0.0
        assert gaussian_renyi(0.0, 0.0, 5.0) == 0.0

    def test_unit_ratio_order_two(self):
        assert gaussian_renyi(3.0, 3.0, 2.0) == 1.0

    def test_order_four_against_quadrature(self):
        assert gaussian_renyi(1.0, 1.0, 4.0) == 2.0
        assert abs(renyi_divergence_quadrature(1.0, 1.0, 4.0) - 2.0) <= 1e-6

    def test_zero_noise_is_infinite_not_an_exception(self):
        assert gaussian_renyi(0.5, 0.0, 2.0) == math.inf

    def test_quadrature_oracle_random_triples(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            shift = float(rng.uniform(0.0, 3.0))
            sigma = float(rng.uniform(0.3, 3.0))
            alpha = float(rng.uniform(1.1, 8.0))
            expected = renyi_divergence_quadrature(shift, sigma, alpha)
            assert abs(gaussian_renyi(shift, sigma, alpha) - expected) <= 1e-6


class TestPaiRho:
    def test_constant_schedule_single_example_batches(self):
        # max attained at the last step where the suffix is a single term
        sched = Schedule.constant(T=10, batch_size=1, eta=0.3, sigma=2.0)
        budget = pai_rho(sched, lipschitz=1.5)
        assert budget.rho == pytest.approx(2.0 * 1.5 / 2.0, rel=1e-15)

    def test_constant_batches_factor_out(self):
        sched = Schedule.constant(T=7, batch_size=5, eta=0.3, sigma=0.5)
        budget = pai_rho(sched, lipschitz=2.0)
        assert budget.rho == pytest.approx(2.0 * 2.0 / (5 * 0.5), rel=1e-15)

    def test_zero_noise_gives_infinite_budget(self):
        sched = Schedule((1, 1), (0.1, 0.1), (1.0, 0.0))
        assert pai_rho(sched, 1.0).is_infinite

    def test_zero_lipschitz_gives_zero(self):
        sched = Schedule.constant(T=3, batch_size=1, eta=1.0, sigma=1.0)
        assert pai_rho(sched, 0.0).rho == 0.0

    def test_matches_brute_force_on_random_schedules(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            T = int(rng.integers(1, 40))
            sched = Schedule(
                tuple(int(b) for b in rng.integers(1, 6, size=T)),
                tuple(float(e) for e in rng.uniform(0.01, 2.0, size=T)),
                tuple(float(s) for s in rng.uniform(0.1, 3.0, size=T)),
            )
            L = float(rng.uniform(0.1, 4.0))
            got = pai_rho(sched, L).rho
            want = brute_force_pai_rho(sched, L)
            assert got == pytest.approx(want, rel=1e-12)

    def test_array_schedules_match_brute_force(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            T = int(rng.integers(1, 60))
            eta = rng.uniform(0.01, 2.0, size=T)
            eta[rng.random(T) < 0.2] = 0.0  # inactive steps
            sched = Schedule(rng.integers(1, 6, size=T), eta, rng.uniform(0.1, 3.0, size=T))
            L = float(rng.uniform(0.1, 4.0))
            assert pai_rho(sched, L).rho == pytest.approx(brute_force_pai_rho(sched, L), rel=1e-12)

    def test_snowball_self_consistency(self):
        # the growing-batch schedule with sigma = L / sqrt(d) meets its target
        L = 1.3
        for T in (1, 2, 5, 37, 200):
            for d in (1, 16):
                for rho0 in (0.25, 1.0, 5.0):
                    sched = Schedule(
                        tuple(snowball_batches(T, d, rho0)),
                        tuple(constant_step(T, 2.0, math.sqrt(2.0) * L)),
                        (L / math.sqrt(d),) * T,
                    )
                    assert pai_rho(sched, L).rho <= rho0 * (1.0 + 1e-9)

    def test_monotone_in_batches_and_noise(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            T = int(rng.integers(2, 20))
            batches = [int(b) for b in rng.integers(1, 5, size=T)]
            etas = tuple(float(e) for e in rng.uniform(0.01, 1.0, size=T))
            sigmas = [float(s) for s in rng.uniform(0.2, 2.0, size=T)]
            base = pai_rho(Schedule(tuple(batches), etas, tuple(sigmas)), 1.0).rho
            t = int(rng.integers(0, T))
            bigger_b = list(batches)
            bigger_b[t] += 3
            assert pai_rho(Schedule(tuple(bigger_b), etas, tuple(sigmas)), 1.0).rho <= base + 1e-15
            bigger_s = list(sigmas)
            bigger_s[t] *= 2.0
            assert pai_rho(Schedule(tuple(batches), etas, tuple(bigger_s)), 1.0).rho <= base + 1e-15


def fraction_rho_squared(schedule: Schedule) -> Fraction | None:
    """(rho / 2L)^2 = max_t eta_t^2 / (B_t^2 sum_{s >= t} eta_s^2 sigma_s^2) in
    exact rationals; None where a step is taken over a zero noise suffix."""
    eta = [Fraction(float(e)) for e in schedule.step_sizes]
    sigma = [Fraction(float(s)) for s in schedule.noise_scales]
    worst, suffix = Fraction(0), Fraction(0)
    for t in reversed(range(schedule.num_steps)):
        suffix += (eta[t] * sigma[t]) ** 2
        if eta[t] == 0:
            continue
        if suffix == 0:
            return None
        worst = max(worst, eta[t] ** 2 / (int(schedule.batch_sizes[t]) ** 2 * suffix))
    return worst


@st.composite
def subnormal_schedules(draw):
    """1-5 steps whose products eta_t sigma_t square to subnormals: eta_t
    log-uniform in [1e-170, 1e-150] (or 0), sigma_t in [1e-3, 10], B_t in 1-3,
    and optionally a first step of normal size."""
    T = draw(st.integers(1, 5))
    eta = draw(st.lists(st.one_of(st.just(0.0), st.floats(-170.0, -150.0).map(
        lambda x: 10.0 ** x)), min_size=T, max_size=T))
    if draw(st.booleans()):
        eta[0] = draw(st.floats(1e-3, 1.0))
    sigma = draw(st.lists(st.floats(-3.0, 1.0).map(lambda x: 10.0 ** x), min_size=T, max_size=T))
    return Schedule(draw(st.lists(st.integers(1, 3), min_size=T, max_size=T)), eta, sigma)


class TestPaiRhoNeverUnderstates:
    """A square rounded onto the subnormal grid can grow by half its size, so
    a subnormal suffix sum can lower a term; pai_rho must not."""

    @settings(max_examples=500, deadline=None)
    @given(subnormal_schedules())
    def test_rho_is_infinite_or_at_least_the_exact_value(self, sched):
        got = pai_rho(sched, 1.0).rho
        exact = fraction_rho_squared(sched)
        if exact is None or got == math.inf:
            assert got == math.inf
            return
        assert (Fraction(got) / 2) ** 2 >= exact * Fraction(1.0 - 1e-12) ** 2

    def test_one_subnormal_square(self):
        # (eta sigma)^2 = 7.66e-324 rounds up to 1.0e-323; rho = 2L / (B sigma) = 2
        sched = Schedule([1], [2.76731232616402e-162], [1.0])
        assert pai_rho(sched, 1.0).rho == 2.0
        dist = quadratic_sphere(ConvexDomain.ball([0.0], 1.0), [0.0], 1.0)
        record = pnsgd(dist.sample_dataset(1, 0), dist.loss, dist.domain, [0.0], sched,
                       NoiseStream(0))
        assert dist.loss.lipschitz == 2.0 and record.declared_budget.rho == 4.0

    def test_square_that_underflows_to_zero(self):
        # (2.2e-309)^2 is 0 in float64; rescaled, the last step's term is 1
        sched = Schedule([1] * 13, [0.0] * 12 + [2.2e-309], [1.0] * 13)
        assert pai_rho(sched, 1.5).rho == 3.0


def exact_affine_rho(schedule: Schedule, lipschitz: float, contractions) -> list[float]:
    """Independent oracle: the exact privacy loss mu_t of every step t of the
    affine noisy iteration, as :func:`exact_affine_mu` gives it."""
    return [exact_affine_mu(schedule, lipschitz, contractions, t)
            for t in range(schedule.num_steps)]


def exact_affine_mu(schedule: Schedule, lipschitz: float, contractions, t: int) -> float:
    """Independent oracle: the exact privacy loss mu_t of step t (from 0) of
    the affine noisy iteration w_t = c_t w_{t-1} + a_t + eta_t sigma_t xi_t,
    whose neighbours differ in one a_t by at most 2 L eta_t / B_t. With
    P_s = prod_{u>s} c_u the last iterate is Gaussian with variance
    sum_s P_s^2 eta_s^2 sigma_s^2, and a change at step t shifts its mean by
    P_t 2 L eta_t / B_t, so
    mu_t = 2 L eta_t / (B_t sqrt(sum_s (P_s / P_t)^2 eta_s^2 sigma_s^2)), or 0
    when P_t = 0. The ratios P_s / P_t are taken one factor at a time and the
    root by ``math.hypot``, so tiny contractions neither underflow nor
    overflow the sum."""
    B = schedule.batch_sizes.tolist()
    eta, sigma = schedule.step_sizes.tolist(), schedule.noise_scales.tolist()
    T = len(B)
    if eta[t] == 0.0 or 0.0 in contractions[t + 1:]:
        return 0.0
    terms, ratio = [eta[t] * sigma[t]], 1.0
    for s in range(t + 1, T):  # P_s / P_t = 1 / prod_{t<u<=s} c_u
        ratio /= contractions[s]
        terms.append(ratio * eta[s] * sigma[s] if eta[s] * sigma[s] else 0.0)
    ratio = 1.0
    for s in range(t - 1, -1, -1):  # P_s / P_t = prod_{s<u<=t} c_u
        ratio *= contractions[s + 1]
        terms.append(ratio * eta[s] * sigma[s])
    scale = math.hypot(*terms)
    return 2.0 * lipschitz * eta[t] / (B[t] * scale) if scale else math.inf


@st.composite
def affine_cases(draw, step=st.floats(0.0, 1.0)):
    """A schedule, L and contractions c_t drawn from {0, 1} or [0, 1]; step
    sizes are a scale in [1e-3, 1e3] times 0, 1 or a ``step`` draw."""
    T = draw(st.integers(1, 40))
    unit = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    batches = draw(st.lists(st.integers(1, 6), min_size=T, max_size=T))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    steps = st.one_of(st.just(0.0), st.just(1.0), step)
    eta = [scale * e for e in draw(st.lists(steps, min_size=T, max_size=T))]
    sigma = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-2, 5.0)), min_size=T, max_size=T))
    contractions = draw(st.lists(unit, min_size=T, max_size=T))
    return Schedule(batches, eta, sigma), draw(st.floats(0.1, 4.0)), contractions


class TestExactAffineOracle:
    """pai_rho is the supremum of the exact loss over contractions in [0, 1]."""

    @settings(max_examples=300, deadline=None)
    @given(affine_cases())
    def test_exact_loss_never_exceeds_rho(self, case):
        sched, L, contractions = case
        assert max(exact_affine_rho(sched, L, contractions)) <= (
            pai_rho(sched, L).rho * (1.0 + 1e-12))

    # Steps of at least 1e-6 keep every eta_s^2 sigma_s^2 a normal float:
    # where the suffix sums stay subnormal even after rescaling, pai_rho
    # returns an infinite budget rather than the exact value.
    @settings(max_examples=300, deadline=None)
    @given(affine_cases(step=st.floats(1e-3, 1.0)))
    def test_rho_is_the_exact_loss_at_the_extremal_contractions(self, case):
        # c_t = 0 forgets everything before step t, and c_u = 1 after it
        # keeps every later noise draw: mu_t is then the term of step t
        sched, L, _ = case
        T = sched.num_steps
        extremal = [exact_affine_mu(sched, L, [1.0] * t + [0.0] + [1.0] * (T - t - 1), t)
                    for t in range(T)]
        assert max(extremal) == pytest.approx(pai_rho(sched, L).rho, rel=1e-12)


class TestShiftAllocation:
    def test_zero_shift_allocates_nothing(self):
        seq = optimal_single_shift_allocation(0.0, 1, [1.0, 1.0, 1.0])
        assert seq.allocation == (0.0, 0.0, 0.0)
        assert pai_divergence_general(seq, [1.0, 1.0, 1.0], 2.0) == 0.0

    def test_uniform_noise_equal_shares(self):
        seq = optimal_single_shift_allocation(1.0, 0, [1.0] * 4)
        assert seq.allocation == (0.25, 0.25, 0.25, 0.25)
        z = seq.slack()
        assert np.all(z >= -1e-15)
        assert abs(z[-1]) <= 1e-15

    def test_variance_proportional_shares(self):
        seq = optimal_single_shift_allocation(5.0, 0, [1.0, 2.0])
        assert seq.allocation == (1.0, 4.0)

    def test_closed_form_consistency(self):
        # the optimal allocation achieves alpha s^2 / (2 sum of suffix variances)
        rng = np.random.default_rng(21)
        for _ in range(50):
            T = int(rng.integers(1, 12))
            t = int(rng.integers(0, T))
            sigmas = [float(s) for s in rng.uniform(0.2, 2.5, size=T)]
            s = float(rng.uniform(0.0, 3.0))
            alpha = float(rng.uniform(1.0, 10.0))
            seq = optimal_single_shift_allocation(s, t, sigmas)
            got = pai_divergence_general(seq, sigmas, alpha)
            want = alpha * s * s / (2.0 * sum(x * x for x in sigmas[t:]))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_suffix_length_monotonicity(self):
        # with uniform noise the divergence scales as 1 / (T - t + 1)
        sigmas = [1.0] * 10
        values = [
            pai_divergence_general(
                optimal_single_shift_allocation(1.0, t, sigmas), sigmas, 2.0
            )
            for t in range(10)
        ]
        for t in range(9):
            assert values[t] / values[t + 1] == pytest.approx((10 - t - 1) / (10 - t), rel=1e-12)

    def test_front_loaded_allocation_rejected(self):
        seq = ShiftSequence(shifts=(0.0, 1.0), allocation=(0.5, 0.5))
        with pytest.raises(InvalidAllocationError):
            pai_divergence_general(seq, [1.0, 1.0], 2.0)


def hockey_stick_quadrature(mu: float, epsilon: float) -> float:
    """Independent oracle: the (epsilon, delta) curve of the Gaussian
    mechanism, the integral of max(0, p - e^epsilon q) for p = N(mu, 1) and
    q = N(0, 1), which is positive past x = epsilon/mu + mu/2."""

    def integrand(x):
        return (math.exp(-0.5 * (x - mu) ** 2) / math.sqrt(2 * math.pi)
                * -math.expm1(epsilon - mu * x + mu * mu / 2.0))

    start = epsilon / mu + mu / 2.0
    value, _ = integrate.quad(integrand, start, max(start, mu) + 40.0, epsabs=0.0,
                              epsrel=1e-12, limit=400)
    return value


class TestGaussianSigma:
    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 4.0, 8.0, 16.0])
    @pytest.mark.parametrize("delta", [1e-10, 2e-5, 0.1])
    def test_smallest_sigma_meeting_delta(self, epsilon, delta):
        sigma = gaussian_sigma(2.5, epsilon, delta)
        assert hockey_stick_quadrature(2.5 / sigma, epsilon) <= delta * (1 + 1e-9)
        assert hockey_stick_quadrature(2.5 / (sigma * (1 - 1e-6)), epsilon) > delta

    def test_edges(self):
        assert gaussian_sigma(0.0, 1.0, 1e-5) == 0.0
        assert gaussian_sigma(1.0, math.inf, 1e-5) == 0.0
        assert gaussian_sigma(1.0, 1.0, 1.0) == 0.0
        assert 0.0 < gaussian_sigma(1.0, 1e4, 1e-5) < math.inf  # e^epsilon overflows
        # the two terms of the curve cancel in float64 here: sigma stays safe
        sigma = gaussian_sigma(1.0, 1e-12, 1e-300)
        assert hockey_stick_quadrature(1.0 / sigma, 1e-12) <= 1e-300
        for bad in ((-1.0, 1.0, 1e-5), (1.0, 0.0, 1e-5), (1.0, 1.0, 0.0), (math.nan, 1.0, 0.1)):
            with pytest.raises(ValueError):
                gaussian_sigma(*bad)

    @pytest.mark.parametrize("inner, factor", [("sgd", 3.0), ("exact", 1.0)])
    @pytest.mark.parametrize("epsilon", [1.0, 4.0, 8.0, 16.0])
    def test_phased_erm_meets_its_declared_delta(self, inner, factor, epsilon):
        # every phase releases a candidate of sensitivity factor * L * eta_i
        # plus N(0, sigma_i^2 I): at the declared epsilon its divergence is
        # the declared 2 delta. Noise of 4 L eta_i sqrt(ln(1/delta)) / epsilon
        # gave 2.07 times 2 delta at epsilon 8 with the certified inner SGD
        domain = ConvexDomain.ball([0.0, 0.0], 1.0)
        dist = quadratic_sphere(domain, [0.0, 0.0], 1.0)
        n, eta, delta = 32, 0.25, 1e-5
        data = dist.sample_dataset(n, rng_seed=8)
        rec = phased_erm(data, dist.loss, domain, [0.0, 0.0], eta, epsilon, delta,
                         NoiseStream(3), inner=inner)
        assert rec.declared_budget == ApproxDP(epsilon, 2 * delta)
        L = dist.loss.lipschitz
        assert len(rec.phase_log) == len(phase_plan(n, eta)) == 5
        for entry, (_, eta_i) in zip(rec.phase_log, phase_plan(n, eta)):
            got = hockey_stick_quadrature(factor * L * eta_i / entry.noise_scale, epsilon)
            assert 2 * delta * (1 - 1e-9) <= got <= 2 * delta * (1 + 1e-9)


@pytest.mark.parametrize("epsilon, delta", [(100.0, 1e-300), (800.0, 1e-300), (800.0, 2e-5)])
def test_gaussian_sigma_is_tight_where_the_second_phi_underflows(epsilon, delta):
    # Phi(-epsilon/mu - mu/2) is below the smallest float here; dropping its
    # term gave a true delta of 0.066, 0.32 and 0.89 of the target
    mu = 1.0 / gaussian_sigma(1.0, epsilon, delta)
    b = -epsilon / mu - mu / 2.0
    head, tail = float(log_ndtr(b + mu)), float(log_ndtr(b))
    true_delta = math.exp(head) * -math.expm1(epsilon + tail - head)
    assert 1.0 - 1e-9 <= true_delta / delta <= 1.0


class TestPrivacyBudget:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            PrivacyBudget(math.nan)

    def test_infinite_allowed(self):
        assert PrivacyBudget(math.inf).is_infinite
        assert rdp_to_dp(PrivacyBudget(math.inf), 1e-6) == math.inf


class TestRdpToDp:
    def test_zero_budget(self):
        assert rdp_to_dp(PrivacyBudget(0.0), 1e-6) == 0.0
        assert rdp_to_dp_general(PrivacyBudget(0.0), 1e-6) == 0.0

    def test_paper_closed_form(self):
        # rho = 1, delta = e^-2: 1/2 + sqrt(2 * 2) = 2.5
        assert rdp_to_dp(PrivacyBudget(1.0), math.exp(-2.0)) == pytest.approx(2.5, rel=1e-15)

    def test_optimal_order_recovers_closed_form(self):
        # alpha* = 1 + sqrt(2 ln(1/delta)) / rho = 3 at rho = 1, delta = e^-2
        budget = PrivacyBudget(1.0)
        delta = math.exp(-2.0)
        assert rdp_to_dp_general(budget, delta, alpha=3.0) == pytest.approx(2.5, rel=1e-15)
        assert rdp_to_dp_general(budget, delta) == pytest.approx(2.5, rel=1e-15)

    @pytest.mark.filterwarnings("ignore:rho = .* exceeds")
    def test_closed_form_never_beats_optimized(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            budget = PrivacyBudget(float(rng.uniform(0.01, 2.0)))
            delta = float(rng.uniform(1e-9, 0.05))
            rho = budget.rho
            closed = rho * rho / 2.0 + rho * math.sqrt(2.0 * math.log(1.0 / delta))
            assert rdp_to_dp(budget, delta) == closed
            assert rdp_to_dp_general(budget, delta) == closed
            # the closed form is the minimum over orders: it is attained at the
            # optimal order, and no other order beats it
            best = 1.0 + math.sqrt(2.0 * math.log(1.0 / delta)) / rho
            assert rdp_to_dp_general(budget, delta, best) == pytest.approx(closed, rel=1e-12)
            for alpha in (1.5, 2.0, 8.0, 64.0, best * 0.999, best * 1.001):
                assert rdp_to_dp_general(budget, delta, alpha) >= closed - 1e-12

    def test_subnormal_rho_stays_finite(self):
        # the optimal order 1 + sqrt(2 ln(1/delta)) / rho overflows here
        budget = PrivacyBudget(1e-310)
        expected = 1e-310 * math.sqrt(2.0 * math.log(1e6))
        for value in (rdp_to_dp(budget, 1e-6), rdp_to_dp_general(budget, 1e-6)):
            assert abs(value - expected) <= 1e-6 * expected

    def test_delta_range(self):
        with pytest.raises(ValueError):
            rdp_to_dp(PrivacyBudget(1.0), 0.0)
        with pytest.raises(ValueError):
            rdp_to_dp(PrivacyBudget(1.0), 1.0)

    def test_large_rho_warns_but_returns(self):
        budget = PrivacyBudget(10.0)
        with pytest.warns(UserWarning):
            value = rdp_to_dp(budget, 1e-2)
        assert value == pytest.approx(50.0 + 10.0 * math.sqrt(2.0 * math.log(100.0)))
