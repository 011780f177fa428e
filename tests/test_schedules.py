"""Batch, step, weight, and phase schedule constructors."""

import math

import numpy as np
import pytest

from dpsco.schedules import (
    MULTIPLIER_JNN,
    MULTIPLIER_SZ,
    AveragingWeights,
    InvalidScheduleError,
    Schedule,
    constant_step,
    jnn_steps,
    phase_plan,
    sc_weights,
    snowball_batches,
)


class TestSchedule:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidScheduleError):
            Schedule((1, 1), (0.1,), (1.0, 1.0))
        with pytest.raises(InvalidScheduleError):
            Schedule((0,), (0.1,), (1.0,))
        with pytest.raises(InvalidScheduleError):
            Schedule((1,), (-0.1,), (1.0,))
        with pytest.raises(InvalidScheduleError):
            Schedule((1,), (0.1,), (-1.0,))

    def test_total_samples(self):
        sched = Schedule((1, 2, 3), (0.1,) * 3, (0.0,) * 3)
        assert sched.total_samples() == 6

    def test_json_round_trip(self):
        sched = Schedule((1, 4), (0.5, 0.25), (1.0, 0.0))
        assert Schedule.from_json(sched.to_json()) == sched

    def test_json_missing_key(self):
        with pytest.raises(InvalidScheduleError):
            Schedule.from_json('{"B": [1], "eta": [0.1]}')

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_non_finite_entries_rejected(self, field, bad):
        lists = [[1, 2], [0.1, 0.1], [1.0, 1.0]]
        lists[field][1] = bad
        with pytest.raises(InvalidScheduleError, match="finite"):
            Schedule(*lists)

    def test_fractional_batch_sizes_rejected(self):
        with pytest.raises(InvalidScheduleError, match="integers"):
            Schedule((1, 2.5), (0.1, 0.1), (1.0, 1.0))
        with pytest.raises(InvalidScheduleError, match="integers"):
            Schedule.from_json('{"B": [1.9], "eta": [0.1], "sigma": [1.0]}')
        # integral floats are batch sizes
        assert Schedule((2.0,), (0.1,), (1.0,)).batch_sizes.tolist() == [2]

    def test_non_numeric_input_rejected(self):
        with pytest.raises(InvalidScheduleError):
            Schedule((1, "x"), (0.1, 0.1), (1.0, 1.0))
        with pytest.raises(InvalidScheduleError):
            Schedule(np.ones((2, 2)), (0.1, 0.1), (1.0, 1.0))
        with pytest.raises(InvalidScheduleError):
            Schedule.from_json("[1, 2]")

    def test_any_sequence_gives_equal_schedules(self):
        want = Schedule((1, 2, 3), (0.5, 0.25, 0.125), (1.0, 1.0, 0.0))
        assert Schedule([1, 2, 3], [0.5, 0.25, 0.125], [1.0, 1.0, 0.0]) == want
        assert Schedule(range(1, 4), np.array([0.5, 0.25, 0.125]),
                        np.array([1, 1, 0])) == want
        assert want != Schedule((1, 2, 4), (0.5, 0.25, 0.125), (1.0, 1.0, 0.0))
        assert want != Schedule((1, 2, 3), (0.5, 0.25, 0.125), (1.0, 1.0, 0.5))

    def test_arrays_are_read_only_copies(self):
        batches = np.array([1, 2, 3])
        steps = np.array([0.1, 0.2, 0.3])
        sched = Schedule(batches, steps, [1.0, 1.0, 1.0])
        assert sched.batch_sizes.dtype == np.int64
        assert sched.step_sizes.dtype == np.float64
        assert sched.noise_scales.dtype == np.float64
        for arr in (sched.batch_sizes, sched.step_sizes, sched.noise_scales):
            with pytest.raises(ValueError):
                arr[0] = 5
        batches[0] = 7
        steps[0] = 9.0
        assert sched.batch_sizes.tolist() == [1, 2, 3]
        assert sched.step_sizes.tolist() == [0.1, 0.2, 0.3]
        assert batches.flags.writeable
        with pytest.raises(TypeError):
            hash(sched)

    @pytest.mark.parametrize("batches", [
        [2**70, 3], [2**63, 3], [2.0**63, 3.0], [3.0, 1e30],
        np.array([2**64 - 1, 3], dtype=np.uint64), np.array([1e19, 3.0]),
    ])
    def test_batch_sizes_beyond_int64_rejected(self, batches):
        with pytest.raises(InvalidScheduleError, match="fit in int64"):
            Schedule(batches, (0.1, 0.1), (1.0, 1.0))

    @pytest.mark.parametrize("batches", [[2**62] * 3, [2**63 - 1, 3]])
    def test_total_beyond_int64_rejected(self, batches):
        T = len(batches)
        with pytest.raises(InvalidScheduleError, match="total batch size"):
            Schedule(batches, (0.1,) * T, (1.0,) * T)

    def test_large_batch_sizes_stay_exact(self):
        for batches in ([2**53 + 1, 3], [2**53 + 1, 3.0], (2**63 - 4, 3),
                        np.array([2**62 + 1, 3], dtype=np.uint64)):
            sched = Schedule(batches, (0.1, 0.1), (1.0, 1.0))
            assert sched.batch_sizes.tolist() == [int(b) for b in batches]
            assert sched.total_samples() == sum(int(b) for b in batches)

    def test_constant(self):
        sched = Schedule.constant(4, 3, 0.5, 2.0)
        assert sched == Schedule((3,) * 4, (0.5,) * 4, (2.0,) * 4)
        with pytest.raises(InvalidScheduleError):
            Schedule.constant(4, 1.5, 0.5, 2.0)


class TestSnowballBatches:
    def test_single_step_hand_value(self):
        # ceil(2 * sqrt(4 / 1) / 1) = 4
        assert snowball_batches(1, 4, 1.0, MULTIPLIER_SZ) == [4]

    def test_all_ones_when_rho_large(self):
        # ceil(sqrt(1 / (5 - t))) = 1 for every t
        assert snowball_batches(4, 1, 2.0, MULTIPLIER_SZ) == [1, 1, 1, 1]

    def test_last_entry_is_max(self):
        for T, d, rho in [(7, 3, 0.5), (50, 16, 1.0), (13, 1, 0.1)]:
            batches = snowball_batches(T, d, rho)
            assert batches[-1] == max(batches)
            assert batches[-1] == math.ceil(MULTIPLIER_SZ * math.sqrt(d) / rho)

    @pytest.mark.parametrize("multiplier", [MULTIPLIER_SZ, MULTIPLIER_JNN])
    def test_sample_bound_sweep(self, multiplier):
        # sum B_t <= T + 2 * multiplier * sqrt(d T) / rho over a broad sweep
        for T in list(range(1, 50)) + [200, 999, 1000]:
            for d in (1, 16, 256):
                for rho in (0.1, 1.0, 10.0):
                    total = sum(snowball_batches(T, d, rho, multiplier))
                    assert total <= T + 2.0 * multiplier * math.sqrt(d * T) / rho


class TestConstantStep:
    def test_hand_value(self):
        assert constant_step(4, 2.0, 1.0) == [1.0, 1.0, 1.0, 1.0]

    def test_single_step(self):
        assert constant_step(1, 3.0, 3.0) == [1.0]

    def test_length(self):
        assert len(constant_step(17, 1.0, 2.0)) == 17


def jnn_steps_loop(T: int, c: float) -> list[float]:
    """Reference band loop: fill each band T_i < t <= T_{i+1} one step at a time."""
    ell = max(0, math.ceil(math.log2(T)))
    bounds = [T - math.ceil(T * 2.0 ** (-i)) for i in range(ell + 1)] + [T]
    steps = [0.0] * T
    filled = [False] * T
    for i in range(ell + 1):
        for t in range(bounds[i] + 1, bounds[i + 1] + 1):
            steps[t - 1] = c * 2.0 ** (-i) / math.sqrt(T)
            filled[t - 1] = True
    assert all(filled), "step-size bands must cover every step"
    return steps


class TestJnnSteps:
    def test_equals_band_loop_exactly(self):
        for T in range(1, 3001):
            assert jnn_steps(T, 1.7) == jnn_steps_loop(T, 1.7)

    def test_equals_band_loop_exactly_large_T(self):
        rng = np.random.default_rng(11)
        for T in [2**20, 2**20 + 1, 10**6] + [int(t) for t in rng.integers(3001, 10**6, size=4)]:
            c = float(rng.uniform(0.1, 5.0))
            got = jnn_steps(T, c)
            assert type(got) is list and type(got[0]) is float
            assert got == jnn_steps_loop(T, c)

    def test_hand_evaluation_T4(self):
        # bands: T_0 = 0, T_1 = 2, T_2 = 3, T_3 = 4
        assert jnn_steps(4, 1.0) == [0.5, 0.5, 0.25, 0.125]

    def test_single_step(self):
        assert jnn_steps(1, 2.5) == [2.5]

    def test_band_identity_and_monotone(self):
        for T in range(1, 513):
            c = 1.7
            steps = jnn_steps(T, c)
            ell = max(0, math.ceil(math.log2(T)))
            assert steps[0] == pytest.approx(c / math.sqrt(T), rel=1e-15)
            assert steps[-1] == pytest.approx(c * 2.0 ** (-ell) / math.sqrt(T), rel=1e-15)
            assert all(a >= b for a, b in zip(steps, steps[1:]))
            allowed = {c * 2.0 ** (-i) / math.sqrt(T) for i in range(ell + 1)}
            assert set(steps) <= allowed


class TestScWeights:
    def test_near_uniform_limit(self):
        w = sc_weights(10, 1e-12, 1.0)
        assert all(abs(g - 1.0) <= 1e-9 for g in w.weights)

    def test_hand_value(self):
        w = sc_weights(2, 0.5, 1.0)
        assert w.weights == (2.0, 4.0)
        assert w.normalization == 6.0

    def test_diverging_weights_rejected(self):
        with pytest.raises(InvalidScheduleError):
            sc_weights(3, 1.0, 1.0)

    def test_normalization_lower_bound(self):
        # sum gamma_t = ((1 - eta lam)^-T - 1) / (eta lam) >= (e^(eta lam T) - 1) / (eta lam)
        for eta_lam, T in [(0.01, 50), (0.1, 20), (0.4, 7)]:
            w = sc_weights(T, eta_lam, 1.0)
            exact = ((1.0 - eta_lam) ** (-T) - 1.0) / eta_lam
            assert w.normalization == pytest.approx(exact, rel=1e-10)
            assert w.normalization >= (math.exp(eta_lam * T) - 1.0) / eta_lam

    def test_telescoping_identity(self):
        # (gamma_t - gamma_{t-1}) / eta - lam gamma_t = 0 for all t > 1
        eta, lam = 0.03, 2.0
        w = sc_weights(40, eta, lam).weights
        for t in range(1, 40):
            residual = (w[t] - w[t - 1]) / eta - lam * w[t]
            assert abs(residual) <= 1e-10 * w[t]

    def test_positive_weights_required(self):
        with pytest.raises(InvalidScheduleError):
            AveragingWeights((1.0, -1.0))


class TestPhasePlan:
    def test_geometric_n8(self):
        eta0 = 0.8
        plan = phase_plan(8, eta0, "geometric")
        assert [ni for ni, _ in plan] == [4, 2, 1]
        assert [e for _, e in plan] == [eta0 / 4, eta0 / 16, eta0 / 64]

    def test_geometric_n2_single_phase(self):
        plan = phase_plan(2, 1.0, "geometric")
        assert plan == [(1, 0.25)]

    def test_doubly_exponential_override(self):
        plan = phase_plan(16, 1.0, "doubly_exponential", k_override=2)
        assert [ni for ni, _ in plan] == [8, 8]
        assert [e for _, e in plan] == [0.25, 0.0625]

    def test_conservation_and_ratios(self):
        for n in (2, 3, 17, 100, 4096):
            plan = phase_plan(n, 1.0, "geometric")
            assert sum(ni for ni, _ in plan) <= n
            for (_, e1), (_, e2) in zip(plan, plan[1:]):
                assert e2 / e1 == 0.25
        plan = phase_plan(1000, 1.0, "doubly_exponential")
        assert sum(ni for ni, _ in plan) <= 1000
        for i, ((_, e1), (_, e2)) in enumerate(zip(plan, plan[1:]), start=1):
            assert e2 / e1 == 2.0 ** (-(2.0 ** i))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            phase_plan(1, 1.0, "geometric")
