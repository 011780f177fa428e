"""Batch, step, weight, and phase schedule constructors."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from dpsco.empirics import _snowball_plan
from dpsco.geometry import ConvexDomain
from dpsco.losses import Dataset, LossFamily
from dpsco.optimizers import sc_weighted_sgd
from dpsco.schedules import (
    MULTIPLIER_JNN,
    MULTIPLIER_SZ,
    InvalidScheduleError,
    Schedule,
    constant_step,
    jnn_steps,
    phase_plan,
    sc_weights,
    snowball_batches,
    snowball_sizes,
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

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal_and_read_only(self, duplicate):
        # a deep copy or an unpickled schedule had writeable fields, so
        # step_sizes[0] = -5.0 gave a schedule the constructor refuses
        sched = Schedule((1, 2), (0.5, 0.25), (1.0, 2.0))
        dup = duplicate(sched)
        assert dup == sched
        for name in ("batch_sizes", "step_sizes", "noise_scales"):
            field = getattr(dup, name)
            assert not field.flags.writeable
            assert not np.shares_memory(field, getattr(sched, name))
            with pytest.raises(ValueError):
                field[0] = -5

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

    def test_bools_are_zero_and_one(self):
        # the list path packs with struct, which takes a bool as an int; a
        # per-entry type screen would cost three to four times the packing
        sched = Schedule([True, 2], [0.5, False], (1.0, True))
        assert sched.batch_sizes.tolist() == [1, 2] and sched.batch_sizes.dtype == np.int64
        assert sched.step_sizes.tolist() == [0.5, 0.0]
        assert sched.noise_scales.tolist() == [1.0, 1.0]
        assert Schedule(np.ones(2, bool), np.zeros(2, bool), [1.0, 1.0]) == Schedule(
            [1, 1], [0.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("fields, message", [
        (([0, 2], [0.5], [1.0, 1.0]), "batch sizes must be >= 1"),
        ((np.array([1, 0]), [0.5, 0.5, 0.5], [1.0]), "batch sizes must be >= 1"),
        (([1, 2], [-0.5], [1.0, 1.0]), "step sizes must be nonnegative"),
        (([1, 2], [0.5, 0.5], (-1.0,)), "noise scales must be nonnegative"),
        (([0], [0.5, float("nan")], [1.0]), "batch sizes must be >= 1"),
    ], ids=["zero batch, short steps", "zero batch array, long steps", "negative step",
            "negative noise", "zero batch, nan step"])
    def test_a_field_is_checked_before_the_fields_are_related(self, fields, message):
        # each field alone goes through one rule first; the lengths, the step
        # count and the batch total are related after it
        with pytest.raises(InvalidScheduleError, match=f"^{message}$"):
            Schedule(*fields)

    def test_non_numeric_input_rejected(self):
        with pytest.raises(InvalidScheduleError):
            Schedule((1, "x"), (0.1, 0.1), (1.0, 1.0))
        with pytest.raises(InvalidScheduleError):
            Schedule(np.ones((2, 2)), (0.1, 0.1), (1.0, 1.0))
        with pytest.raises(InvalidScheduleError):
            Schedule.from_json("[1, 2]")

    @pytest.mark.parametrize("text", [
        '{"B": ["3"], "eta": ["0.5"], "sigma": ["1"]}',
        '{"B": [true], "eta": [0.5], "sigma": [1.0]}',
        '{"B": [1, 2], "eta": [0.5, false], "sigma": [1.0, 1.0]}',
        '{"B": [1], "eta": [0.5], "sigma": [null]}',
        '{"B": [[1]], "eta": [0.5], "sigma": [1.0]}',
        '{"B": "12", "eta": [0.5, 0.5], "sigma": [1.0, 1.0]}',
        '{"B": 1, "eta": [0.5], "sigma": [1.0]}',
    ], ids=["strings", "true batch", "false step", "null noise", "nested list",
            "string field", "number field"])
    def test_json_entries_must_be_numbers(self, text):
        with pytest.raises(InvalidScheduleError, match="must be a list of numbers"):
            Schedule.from_json(text)

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

    @pytest.mark.parametrize("args", [(5, 3, 0.5, 2.0), (1, 1, 0.0, 0.0), (4, 2.0, 1, 3),
                                      (3, np.int64(7), np.float64(0.25), 1.5)])
    def test_constant_fields_are_owned_contiguous_and_read_only(self, args):
        T, batch, eta, sigma = args
        sched = Schedule.constant(*args)
        for arr, value, dtype in ((sched.batch_sizes, batch, np.int64),
                                  (sched.step_sizes, eta, np.float64),
                                  (sched.noise_scales, sigma, np.float64)):
            np.testing.assert_array_equal(arr, np.full(T, value, dtype=dtype))
            assert arr.dtype == dtype and arr.shape == (T,)
            assert arr.flags.owndata and arr.flags.c_contiguous
            assert arr.strides == (8,)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_constant_refuses_what_the_constructor_refuses(self):
        # T = 0 was refused as an empty schedule; T is now a count (_whole)
        with pytest.raises(ValueError, match="^T must be >= 1, got 0$"):
            Schedule.constant(0, 1, 0.5, 1.0)
        with pytest.raises(InvalidScheduleError, match="finite"):
            Schedule.constant(3, 1, math.inf, 1.0)
        with pytest.raises(InvalidScheduleError, match="nonnegative"):
            Schedule.constant(3, 1, 0.5, -1.0)


class TestSnowballBatches:
    def test_single_step_hand_value(self):
        # ceil(2 * sqrt(4 / 1) / 1) = 4
        assert snowball_batches(1, 4, 1.0, MULTIPLIER_SZ) == (4,)

    def test_all_ones_when_rho_large(self):
        # ceil(sqrt(1 / (5 - t))) = 1 for every t
        assert snowball_batches(4, 1, 2.0, MULTIPLIER_SZ) == (1, 1, 1, 1)

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

    @pytest.mark.parametrize("rho, multiplier, message", [
        (math.nan, MULTIPLIER_SZ, "rho must be positive"),
        (0.0, MULTIPLIER_SZ, "rho must be positive"),
        (1.0, math.nan, "multiplier must be positive"),
        (1.0, 0.0, "multiplier must be positive"),
        (1.0, -2.0, "multiplier must be positive"),
    ])
    def test_nan_or_nonpositive_parameters_rejected(self, rho, multiplier, message):
        # NaN fails every comparison, so it once cast to int64 as -2^63
        with pytest.raises(ValueError, match=message):
            snowball_batches(3, 4, rho, multiplier)

    @pytest.mark.parametrize("rho, multiplier, message", [
        (math.inf, MULTIPLIER_SZ, "rho must be positive and finite"),
        (-math.inf, MULTIPLIER_SZ, "rho must be positive and finite"),
        (1.0, math.inf, "multiplier must be positive and finite"),
        (1e-300, MULTIPLIER_SZ, "fit in int64"),
        (1.0, 1e300, "fit in int64"),
    ])
    def test_infinite_parameters_and_overflowing_sizes_rejected(self, rho, multiplier, message):
        # an infinite rho once gave [0, 0, 0], and an infinite multiplier or a
        # c_1 past int64 gave -2^63 after an invalid-cast RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                snowball_batches(3, 4, rho, multiplier)
            with pytest.raises(ValueError, match=message):
                _snowball_plan(30, 4, rho, multiplier)

    def test_underflowing_sizes_are_one(self):
        # multiplier * sqrt(d / r) / rho underflows to 0, whose ceiling gave
        # sizes of 0 that Schedule refused; c_r is the ceiling of a positive
        # number, so it is at least 1
        assert snowball_batches(3, 1, 1e200, 1e-200) == (1, 1, 1)
        np.testing.assert_array_equal(_snowball_plan(5, 1, 1e300, 1e-300), np.ones(5))
        Schedule(snowball_batches(3, 1, 1e200, 1e-200), (0.1,) * 3, (1.0,) * 3)

    @pytest.mark.parametrize("T", [100, 16385, 10**6])
    def test_sizes_that_underflow_part_way_are_one(self, T):
        # on the subnormal grid c_1 = 2, c_r = 1 up to r = 15 and the
        # expression is 0 from r = 16 on; both the directly computed sizes
        # and the runs past them read 1 there
        assert snowball_batches(T, 1, 5e-324, 1e-323) == (1,) * (T - 1) + (2,)

    def test_largest_size_that_fits_int64(self):
        # c_1 = 2^62 fits and is kept exactly; c_1 = 2^63 does not fit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert snowball_batches(2, 1, 1.0, 2.0**62) == (
                math.ceil(2.0**62 * math.sqrt(0.5)), 2**62)
            with pytest.raises(ValueError, match="fit in int64"):
                snowball_batches(2, 1, 1.0, 2.0**63)


@pytest.mark.parametrize("bad", [0, -1, 2.5, "3", True, None])
@pytest.mark.parametrize("build, name", [
    (lambda v: snowball_sizes(v, 4, 1.0, MULTIPLIER_SZ), "n"),
    (lambda v: snowball_sizes(8, v, 1.0, MULTIPLIER_SZ), "d"),
    (lambda v: snowball_batches(v, 4, 1.0), "T"),
    (lambda v: constant_step(v, 1.0, 1.0), "T"),
    (lambda v: jnn_steps(v, 1.0), "T"),
    (lambda v: sc_weights(v, 0.1, 1.0), "T"),
    (lambda v: phase_plan(v, 1.0), "n"),
    (lambda v: Schedule.constant(v, 1, 0.5, 1.0), "T"),
    (lambda v: sc_weighted_sgd(Dataset(np.zeros((2, 1))), LossFamily("quadratic", 1.0, 1.0, 1.0),
                               ConvexDomain.ball([0.0], 1.0), [0.0], v, 0.0, eta=0.1), "T"),
], ids=["snowball_sizes n", "snowball_sizes", "snowball_batches", "constant_step",
        "jnn_steps", "sc_weights", "phase_plan", "Schedule.constant", "sc_weighted_sgd"])
def test_constructor_refuses_a_count_that_is_not_a_whole_number(build, name, bad):
    # 2.5 and "3" raised TypeError or struct.error, snowball_sizes took d = 2.5,
    # and its n = 2.5 gave [4 3 3] and n = 0 or -1 an empty array; True was 1.
    # Schedule.constant, and so sc_weighted_sgd with an explicit eta, raised
    # TypeError out of np.broadcast_to for 2.5, True and "3"
    with pytest.raises(ValueError, match=f"^{name} must be "):
        build(bad)


class TestConstantStep:
    def test_hand_value(self):
        assert constant_step(4, 2.0, 1.0) == (1.0, 1.0, 1.0, 1.0)

    def test_single_step(self):
        assert constant_step(1, 3.0, 3.0) == (1.0,)

    def test_length(self):
        assert len(constant_step(17, 1.0, 2.0)) == 17


def jnn_steps_loop(T: int, c: float) -> tuple[float, ...]:
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
    return tuple(steps)


class TestJnnSteps:
    def test_equals_band_loop_exactly(self):
        for T in range(1, 3001):
            assert jnn_steps(T, 1.7) == jnn_steps_loop(T, 1.7)

    def test_equals_band_loop_exactly_large_T(self):
        rng = np.random.default_rng(11)
        for T in [2**20, 2**20 + 1, 10**6] + [int(t) for t in rng.integers(3001, 10**6, size=4)]:
            c = float(rng.uniform(0.1, 5.0))
            got = jnn_steps(T, c)
            assert type(got) is tuple and type(got[0]) is float
            assert got == jnn_steps_loop(T, c)

    def test_hand_evaluation_T4(self):
        # bands: T_0 = 0, T_1 = 2, T_2 = 3, T_3 = 4
        assert jnn_steps(4, 1.0) == (0.5, 0.5, 0.25, 0.125)

    def test_single_step(self):
        assert jnn_steps(1, 2.5) == (2.5,)

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
        assert np.all(np.abs(w - 1.0) <= 1e-9)

    def test_hand_value(self):
        w = sc_weights(2, 0.5, 1.0)
        assert w.tolist() == [2.0, 4.0]
        assert w.sum() == 6.0
        assert not w.flags.writeable

    def test_diverging_weights_rejected(self):
        with pytest.raises(InvalidScheduleError):
            sc_weights(3, 1.0, 1.0)

    def test_half_step_weights_are_powers_of_two(self):
        # eta lam = 1/2 gives the weights 2^t exactly
        w = sc_weights(1000, 0.5, 1.0)
        assert w.tolist() == [2.0**t for t in range(1, 1001)]

    @pytest.mark.parametrize("T", [1023, 2000])
    def test_overflowing_weights_rejected(self, T):
        # at T = 1023 each weight is finite but their sum is not, and the
        # weighted average came back as -0.0; at T = 2000 OverflowError escaped
        with pytest.raises(InvalidScheduleError, match="overflow"):
            sc_weights(T, 0.5, 1.0)

    def test_normalization_lower_bound(self):
        # sum gamma_t = ((1 - eta lam)^-T - 1) / (eta lam) >= (e^(eta lam T) - 1) / (eta lam)
        for eta_lam, T in [(0.01, 50), (0.1, 20), (0.4, 7)]:
            total = float(sc_weights(T, eta_lam, 1.0).sum())
            exact = ((1.0 - eta_lam) ** (-T) - 1.0) / eta_lam
            assert total == pytest.approx(exact, rel=1e-10)
            assert total >= (math.exp(eta_lam * T) - 1.0) / eta_lam

    def test_telescoping_identity(self):
        # (gamma_t - gamma_{t-1}) / eta - lam gamma_t = 0 for all t > 1
        eta, lam = 0.03, 2.0
        w = sc_weights(40, eta, lam)
        for t in range(1, 40):
            residual = (w[t] - w[t - 1]) / eta - lam * w[t]
            assert abs(residual) <= 1e-10 * w[t]


class TestPhasePlan:
    def test_geometric_n8(self):
        eta0 = 0.8
        plan = phase_plan(8, eta0)
        assert [ni for ni, _ in plan] == [4, 2, 1]
        assert [e for _, e in plan] == [eta0 / 4, eta0 / 16, eta0 / 64]

    def test_geometric_n2_single_phase(self):
        plan = phase_plan(2, 1.0)
        assert plan == [(1, 0.25)]

    def test_conservation_and_ratios(self):
        for n in (2, 3, 17, 100, 4096):
            plan = phase_plan(n, 1.0)
            assert sum(ni for ni, _ in plan) <= n
            for (_, e1), (_, e2) in zip(plan, plan[1:]):
                assert e2 / e1 == 0.25
        # ceil(log2 5) = 3 phases, of which the third would be empty
        assert phase_plan(5, 1.0) == [(2, 0.25), (1, 0.0625)]

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            phase_plan(1, 1.0)
