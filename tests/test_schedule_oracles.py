"""The schedule layer against its float64 predecessors, kept here as oracles.

`Schedule` converts batch sizes straight to int64, `pai_rho` takes one
mask-free pass and `jnn_steps` builds its list band by band. The earlier
implementations below (float64 round trip, boolean masks, ``np.repeat``) give
the same arrays, the same rho and the same lists wherever they were exact.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpsco.accountant import pai_rho
from dpsco.schedules import InvalidScheduleError, Schedule, jnn_steps

PROPERTY_SETTINGS = settings(deadline=None, max_examples=150)


def _oracle_float_vector(values, name):
    try:
        if isinstance(values, np.ndarray):
            arr = values.astype(np.float64)
        else:
            arr = np.fromiter(values, dtype=np.float64, count=len(values))
    except (TypeError, ValueError) as exc:
        raise InvalidScheduleError(f"{name} must be a sequence of numbers: {exc}") from exc
    if arr.ndim != 1:
        raise InvalidScheduleError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise InvalidScheduleError(f"{name} must be finite")
    return arr


def oracle_schedule_arrays(batch_sizes, step_sizes, noise_scales):
    """The float64 round trip: every field through float64, batches floor-checked."""
    batches = _oracle_float_vector(batch_sizes, "batch sizes")
    eta = _oracle_float_vector(step_sizes, "step sizes")
    sigma = _oracle_float_vector(noise_scales, "noise scales")
    T = batches.shape[0]
    if T == 0:
        raise InvalidScheduleError("schedule must have at least one step")
    if eta.shape[0] != T or sigma.shape[0] != T:
        raise InvalidScheduleError("schedule lists must have equal length")
    if np.any(batches != np.floor(batches)):
        raise InvalidScheduleError("batch sizes must be integers")
    if np.any(batches < 1):
        raise InvalidScheduleError("batch sizes must be >= 1")
    if np.any(eta < 0):
        raise InvalidScheduleError("step sizes must be nonnegative")
    if np.any(sigma < 0):
        raise InvalidScheduleError("noise scales must be nonnegative")
    return batches.astype(np.int64), eta, sigma


def oracle_pai_rho(schedule: Schedule, lipschitz: float) -> float:
    """Masked accountant: only steps with eta_t > 0 enter the maximum."""
    eta, sigma, batches = schedule.step_sizes, schedule.noise_scales, schedule.batch_sizes
    suffix = np.cumsum((eta * sigma)[::-1] ** 2)[::-1]
    active = eta > 0.0
    if not np.any(active):
        return 0.0
    if np.any(suffix[active] == 0.0):
        return math.inf
    terms = eta[active] / (batches[active] * np.sqrt(suffix[active]))
    return 2.0 * lipschitz * float(np.max(terms))


def oracle_jnn_steps(T: int, c: float) -> list[float]:
    ell = max(0, math.ceil(math.log2(T)))
    bounds = [T - math.ceil(T * 2.0 ** (-i)) for i in range(ell + 1)] + [T]
    band_steps = c * 2.0 ** -np.arange(ell + 1) / math.sqrt(T)
    return np.repeat(band_steps, np.diff(bounds)).tolist()


# batch sizes below 2^53, where the float64 round trip is exact
batch_lists = st.integers(1, 40).flatmap(
    lambda T: st.tuples(st.lists(st.integers(1, 2**53), min_size=T, max_size=T),
                        st.lists(st.floats(0.0, 1e6), min_size=T, max_size=T),
                        st.lists(st.floats(0.0, 1e6), min_size=T, max_size=T)))

# name -> (batch-size wrapper, float-field wrapper)
CONTAINERS = {
    "list": (list, list),
    "tuple": (tuple, tuple),
    "int64 array": (lambda v: np.array(v, dtype=np.int64), np.array),
    "int32 array": (lambda v: np.array(v, dtype=np.int32), np.array),
    "float array": (lambda v: np.array(v, dtype=np.float64), np.array),
    "numpy scalars": (lambda v: [np.int64(x) for x in v], lambda v: [np.float64(x) for x in v]),
    "float entries": (lambda v: [float(x) for x in v], list),
}


def _assert_same_schedule(sched, want):
    for name, arr in zip(("batch_sizes", "step_sizes", "noise_scales"), want):
        got = getattr(sched, name)
        assert got.dtype == arr.dtype
        assert np.array_equal(got, arr)
        assert not got.flags.writeable
        assert got.base is None


@PROPERTY_SETTINGS
@given(batch_lists, st.sampled_from(sorted(CONTAINERS)))
def test_conversion_matches_float_round_trip(lists, container):
    B, eta, sigma = lists
    if container == "int32 array":
        assume(max(B) < 2**31)
    batches, floats = CONTAINERS[container]
    want = oracle_schedule_arrays(B, eta, sigma)
    _assert_same_schedule(Schedule(batches(B), floats(eta), floats(sigma)), want)
    text = json.dumps({"B": B, "eta": eta, "sigma": sigma})
    _assert_same_schedule(Schedule.from_json(text), want)


@PROPERTY_SETTINGS
@given(st.integers(1, 1000), st.integers(1, 50))
def test_range_and_bool_arrays_match_float_round_trip(start, T):
    eta, sigma = [0.5] * T, [1.0] * T
    _assert_same_schedule(Schedule(range(start, start + T), eta, sigma),
                          oracle_schedule_arrays(range(start, start + T), eta, sigma))
    ones = np.ones(T, dtype=bool)
    _assert_same_schedule(Schedule(ones, eta, sigma), oracle_schedule_arrays(ones, eta, sigma))


DEFECTS = {
    "fractional batch": (0, 1.5),
    "NaN batch": (0, math.nan),
    "inf batch": (0, math.inf),
    "-inf batch": (0, -math.inf),
    "zero batch": (0, 0),
    "negative batch": (0, -1),
    "string batch": (0, "x"),
    "NaN step": (1, math.nan),
    "inf step": (1, math.inf),
    "negative step": (1, -1.0),
    "string step": (1, "x"),
    "-inf noise": (2, -math.inf),
    "negative noise": (2, -1),
    "string noise": (2, "x"),
}


def _refusal(build):
    with pytest.raises(InvalidScheduleError) as info:
        build()
    return str(info.value)


@PROPERTY_SETTINGS
@given(batch_lists, st.sampled_from(sorted(DEFECTS)), st.data())
def test_defects_refused_with_the_same_message(lists, defect, data):
    lists = [list(field) for field in lists]
    field, bad = DEFECTS[defect]
    lists[field][data.draw(st.integers(0, len(lists[0]) - 1))] = bad
    assert _refusal(lambda: Schedule(*lists)) == _refusal(lambda: oracle_schedule_arrays(*lists))


@pytest.mark.parametrize("args", [
    (np.ones((2, 2)), [0.1, 0.1], [1.0, 1.0]),
    (np.ones((2, 2), dtype=np.int64), [0.1, 0.1], [1.0, 1.0]),
    ([[1, 2], [3, 4]], [0.1, 0.1], [1.0, 1.0]),
    ([1, 2], np.ones((2, 1)), [1.0, 1.0]),
    ([], [], []),
    ([1, 2], [0.1], [1.0, 1.0]),
    ([1], [0.1], [1.0, 2.0]),
    (5, [0.1], [1.0]),
], ids=["2-D float batches", "2-D int batches", "nested lists", "2-D steps", "empty",
        "short steps", "long noise", "scalar batches"])
def test_shape_defects_refused_with_the_same_message(args):
    assert _refusal(lambda: Schedule(*args)) == _refusal(lambda: oracle_schedule_arrays(*args))


@st.composite
def sparse_schedules(draw):
    """About 30 % zero steps and 20 % zero noise scales, so that zero steps
    over zero suffixes, infinite budgets and all-zero schedules all occur."""
    T = draw(st.integers(1, 40))
    step = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(1e-3, 2.0))
    noise = st.one_of(st.just(0.0), st.floats(1e-2, 5.0), st.floats(1e-2, 5.0),
                      st.floats(1e-2, 5.0), st.floats(1e-2, 5.0))
    return Schedule(draw(st.lists(st.integers(1, 10**6), min_size=T, max_size=T)),
                    draw(st.lists(step, min_size=T, max_size=T)),
                    draw(st.lists(noise, min_size=T, max_size=T)))


@settings(deadline=None, max_examples=500)
@given(sparse_schedules(), st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
def test_rho_equals_masked_accountant_exactly(sched, lipschitz):
    assert pai_rho(sched, lipschitz).rho == oracle_pai_rho(sched, lipschitz)


def test_rho_cases_the_masks_handled():
    all_zero = Schedule([1, 2], [0.0, 0.0], [0.0, 0.0])
    assert pai_rho(all_zero, 3.0).rho == 0.0 == oracle_pai_rho(all_zero, 3.0)
    late_zero_step = Schedule([1, 1], [0.5, 0.0], [1.0, 0.0])  # 0 / 0 at the last step
    assert pai_rho(late_zero_step, 1.0).rho == 2.0 == oracle_pai_rho(late_zero_step, 1.0)
    unnoised = Schedule([1, 1], [0.5, 0.5], [1.0, 0.0])
    assert pai_rho(unnoised, 1.0).rho == math.inf == oracle_pai_rho(unnoised, 1.0)
    assert pai_rho(unnoised, 0.0).is_infinite  # as before: no noise is never private


@PROPERTY_SETTINGS
@given(st.integers(1, 2**16), st.floats(1e-3, 10.0))
def test_jnn_steps_equal_repeat_oracle(T, c):
    got = jnn_steps(T, c)
    assert type(got) is list and all(type(s) is float for s in got[:2] + got[-2:])
    assert got == oracle_jnn_steps(T, c)
