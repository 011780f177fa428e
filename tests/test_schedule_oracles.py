"""The schedule layer against its float64 predecessors, kept here as oracles.

`Schedule` converts batch sizes straight to int64 and packs a list or tuple
with one ``struct`` call per field, `pai_rho` takes one mask-free pass in place,
and `jnn_steps` and `snowball_batches` build their lists run by run. The
earlier implementations below (float64 round trip, boolean masks,
``np.repeat``, the float expression at every step) give the same arrays, the
same rho and the same lists wherever they were exact.
"""

import array
import json
import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpsco import schedules
from dpsco.accountant import pai_rho
from dpsco.schedules import (
    MULTIPLIER_JNN,
    MULTIPLIER_SZ,
    InvalidScheduleError,
    Schedule,
    jnn_steps,
    snowball_batches,
)

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


def oracle_snowball_batches(T: int, d: int, rho: float, multiplier: float) -> tuple[int, ...]:
    """The float expression at every one of the T steps, at least 1 where it
    underflows to 0."""
    remaining = np.arange(T, 0, -1, dtype=np.float64)  # T - t + 1 for t = 1..T
    raw = multiplier * np.sqrt(d / remaining) / rho
    return tuple(np.maximum(1, np.ceil(raw)).astype(np.int64).tolist())


def oracle_jnn_steps(T: int, c: float) -> tuple[float, ...]:
    ell = max(0, math.ceil(math.log2(T)))
    bounds = [T - math.ceil(T * 2.0 ** (-i)) for i in range(ell + 1)] + [T]
    band_steps = c * 2.0 ** -np.arange(ell + 1) / math.sqrt(T)
    return tuple(np.repeat(band_steps, np.diff(bounds)).tolist())


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


FIELDS = ("batch_sizes", "step_sizes", "noise_scales")


def _assert_same_schedule(sched, want, inputs=()):
    """The oracle's arrays, read-only, sharing no memory with any array in
    ``inputs``; a field that is a view is a view of its packed bytes, which
    cannot be made writeable again."""
    for name, arr in zip(FIELDS, want):
        got = getattr(sched, name)
        assert got.dtype == arr.dtype
        assert got.tobytes() == arr.tobytes()  # the sign of zero too
        assert not got.flags.writeable
        assert not any(np.shares_memory(got, a) for a in inputs if isinstance(a, np.ndarray))
        if got.base is not None:
            assert type(got.base) is bytes
            with pytest.raises(ValueError):
                got.flags.writeable = True


@PROPERTY_SETTINGS
@given(batch_lists, st.sampled_from(sorted(CONTAINERS)))
def test_conversion_matches_float_round_trip(lists, container):
    B, eta, sigma = lists
    if container == "int32 array":
        assume(max(B) < 2**31)
    batches, floats = CONTAINERS[container]
    want = oracle_schedule_arrays(B, eta, sigma)
    inputs = (batches(B), floats(eta), floats(sigma))
    _assert_same_schedule(Schedule(*inputs), want, inputs)
    text = json.dumps({"B": B, "eta": eta, "sigma": sigma})
    _assert_same_schedule(Schedule.from_json(text), want)


@PROPERTY_SETTINGS
@given(st.integers(1, 1000), st.integers(1, 50))
def test_range_and_bool_arrays_match_float_round_trip(start, T):
    eta, sigma = [0.5] * T, [1.0] * T
    _assert_same_schedule(Schedule(range(start, start + T), eta, sigma),
                          oracle_schedule_arrays(range(start, start + T), eta, sigma))
    ones = np.ones(T, dtype=bool)
    _assert_same_schedule(Schedule(ones, eta, sigma), oracle_schedule_arrays(ones, eta, sigma),
                          (ones,))


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
    assert type(got) is tuple and all(type(s) is float for s in got[:2] + got[-2:])
    assert got == oracle_jnn_steps(T, c)


# T log-uniform up to 2 * 10^5: about a fifth of the draws pass 16384 and
# take the run-by-run path, the rest compute every step
snowball_steps = st.floats(0.0, math.log10(2e5)).map(lambda x: max(1, round(10.0 ** x)))


@PROPERTY_SETTINGS
@given(snowball_steps, st.integers(1, 10**6), st.floats(1e-3, 1e2),
       st.one_of(st.sampled_from((MULTIPLIER_SZ, MULTIPLIER_JNN)), st.floats(1e-2, 1e2)))
def test_snowball_batches_equal_float_expression(T, d, rho, multiplier):
    got = snowball_batches(T, d, rho, multiplier)
    assert type(got) is tuple and all(type(b) is int for b in got[:2] + got[-2:])
    assert got == oracle_snowball_batches(T, d, rho, multiplier)


@pytest.mark.parametrize("T, d, rho, multiplier", [
    (10, 10**6, 1e-3, MULTIPLIER_SZ),  # multiplier * sqrt(d) / rho = 2e6 >> T
    (2 * 10**5, 10**6, 1e-3, MULTIPLIER_SZ),  # hundreds of short runs past the head
    (2 * 10**5, 1, 1e2, MULTIPLIER_JNN),  # one run of ones
    (2 * 10**5, 256, 0.25, MULTIPLIER_JNN),
    (16384, 16, 1.0, MULTIPLIER_SZ),  # the last T whose sizes are all computed
    (16385, 16, 1.0, MULTIPLIER_SZ),  # one step past the directly computed sizes
    (2**15, 16, 1.0, MULTIPLIER_SZ),
    (16384, 10**6, 1e-3, MULTIPLIER_SZ),  # c_1 = 2e6 >> T on both sides
    (16385, 10**6, 1e-3, MULTIPLIER_SZ),
    (2**15, 10**6, 1e-3, MULTIPLIER_SZ),
])
def test_snowball_batches_equal_float_expression_at_scale(T, d, rho, multiplier):
    assert snowball_batches(T, d, rho, multiplier) == oracle_snowball_batches(
        T, d, rho, multiplier)


@pytest.mark.parametrize("T", [16385, 2**15])
def test_snowball_batches_over_empty_runs(T, monkeypatch):
    # past the head c_r falls by at most 1/64 a step, so no value is skipped
    # there; a head of one step makes the bisection skip values
    monkeypatch.setattr(schedules, "_RUN_MIN", 2.0**-20)
    assert snowball_batches(T, 10**4, 1e-3) == oracle_snowball_batches(
        T, 10**4, 1e-3, MULTIPLIER_SZ)


# Entries a repeated field can hold besides its own value: each either equals
# the value (and must convert like it) or must be refused like the oracle.
def _intruders(value):
    out = [float(value), np.float64(value), str(value), complex(value, 0.0),
           complex(value, 1.0), np.array([value]), np.array([value, value]), value + 1]
    if math.isfinite(value) and value == int(value):
        out.append(int(value))
        if abs(value) < 2**63:
            out.append(np.int64(int(value)))
        if value in (0, 1):
            out.append(bool(value))
    if value == 0:
        out.append(-value)  # equal, but its sign bit must survive
    return out


def _outcome(build):
    """The arrays ``build`` returns, or the message of its refusal."""
    try:
        got = build()
    except InvalidScheduleError as exc:
        return str(exc)
    if isinstance(got, Schedule):
        got = (got.batch_sizes, got.step_sizes, got.noise_scales)
    return tuple((arr.dtype, arr.tobytes()) for arr in got)


CONSTANT_FIELDS = {
    "identical": lambda value, T: [value] * T,
    "identical tuple": lambda value, T: (value,) * T,
    "JSON-loaded": lambda value, T: json.loads(json.dumps([value] * T)),
}


@settings(deadline=None, max_examples=400)
@given(st.integers(1, 30), st.integers(0, 2),
       st.one_of(st.floats(), st.sampled_from((0.0, -0.0, 1.0, 2.0, -1.0))),
       st.sampled_from(sorted(CONSTANT_FIELDS)), st.data())
def test_repeated_float_field_matches_float_round_trip(T, field, value, container, data):
    """A repeated float in any field, alone or with one other entry anywhere:
    the same arrays or the same refusal as the float64 round trip."""
    # as batch sizes the oracle is exact below 2^53
    assume(field != 0 or not (math.isfinite(value) and abs(value) >= 2**53))
    lists = [[3] * T, [0.5] * T, [1.0] * T]
    lists[field] = CONSTANT_FIELDS[container](value, T)
    if data.draw(st.booleans(), label="intrude"):
        lists[field] = list(lists[field])
        at = data.draw(st.integers(0, T - 1), label="at")
        lists[field][at] = data.draw(st.sampled_from(_intruders(value)), label="intruder")
    assert _outcome(lambda: Schedule(*lists)) == _outcome(lambda: oracle_schedule_arrays(*lists))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 30), st.integers(-3, 2**53 - 2), st.sampled_from(sorted(CONSTANT_FIELDS)),
       st.data())
def test_repeated_batch_size_matches_float_round_trip(T, value, container, data):
    """A repeated int batch size, alone or with one other entry anywhere."""
    batches = CONSTANT_FIELDS[container](value, T)
    if data.draw(st.booleans(), label="intrude"):
        batches = list(batches)
        batches[data.draw(st.integers(0, T - 1), label="at")] = data.draw(
            st.sampled_from(_intruders(float(value))[:-1] + [value + 1]), label="intruder")
    lists = [batches, [0.5] * T, [1.0] * T]
    assert _outcome(lambda: Schedule(*lists)) == _outcome(lambda: oracle_schedule_arrays(*lists))


def test_repeated_field_refusals():
    T = 4
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidScheduleError, match="step sizes must be finite"):
            Schedule([1] * T, [bad] * T, [1.0] * T)
    with pytest.raises(InvalidScheduleError, match="noise scales must be nonnegative"):
        Schedule([1] * T, [0.5] * T, [-1.0] * T)
    for bad in (0, -2):
        with pytest.raises(InvalidScheduleError, match="batch sizes must be >= 1"):
            Schedule([bad] * T, [0.5] * T, [1.0] * T)
    # equal to 0.5 under ==, but not a real number, or not a scalar
    for bad in (complex(0.5, 0.0), np.array([0.5]), np.array([0.5, 0.5])):
        with pytest.raises(InvalidScheduleError, match="step sizes must be a sequence"):
            Schedule([1] * T, [0.5] * (T - 1) + [bad], [1.0] * T)
        with pytest.raises(InvalidScheduleError, match="step sizes must be a sequence"):
            Schedule([1] * T, [0.5, bad] + [0.5] * (T - 2), [1.0] * T)


@st.composite
def run_fields(draw, values):
    """Entries from ``values`` in runs, ascending, descending or unsorted:
    either a few long runs or many short ones."""
    if draw(st.booleans(), label="short runs"):
        k, lengths = draw(st.integers(2, 80)), st.integers(1, 3)
    else:
        k, lengths = draw(st.integers(1, 6)), st.integers(1, 300)
    run_values = draw(st.lists(values, min_size=k, max_size=k))
    order = draw(st.sampled_from(("ascending", "descending", "unsorted")))
    if order != "unsorted":
        run_values.sort(reverse=order == "descending")
    return [value for value in run_values for _ in range(draw(lengths))]


RUN_CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "JSON-loaded": lambda field: json.loads(json.dumps(field)),
}


def _intrude(field, data):
    """``field`` with one entry replaced by one of its ``_intruders``."""
    out = list(field)
    at = data.draw(st.integers(0, len(out) - 1), label="at")
    out[at] = data.draw(st.sampled_from(_intruders(float(out[at]))), label="intruder")
    return type(field)(out)


@settings(deadline=None, max_examples=400)
@given(st.integers(0, 2),
       run_fields(st.one_of(st.floats(), st.sampled_from((0.0, -0.0, 0.5, 1.0, 2.0, -1.0)),
                            st.booleans(), st.integers(-2, 3))),
       st.sampled_from(sorted(RUN_CONTAINERS)), st.booleans(), st.data())
def test_run_built_float_field_matches_float_round_trip(field, entries, container, intrude,
                                                        data):
    """A field of runs, with or without one other entry anywhere: the same
    arrays, bit for bit, or the same refusal as the float64 round trip."""
    # as batch sizes the oracle is exact below 2^53
    assume(field != 0 or all(not math.isfinite(v) or abs(v) < 2**53 for v in entries))
    T = len(entries)
    lists = [[3] * T, [0.5] * T, [1.0] * T]
    lists[field] = RUN_CONTAINERS[container](entries)
    if intrude:
        lists[field] = _intrude(lists[field], data)
    assert _outcome(lambda: Schedule(*lists)) == _outcome(lambda: oracle_schedule_arrays(*lists))


@settings(deadline=None, max_examples=300)
@given(run_fields(st.one_of(st.integers(-3, 2**53 - 2), st.booleans())),
       st.sampled_from(sorted(RUN_CONTAINERS)), st.booleans(), st.data())
def test_run_built_batch_sizes_match_float_round_trip(entries, container, intrude, data):
    batches = RUN_CONTAINERS[container](entries)
    if intrude:
        batches = _intrude(batches, data)
    T = len(batches)
    lists = [batches, [0.5] * T, [1.0] * T]
    assert _outcome(lambda: Schedule(*lists)) == _outcome(lambda: oracle_schedule_arrays(*lists))


def _exact_oracle(batches, eta, sigma):
    """Python int batch sizes taken exactly, as `Schedule` promises up to 2^63 - 1."""
    if min(batches) < 1:
        raise InvalidScheduleError("batch sizes must be >= 1")
    if max(batches) > 2**63 - 1:
        raise InvalidScheduleError("batch sizes must fit in int64")
    if sum(batches) > 2**63 - 1:
        raise InvalidScheduleError("total batch size must fit in int64")
    return np.array(batches, dtype=np.int64), np.array(eta), np.array(sigma)


@settings(deadline=None, max_examples=200)
@given(run_fields(st.integers(2**53 - 2, 2**64)), st.sampled_from(sorted(RUN_CONTAINERS)))
def test_run_built_batch_sizes_beyond_float64_stay_exact(entries, container):
    T = len(entries)
    lists = [RUN_CONTAINERS[container](entries), [0.5] * T, [1.0] * T]
    assert _outcome(lambda: Schedule(*lists)) == _outcome(lambda: _exact_oracle(*lists))


def _counting(calls, fn):
    def wrapped(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapped


def test_run_built_fields_skip_the_entrywise_conversion(monkeypatch):
    """The accounting fields at T = 10^6, and strictly increasing fields at
    T = 10^5, are packed by one Struct per field into bytes the field then
    views: they never reach array.array or np.fromiter."""
    run_built = (snowball_batches(10**6, 256, 0.25, MULTIPLIER_JNN), jnn_steps(10**6, 1.0),
                 (0.75,) * 10**6)
    T = 10**5
    increasing = (tuple(range(1, T + 1)), tuple(np.linspace(0.5, 1.0, T).tolist()), (0.75,) * T)
    calls = []
    monkeypatch.setattr(schedules, "array", SimpleNamespace(array=_counting(calls, array.array)))
    monkeypatch.setattr(np, "fromiter", _counting(calls, np.fromiter))
    monkeypatch.setattr(struct, "Struct", _counting(calls, struct.Struct))
    built = [Schedule(*fields) for fields in (run_built, increasing)]
    assert calls == ["Struct"] * 6
    monkeypatch.undo()
    for sched, fields in zip(built, (run_built, increasing)):
        _assert_same_schedule(sched, oracle_schedule_arrays(*fields))
        assert all(type(getattr(sched, name).base) is bytes for name in FIELDS)


def test_packing_keeps_one_copy_of_each_field():
    """Three 10^6-entry tuples become 3 * 8 * 10^6 bytes and little more: no
    field is held twice while it is packed."""
    T = 10**6
    fields = (snowball_batches(T, 256, 0.25, MULTIPLIER_JNN), jnn_steps(T, 1.0), (0.75,) * T)
    tracemalloc.start()
    try:
        sched = Schedule(*fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sched.num_steps == T
    assert peak <= 3 * 8 * T + 2**20


# Lengths about 2^15 and 2 * 2^15, where an earlier packer started a new
# window of 2^15 entries.
WINDOW_EDGES = (32767, 32768, 32769, 65539)


@pytest.mark.parametrize("container", [list, tuple])
@pytest.mark.parametrize("T", WINDOW_EDGES)
def test_packed_fields_at_window_edges(T, container):
    """Both codes, at the lengths above: int batch sizes ("q") and
    float fields ("d") give the round trip's arrays."""
    rng = np.random.default_rng(T)
    lists = (container(rng.integers(1, 2**46, T).tolist()),  # the total fits in int64
             container(rng.uniform(0.0, 1e6, T).tolist()),
             container(rng.exponential(1.0, T).tolist()))
    _assert_same_schedule(Schedule(*lists), oracle_schedule_arrays(*lists))


@pytest.mark.parametrize("T", WINDOW_EDGES)
def test_packed_fields_keep_every_bit(T):
    """Ints past 2^53 convert exactly as batch sizes and as float() does in a
    float field, at both ends of the first 2^15 entries and at the end; -0.0
    keeps its sign anywhere."""
    big = {0: 2**53 + 1, 32767: 2**53 + 3, T - 2: 2**55 + 1, T - 1: 2**61 + 1}
    batches = [big.get(t, 1) for t in range(T)]
    lists = [batches, [0.5] * (T - 2) + [-0.0, 0.0], [0.0, -0.0] + batches[2:]]
    sched = Schedule(*lists)
    assert sched.batch_sizes.tolist() == batches
    assert np.signbit(sched.step_sizes).tolist() == [False] * (T - 2) + [True, False]
    assert np.signbit(sched.noise_scales).tolist() == [False, True] + [False] * (T - 2)
    assert sched.noise_scales[2:].tolist() == [float(b) for b in batches[2:]]


INTRUDER_CASES = [(field, at) for field, value in enumerate((3.0, 0.5, 1.0))
                  for at in range(len(_intruders(value)) + 2)]


@pytest.mark.parametrize("field, at", INTRUDER_CASES)
def test_packed_intruder_in_the_last_window(field, at):
    """One of ``_intruders``, None or 2^63 as the last entry of a field of
    2 * 2^15 + 3 entries: the same arrays or the same refusal as the round trip (as
    the exact oracle, for an int batch size past float64)."""
    T = 65539
    lists = [[3] * T, [0.5] * T, [1.0] * T]
    entry = (_intruders(float(lists[field][0])) + [None, 2**63])[at]
    lists[field][-1] = entry
    beyond = field == 0 and type(entry) is int and entry >= 2**53
    oracle = _exact_oracle if beyond else oracle_schedule_arrays
    assert _outcome(lambda: Schedule(*lists)) == _outcome(lambda: oracle(*lists))


@pytest.mark.parametrize("T", [1, 3, 1000])
def test_power_of_two_step_scaling_leaves_rho_unchanged(T):
    """rho is invariant under eta -> 2^k eta; past 2^500 the squared products
    overflow float64 and the rescaled pass takes over."""
    rng = np.random.default_rng(T)
    batches = rng.integers(1, 50, T)
    eta, sigma = rng.uniform(0.01, 1.0, T), rng.uniform(0.01, 5.0, T)
    want = pai_rho(Schedule(batches, eta, sigma), 1.5).rho
    assert 0.0 < want < math.inf
    for k in (-300, 300):
        assert pai_rho(Schedule(batches, eta * 2.0**k, sigma), 1.5).rho == want
    for k in (520, 900):
        assert pai_rho(Schedule(batches, eta * 2.0**k, sigma), 1.5).rho == pytest.approx(
            want, rel=1e-13)
        assert pai_rho(Schedule(batches, eta, sigma * 2.0**k), 1.5).rho == pytest.approx(
            want * 2.0**-k, rel=1e-13)


def test_overflowing_sums_give_the_true_rho():
    # (eta sigma)^2 = 1e400 overflows; rho = 2 L eta / (B eta sigma) = 2 exactly
    assert pai_rho(Schedule([1], [1e200], [1.0]), 1.0).rho == 2.0
    # eta sigma itself overflows: rho = 2 L / (B sigma) at the last step
    assert pai_rho(Schedule([2, 2], [1e300, 1e300], [1e300, 1e300]), 1.0).rho == 1e-300
    # a product that underflows after rescaling only raises rho: the last step
    # (rho = 2e200 exactly) ends up over a zero sum
    assert pai_rho(Schedule([1, 1], [1e200, 1e-200], [1.0, 1e-200]), 1.0).is_infinite
    # a zero step stays free on the rescaled pass
    assert pai_rho(Schedule([1, 3], [1e200, 0.0], [1.0, 1e300]), 1.0).rho == 2.0
