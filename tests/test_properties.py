"""Property tests for array-backed schedules and the amplification accountant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsco.accountant import pai_rho
from dpsco.schedules import InvalidScheduleError, Schedule
from shift_allocation import optimal_single_shift_allocation, pai_divergence_general

PROPERTY_SETTINGS = settings(deadline=None, max_examples=100)

batch_size = st.integers(1, 50)
# zero (an inactive step) or large enough that (eta * sigma)^2 cannot underflow
step_size = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))
noise_scale = st.floats(0.01, 5.0)


@st.composite
def schedules(draw, max_steps=30):
    T = draw(st.integers(1, max_steps))
    return Schedule(
        draw(st.lists(batch_size, min_size=T, max_size=T)),
        draw(st.lists(step_size, min_size=T, max_size=T)),
        draw(st.lists(noise_scale, min_size=T, max_size=T)),
    )


def _replace(arr: np.ndarray, t: int, value) -> list:
    values = arr.tolist()
    values[t] = value
    return values


@PROPERTY_SETTINGS
@given(schedules(), st.data(), st.floats(0.1, 4.0))
def test_rho_monotone_in_batch_sizes(sched, data, lipschitz):
    t = data.draw(st.integers(0, sched.num_steps - 1))
    grow = data.draw(st.integers(1, 100))
    bigger = Schedule(_replace(sched.batch_sizes, t, int(sched.batch_sizes[t]) + grow),
                      sched.step_sizes, sched.noise_scales)
    assert pai_rho(bigger, lipschitz).rho <= pai_rho(sched, lipschitz).rho


@PROPERTY_SETTINGS
@given(schedules(), st.data(), st.floats(0.1, 4.0))
def test_rho_monotone_in_noise(sched, data, lipschitz):
    t = data.draw(st.integers(0, sched.num_steps - 1))
    factor = data.draw(st.floats(1.0, 100.0))
    louder = Schedule(sched.batch_sizes, sched.step_sizes,
                      _replace(sched.noise_scales, t, float(sched.noise_scales[t]) * factor))
    assert pai_rho(louder, lipschitz).rho <= pai_rho(sched, lipschitz).rho


@PROPERTY_SETTINGS
@given(schedules(max_steps=12), st.floats(0.1, 4.0))
def test_rho_is_max_single_shift_bound(sched, lipschitz):
    # the step map at step t differs by 2 L eta_t / B_t between neighbours, and
    # the iteration's noise at step s has standard deviation eta_s sigma_s
    noise = (sched.step_sizes * sched.noise_scales).tolist()
    bound = 0.0
    for t in range(sched.num_steps):
        shift = 2.0 * lipschitz * float(sched.step_sizes[t]) / int(sched.batch_sizes[t])
        if shift == 0.0:
            continue
        alloc = optimal_single_shift_allocation(shift, t, noise)
        # at order 1 the divergence is rho_t^2 / 2
        bound = max(bound, math.sqrt(2.0 * pai_divergence_general(alloc, noise, 1.0)))
    assert pai_rho(sched, lipschitz).rho == pytest.approx(bound, rel=1e-9, abs=1e-300)


@PROPERTY_SETTINGS
@given(schedules(), st.data(), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_entries_rejected(sched, data, bad):
    t = data.draw(st.integers(0, sched.num_steps - 1))
    field = data.draw(st.sampled_from(["batch_sizes", "step_sizes", "noise_scales"]))
    lists = {name: getattr(sched, name).tolist()
             for name in ("batch_sizes", "step_sizes", "noise_scales")}
    lists[field][t] = bad
    with pytest.raises(InvalidScheduleError):
        Schedule(**lists)


@PROPERTY_SETTINGS
@given(schedules(max_steps=50), st.lists(st.floats(0.0, 1e300), min_size=1, max_size=50))
def test_json_round_trip(sched, extra_steps):
    assert Schedule.from_json(sched.to_json()) == sched
    T = len(extra_steps)
    wide = Schedule([1] * T, extra_steps, extra_steps)
    assert Schedule.from_json(wide.to_json()) == wide
