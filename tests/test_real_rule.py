"""The one real-number rule, ``schedules._real``, and every library site that
takes a scalar real through it. Each site refuses, with ValueError naming
the argument, NaN, a bool, a string, None and every hostile value outside its
interval, and takes the values inside it, numpy scalars among them."""

import fractions
import math
import re

import numpy as np
import pytest

from dpsco.accountant import (
    PrivacyBudget,
    gaussian_renyi,
    gaussian_sigma,
    pai_rho,
    rdp_to_dp,
    rdp_to_dp_general,
)
from dpsco.empirics import counterexample_exact, sensitivity_probe
from dpsco.geometry import ConvexDomain
from dpsco.losses import (
    LossFamily,
    absolute_deviation_uniform,
    linear_regression_sphere,
    logistic_sphere,
    quadratic_sphere,
)
from dpsco.optimizers import NoiseStream, phased_erm, phased_sgd, sc_weighted_sgd
from dpsco.schedules import (
    Schedule,
    _real,
    _whole,
    constant_step,
    jnn_steps,
    phase_plan,
    sc_weights,
    snowball_sizes,
)

NAN, INF = math.nan, math.inf
UNREAL = (NAN, True, "1", None)  # in no interval

# The hostile values that lie outside each interval.
OUTSIDE = {
    "positive and finite": (INF, -INF, -1.0, 0.0),
    "nonnegative and finite": (INF, -INF, -1.0),
    "finite": (INF, -INF),
    "positive": (-INF, -1.0, 0.0),
    "nonnegative": (-INF, -1.0),
    "in (0, 1)": (INF, -INF, -1.0, 0.0, 1.0),
    "> 1": (INF, -INF, -1.0, 0.0, 1.0),
    ">= 1": (INF, -INF, -1.0, 0.0),
}

BALL = ConvexDomain.ball([0.0, 0.0], 1.0)
BALL1 = ConvexDomain.ball([0.0], 1.0)
ORIGIN = [0.0, 0.0]
QUAD = quadratic_sphere(BALL, ORIGIN, 1.0)  # L = 2, beta = lam = 1
DATA = QUAD.sample_dataset(16, 0)
BUDGET = PrivacyBudget(1.0)


def _phased_sgd(eta=0.1, rho=1.0, sigma_scale=1.0):
    return phased_sgd(DATA, QUAD.loss, BALL, ORIGIN, eta, rho, NoiseStream(0),
                      sigma_scale=sigma_scale)


def _phased_erm(eta=0.1, epsilon=1.0, delta=1e-5, sigma_scale=1.0):
    return phased_erm(DATA, QUAD.loss, BALL, ORIGIN, eta, epsilon, delta, NoiseStream(0),
                      inner="exact", sigma_scale=sigma_scale)


def _sc_weighted_sgd(eta=0.1, noise_scale=1.0):
    return sc_weighted_sgd(DATA, QUAD.loss, BALL, ORIGIN, len(DATA), noise_scale,
                           NoiseStream(0), eta=eta)


# (site, call with the value, argument name, interval, values inside it); None
# is inside where it selects a default
SITES = [
    ("PrivacyBudget", PrivacyBudget, "rho", "nonnegative", (0.0, 1.0, INF)),
    ("gaussian_renyi shift", lambda v: gaussian_renyi(v, 1.0, 2.0), "shift",
     "nonnegative and finite", (0.0, 1.0)),
    ("gaussian_renyi sigma", lambda v: gaussian_renyi(1.0, v, 2.0), "sigma",
     "nonnegative and finite", (0.0, 1.0)),
    ("gaussian_renyi alpha", lambda v: gaussian_renyi(1.0, 1.0, v), "alpha", ">= 1",
     (1.0, 2.0)),
    ("pai_rho", lambda v: pai_rho(Schedule.constant(4, 1, 0.1, 1.0), v), "lipschitz",
     "nonnegative", (0.0, 1.0, INF)),
    ("gaussian_sigma sensitivity", lambda v: gaussian_sigma(v, 1.0, 1e-5), "sensitivity",
     "nonnegative and finite", (0.0, 1.0)),
    ("gaussian_sigma epsilon", lambda v: gaussian_sigma(1.0, v, 1e-5), "epsilon", "positive",
     (1.0, INF)),
    ("gaussian_sigma delta", lambda v: gaussian_sigma(1.0, 1.0, v), "delta", "positive",
     (1e-5, 1.0, INF)),
    ("rdp_to_dp", lambda v: rdp_to_dp(BUDGET, v), "delta", "in (0, 1)", (1e-5, 0.25)),
    ("rdp_to_dp_general delta", lambda v: rdp_to_dp_general(BUDGET, v), "delta", "in (0, 1)",
     (1e-5, 0.5)),
    ("rdp_to_dp_general alpha", lambda v: rdp_to_dp_general(BUDGET, 1e-5, v), "alpha", "> 1",
     (1.5, 2.0, None)),
    ("counterexample_exact sigma", lambda v: counterexample_exact(10, 3, v, 1.0), "sigma",
     "positive and finite", (0.5, 1.0)),
    ("counterexample_exact offset", lambda v: counterexample_exact(10, 3, 1.0, v), "offset",
     "finite", (-1.0, 0.5)),
    ("sensitivity_probe", lambda v: sensitivity_probe(QUAD, 8, v, 2, 0), "eta",
     "positive and finite", (0.1, 1.0)),
    ("ConvexDomain.ball", lambda v: ConvexDomain.ball(ORIGIN, v), "ball radius",
     "positive and finite", (0.5, 1.0)),
    ("LossFamily lipschitz", lambda v: LossFamily("quadratic", v, 1.0, 1.0),
     "lipschitz constant", "positive and finite", (0.5, 1.0)),
    ("LossFamily smoothness", lambda v: LossFamily("absolute_deviation", 1.0, v, 0.0),
     "smoothness", "positive", (1.0, INF)),
    ("LossFamily strong_convexity", lambda v: LossFamily("quadratic", 1.0, 1.0, v),
     "strong convexity", "nonnegative and finite", (0.0, 1.0)),
    ("quadratic_sphere", lambda v: quadratic_sphere(BALL, ORIGIN, v), "data_radius",
     "positive and finite", (0.5, 1.0)),
    ("absolute_deviation_uniform median", lambda v: absolute_deviation_uniform(BALL1, v, 1.0),
     "median", "finite", (-1.0, 0.0)),
    ("absolute_deviation_uniform half_width",
     lambda v: absolute_deviation_uniform(BALL1, 0.0, v), "half_width", "positive and finite",
     (0.5, 1.0)),
    ("linear_regression_sphere feature_radius",
     lambda v: linear_regression_sphere(BALL, v, ORIGIN, 0.0), "feature_radius",
     "positive and finite", (0.5, 1.0)),
    ("linear_regression_sphere noise_half_width",
     lambda v: linear_regression_sphere(BALL, 1.0, ORIGIN, v), "noise_half_width",
     "nonnegative and finite", (0.0, 1.0)),
    ("logistic_sphere", lambda v: logistic_sphere(BALL, v, ORIGIN), "feature_radius",
     "positive and finite", (0.5, 1.0)),
    ("phased_sgd eta", lambda v: _phased_sgd(eta=v), "eta", "positive and finite", (0.1, 1.0)),
    ("phased_sgd rho", lambda v: _phased_sgd(rho=v), "rho", "positive", (1.0, INF)),
    ("phased_sgd sigma_scale", lambda v: _phased_sgd(sigma_scale=v), "sigma_scale",
     "nonnegative and finite", (0.0, 1.0)),
    ("phased_erm eta", lambda v: _phased_erm(eta=v), "eta", "positive and finite", (0.1, 1.0)),
    ("phased_erm epsilon", lambda v: _phased_erm(epsilon=v), "epsilon", "positive",
     (1.0, INF)),
    ("phased_erm delta", lambda v: _phased_erm(delta=v), "delta", "in (0, 1)", (1e-5, 0.25)),
    ("phased_erm sigma_scale", lambda v: _phased_erm(sigma_scale=v), "sigma_scale",
     "nonnegative and finite", (0.0, 1.0)),
    ("sc_weighted_sgd eta", lambda v: _sc_weighted_sgd(eta=v), "eta", "positive and finite",
     (0.1, 0.5, None)),
    ("sc_weighted_sgd noise_scale", lambda v: _sc_weighted_sgd(noise_scale=v), "noise_scale",
     "nonnegative and finite", (0.0, 1.0)),
    ("snowball_sizes rho", lambda v: snowball_sizes(8, 4, v, 2.0), "rho",
     "positive and finite", (0.5, 1.0)),
    ("snowball_sizes multiplier", lambda v: snowball_sizes(8, 4, 1.0, v), "multiplier",
     "positive and finite", (0.5, 2.0)),
    ("constant_step D", lambda v: constant_step(4, v, 1.0), "D", "positive and finite",
     (0.5, 2.0)),
    ("constant_step L_G", lambda v: constant_step(4, 1.0, v), "L_G", "positive and finite",
     (0.5, 2.0)),
    ("jnn_steps", lambda v: jnn_steps(4, v), "c", "positive and finite", (0.5, 2.0)),
    ("sc_weights eta", lambda v: sc_weights(4, v, 1.0), "eta", "positive and finite",
     (0.1, 0.5)),
    ("sc_weights lam", lambda v: sc_weights(4, 0.1, v), "lam", "positive and finite",
     (0.5, 1.0)),
    ("phase_plan", lambda v: phase_plan(8, v), "eta0", "positive and finite", (0.5, 1.0)),
]


def _refused():
    for site, build, name, interval, inside in SITES:
        for value in UNREAL + OUTSIDE[interval]:
            if not (value is None and None in inside):
                yield pytest.param(build, name, value, id=f"{site}-{value!r}")


def _accepted():
    for site, build, _, _, inside in SITES:
        for value in inside:
            kinds = [value] if value is None else [value, np.float64(value), np.float32(value)]
            if value is not None and math.isfinite(value) and value == int(value):
                kinds += [int(value), np.int64(value)]
            for v in kinds:
                yield pytest.param(build, v, id=f"{site}-{type(v).__name__}-{value!r}")


@pytest.mark.parametrize("build, name, value", list(_refused()))
def test_site_refuses_a_value_outside_its_interval(build, name, value):
    # among these, constant_step(4, nan, 1) and (4, inf, 1) once gave NaN and
    # inf steps, jnn_steps(4, -1) negative ones; phase_plan(8, nan), a NaN
    # anywhere in gaussian_renyi or sigma = -1, rdp_to_dp_general's alpha =
    # nan, a bool L or ball radius and a string radius were taken; phased_sgd's
    # sigma_scale = nan or -1 switched the noise off; and sc_weights(4, nan, 1)
    # was refused only as an overflow of its weights
    with pytest.raises(ValueError) as refused:
        build(value)
    assert str(refused.value).startswith(f"{name} must be "), refused.value


@pytest.mark.parametrize("build, value", list(_accepted()))
def test_site_takes_a_value_inside_its_interval(build, value):
    build(value)


class TestRealRule:
    @pytest.mark.parametrize("value", [np.float16(0.5), np.float32(0.5), np.float64(0.5),
                                       np.int8(3), np.uint64(3), fractions.Fraction(1, 2), 3])
    def test_numpy_and_exact_reals_are_floats(self, value):
        got = _real(value, "x")
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("value", [np.True_, False, 1 + 0j, "0.5", b"1", [0.5],
                                       np.array([0.5]), None])
    def test_what_is_not_a_real_number_is_refused(self, value):
        with pytest.raises(ValueError, match="^x must be positive and finite, got "):
            _real(value, "x")

    def test_an_integer_past_float64_is_infinite(self):
        assert _real(10**400, "x", "positive") == INF
        for interval in ("positive and finite", "nonnegative"):
            with pytest.raises(ValueError):
                _real(-(10**400), "x", interval)
        with pytest.raises(ValueError):
            _real(10**400, "x")

    def test_each_end_is_in_or_out_as_its_name_says(self):
        assert _real(0.0, "x", "nonnegative") == 0.0
        assert _real(1.0, "x", ">= 1") == 1.0
        assert _real(INF, "x", "positive") == INF
        for value, interval in ((0.0, "positive"), (1.0, "> 1"), (1.0, "in (0, 1)"),
                                (INF, "nonnegative and finite"), (-INF, "finite")):
            with pytest.raises(ValueError, match=re.escape(f"must be {interval}")):
                _real(value, "x", interval)

    @pytest.mark.parametrize("value", [True, np.True_, 2.0, "2", None])
    def test_the_integer_rule_refuses_what_is_not_an_integer(self, value):
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            _whole(value, 1, "n")
