"""The one vector rule, ``schedules._vector``, and every library site that
keeps a vector or starts a run from one. Each site refuses, with ValueError
naming the argument, a NaN or infinite entry, bool, string, None and complex
entries, None itself, a 2-D input, an empty input and a length other than
the domain's; it takes lists, tuples, int and float32 arrays and 0-d values
exactly as it takes the float64 vector of the same values. What the library
keeps is a private read-only copy."""

import copy
import math
import pickle
from unittest import mock

import numpy as np
import pytest

from dpsco import cli, optimizers
from dpsco.geometry import ConvexDomain, DimensionMismatchError
from dpsco.losses import (
    SyntheticDistribution,
    linear_regression_sphere,
    logistic_sphere,
    quadratic_point_mass,
    quadratic_sphere,
)
from dpsco.optimizers import (
    NoiseStream,
    phased_erm,
    phased_sgd,
    pnsgd,
    psgd,
    sc_reduction,
    sc_snowball,
    sc_weighted_sgd,
)
from dpsco.schedules import Schedule, _vector

NAN, INF = math.nan, math.inf


def _ball(d):
    return ConvexDomain.ball([0.0] * d, 1.0)


def _box(d):
    return ConvexDomain.box([-1.0] * d, [1.0] * d)


def _problem(domain):
    """16 examples of a quadratic on a sphere of radius 0.5 inside the domain."""
    dist = quadratic_sphere(domain, [0.0] * domain.dimension, 0.5)
    return dist.sample_dataset(16, 0), dist.loss


# every optimizer, run from w0 on 16 examples; sc_snowball's batches are all 1 at rho = 10
RUNS = {
    "pnsgd": lambda data, loss, domain, w0: pnsgd(
        data, loss, domain, w0, Schedule.constant(16, 1, 0.1, 1.0), NoiseStream(0)),
    "psgd": lambda data, loss, domain, w0: psgd(data, loss, domain, w0, [0.1] * 16),
    "phased_sgd": lambda data, loss, domain, w0: phased_sgd(
        data, loss, domain, w0, 0.1, 1.0, NoiseStream(0)),
    "phased_erm": lambda data, loss, domain, w0: phased_erm(
        data, loss, domain, w0, 0.1, 1.0, 1e-5, NoiseStream(0), inner="exact"),
    "sc_reduction": lambda data, loss, domain, w0: sc_reduction(
        data, loss, domain, w0,
        lambda block, loss, domain, w, noise: psgd(block, loss, domain, w, [0.1] * len(block)),
        NoiseStream(0)),
    "sc_weighted_sgd": lambda data, loss, domain, w0: sc_weighted_sgd(
        data, loss, domain, w0, 16, 1.0, NoiseStream(0), eta=0.1),
    "sc_snowball": lambda data, loss, domain, w0: sc_snowball(
        data, loss, domain, w0, 16, domain.dimension, 10.0, NoiseStream(0), eta=0.1),
}


def _start(algorithm):
    def run(w0, d):
        domain = _ball(d)
        return RUNS[algorithm](*_problem(domain), domain, w0).final_iterate
    return run


def _steps(steps, d):
    domain = _ball(d)
    data, loss = _problem(domain)
    return psgd(data.subset(0, max(np.size(steps), 1)), loss, domain, [0.0] * d,
                steps).final_iterate


# (site, the vector the site keeps or the run's last iterate, from a value at
# dimension d; the argument's name; whether the site knows the length)
SITES = [
    ("ConvexDomain.ball", lambda v, d: ConvexDomain.ball(v, 9.0).center, "ball center", False),
    ("ConvexDomain.box lower", lambda v, d: ConvexDomain.box(v, [9.0] * d).lower, "box lower",
     False),
    ("ConvexDomain.box upper", lambda v, d: ConvexDomain.box([-9.0] * d, v).upper, "box upper",
     True),
    ("quadratic_point_mass", lambda v, d: quadratic_point_mass(_ball(d), v).params["center"],
     "center", True),
    ("quadratic_sphere", lambda v, d: quadratic_sphere(_ball(d), v, 1.0).params["center"],
     "center", True),
    ("linear_regression_sphere",
     lambda v, d: linear_regression_sphere(_ball(d), 1.0, v, 0.0).params["w_true"], "w_true",
     True),
    ("logistic_sphere", lambda v, d: logistic_sphere(_ball(d), 1.0, v).params["w_ref"], "w_ref",
     True),
    *[(f"{algorithm} w0", _start(algorithm), "w0", True) for algorithm in RUNS],
    ("psgd step sizes", _steps, "step sizes", False),
    ("dpsco run config vector", lambda v, d: cli._vector({"center": v}, "center", d), "'center'",
     True),
]

# Values no site takes, at d = 2. The config's scalar branch takes what is
# not a list, and refuses these too.
HOSTILE = [
    ("nan entry", [NAN, 0.0]),
    ("inf entry", [0.0, INF]),
    ("-inf entry", [-INF, 0.0]),
    ("nan array", np.array([0.0, NAN])),
    ("bool entries", [True, False]),
    ("bool array", np.array([True, False])),
    ("string entries", ["0.5", "0"]),
    ("string array", np.array(["0.5", "0"])),
    ("None", None),
    ("None entry", [0.0, None]),
    ("complex entry", [1j, 0.0]),
    ("complex array", np.array([1j, 0.0])),
    ("2-D array", np.zeros((1, 2))),
    ("nested list", [[0.0, 0.0]]),
    ("empty", []),
]
WRONG_LENGTH = [0.0, 0.0, 0.0]

# Values every site takes (steps are nonnegative, starts inside the unit ball)
INSIDE = [
    ("list", [0.25, 0.5]),
    ("tuple", (0.25, 0.5)),
    ("int list", [0, 1]),
    ("numpy scalars", [np.float32(0.1), np.int64(0)]),
    ("int array", np.array([0, 1])),
    ("float32 array", np.array([0.1, 0.3], dtype=np.float32)),
    ("float64 array", np.array([0.25, 0.5])),
    ("0-d float", 0.5),
    ("0-d int", 1),
    ("0-d float32", np.float32(0.1)),
    ("0-d array", np.array(0.5)),
]


def _refused():
    for site, build, name, sized in SITES:
        for label, value in HOSTILE + ([("wrong length", WRONG_LENGTH)] if sized else []):
            yield pytest.param(build, name, value, id=f"{site}-{label}")
    yield pytest.param(_steps, "step sizes", [0.1, -0.1], id="psgd step sizes-negative entry")


def _accepted():
    for site, build, _, _ in SITES:
        for label, value in INSIDE:
            if site.startswith("dpsco run") and not isinstance(value, list):
                continue  # the config's vector branch: JSON gives lists
            yield pytest.param(build, value, id=f"{site}-{label}")


@pytest.mark.parametrize("build, name, value", list(_refused()))
def test_site_refuses_a_hostile_vector(build, name, value):
    # before the rule ["0.5", "0"] and [True, False] were taken as numbers, a
    # 2-D centre or start was flattened, and a start with a NaN or infinite
    # entry was projected with a warning
    expected = DimensionMismatchError if value is WRONG_LENGTH else ValueError
    with pytest.raises(expected) as refused:
        build(value, 2)
    assert str(refused.value).startswith(f"{name} must "), refused.value


@pytest.mark.parametrize("build, value", list(_accepted()))
def test_site_takes_a_vector_as_its_float64_values(build, value):
    # np.asarray(value, dtype=np.float64) was the conversion before the rule
    d = max(np.size(value), 1)
    got = build(value, d)
    want = build(np.asarray(value, dtype=np.float64).reshape(-1).tolist(), d)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("algorithm", list(RUNS))
def test_nan_start_on_a_box_is_refused_before_the_first_step(algorithm):
    # on a box a NaN start was projected to a NaN point, with a warning, and
    # the run returned a NaN final iterate
    domain = _box(2)
    data, loss = _problem(domain)
    no_step = AssertionError("a step ran")
    with mock.patch.object(optimizers, "_sgd_pass", side_effect=no_step), \
            mock.patch.object(optimizers, "_exact_regularized_erm", side_effect=no_step), \
            pytest.raises(ValueError, match="^w0 must be finite, got nan$"):
        RUNS[algorithm](data, loss, domain, [NAN, 0.0])


class TestKeptCopies:
    def _assert_kept(self, kept, values):
        assert kept.tolist() == values
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 1.0

    def test_domain_keeps_its_vectors(self):
        # the ball's centre read [5, 0] after the caller's c[0] = 5
        c, lower, upper = np.zeros(2), np.zeros(2), np.ones(2)
        ball, box = ConvexDomain.ball(c, 1.0), ConvexDomain.box(lower, upper)
        direct = ConvexDomain("ball", center=c, radius=1.0)
        c[0] = lower[0] = upper[0] = 5.0
        for kept, values in ((ball.center, [0.0, 0.0]), (box.lower, [0.0, 0.0]),
                             (box.upper, [1.0, 1.0]), (direct.center, [0.0, 0.0])):
            self._assert_kept(kept, values)

    @pytest.mark.parametrize("build, key", [
        (lambda v: quadratic_point_mass(_ball(2), v), "center"),
        (lambda v: quadratic_sphere(_ball(2), v, 1.0), "center"),
        (lambda v: linear_regression_sphere(_ball(2), 1.0, v, 0.0), "w_true"),
        (lambda v: logistic_sphere(_ball(2), 1.0, v), "w_ref"),
    ])
    def test_distribution_keeps_its_vectors(self, build, key):
        # population_loss followed the caller's edit and minimizer did not
        v = np.array([0.25, 0.0])
        dist = build(v)
        v[0] = 5.0
        self._assert_kept(dist.params[key], [0.25, 0.0])
        self._assert_kept(dist.minimizer, [0.25, 0.0])

    def test_directly_built_distribution_keeps_its_vectors(self):
        base = quadratic_sphere(_ball(2), [0.0, 0.0], 1.0)
        c = np.array([0.25, 0.0])
        dist = SyntheticDistribution("mine", base.loss, base.domain, "sphere",
                                     {"center": c, "data_radius": 1.0}, minimizer=c)
        c[0] = 5.0
        self._assert_kept(dist.params["center"], [0.25, 0.0])
        self._assert_kept(dist.minimizer, [0.25, 0.0])
        assert dist.params["data_radius"] == 1.0


    def test_params_refuse_a_swapped_vector(self):
        # dist.params["center"] = [5, 0] took: population_loss([0, 0]) read
        # 13.0, and excess_loss([0, 0]) 0.0 at the unchanged minimizer
        dist = quadratic_sphere(_ball(2), [0.0, 0.0], 1.0)
        with pytest.raises(TypeError):
            dist.params["center"] = np.array([5.0, 0.0])
        assert dist.params["center"].tolist() == [0.0, 0.0]
        assert dist.population_loss([0.0, 0.0]) == 0.5 and dist.excess_loss([0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_read_only_vectors(self, duplicate):
        # deepcopy and pickle gave writeable arrays, and copy shared the params dict
        dist = quadratic_sphere(ConvexDomain.box([-1.0, -1.0], [1.0, 1.0]), [0.25, 0.0], 1.0)
        twin = duplicate(dist)
        assert twin.params is not dist.params
        for kept, values in ((twin.params["center"], [0.25, 0.0]), (twin.minimizer, [0.25, 0.0]),
                             (twin.domain.lower, [-1.0, -1.0]), (twin.domain.upper, [1.0, 1.0])):
            self._assert_kept(kept, values)
        with pytest.raises(TypeError):
            twin.params["center"] = np.array([5.0, 0.0])
        self._assert_kept(duplicate(ConvexDomain.ball([0.5], 1.0)).center, [0.5])


class TestVectorRule:
    def test_a_float64_vector_comes_back_uncopied(self):
        v = np.array([0.5, -1.0])
        assert _vector(v, "x") is v

    @pytest.mark.parametrize("value, interval, want", [
        ([0.0, INF], "nonnegative", [0.0, INF]), ([1.0, 0.5], "positive", [1.0, 0.5]),
        ([10**400, 1], "positive", [INF, 1.0]),
    ])
    def test_the_interval_is_the_real_rule_s(self, value, interval, want):
        assert _vector(value, "x", interval).tolist() == want

    @pytest.mark.parametrize("value, interval", [
        ([0.0, 1.0], "positive"), ([0.5, -1.0], "nonnegative and finite"),
        ([-(10**400)], "finite"), ([10**400], "finite"),
    ])
    def test_an_entry_outside_the_interval_is_refused(self, value, interval):
        with pytest.raises(ValueError, match=f"^x must be {interval}, got "):
            _vector(value, "x", interval)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="^x must have dimension 3, got 2$"):
            _vector([1.0, 2.0], "x", dim=3)
