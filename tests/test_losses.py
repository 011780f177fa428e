"""Loss family oracles, declared-constant audits, and synthetic distributions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contraction import batch_value
from dpsco.geometry import ConvexDomain, DimensionMismatchError
from dpsco.losses import (
    Dataset,
    LossFamily,
    absolute_deviation_uniform,
    linear_regression_sphere,
    logistic_sphere,
    quadratic_gaussian,
    quadratic_point_mass,
    quadratic_sphere,
)

BALL2 = ConvexDomain.ball([0.0, 0.0], 1.0)


def one_row(x):
    """A dataset of the one example ``x``: a point, or a pair (a, b)."""
    if isinstance(x, tuple):
        return Dataset(np.asarray(x[0], dtype=np.float64)[None], np.array([float(x[1])]))
    return Dataset(np.asarray(x, dtype=np.float64)[None])


def central_difference(loss, w, x, h=1e-6):
    """Independent gradient oracle: central finite differences of f, from the
    values kernel on a one-row dataset."""
    row = one_row(x)
    g = np.zeros_like(w)
    for j in range(w.shape[0]):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (batch_value(loss, w + e, row) - batch_value(loss, w - e, row)) / (2.0 * h)
    return g


def monte_carlo(dist, w, n, seed, groups=100):
    """The loss at ``w`` averaged over n sampled examples by ``batch_value``
    on ``groups`` equal blocks, with the standard error of the block means."""
    data = dist.sample_dataset(n, rng_seed=seed)
    size = n // groups
    means = np.array([batch_value(dist.loss, w, data.subset(g * size, (g + 1) * size))
                      for g in range(groups)])
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(groups))


class TestGrad:
    def test_quadratic_grad_is_offset(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        np.testing.assert_array_equal(
            dist.loss.grad([1.0, 1.0], np.array([0.0, 0.0])), [1.0, 1.0]
        )

    def test_quadratic_grad_vanishes_at_example(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        x = np.array([0.25, -0.5])
        np.testing.assert_array_equal(dist.loss.grad(x, x), [0.0, 0.0])

    def test_logistic_grad_at_origin(self):
        # sigmoid(0) = 1/2, so the gradient is -b a / 2; cross-checked against
        # finite differences
        loss = LossFamily("logistic", lipschitz=1.0, smoothness=0.25, strong_convexity=0.0)
        a = np.array([0.6, 0.8])
        w = np.zeros(2)
        g = loss.grad(w, (a, 1.0))
        np.testing.assert_allclose(g, -a / 2.0, atol=1e-15)
        np.testing.assert_allclose(g, central_difference(loss, w, (a, 1.0)), atol=1e-9)

    def test_dimension_mismatch(self):
        # the batch kernel checks the example's dimension against the iterate's
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        with pytest.raises(DimensionMismatchError):
            dist.loss.batch_grad(np.array([1.0, 1.0]), one_row([0.0, 0.0, 0.0]))

    def test_absolute_deviation_sign_convention(self):
        loss = LossFamily("absolute_deviation", 1.0, math.inf, 0.0)
        a = np.array([1.0])
        assert loss.grad(np.array([0.0]), (a, 0.0))[0] == 0.0  # sign(0) = 0
        assert loss.grad(np.array([1.0]), (a, 0.0))[0] == 1.0
        assert loss.grad(np.array([-1.0]), (a, 0.0))[0] == -1.0


class TestBatchGrad:
    def test_singleton_batch_equals_grad(self):
        # every family, plus logistic margins a.w near +-700 (exp(-700) is
        # still a normal float; a warning would fail the test) and an
        # absolute-deviation example exactly at its kink a.w = b
        w = np.array([0.2, -0.1])
        cases = []
        for dist in (quadratic_sphere(BALL2, [0.0, 0.0], 1.0),
                     linear_regression_sphere(BALL2, 1.0, [0.5, 0.0], 0.1),
                     logistic_sphere(BALL2, 1.0, [0.0, 0.0]),
                     absolute_deviation_uniform(ConvexDomain.ball([0.0], 1.0), 0.3, 1.0)):
            data = dist.sample_dataset(1, rng_seed=5)
            cases.append((dist.loss, w[:dist.dimension], data.example(0)))
        logistic = LossFamily("logistic", 1.0, 0.25, 0.0)
        a = np.array([0.6, 0.8])
        for sign in (1.0, -1.0):  # a.w = +-700
            for b in (1.0, -1.0):
                cases.append((logistic, sign * np.array([420.0, 560.0]), (a, b)))
        absdev = LossFamily("absolute_deviation", 1.0, math.inf, 0.0)
        kink = (absdev, np.array([0.25, 0.5]), (np.array([1.0, 0.5]), 0.5))
        cases.append(kink)
        for loss, w, x in cases:
            g = loss.grad(w, x)
            assert np.isfinite(g).all()
            np.testing.assert_allclose(loss.batch_grad(w, one_row(x)), g, rtol=1e-12, atol=0)
        assert not absdev.grad(*kink[1:]).any()  # sign(0) = 0
        np.testing.assert_allclose(logistic.grad(np.array([420.0, 560.0]), (a, -1.0)), a,
                                   rtol=1e-15)

    def test_symmetric_batch_cancels(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        x = np.array([0.3, 0.4])
        data = Dataset(np.stack([x, -x]))
        np.testing.assert_array_equal(dist.loss.batch_grad(np.zeros(2), data), [0.0, 0.0])

    def test_two_point_mean(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = Dataset(np.array([[2.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(
            dist.loss.batch_grad(np.zeros(2), data), [-1.0, -1.0], atol=1e-15
        )

    def test_empty_batch_rejected(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            dist.loss.batch_grad(np.zeros(2), Dataset(np.empty((0, 2))))

    def test_batch_grad_matches_example_loop(self):
        rng = np.random.default_rng(3)
        for dist in (
            logistic_sphere(BALL2, 1.0, [0.1, 0.2]),
            linear_regression_sphere(BALL2, 1.0, [0.5, 0.0], 0.1),
            quadratic_sphere(BALL2, [0.0, 0.0], 1.0),
        ):
            data = dist.sample_dataset(16, rng_seed=9)
            w = rng.normal(size=2) * 0.5
            by_loop = np.mean(
                [dist.loss.grad(w, data.example(i)) for i in range(len(data))], axis=0
            )
            np.testing.assert_allclose(dist.loss.batch_grad(w, data), by_loop, atol=1e-12)


class TestSampling:
    def test_n_zero_rejected(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            dist.sample_dataset(0, rng_seed=1)

    def test_same_seed_same_data(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        a = dist.sample_dataset(50, rng_seed=42)
        b = dist.sample_dataset(50, rng_seed=42)
        np.testing.assert_array_equal(a.features, b.features)

    def test_point_mass_repeats_center(self):
        dist = quadratic_point_mass(BALL2, [0.25, -0.25])
        data = dist.sample_dataset(8, rng_seed=0)
        np.testing.assert_array_equal(data.features, np.tile([0.25, -0.25], (8, 1)))

    def test_sphere_samplers_equal_the_norm_based_draw(self):
        # the samplers scale rows in place; the form they replaced is the oracle
        domain = ConvexDomain.ball(np.full(16, 0.2), 1.5)
        for dist in (
            quadratic_sphere(domain, np.full(16, 0.4), 2.5),
            linear_regression_sphere(domain, 1.7, np.full(16, 0.1), 0.3),
            logistic_sphere(domain, 2.0, np.full(16, 0.3)),
        ):
            data = dist.sample_dataset(500, rng_seed=7)
            rng = np.random.default_rng(7)
            raw = rng.standard_normal((500, 16))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            p = dist.params
            if dist.sampler == "sphere":
                np.testing.assert_allclose(data.features, p["center"] + p["radius"] * raw,
                                           rtol=1e-15, atol=1e-15)
                continue
            raw *= p["feature_radius"]
            np.testing.assert_allclose(data.features, raw, rtol=1e-15, atol=1e-15)
            if dist.sampler == "sphere_regression":
                noise = rng.uniform(-p["noise_half_width"], p["noise_half_width"], size=500)
                np.testing.assert_allclose(data.targets, raw @ p["w_true"] + noise,
                                           rtol=1e-15, atol=1e-15)
            else:
                prob = 1.0 / (1.0 + np.exp(-(raw @ p["w_ref"])))
                labels = np.where(rng.uniform(size=500) < prob, 1.0, -1.0)
                np.testing.assert_array_equal(data.targets, labels)


class TestPopulationLoss:
    def test_point_mass_zero_at_center(self):
        dist = quadratic_point_mass(BALL2, [0.25, -0.25])
        assert dist.population_loss([0.25, -0.25]) == 0.0
        data = dist.sample_dataset(64, rng_seed=0)
        assert batch_value(dist.loss, np.array([0.25, -0.25]), data) == 0.0

    def test_gaussian_closed_form_is_half_d(self):
        # E 0.5 |x|^2 = d/2 for standard normal data
        domain = ConvexDomain.ball([0.0] * 4, 1.0)
        dist = quadratic_gaussian(domain, [0.0] * 4, 1.0)
        assert dist.population_loss([0.0] * 4) == 2.0
        # cross-check the closed form against a large Monte Carlo draw
        mc, _ = monte_carlo(dist, np.zeros(4), 200_000, seed=1)
        assert abs(mc - 2.0) < 0.03

    def test_empty_batch_value_rejected(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            batch_value(dist.loss, np.zeros(2), Dataset(np.empty((0, 2))))

    def test_sphere_closed_form_matches_monte_carlo(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        w = np.array([0.3, -0.2])
        mean, std_err = monte_carlo(dist, w, 200_000, seed=2)
        assert abs(mean - dist.population_loss(w)) <= 4 * std_err + 1e-12

    def test_absdev_closed_form(self):
        domain = ConvexDomain.ball([0.0], 1.0)
        dist = absolute_deviation_uniform(domain, median=0.3, half_width=1.0)
        assert dist.optimum == 0.5
        mean, std_err = monte_carlo(dist, np.array([0.3]), 200_000, seed=3)
        assert abs(mean - 0.5) <= 4 * std_err

    def test_minimizer_gradient_norm_small(self):
        # Monte-Carlo gradient at the closed-form minimizer is statistically zero
        for dist in (
            quadratic_sphere(BALL2, [0.1, 0.1], 0.5),
            linear_regression_sphere(BALL2, 1.0, [0.2, -0.3], 0.1),
            logistic_sphere(BALL2, 1.0, [0.3, 0.1]),
        ):
            n = 40_000
            data = dist.sample_dataset(n, rng_seed=4)
            g = dist.loss.batch_grad(dist.minimizer, data)
            L = dist.loss.lipschitz
            assert np.linalg.norm(g) <= 3.0 * L / math.sqrt(n)


# The five closed-form constructors, each from a domain, a centre (mean,
# median, w_true) and a positive scale (radius, sigma, half width).
NAN, INF = math.nan, math.inf
BALL1 = ConvexDomain.ball([0.0], 1.0)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ConvexDomain.ball([0.0, 0.0], NAN), id="ball radius nan"),
    pytest.param(lambda: ConvexDomain.ball([0.0, 0.0], INF), id="ball radius inf"),
    pytest.param(lambda: ConvexDomain.ball([0.0, 0.0], -INF), id="ball radius -inf"),
    pytest.param(lambda: ConvexDomain.ball([0.0, 0.0], 1e300), id="ball radius squared inf"),
    pytest.param(lambda: ConvexDomain.ball([NAN, 0.0], 1.0), id="ball center nan"),
    pytest.param(lambda: ConvexDomain.ball(np.zeros(0), 1.0), id="ball center empty"),
    pytest.param(lambda: ConvexDomain.box([NAN], [1.0]), id="box lower nan"),
    pytest.param(lambda: ConvexDomain.box([0.0], [INF]), id="box upper inf"),
    pytest.param(lambda: ConvexDomain.box([-INF], [0.0]), id="box lower -inf"),
    pytest.param(lambda: ConvexDomain.box([], []), id="box empty"),
    pytest.param(lambda: quadratic_sphere(BALL2, [0.0, 0.0], NAN), id="sphere radius nan"),
    pytest.param(lambda: quadratic_sphere(BALL2, [0.0, 0.0], INF), id="sphere radius inf"),
    pytest.param(lambda: quadratic_sphere(BALL2, [NAN, 0.0], 1.0), id="sphere center nan"),
    pytest.param(lambda: quadratic_point_mass(BALL2, [0.0, NAN]), id="point mass nan"),
    pytest.param(lambda: quadratic_gaussian(BALL2, [0.0, 0.0], NAN), id="gaussian sigma nan"),
    pytest.param(lambda: absolute_deviation_uniform(BALL1, 0.0, NAN), id="half width nan"),
    pytest.param(lambda: absolute_deviation_uniform(BALL1, INF, 1.0), id="median inf"),
    pytest.param(lambda: linear_regression_sphere(BALL2, 1.0, [0.0, 0.0], NAN),
                 id="regression noise nan"),
    pytest.param(lambda: linear_regression_sphere(BALL2, INF, [0.0, 0.0], 0.0),
                 id="regression radius inf"),
    pytest.param(lambda: logistic_sphere(BALL2, INF, [0.0, 0.0]), id="logistic radius inf"),
    pytest.param(lambda: logistic_sphere(BALL2, 1.0, [NAN, 0.0]), id="logistic w_ref nan"),
    pytest.param(lambda: LossFamily("quadratic", NAN, 1.0, 1.0), id="family L nan"),
    pytest.param(lambda: LossFamily("logistic", 1.0, NAN, 0.0), id="family beta nan"),
    pytest.param(lambda: linear_regression_sphere(BALL2, 1e-170, [0.0, 0.0], 1.0),
                 id="regression beta underflows to 0"),
])
def test_constructor_refuses_non_finite_or_empty_input(build):
    # each was accepted, and its NaN or inf surfaced far from here, if at all;
    # beta = 0 raised ZeroDivisionError from support_defect's 2 / beta
    with pytest.raises(ValueError):
        build()


CLOSED_FORMS = {
    "quadratic_point_mass": lambda domain, c, s: quadratic_point_mass(domain, c),
    "quadratic_sphere": quadratic_sphere,
    "quadratic_gaussian": quadratic_gaussian,
    "absolute_deviation_uniform": lambda domain, c, s: absolute_deviation_uniform(
        domain, c[0], s),
    "linear_regression_sphere": lambda domain, c, s: linear_regression_sphere(
        domain, s, c, s / 2.0),
}
coordinates = st.floats(-3.0, 3.0)
scales = st.floats(0.01, 3.0)


@st.composite
def closed_form_distributions(draw):
    """A closed-form distribution over a random ball or box in d <= 8, whose
    centre may lie outside it."""
    name = draw(st.sampled_from(sorted(CLOSED_FORMS)))
    d = 1 if name == "absolute_deviation_uniform" else draw(st.integers(1, 8))
    vector = st.lists(coordinates, min_size=d, max_size=d).map(np.array)
    if draw(st.booleans()):
        domain = ConvexDomain.ball(draw(vector), draw(scales))
    else:
        lower = draw(vector)
        domain = ConvexDomain.box(lower, lower + draw(st.lists(scales, min_size=d, max_size=d)))
    return CLOSED_FORMS[name](domain, draw(vector), draw(scales))


@settings(deadline=None, max_examples=200)
@given(closed_form_distributions())
@example(linear_regression_sphere(ConvexDomain.ball(np.zeros(8), 1.0), 1.0, np.full(8, 1.3), 0.1))
@example(absolute_deviation_uniform(ConvexDomain.ball([0.0], 1.0), 0.3, 0.1))
def test_optimum_is_the_loss_at_the_minimizer(dist):
    assert dist.excess_loss(dist.minimizer) == 0.0


def _extremal_point(kind, domain, x):
    """The domain point at which one example's gradient norm is largest: the
    farthest point from x (quadratic), the largest |a.w - b| (linear
    regression and absolute deviation), or the smallest margin b a.w
    (logistic)."""
    if kind == "quadratic":
        if domain.kind == "ball":
            away = domain.center - x
            return domain.center + domain.radius * away / np.linalg.norm(away)
        return np.where(np.abs(domain.lower - x) >= np.abs(domain.upper - x),
                        domain.lower, domain.upper)
    a, b = x
    mid = domain.center if domain.kind == "ball" else (domain.lower + domain.upper) / 2.0
    up = -b if kind == "logistic" else (1.0 if a.dot(mid) >= b else -1.0)
    if domain.kind == "ball":
        return domain.center + up * domain.radius * a / np.linalg.norm(a)
    return np.where(up * a >= 0.0, domain.upper, domain.lower)


@pytest.fixture(scope="module")
def families():
    return [
        quadratic_sphere(BALL2, [0.0, 0.0], 1.0),
        linear_regression_sphere(BALL2, 1.0, [0.5, -0.5], 0.2),
        logistic_sphere(BALL2, 1.0, [0.2, 0.2]),
        absolute_deviation_uniform(ConvexDomain.ball([0.0], 1.0), 0.0, 1.0),
    ]


class TestDeclaredConstants:
    """Sampled audits of the declared (L, beta, lambda) constants."""

    def test_sampled_data_meet_the_declared_smoothness(self):
        # every synthetic distribution's own samples meet its declared L and
        # beta (at the longest contractive step 2/beta) on centred balls,
        # shifted balls and boxes
        for d in (1, 3):
            domains = (ConvexDomain.ball(np.zeros(d), 1.0),
                       ConvexDomain.ball(np.linspace(0.3, -0.2, d), 0.8),
                       ConvexDomain.box(np.linspace(-0.5, -0.3, d), np.linspace(0.7, 0.4, d)))
            for domain in domains:
                center = np.linspace(0.4, -0.6, d)
                dists = [quadratic_point_mass(domain, center),
                         quadratic_sphere(domain, center, 0.7),
                         quadratic_gaussian(domain, center, 2.0),
                         linear_regression_sphere(domain, 1.3, center, 0.2),
                         logistic_sphere(domain, 1.7, center)]
                if d == 1:
                    dists.append(absolute_deviation_uniform(domain, 0.2, 0.5))
                for dist in dists:
                    beta = dist.loss.smoothness
                    eta = 2.0 / beta if math.isfinite(beta) else None
                    data = dist.sample_dataset(500, rng_seed=18)
                    assert dist.loss.support_defect(data, domain, eta) is None, dist.name

    def test_smoothness_defect_reads_the_features(self):
        # beta = |a|^2 (linear regression) or |a|^2 / 4 (logistic), with a
        # relative tolerance of 1e-12 above the declared value; the data's L
        # (at most 2 and 2 (1 + 1e-13)) stays within the declared L = 2
        for dist, declared in ((linear_regression_sphere(BALL2, 1.0, [0.0, 0.0], 1.0), 1.0),
                               (logistic_sphere(BALL2, 2.0, [0.0, 0.0]), 1.0)):
            scale = 2.0 if dist.loss.kind == "logistic" else 1.0
            for stretch, ok in ((1.0 + 1e-13, True), (1.0 + 1e-11, False), (3.0, False)):
                data = Dataset(np.array([[0.0, 0.5], [scale * math.sqrt(stretch), 0.0]]),
                               np.array([1.0, 0.0]))
                defect = dist.loss.support_defect(data, BALL2, 2.0 / declared)
                assert (defect is None) == ok
            assert "declared beta = 1" in defect
            nan = Dataset(np.array([[np.nan, 0.0]]), np.array([1.0]))
            assert "declared beta" in dist.loss.support_defect(nan, BALL2, 1.0)
        # without a step only L is checked: beta = 1.44 > 1 but L = 1.44 <= 2
        lsq = linear_regression_sphere(BALL2, 1.0, [0.0, 0.0], 1.0).loss
        wide = Dataset(np.array([[1.2, 0.0]]), np.array([0.0]))
        assert lsq.support_defect(wide, BALL2) is None
        assert "declared beta" in lsq.support_defect(wide, BALL2, 1.0)
        # the other families' beta does not depend on the data; their L does
        far = Dataset(np.array([[30.0, 0.0]]), np.array([1.0]))
        defect = quadratic_sphere(BALL2, [0.0, 0.0], 1.0).loss.support_defect(far, BALL2, 2.0)
        assert defect == "the data give L = 31 > declared L = 2"

    def _domain_points(self, dist, rng, count):
        d = dist.dimension
        raw = rng.normal(size=(count, d))
        raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-12)
        radii = rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / d)
        return dist.domain.center + dist.domain.radius * raw * radii

    def test_finite_difference_oracle(self, families):
        rng = np.random.default_rng(10)
        for dist in families:
            if not math.isfinite(dist.loss.smoothness):
                continue
            data = dist.sample_dataset(100, rng_seed=11)
            points = self._domain_points(dist, rng, 100)
            for i in range(100):
                w = points[i]
                x = data.example(i)
                g = dist.loss.grad(w, x)
                fd = central_difference(dist.loss, w, x)
                assert np.linalg.norm(g - fd) <= 1e-4 * (1.0 + np.linalg.norm(g))

    def test_lipschitz_audit(self, families):
        rng = np.random.default_rng(12)
        for dist in families:
            data = dist.sample_dataset(200, rng_seed=13)
            points = self._domain_points(dist, rng, 200)
            for i in range(200):
                g = dist.loss.grad(points[i], data.example(i))
                assert np.linalg.norm(g) <= dist.loss.lipschitz + 1e-12
        # the L that support_defect reads from the data is the largest
        # gradient norm over the domain: no sampled domain point exceeds it,
        # and it equals the norm at each row's extremal point to 1e-12
        # (logistic's |a| is approached there: its margins reach below -30)
        d = 3
        domains = (ConvexDomain.ball(np.zeros(d), 40.0),
                   ConvexDomain.ball(np.array([5.0, -3.0, 2.0]), 40.0),
                   ConvexDomain.box(np.array([-45.0, -41.0, -50.0]), np.array([43.0, 40.0, 47.0])))
        for kind in ("quadratic", "linear_regression", "logistic", "absolute_deviation"):
            for domain in domains:
                feats = rng.standard_normal((30, d))
                feats *= rng.uniform(1.0, 3.0, (30, 1)) / np.linalg.norm(feats, axis=1)[:, None]
                if kind == "quadratic":
                    data = Dataset(60.0 * rng.standard_normal((30, d)))
                elif kind == "logistic":
                    data = Dataset(feats, rng.choice([-1.0, 1.0], 30))
                else:
                    data = Dataset(feats, 20.0 * rng.standard_normal(30))
                extremal = [_extremal_point(kind, domain, data.example(i)) for i in range(30)]
                loss = LossFamily(kind, lipschitz=math.inf, smoothness=math.inf,
                                  strong_convexity=0.0)
                peak = max(np.linalg.norm(loss.grad(w, data.example(i)))
                           for i, w in enumerate(extremal))
                for w in np.concatenate([extremal, self._box_or_ball_points(domain, rng, 100)]):
                    assert domain.contains(w)
                    for i in range(30):
                        assert np.linalg.norm(loss.grad(w, data.example(i))) <= peak
                for declared, ok in ((peak * (1.0 - 2e-12), False), (peak, True)):
                    loss = LossFamily(kind, lipschitz=declared, smoothness=math.inf,
                                      strong_convexity=0.0)
                    assert (loss.support_defect(data, domain) is None) == ok, (kind, domain)
        # a centre far from the origin next to the data's spread: the farthest
        # row is 1e8 - 1, where |x|^2 - 2 x.m + |m|^2 rounds to 0 for both rows
        far_off = ConvexDomain.ball(np.array([1e8]), 1.0)
        loss = quadratic_point_mass(far_off, [1e8 + 0.5]).loss
        assert loss.lipschitz == 1.5
        rows = Dataset(np.array([[1e8 + 0.5], [1e8 - 1.0]]))
        assert "the data give L = 2 > declared L = 1.5" in loss.support_defect(rows, far_off)
        assert loss.support_defect(rows.subset(0, 1), far_off) is None
        # a NaN is a defect, whatever L is declared
        loss = LossFamily("linear_regression", math.inf, math.inf, 0.0)
        nan = Dataset(np.array([[1.0, 0.0, 0.0]]), np.array([math.nan]))
        assert "declared L = inf" in loss.support_defect(nan, domains[0])

    def _box_or_ball_points(self, domain, rng, count):
        if domain.kind == "box":
            return rng.uniform(domain.lower, domain.upper, (count, domain.dimension))
        raw = rng.standard_normal((count, domain.dimension))
        raw *= rng.uniform(0.0, domain.radius, (count, 1)) / np.linalg.norm(raw, axis=1)[:, None]
        return domain.center + raw

    def test_smoothness_audit(self, families):
        rng = np.random.default_rng(14)
        for dist in families:
            beta = dist.loss.smoothness
            if not math.isfinite(beta):
                continue
            data = dist.sample_dataset(100, rng_seed=15)
            p = self._domain_points(dist, rng, 100)
            q = self._domain_points(dist, rng, 100)
            for i in range(100):
                gap = np.linalg.norm(p[i] - q[i])
                if gap < 1e-9:
                    continue
                x = data.example(i)
                lhs = np.linalg.norm(dist.loss.grad(p[i], x) - dist.loss.grad(q[i], x))
                assert lhs <= beta * gap * (1.0 + 1e-6)

    def test_strong_convexity_audit(self, families):
        rng = np.random.default_rng(16)
        for dist in families:
            lam = dist.loss.strong_convexity
            data = dist.sample_dataset(100, rng_seed=17)
            p = self._domain_points(dist, rng, 100)
            q = self._domain_points(dist, rng, 100)
            for i in range(100):
                x = data.example(i)
                row = one_row(x)
                lhs = batch_value(dist.loss, q[i], row)
                rhs = (
                    batch_value(dist.loss, p[i], row)
                    + float(np.dot(dist.loss.grad(p[i], x), q[i] - p[i]))
                    + 0.5 * lam * float(np.sum((q[i] - p[i]) ** 2))
                )
                assert lhs >= rhs - 1e-9

    def test_lambda_at_most_beta(self, families):
        for dist in families:
            if math.isfinite(dist.loss.smoothness):
                assert dist.loss.strong_convexity <= dist.loss.smoothness
