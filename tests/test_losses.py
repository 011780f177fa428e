"""Loss family oracles, declared-constant audits, and synthetic distributions."""

import math

import numpy as np
import pytest

from dpsco.geometry import ConvexDomain, DimensionMismatchError
from dpsco.losses import (
    Dataset,
    LossFamily,
    absolute_deviation_uniform,
    batch_grad,
    dataset_from_csv,
    dataset_to_csv,
    grad,
    linear_regression_sphere,
    logistic_sphere,
    population_loss_estimate,
    quadratic_gaussian,
    quadratic_point_mass,
    quadratic_sphere,
)

BALL2 = ConvexDomain.ball([0.0, 0.0], 1.0)


def central_difference(loss, w, x, h=1e-6):
    """Independent gradient oracle: central finite differences of f."""
    g = np.zeros_like(w)
    for j in range(w.shape[0]):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (loss.value(w + e, x) - loss.value(w - e, x)) / (2.0 * h)
    return g


class TestGrad:
    def test_quadratic_grad_is_offset(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        np.testing.assert_array_equal(
            grad(dist.loss, [1.0, 1.0], np.array([0.0, 0.0])), [1.0, 1.0]
        )

    def test_quadratic_grad_vanishes_at_example(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        x = np.array([0.25, -0.5])
        np.testing.assert_array_equal(grad(dist.loss, x, x), [0.0, 0.0])

    def test_logistic_grad_at_origin(self):
        # sigmoid(0) = 1/2, so the gradient is -b a / 2; cross-checked against
        # finite differences
        loss = LossFamily("logistic", lipschitz=1.0, smoothness=0.25, strong_convexity=0.0)
        a = np.array([0.6, 0.8])
        w = np.zeros(2)
        g = grad(loss, w, (a, 1.0))
        np.testing.assert_allclose(g, -a / 2.0, atol=1e-15)
        np.testing.assert_allclose(g, central_difference(loss, w, (a, 1.0)), atol=1e-9)

    def test_dimension_mismatch(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        with pytest.raises(DimensionMismatchError):
            grad(dist.loss, [1.0, 1.0], np.array([0.0, 0.0, 0.0]))

    def test_absolute_deviation_sign_convention(self):
        loss = LossFamily("absolute_deviation", 1.0, math.inf, 0.0)
        a = np.array([1.0])
        assert grad(loss, np.array([0.0]), (a, 0.0))[0] == 0.0  # sign(0) = 0
        assert grad(loss, np.array([1.0]), (a, 0.0))[0] == 1.0
        assert grad(loss, np.array([-1.0]), (a, 0.0))[0] == -1.0


class TestBatchGrad:
    def test_singleton_batch_equals_grad(self):
        dist = logistic_sphere(BALL2, 1.0, [0.0, 0.0])
        data = dist.sample_dataset(1, rng_seed=5)
        w = np.array([0.2, -0.1])
        np.testing.assert_allclose(
            batch_grad(dist.loss, w, data), grad(dist.loss, w, data.example(0)), atol=1e-15
        )

    def test_symmetric_batch_cancels(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        x = np.array([0.3, 0.4])
        data = Dataset(np.stack([x, -x]))
        np.testing.assert_array_equal(batch_grad(dist.loss, np.zeros(2), data), [0.0, 0.0])

    def test_two_point_mean(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        data = Dataset(np.array([[2.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(
            batch_grad(dist.loss, np.zeros(2), data), [-1.0, -1.0], atol=1e-15
        )

    def test_empty_batch_rejected(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            batch_grad(dist.loss, np.zeros(2), Dataset(np.empty((0, 2))))

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
                [grad(dist.loss, w, data.example(i)) for i in range(len(data))], axis=0
            )
            np.testing.assert_allclose(batch_grad(dist.loss, w, data), by_loop, atol=1e-12)


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

    def test_csv_round_trip(self, tmp_path):
        for dist in (
            quadratic_sphere(BALL2, [0.0, 0.0], 1.0),
            logistic_sphere(BALL2, 1.0, [0.0, 0.0]),
        ):
            data = dist.sample_dataset(20, rng_seed=8)
            path = tmp_path / f"{dist.name}.csv"
            dataset_to_csv(data, path)
            back = dataset_from_csv(path)
            np.testing.assert_array_equal(back.features, data.features)
            if data.targets is None:
                assert back.targets is None
            else:
                np.testing.assert_array_equal(back.targets, data.targets)


class TestPopulationLoss:
    def test_point_mass_zero_at_center(self):
        dist = quadratic_point_mass(BALL2, [0.25, -0.25])
        est = population_loss_estimate(dist, [0.25, -0.25], num_mc=64, rng_seed=0)
        assert est["mean"] == 0.0
        assert est["std_err"] == 0.0

    def test_gaussian_closed_form_is_half_d(self):
        # E 0.5 |x|^2 = d/2 for standard normal data; closed form, no MC noise
        domain = ConvexDomain.ball([0.0] * 4, 1.0)
        dist = quadratic_gaussian(domain, [0.0] * 4, 1.0)
        est = population_loss_estimate(dist, [0.0] * 4, num_mc=100, rng_seed=0)
        assert est["mean"] == 2.0
        assert est["std_err"] == 0.0
        # cross-check the closed form against a large Monte Carlo draw
        data = dist.sample_dataset(200_000, rng_seed=1)
        mc = float(np.mean(0.5 * np.sum(data.features**2, axis=1)))
        assert abs(mc - 2.0) < 0.03

    def test_num_mc_precondition(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            population_loss_estimate(dist, [0.0, 0.0], num_mc=1, rng_seed=0)

    def test_sphere_closed_form_matches_monte_carlo(self):
        dist = quadratic_sphere(BALL2, [0.0, 0.0], 1.0)
        w = np.array([0.3, -0.2])
        est = population_loss_estimate(dist, w, num_mc=200_000, rng_seed=2)
        assert abs(est["mean"] - dist.population_loss(w)) <= 4 * est["std_err"] + 1e-12

    def test_absdev_closed_form(self):
        domain = ConvexDomain.ball([0.0], 1.0)
        dist = absolute_deviation_uniform(domain, median=0.3, half_width=1.0)
        assert dist.optimum == 0.5
        est = population_loss_estimate(dist, [0.3], num_mc=200_000, rng_seed=3)
        assert abs(est["mean"] - 0.5) <= 4 * est["std_err"]

    def test_minimizer_gradient_norm_small(self):
        # Monte-Carlo gradient at the closed-form minimizer is statistically zero
        for dist in (
            quadratic_sphere(BALL2, [0.1, 0.1], 0.5),
            linear_regression_sphere(BALL2, 1.0, [0.2, -0.3], 0.1),
            logistic_sphere(BALL2, 1.0, [0.3, 0.1]),
        ):
            n = 40_000
            data = dist.sample_dataset(n, rng_seed=4)
            g = batch_grad(dist.loss, dist.minimizer, data)
            L = dist.loss.lipschitz
            assert np.linalg.norm(g) <= 3.0 * L / math.sqrt(n)


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

    def test_sampled_data_meet_the_declared_smoothness(self, families):
        for dist in families:
            assert dist.loss.smoothness_defect(dist.sample_dataset(200, rng_seed=18)) is None

    def test_smoothness_defect_reads_the_features(self):
        # beta = |a|^2 (linear regression) or |a|^2 / 4 (logistic), with a
        # relative tolerance of 1e-12 above the declared value
        for dist, declared in ((linear_regression_sphere(BALL2, 1.0, [0.0, 0.0], 0.5), 1.0),
                               (logistic_sphere(BALL2, 2.0, [0.0, 0.0]), 1.0)):
            scale = 2.0 if dist.loss.kind == "logistic" else 1.0
            for stretch, ok in ((1.0 + 1e-13, True), (1.0 + 1e-11, False), (3.0, False)):
                data = Dataset(np.array([[0.0, 0.5], [scale * math.sqrt(stretch), 0.0]]),
                               np.array([1.0, -1.0]))
                defect = dist.loss.smoothness_defect(data)
                assert (defect is None) == ok
            assert "declared beta = 1" in defect
            nan = Dataset(np.array([[np.nan, 0.0]]), np.array([1.0]))
            assert dist.loss.smoothness_defect(nan) is not None
        # the other families' beta does not depend on the data
        far = Dataset(np.array([[30.0, 0.0]]), np.array([1.0]))
        assert quadratic_sphere(BALL2, [0.0, 0.0], 1.0).loss.smoothness_defect(far) is None

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
                g = grad(dist.loss, w, x)
                fd = central_difference(dist.loss, w, x)
                assert np.linalg.norm(g - fd) <= 1e-4 * (1.0 + np.linalg.norm(g))

    def test_lipschitz_audit(self, families):
        rng = np.random.default_rng(12)
        for dist in families:
            data = dist.sample_dataset(200, rng_seed=13)
            points = self._domain_points(dist, rng, 200)
            for i in range(200):
                g = grad(dist.loss, points[i], data.example(i))
                assert np.linalg.norm(g) <= dist.loss.lipschitz + 1e-12

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
                lhs = np.linalg.norm(grad(dist.loss, p[i], x) - grad(dist.loss, q[i], x))
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
                lhs = dist.loss.value(q[i], x)
                rhs = (
                    dist.loss.value(p[i], x)
                    + float(np.dot(grad(dist.loss, p[i], x), q[i] - p[i]))
                    + 0.5 * lam * float(np.sum((q[i] - p[i]) ** 2))
                )
                assert lhs >= rhs - 1e-9

    def test_lambda_at_most_beta(self, families):
        for dist in families:
            if math.isfinite(dist.loss.smoothness):
                assert dist.loss.strong_convexity <= dist.loss.smoothness
