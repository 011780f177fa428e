"""Projection, and the test oracles' gradient-step maps and sampled
contraction ratios."""

import warnings

import numpy as np
import pytest

from contraction import ContractionReport, check_contraction, gradient_step_map
from dpsco.geometry import ConvexDomain, DimensionMismatchError, project


class TestProjection:
    def test_ball_interior_point_is_fixed(self):
        ball = ConvexDomain.ball([0.0, 0.0], 1.0)
        np.testing.assert_array_equal(project(ball, [0.5, 0.0]), [0.5, 0.0])

    def test_ball_exterior_rescales_radially(self):
        # oracle: KKT of the projection - the result sits on the boundary and
        # the residual p - proj(p) is parallel to proj(p) - center
        ball = ConvexDomain.ball([0.0, 0.0], 1.0)
        p = np.array([3.0, 4.0])
        proj = project(ball, p)
        np.testing.assert_allclose(proj, [0.6, 0.8], atol=1e-15)
        assert abs(np.linalg.norm(proj) - 1.0) <= 1e-12
        residual = p - proj
        cross = residual[0] * proj[1] - residual[1] * proj[0]
        assert abs(cross) <= 1e-12

    def test_ball_far_exterior_rescales_without_overflow(self):
        # the squared distance 1e310 overflows; the scaled norm does not
        ball = ConvexDomain.ball([0.0, 0.0], 1e150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert project(ball, [1e155, 0.0]).tolist() == [1e150, 0.0]
            proj = project(ball, [-3e200, 4e200])
        np.testing.assert_allclose(proj, [-6e149, 8e149], rtol=1e-15)

    @pytest.mark.parametrize("point", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
    def test_ball_refuses_a_non_finite_point(self, point):
        with pytest.raises(ValueError, match="not finite"):
            project(ConvexDomain.ball([0.0, 0.0], 1.0), point)

    @pytest.mark.parametrize("point", [[np.nan], np.array([np.nan])])
    def test_box_refuses_a_nan_point(self, point):
        # clipping kept the NaN, and the caller got it back as a point of the box
        with pytest.raises(ValueError, match="not finite"):
            project(ConvexDomain.box([0.0], [1.0]), point)

    def test_interior_float64_point_comes_back_as_itself(self):
        point = np.array([0.5, 0.0])
        assert project(ConvexDomain.ball([0.0, 0.0], 1.0), point) is point

    def test_box_clamps_coordinatewise(self):
        box = ConvexDomain.box([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_array_equal(project(box, [2.0, -1.0]), [1.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        ball = ConvexDomain.ball([0.0, 0.0], 1.0)
        with pytest.raises(DimensionMismatchError):
            project(ball, [1.0, 2.0, 3.0])

    def test_idempotence(self):
        rng = np.random.default_rng(7)
        ball = ConvexDomain.ball([1.0, -2.0, 0.5], 1.5)
        box = ConvexDomain.box([-1.0, 0.0], [2.0, 0.25])
        for _ in range(200):
            p = rng.normal(scale=5.0, size=3)
            once = project(ball, p)
            np.testing.assert_allclose(project(ball, once), once, atol=1e-12)
            q = rng.normal(scale=5.0, size=2)
            once = project(box, q)
            np.testing.assert_allclose(project(box, once), once, atol=1e-12)

    def test_projection_is_a_contraction(self):
        rng = np.random.default_rng(11)
        for domain in (
            ConvexDomain.ball([0.0, 0.0, 0.0], 2.0),
            ConvexDomain.box([-1.0, -1.0, -1.0], [1.0, 2.0, 3.0]),
        ):
            for _ in range(500):
                x = rng.normal(scale=4.0, size=3)
                y = rng.normal(scale=4.0, size=3)
                lhs = np.linalg.norm(project(domain, x) - project(domain, y))
                assert lhs <= np.linalg.norm(x - y) + 1e-12

    def test_membership_and_diameter(self):
        ball = ConvexDomain.ball([0.0], 2.0)
        assert ball.diameter == 4.0
        box = ConvexDomain.box([0.0, 0.0], [3.0, 4.0])
        assert box.diameter == 5.0
        assert box.contains([1.0, 1.0])
        assert not box.contains([1.0, 4.5])

    def test_invalid_domains_rejected(self):
        with pytest.raises(ValueError):
            ConvexDomain.ball([0.0], 0.0)
        with pytest.raises(ValueError):
            ConvexDomain.box([1.0], [0.0])


class TestGradientStepMap:
    def test_unit_step_on_unit_quadratic_maps_to_zero(self):
        step = gradient_step_map(lambda w: w, eta=1.0)
        np.testing.assert_array_equal(step(np.array([3.0, -2.0])), [0.0, 0.0])

    def test_zero_step_is_identity(self):
        step = gradient_step_map(lambda w: w, eta=0.0)
        w = np.array([0.3, 0.7])
        np.testing.assert_array_equal(step(w), w)

    def test_half_step_toward_center(self):
        # w - 0.5 (w - c) = (w + c) / 2 by direct substitution
        c = np.array([2.0, -4.0])
        step = gradient_step_map(lambda w: w - c, eta=0.5)
        w = np.array([1.0, 1.0])
        np.testing.assert_allclose(step(w), (w + c) / 2.0, atol=1e-15)


class TestCheckContraction:
    def test_identity_map_ratio_one(self):
        ball = ConvexDomain.ball([0.0, 0.0], 1.0)
        report = check_contraction(lambda w: w, ball, num_pairs=100, rng_seed=0)
        assert isinstance(report, ContractionReport)
        assert report.max_ratio == 1.0

    def test_halving_map_ratio_half(self):
        ball = ConvexDomain.ball([0.0, 0.0], 1.0)
        report = check_contraction(lambda w: w / 2.0, ball, num_pairs=100, rng_seed=1)
        assert abs(report.max_ratio - 0.5) <= 1e-12

    def test_overlong_step_breaks_contraction(self):
        # gradient step on 0.5 |w|^2 with eta = 3 scales every difference by
        # |1 - eta| = 2, past the eta <= 2/beta threshold (beta = 1)
        ball = ConvexDomain.ball([0.0, 0.0], 1.0)
        step = gradient_step_map(lambda w: w, eta=3.0)
        report = check_contraction(step, ball, num_pairs=200, rng_seed=2)
        assert abs(report.max_ratio - 2.0) <= 1e-9
        x, y = report.witness_pair
        assert np.linalg.norm(x - y) > 1e-9

    @pytest.mark.parametrize("eta_factor", [0.25, 1.0, 2.0])
    def test_smooth_quadratics_contract_below_threshold(self, eta_factor):
        # any convex quadratic with eigenvalues in [0, beta] and eta <= 2/beta
        beta = 4.0
        hessians = [
            np.diag([beta, beta, beta]),
            np.diag([beta, beta / 4.0, 0.0]),
        ]
        ball = ConvexDomain.ball([0.0, 0.0, 0.0], 2.0)
        for H in hessians:
            step = gradient_step_map(lambda w, H=H: H @ w, eta=eta_factor / beta)
            report = check_contraction(step, ball, num_pairs=300, rng_seed=3)
            assert report.max_ratio <= 1.0 + 1e-9

    def test_num_pairs_precondition(self):
        ball = ConvexDomain.ball([0.0], 1.0)
        with pytest.raises(ValueError):
            check_contraction(lambda w: w, ball, num_pairs=0, rng_seed=0)
