"""Unit tests for the ellipsoid geometry."""

import math

import numpy as np
import pytest

from repro.core.ellipsoid import Ellipsoid, random_ellipsoid, unit_ball_volume
from repro.exceptions import DimensionMismatchError, NotPositiveDefiniteError


class TestConstruction:
    def test_ball_has_requested_radius(self):
        ball = Ellipsoid.ball(4, 3.0)
        assert ball.dimension == 4
        assert np.allclose(ball.center, 0.0)
        assert np.allclose(ball.shape, 9.0 * np.eye(4))

    def test_ball_rejects_non_positive_radius(self):
        with pytest.raises(ValueError):
            Ellipsoid.ball(3, 0.0)

    def test_enclosing_box_radius_matches_paper_formula(self):
        lower = np.array([-1.0, -2.0])
        upper = np.array([3.0, 1.0])
        ellipsoid = Ellipsoid.enclosing_box(lower, upper)
        expected_radius = math.sqrt(max(1.0, 9.0) + max(4.0, 1.0))
        assert np.isclose(ellipsoid.shape[0, 0], expected_radius**2)
        # Every corner of the box lies inside the enclosing ball.
        for x in (lower[0], upper[0]):
            for y in (lower[1], upper[1]):
                assert ellipsoid.contains(np.array([x, y]))

    def test_enclosing_box_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Ellipsoid.enclosing_box([0.0, 1.0], [1.0, 0.0])

    def test_non_positive_definite_shape_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            Ellipsoid(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_non_square_shape_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Ellipsoid(np.zeros(2), np.ones((2, 3)))

    def test_shape_is_symmetrised(self):
        shape = np.array([[2.0, 0.1], [0.0999999, 2.0]])
        ellipsoid = Ellipsoid(np.zeros(2), shape)
        assert np.array_equal(ellipsoid.shape, ellipsoid.shape.T)

    def test_copy_is_independent(self, small_ellipsoid):
        clone = small_ellipsoid.copy()
        clone.center[0] = 100.0
        assert small_ellipsoid.center[0] != 100.0


class TestGeometry:
    def test_contains_center(self, small_ellipsoid):
        assert small_ellipsoid.contains(small_ellipsoid.center)

    def test_contains_rejects_far_point(self, small_ellipsoid):
        far_point = small_ellipsoid.center + 100.0 * np.ones(3)
        assert not small_ellipsoid.contains(far_point)

    def test_mahalanobis_of_center_is_zero(self, small_ellipsoid):
        assert small_ellipsoid.mahalanobis(small_ellipsoid.center) == pytest.approx(0.0)

    def test_support_interval_of_unit_ball(self, unit_ball_3d):
        direction = np.array([1.0, 0.0, 0.0])
        lower, upper = unit_ball_3d.support_interval(direction)
        assert lower == pytest.approx(-1.0)
        assert upper == pytest.approx(1.0)

    def test_support_interval_scales_with_direction_norm(self, unit_ball_3d):
        direction = np.array([2.0, 0.0, 0.0])
        lower, upper = unit_ball_3d.support_interval(direction)
        assert upper == pytest.approx(2.0)
        assert lower == pytest.approx(-2.0)

    def test_support_interval_bounds_inner_products(self, small_ellipsoid, rng):
        direction = rng.standard_normal(3)
        lower, upper = small_ellipsoid.support_interval(direction)
        points = small_ellipsoid.sample(200, seed=rng)
        values = points @ direction
        assert np.all(values >= lower - 1e-8)
        assert np.all(values <= upper + 1e-8)

    def test_width_along_matches_paper_formula(self, small_ellipsoid):
        direction = np.array([0.3, -0.2, 0.9])
        expected = 2.0 * math.sqrt(direction @ small_ellipsoid.shape @ direction)
        assert small_ellipsoid.width_along(direction) == pytest.approx(expected)

    def test_boundary_vector_lies_on_boundary(self, small_ellipsoid):
        direction = np.array([1.0, 1.0, 0.0])
        boundary = small_ellipsoid.boundary_vector(direction)
        point = small_ellipsoid.center + boundary
        assert small_ellipsoid.mahalanobis(point) == pytest.approx(1.0, abs=1e-8)

    def test_boundary_vector_rejects_zero_direction(self, small_ellipsoid):
        with pytest.raises(ValueError):
            small_ellipsoid.boundary_vector(np.zeros(3))


class TestVolumeAndEigenvalues:
    def test_unit_ball_volume_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_unit_ball_volume_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)

    def test_ball_volume(self):
        ball = Ellipsoid.ball(3, 2.0)
        assert ball.volume() == pytest.approx(unit_ball_volume(3) * 8.0)

    def test_log_volume_consistent_with_volume(self, small_ellipsoid):
        assert math.log(small_ellipsoid.volume()) == pytest.approx(small_ellipsoid.log_volume())

    def test_eigenvalues_sorted_descending(self, small_ellipsoid):
        eigenvalues = small_ellipsoid.eigenvalues()
        assert np.all(np.diff(eigenvalues) <= 1e-12)
        assert small_ellipsoid.largest_eigenvalue() == pytest.approx(eigenvalues[0])
        assert small_ellipsoid.smallest_eigenvalue() == pytest.approx(eigenvalues[-1])

    def test_axis_widths_of_ball(self):
        ball = Ellipsoid.ball(4, 3.0)
        assert np.allclose(ball.axis_widths(), 6.0)


class TestSampling:
    def test_samples_are_contained(self, small_ellipsoid):
        points = small_ellipsoid.sample(500, seed=0)
        assert points.shape == (500, 3)
        for point in points:
            assert small_ellipsoid.contains(point)

    def test_boundary_samples_on_boundary(self, small_ellipsoid):
        points = small_ellipsoid.sample(50, seed=1, boundary=True)
        for point in points:
            assert small_ellipsoid.mahalanobis(point) == pytest.approx(1.0, abs=1e-6)

    def test_sample_rejects_negative_count(self, small_ellipsoid):
        with pytest.raises(ValueError):
            small_ellipsoid.sample(-1)


class TestMisc:
    def test_equality(self, small_ellipsoid):
        assert small_ellipsoid == small_ellipsoid.copy()
        assert small_ellipsoid != Ellipsoid.ball(3, 1.0)

    def test_state_arrays_reports_center_and_shape(self, small_ellipsoid):
        arrays = list(small_ellipsoid.state_arrays())
        assert len(arrays) == 2
        assert arrays[0].shape == (3,)
        assert arrays[1].shape == (3, 3)

    def test_random_ellipsoid_is_valid(self):
        ellipsoid = random_ellipsoid(6, seed=3)
        assert ellipsoid.dimension == 6
        assert ellipsoid.smallest_eigenvalue() > 0


class TestSupportIntervals:
    def test_block_matches_scalar_support(self):
        """The block support intervals, and the ``x^T c`` and
        ``sqrt(x^T A x)`` they come from, equal the scalar ones bit for bit,
        for C- and Fortran-ordered blocks (rows round by stride)."""
        ellipsoid = random_ellipsoid(5, seed=3)
        rng = np.random.default_rng(3)
        for order in ("C", "F"):
            features = np.asarray(rng.standard_normal((32, 5)), order=order)
            features[0] = 0.0
            features[1] = 1e-158
            lowers, uppers = ellipsoid.support_intervals(features)
            expected = np.array([ellipsoid.support_interval(row) for row in features])
            np.testing.assert_array_equal(lowers, expected[:, 0])
            np.testing.assert_array_equal(uppers, expected[:, 1])
            middles, roots = ellipsoid._projections(features)
            expected = np.array([ellipsoid._projection(row) for row in features])
            np.testing.assert_array_equal(middles, expected[:, 0])
            np.testing.assert_array_equal(roots, expected[:, 1])

    def test_degenerate_direction_zero_width(self):
        ellipsoid = random_ellipsoid(3, seed=8)
        lowers, uppers = ellipsoid.support_intervals(np.zeros((1, 3)))
        assert lowers[0] == uppers[0] == 0.0
