"""The stacked Löwner–John kernel vs the scalar reference cut."""

import numpy as np
import pytest

from repro.core.batched_ellipsoid import batched_cut
from repro.core.cuts import loewner_john_cut
from repro.core.ellipsoid import Ellipsoid, random_ellipsoid


def _random_batch(count, dimension, seed):
    """Random ellipsoids + cut specs spanning every update regime."""
    rng = np.random.default_rng(seed)
    centers = np.empty((count, dimension))
    shapes = np.empty((count, dimension, dimension))
    ellipsoids = []
    for index in range(count):
        ellipsoid = random_ellipsoid(dimension, seed=seed * 1000 + index)
        centers[index] = ellipsoid.center
        shapes[index] = ellipsoid.shape
        ellipsoids.append(ellipsoid)
    directions = rng.standard_normal((count, dimension))
    # Offsets spread around each support interval so the batch hits NOOP,
    # shallow, central, deep, and collapse/infeasible alphas.
    lowers, uppers = np.array(
        [ellipsoid.support_interval(direction) for ellipsoid, direction in zip(ellipsoids, directions)]
    ).T
    mix = rng.random(count) * 2.4 - 0.7  # in [-0.7, 1.7]
    offsets = lowers + mix * (uppers - lowers)
    signs = np.where(rng.random(count) < 0.5, 1.0, -1.0)
    return ellipsoids, centers, shapes, directions, offsets, signs


def _scalar_reference(ellipsoids, directions, offsets, signs):
    centers, shapes, alphas, updated = [], [], [], []
    for ellipsoid, direction, offset, sign in zip(
        ellipsoids, directions, offsets, signs
    ):
        keep = "leq" if sign > 0 else "geq"
        result = loewner_john_cut(
            ellipsoid, direction, float(offset), keep=keep, on_infeasible="skip"
        )
        centers.append(result.ellipsoid.center)
        shapes.append(result.ellipsoid.shape)
        alphas.append(result.alpha)
        updated.append(result.updated)
    return (
        np.array(centers),
        np.array(shapes),
        np.array(alphas),
        np.array(updated, dtype=bool),
    )


class TestBatchedCutMatchesScalar:
    @pytest.mark.parametrize("dimension", [2, 3, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_all_regimes(self, dimension, seed):
        ellipsoids, centers, shapes, directions, offsets, signs = _random_batch(
            40, dimension, seed
        )
        result = batched_cut(centers, shapes, directions, offsets, signs)
        ref_centers, ref_shapes, ref_alphas, ref_updated = _scalar_reference(
            ellipsoids, directions, offsets, signs
        )
        np.testing.assert_array_equal(result.updated, ref_updated)
        np.testing.assert_allclose(result.alphas, ref_alphas, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(result.centers, ref_centers, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(result.shapes, ref_shapes, rtol=1e-10, atol=1e-12)

    def test_inputs_not_mutated(self):
        _, centers, shapes, directions, offsets, signs = _random_batch(8, 3, 5)
        centers_before = centers.copy()
        shapes_before = shapes.copy()
        batched_cut(centers, shapes, directions, offsets, signs)
        np.testing.assert_array_equal(centers, centers_before)
        np.testing.assert_array_equal(shapes, shapes_before)


class TestDegenerateDirections:
    def test_zero_direction_is_noop_not_nan(self):
        ellipsoid = random_ellipsoid(4, seed=11)
        centers = ellipsoid.center[None, :]
        shapes = ellipsoid.shape[None, :, :]
        direction = np.zeros((1, 4))
        result = batched_cut(centers, shapes, direction, np.array([0.3]), np.array([1.0]))
        assert not result.updated[0]
        assert np.isnan(result.alphas[0])
        np.testing.assert_array_equal(result.centers[0], ellipsoid.center)
        np.testing.assert_array_equal(result.shapes[0], ellipsoid.shape)
        assert np.all(np.isfinite(result.centers))
        assert np.all(np.isfinite(result.shapes))

    def test_denormal_direction_is_noop_not_nan(self):
        # x^T A x underflows to a denormal: positive, but 1/sqrt(gain)
        # overflows — the historical NaN-cut bug class.
        ellipsoid = random_ellipsoid(4, seed=12)
        direction = np.full((1, 4), 1e-170)
        result = batched_cut(
            ellipsoid.center[None, :],
            ellipsoid.shape[None, :, :],
            direction,
            np.array([0.0]),
            np.array([-1.0]),
        )
        assert not result.updated[0]
        assert np.all(np.isfinite(result.centers))
        assert np.all(np.isfinite(result.shapes))

    def test_mixed_batch_degenerate_rows_pass_through(self):
        ellipsoids, centers, shapes, directions, offsets, signs = _random_batch(6, 3, 7)
        directions[2] = 0.0
        directions[4] = 1e-200
        result = batched_cut(centers, shapes, directions, offsets, signs)
        for index in (2, 4):
            assert not result.updated[index]
            np.testing.assert_array_equal(result.centers[index], centers[index])
            np.testing.assert_array_equal(result.shapes[index], shapes[index])
        assert np.all(np.isfinite(result.centers))
        assert np.all(np.isfinite(result.shapes))


class TestSupportIntervals:
    def test_block_matches_scalar_support(self):
        """The block support intervals equal the scalar ones bit for bit,
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

    def test_degenerate_direction_zero_width(self):
        ellipsoid = random_ellipsoid(3, seed=8)
        lowers, uppers = ellipsoid.support_intervals(np.zeros((1, 3)))
        assert lowers[0] == uppers[0] == 0.0
