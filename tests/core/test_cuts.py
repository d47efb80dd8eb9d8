"""Unit tests for the Löwner–John cut updates."""

import math

import numpy as np
import pytest

from repro.core.cuts import (
    CutKind,
    classify_alpha,
    cut_position,
    loewner_john_cut,
    volume_ratio_upper_bound,
)
from repro.core.ellipsoid import Ellipsoid, random_ellipsoid
from repro.exceptions import InvalidCutError


class TestCutPosition:
    def test_central_cut_has_zero_alpha(self, unit_ball_3d):
        direction = np.array([1.0, 0.0, 0.0])
        alpha = cut_position(unit_ball_3d, direction, 0.0, keep="leq")
        assert alpha == pytest.approx(0.0)

    def test_alpha_sign_flips_with_keep(self, unit_ball_3d):
        direction = np.array([1.0, 0.0, 0.0])
        leq = cut_position(unit_ball_3d, direction, 0.4, keep="leq")
        geq = cut_position(unit_ball_3d, direction, 0.4, keep="geq")
        assert leq == pytest.approx(-geq)

    def test_alpha_matches_paper_formula(self, small_ellipsoid):
        direction = np.array([0.5, 0.5, -1.0])
        offset = 1.3
        gain = direction @ small_ellipsoid.shape @ direction
        expected = (direction @ small_ellipsoid.center - offset) / math.sqrt(gain)
        assert cut_position(small_ellipsoid, direction, offset, "leq") == pytest.approx(expected)

    def test_invalid_keep_rejected(self, unit_ball_3d):
        with pytest.raises(ValueError):
            cut_position(unit_ball_3d, np.array([1.0, 0.0, 0.0]), 0.0, keep="between")


class TestClassification:
    def test_central(self):
        assert classify_alpha(0.0, 5) is CutKind.CENTRAL

    def test_deep(self):
        assert classify_alpha(0.3, 5) is CutKind.DEEP

    def test_shallow(self):
        assert classify_alpha(-0.1, 5) is CutKind.SHALLOW

    def test_noop_below_minus_one_over_n(self):
        assert classify_alpha(-0.5, 5) is CutKind.NOOP

    def test_requires_dimension_two(self):
        with pytest.raises(ValueError):
            classify_alpha(0.0, 1)


class TestLoewnerJohnCut:
    def test_central_cut_halves_along_direction(self, unit_ball_3d):
        direction = np.array([1.0, 0.0, 0.0])
        result = loewner_john_cut(unit_ball_3d, direction, 0.0, keep="leq")
        assert result.kind is CutKind.CENTRAL
        assert result.updated
        lower, upper = result.ellipsoid.support_interval(direction)
        # The kept halfspace is x1 <= 0; the new ellipsoid must stay within a
        # slightly loosened version of it and must still cover the kept region.
        assert upper <= 0.5 + 1e-9
        assert lower <= -0.9

    def test_cut_retains_kept_region(self, rng):
        ellipsoid = random_ellipsoid(4, seed=1)
        direction = rng.standard_normal(4)
        lower, upper = ellipsoid.support_interval(direction)
        offset = 0.5 * (lower + upper)
        result = loewner_john_cut(ellipsoid, direction, offset, keep="geq")
        points = ellipsoid.sample(400, seed=2)
        kept = points[points @ direction >= offset]
        assert kept.shape[0] > 0
        for point in kept:
            assert result.ellipsoid.contains(point, tolerance=1e-6)

    def test_central_cut_reduces_volume_per_lemma2(self):
        ellipsoid = random_ellipsoid(5, seed=7)
        direction = np.ones(5)
        middle = float(direction @ ellipsoid.center)
        result = loewner_john_cut(ellipsoid, direction, middle, keep="leq")
        ratio = result.ellipsoid.volume() / ellipsoid.volume()
        assert ratio < 1.0
        assert ratio <= volume_ratio_upper_bound(0.0, 5) + 1e-9

    def test_deep_cut_shrinks_more_than_central(self, unit_ball_3d):
        direction = np.array([1.0, 0.0, 0.0])
        central = loewner_john_cut(unit_ball_3d, direction, 0.0, keep="leq")
        deep = loewner_john_cut(unit_ball_3d, direction, -0.2, keep="leq")
        assert deep.kind is CutKind.DEEP
        assert deep.ellipsoid.volume() < central.ellipsoid.volume()

    def test_shallow_cut_is_applied_but_weaker(self, unit_ball_3d):
        direction = np.array([1.0, 0.0, 0.0])
        shallow = loewner_john_cut(unit_ball_3d, direction, 0.2, keep="leq")
        assert shallow.kind is CutKind.SHALLOW
        assert shallow.updated
        assert shallow.ellipsoid.volume() < unit_ball_3d.volume()

    def test_noop_cut_returns_original(self, unit_ball_3d):
        direction = np.array([1.0, 0.0, 0.0])
        # Keeping x1 <= 0.9 cuts off almost nothing: alpha < -1/n.
        result = loewner_john_cut(unit_ball_3d, direction, 0.9, keep="leq")
        assert result.kind is CutKind.NOOP
        assert not result.updated
        assert result.ellipsoid is unit_ball_3d

    def test_infeasible_cut_raises_by_default(self, unit_ball_3d):
        direction = np.array([1.0, 0.0, 0.0])
        with pytest.raises(InvalidCutError):
            loewner_john_cut(unit_ball_3d, direction, -2.0, keep="leq")

    def test_infeasible_cut_skip_mode(self, unit_ball_3d):
        direction = np.array([1.0, 0.0, 0.0])
        result = loewner_john_cut(unit_ball_3d, direction, -2.0, keep="leq", on_infeasible="skip")
        assert not result.updated
        assert result.kind is CutKind.NOOP

    def test_infeasible_cut_clamp_mode_collapses(self, unit_ball_3d):
        direction = np.array([1.0, 0.0, 0.0])
        result = loewner_john_cut(unit_ball_3d, direction, -2.0, keep="leq", on_infeasible="clamp")
        assert result.updated
        # The clamped ellipsoid collapses near the supporting point (-1, 0, 0).
        assert np.allclose(result.ellipsoid.center, [-1.0, 0.0, 0.0], atol=1e-6)

    @pytest.mark.parametrize("dimension", [2, 3, 20])
    @pytest.mark.parametrize("keep", ["leq", "geq"])
    def test_cut_through_the_support_point_collapses(self, dimension, keep):
        """An offset at the end of the support interval puts alpha within a
        few ulps of 1, on either side.  Below 1 the deep-cut formulas would
        cancel to a singular or indefinite shape, so the cut collapses onto
        the support point as it does just above 1."""
        for seed in range(20):
            ellipsoid = random_ellipsoid(dimension, seed=seed)
            direction = np.random.default_rng(seed).standard_normal(dimension)
            lower, upper = ellipsoid.support_interval(direction)
            offset = lower if keep == "leq" else upper
            result = loewner_john_cut(ellipsoid, direction, offset, keep, on_infeasible="skip")
            assert result.updated and abs(result.alpha - 1.0) < 1e-12
            assert result.ellipsoid.smallest_eigenvalue() > 0.0

    def test_unknown_infeasible_mode_rejected(self, unit_ball_3d):
        with pytest.raises(ValueError):
            loewner_john_cut(unit_ball_3d, np.array([1.0, 0, 0]), 0.0, "leq", on_infeasible="boom")

    def test_one_dimensional_ellipsoid_rejected(self):
        tiny = Ellipsoid(np.zeros(1), np.eye(1))
        with pytest.raises(InvalidCutError):
            loewner_john_cut(tiny, np.array([1.0]), 0.0, keep="leq")

    def test_positive_definiteness_preserved_over_many_cuts(self, rng):
        ellipsoid = Ellipsoid.ball(6, 10.0)
        for _ in range(200):
            direction = rng.standard_normal(6)
            lower, upper = ellipsoid.support_interval(direction)
            offset = rng.uniform(lower, upper)
            keep = "leq" if rng.random() < 0.5 else "geq"
            result = loewner_john_cut(ellipsoid, direction, offset, keep, on_infeasible="skip")
            ellipsoid = result.ellipsoid
            assert ellipsoid.smallest_eigenvalue() > 0

    def test_acceptance_and_rejection_are_symmetric_for_central_cut(self, unit_ball_3d):
        direction = np.array([0.0, 1.0, 0.0])
        accept = loewner_john_cut(unit_ball_3d, direction, 0.0, keep="geq")
        reject = loewner_john_cut(unit_ball_3d, direction, 0.0, keep="leq")
        assert np.array_equal(accept.ellipsoid.center, -reject.ellipsoid.center)
        assert np.array_equal(accept.ellipsoid.shape, reject.ellipsoid.shape)


class TestVolumeRatioBound:
    def test_bound_decreases_with_alpha(self):
        assert volume_ratio_upper_bound(0.0, 5) < 1.0
        assert volume_ratio_upper_bound(0.2, 5) < volume_ratio_upper_bound(0.0, 5)

    def test_bound_rejects_out_of_range_alpha(self):
        with pytest.raises(ValueError):
            volume_ratio_upper_bound(-0.9, 5)

    def test_bound_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            volume_ratio_upper_bound(0.0, 1)


class TestDegenerateDirections:
    """Zero/denormal/NaN cut directions must never emit NaN cut parameters.

    A denormal positive gain (``x^T A x`` underflowing below the smallest
    normal double) passes a plain ``> 0`` check but overflows
    ``1/sqrt(gain)`` — the historical bug this sweep fixes.
    """

    def test_zero_direction_raises_in_raise_mode(self, unit_ball_3d):
        with pytest.raises(InvalidCutError):
            loewner_john_cut(unit_ball_3d, np.zeros(3), 0.5, keep="leq")

    def test_zero_direction_noop_in_skip_mode(self, unit_ball_3d):
        result = loewner_john_cut(
            unit_ball_3d, np.zeros(3), 0.5, keep="leq", on_infeasible="skip"
        )
        assert not result.updated
        assert result.kind is CutKind.NOOP
        assert math.isnan(result.alpha)
        assert result.ellipsoid is unit_ball_3d

    def test_denormal_direction_noop_in_skip_mode(self, unit_ball_3d):
        direction = np.full(3, 1e-170)  # gain ~ 3e-340: denormal-underflow zone
        result = loewner_john_cut(
            unit_ball_3d, direction, 0.0, keep="geq", on_infeasible="skip"
        )
        assert not result.updated
        assert np.all(np.isfinite(result.ellipsoid.center))
        assert np.all(np.isfinite(result.ellipsoid.shape))

    def test_denormal_direction_raises_in_raise_mode(self, unit_ball_3d):
        with pytest.raises(InvalidCutError):
            loewner_john_cut(unit_ball_3d, np.full(3, 1e-170), 0.0, keep="leq")

    def test_cut_position_rejects_denormal_gain(self, unit_ball_3d):
        with pytest.raises(InvalidCutError):
            cut_position(unit_ball_3d, np.full(3, 1e-170), 0.0, keep="leq")

    def test_support_interval_zero_width_for_denormal_direction(self):
        ellipsoid = random_ellipsoid(4, seed=21)
        lower, upper = ellipsoid.support_interval(np.full(4, 1e-170))
        assert lower == upper
        assert math.isfinite(lower)


class TestDegenerateDirectionProperties:
    """Property sweep over the tiny-direction scale ladder."""

    def test_no_nan_for_any_tiny_scale(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        ellipsoid = random_ellipsoid(5, seed=33)
        base = np.random.default_rng(33).standard_normal(5)

        @settings(max_examples=60, deadline=None)
        @given(
            exponent=st.integers(min_value=-300, max_value=0),
            keep=st.sampled_from(["leq", "geq"]),
            offset=st.floats(-2.0, 2.0, allow_nan=False),
        )
        def check(exponent, keep, offset):
            direction = base * (10.0 ** exponent)
            result = loewner_john_cut(
                ellipsoid, direction, offset, keep=keep, on_infeasible="skip"
            )
            assert np.all(np.isfinite(result.ellipsoid.center))
            assert np.all(np.isfinite(result.ellipsoid.shape))
            if result.updated:
                assert math.isfinite(result.alpha)
            # NOOP results must hand back the *same* knowledge set.
            if not result.updated:
                assert result.ellipsoid is ellipsoid

        check()
