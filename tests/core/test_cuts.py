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
from repro.core.knowledge import EllipsoidKnowledge
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


# --------------------------------------------------------------------------- #
# The in-place update against the six-pass formula it replaced
# --------------------------------------------------------------------------- #


def _oracle_cut(ellipsoid, direction, offset, keep):
    """The skip-mode cut as it was computed before the in-place update:
    ``scale * (A - c * outer(b, b))`` as separate n x n temporaries, then
    re-symmetrised with ``0.5 * (S + S^T)``.  ``x^T A x`` and ``A x`` are
    separate products, as in the kernel: the transposed product inside
    ``x^T A x`` rounds differently from ``A x``.  Returns ``(center, shape)``,
    or ``None`` when the cut leaves the ellipsoid unchanged."""
    dimension = ellipsoid.dimension
    gain = float(direction @ ellipsoid.shape @ direction)
    if not gain >= np.finfo(float).tiny:
        return None
    root = math.sqrt(gain)
    signed = (float(direction @ ellipsoid.center) - offset) / root
    alpha = signed if keep == "leq" else -signed
    if alpha > 1.0 + 1e-12 or alpha < -1.0 / dimension - 1e-12:
        return None
    sign = 1.0 if keep == "leq" else -1.0
    boundary = (ellipsoid.shape @ direction) / root
    if alpha >= 1.0 - 1e-12:
        tiny = 1e-18 * np.trace(ellipsoid.shape) / dimension
        return ellipsoid.center - sign * boundary, tiny * np.eye(dimension)
    scale = dimension**2 * (1.0 - alpha**2) / (dimension**2 - 1.0)
    coefficient = 2.0 * (1.0 + dimension * alpha) / ((dimension + 1.0) * (1.0 + alpha))
    shape = scale * (ellipsoid.shape - coefficient * np.outer(boundary, boundary))
    center = ellipsoid.center - sign * ((1.0 + dimension * alpha) / (dimension + 1.0)) * boundary
    return center, 0.5 * (shape + shape.T)


def _random_shape(rng, dimension, scale=1.0):
    """An exactly symmetric positive definite shape with diagonal ~``scale``."""
    raw = rng.standard_normal((dimension, dimension))
    shape = raw @ raw.T / dimension + 0.1 * np.eye(dimension)
    shape /= np.sqrt(np.outer(np.diag(shape), np.diag(shape)))
    return scale * (0.5 * (shape + shape.T))


#: Target position parameters of each kind of cut, cycled through a chain.
_KINDS = {
    "central": lambda rng, n: 0.0,
    "deep": lambda rng, n: rng.uniform(0.02, 0.98),
    "shallow": lambda rng, n: -rng.uniform(0.02, 0.98) / n,
    "collapse-below-1": lambda rng, n: 1.0 - 5e-13,
    "collapse-above-1": lambda rng, n: 1.0 + 5e-13,
}
_CYCLE = ["central", "deep", "shallow", "deep", "shallow", "central", "deep", "shallow"]


def _offset_for(ellipsoid, direction, keep, alpha):
    """The offset that puts the cut's position parameter at about ``alpha``."""
    root = math.sqrt(float(direction @ ellipsoid.shape @ direction))
    middle = float(direction @ ellipsoid.center)
    return middle - alpha * root if keep == "leq" else middle + alpha * root


def _assert_same_bits(result, oracle):
    assert result.updated, "the oracle cut, the kernel did not"
    for mine, theirs in ((result.ellipsoid.center, oracle[0]), (result.ellipsoid.shape, oracle[1])):
        assert mine.shape == theirs.shape and mine.flags.c_contiguous
        assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64))


@pytest.mark.parametrize("dimension,cuts", [(2, 300), (3, 300), (20, 300), (128, 90), (1024, 12)])
def test_the_kernel_matches_the_six_pass_formula_bit_for_bit(dimension, cuts):
    """Chains of central, deep and shallow cuts, each chain ending in a cut
    within the collapse tolerance of alpha = 1, through ``loewner_john_cut``
    and ``EllipsoidKnowledge._cut`` alike: the same center and shape bytes
    as the formula the in-place kernel replaced."""
    rng = np.random.default_rng(1000 + dimension)
    chain = min(len(_CYCLE), max(4, cuts // 30))
    done = 0
    kinds_seen = set()
    while done < cuts:
        ellipsoid = Ellipsoid.trusted(rng.standard_normal(dimension), _random_shape(rng, dimension))
        knowledge = EllipsoidKnowledge(ellipsoid)
        kinds = _CYCLE[: chain - 1] + [("collapse-below-1", "collapse-above-1")[done % 2]]
        for kind in kinds:
            direction = rng.standard_normal(dimension)
            if done % 3 == 0:
                direction[rng.random(dimension) < 0.5] = 0.0  # sparse rows
            direction[rng.integers(dimension)] = 1.0
            keep = "leq" if rng.random() < 0.5 else "geq"
            offset = _offset_for(ellipsoid, direction, keep, _KINDS[kind](rng, dimension))
            oracle = _oracle_cut(ellipsoid, direction, offset, keep)
            assert oracle is not None
            result = loewner_john_cut(ellipsoid, direction, offset, keep, on_infeasible="skip")
            _assert_same_bits(result, oracle)
            # The engine's walk passes the projection its block computed.
            middles, roots = knowledge.ellipsoid._projections(direction[None, :])
            sign = 1.0 if keep == "leq" else -1.0
            assert knowledge._cut(direction, offset, sign, float(middles[0]), float(roots[0]))
            assert knowledge.ellipsoid == result.ellipsoid
            kinds_seen.add(result.kind)
            ellipsoid = result.ellipsoid
            done += 1
    assert kinds_seen == {CutKind.CENTRAL, CutKind.DEEP, CutKind.SHALLOW}


@pytest.mark.parametrize("dimension", [2, 3, 20])
def test_the_kernel_keeps_the_old_infs_where_doubling_overflows(dimension):
    """A shape whose new diagonal exceeds DBL_MAX / 2: 0.5 * (S + S^T)
    overflowed to inf there, and the kernel's O(n) diagonal check routes the
    shape to that expression, so the bits (infs included) are unchanged."""
    rng = np.random.default_rng(2000 + dimension)
    overflowed = 0
    for _ in range(12):
        ellipsoid = Ellipsoid.trusted(
            rng.standard_normal(dimension), _random_shape(rng, dimension, scale=1.2e308)
        )
        direction = 0.1 * rng.standard_normal(dimension)
        keep = "leq" if rng.random() < 0.5 else "geq"
        alpha = _KINDS["shallow"](rng, dimension)
        offset = _offset_for(ellipsoid, direction, keep, alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            oracle = _oracle_cut(ellipsoid, direction, offset, keep)
            result = loewner_john_cut(ellipsoid, direction, offset, keep, on_infeasible="skip")
        assert np.abs(np.diag(result.ellipsoid.shape)).max() > np.finfo(float).max / 2
        _assert_same_bits(result, oracle)
        overflowed += bool(np.isinf(oracle[1]).any())
    assert overflowed == 12
