"""Property-based tests (hypothesis) for the core invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.cuts import (
    _ALPHA_TOLERANCE,
    CutKind,
    loewner_john_cut,
    volume_ratio_upper_bound,
)
from repro.core.ellipsoid import Ellipsoid, random_ellipsoid
from repro.core.knowledge import IntervalKnowledge
from repro.core.pricing import EllipsoidPricer, PricerConfig
from repro.core.regret import single_round_regret, single_round_regret_without_reserve

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=0.01, max_value=50.0, allow_nan=False, allow_infinity=False)


def _direction_strategy(dimension):
    return hnp.arrays(
        dtype=float,
        shape=dimension,
        elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False),
    ).filter(lambda v: float(np.linalg.norm(v)) > 1e-3)


class TestRegretProperties:
    @SETTINGS
    @given(value=positive_floats, reserve=positive_floats, price=positive_floats)
    def test_regret_bounded_by_market_value(self, value, reserve, price):
        regret = single_round_regret(value, reserve, price)
        assert 0.0 <= regret <= value + 1e-12

    @SETTINGS
    @given(value=positive_floats, reserve=positive_floats, price=positive_floats)
    def test_lemma1_reserve_cannot_increase_regret(self, value, reserve, price):
        """Lemma 1 as a property: regret(max(q, p)) <= regret without reserve at p."""
        constrained = single_round_regret(value, reserve, max(reserve, price))
        unconstrained = single_round_regret_without_reserve(value, price)
        assert constrained <= unconstrained + 1e-12

    @SETTINGS
    @given(value=positive_floats, reserve=positive_floats)
    def test_posting_market_value_is_optimal(self, value, reserve):
        """No posted price achieves lower regret than posting the value itself."""
        optimum = single_round_regret(value, reserve, max(reserve, value))
        for price in (0.5 * value, 0.9 * value, 1.1 * value, 2.0 * value):
            assert optimum <= single_round_regret(value, reserve, max(reserve, price)) + 1e-9


class TestEllipsoidProperties:
    @SETTINGS
    @given(
        direction=_direction_strategy(4),
        offset_fraction=st.floats(min_value=0.05, max_value=0.95),
        keep_leq=st.booleans(),
    )
    def test_cut_keeps_feasible_points_and_shrinks_volume(
        self, direction, offset_fraction, keep_leq
    ):
        ellipsoid = Ellipsoid.ball(4, 2.0)
        lower, upper = ellipsoid.support_interval(direction)
        offset = lower + offset_fraction * (upper - lower)
        keep = "leq" if keep_leq else "geq"
        result = loewner_john_cut(ellipsoid, direction, offset, keep, on_infeasible="skip")
        if not result.updated:
            return
        # Positive definiteness survives the update.
        assert result.ellipsoid.smallest_eigenvalue() > 0.0
        # Central and deep cuts never grow the volume.
        if result.kind in (CutKind.CENTRAL, CutKind.DEEP):
            assert result.ellipsoid.volume() <= ellipsoid.volume() * (1.0 + 1e-9)
        # The kept part of the original ellipsoid stays covered.
        points = ellipsoid.sample(64, seed=0)
        values = points @ direction
        kept = points[values <= offset] if keep == "leq" else points[values >= offset]
        for point in kept:
            assert result.ellipsoid.contains(point, tolerance=1e-6)

    @SETTINGS
    @given(
        center=hnp.arrays(dtype=float, shape=3, elements=finite_floats),
        scales=hnp.arrays(dtype=float, shape=3, elements=st.floats(min_value=0.1, max_value=5.0)),
        direction=_direction_strategy(3),
    )
    def test_support_interval_contains_center_value(self, center, scales, direction):
        ellipsoid = Ellipsoid(center, np.diag(scales**2))
        lower, upper = ellipsoid.support_interval(direction)
        middle = float(direction @ center)
        assert lower - 1e-9 <= middle <= upper + 1e-9
        assert upper - lower == pytest.approx(ellipsoid.width_along(direction))


#: The largest condition number at which the sequence property still checks
#: a cut.  An explicit n x n shape resolves an axis only down to about
#: n * eps times its longest one, and eigvalsh measures no finer; past this
#: bound neither "positive definite" nor the log-volume can be told apart
#: from rounding, so the sequence stops there.
_RESOLVED_CONDITION = 1e12


def _condition_bound_after_cut(ellipsoid, alpha):
    """An upper bound on the condition number of the shape a cut leaves.

    The update is ``scale * (A - c b b^T)``, and ``A - c b b^T >= (1 - c) A``,
    so no axis shrinks by more than ``1 - c`` relative to the others.  A cut
    within the tolerance of ``alpha = 1`` collapses to a ball.
    """
    if alpha >= 1.0 - _ALPHA_TOLERANCE:
        return 1.0
    n = ellipsoid.dimension
    eigenvalues = np.linalg.eigvalsh(ellipsoid.shape)
    shrink = (n - 1.0) * (1.0 - alpha) / ((n + 1.0) * (1.0 + alpha))
    return eigenvalues[-1] / (eigenvalues[0] * shrink)


class TestCutSequenceProperties:
    """The cut invariants over whole sequences of cuts.

    The kernel behind ``loewner_john_cut`` (and the engine's
    ``EllipsoidKnowledge._cut``) is the only code that produces post-cut
    shapes, it no longer re-symmetrises them, and ``Ellipsoid.trusted`` wraps
    them without a check, so every applied cut must leave a shape that is
    symmetric bit for bit and positive definite, and must shrink the volume
    at least as fast as Lemma 2 says.
    """

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        data=st.data(),
        dimension=st.integers(min_value=2, max_value=20),
        ball=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        cuts=st.integers(min_value=1, max_value=30),
    )
    def test_cuts_keep_the_shape_symmetric_positive_definite_and_shrinking(
        self, data, dimension, ball, seed, cuts
    ):
        ellipsoid = Ellipsoid.ball(dimension, 2.0) if ball else random_ellipsoid(dimension, seed)
        for _ in range(cuts):
            direction = data.draw(_direction_strategy(dimension), label="direction")
            # Fractions of the support interval: below 0 and above 1 put the
            # offset outside it (an infeasible or a no-op cut).
            fraction = data.draw(st.floats(min_value=-0.5, max_value=1.5), label="fraction")
            keep = data.draw(st.sampled_from(("leq", "geq")), label="keep")
            lower, upper = ellipsoid.support_interval(direction)
            offset = lower + fraction * (upper - lower)
            result = loewner_john_cut(ellipsoid, direction, offset, keep, on_infeasible="skip")
            if not result.updated:
                continue
            condition = _condition_bound_after_cut(ellipsoid, result.alpha)
            if condition > _RESOLVED_CONDITION:
                return
            shape = result.ellipsoid.shape
            assert np.array_equal(shape, shape.T)
            assert result.ellipsoid.smallest_eigenvalue() > 0.0
            if result.alpha < 1.0:
                log_ratio = result.ellipsoid.log_volume() - ellipsoid.log_volume()
                bound = math.log(volume_ratio_upper_bound(result.alpha, dimension))
                # Rounding moves a log-determinant by up to about
                # n * eps * condition; the slack is 16 times that.
                slack = 16.0 * dimension * np.finfo(float).eps * condition
                assert log_ratio <= bound + slack
            ellipsoid = result.ellipsoid


class TestIntervalProperties:
    @SETTINGS
    @given(
        lower=st.floats(min_value=-10, max_value=9, allow_nan=False),
        width=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        direction=st.floats(min_value=-5, max_value=5, allow_nan=False).filter(
            lambda v: abs(v) > 1e-3
        ),
        offset=st.floats(min_value=-30, max_value=30, allow_nan=False),
        keep_leq=st.booleans(),
    )
    def test_interval_cut_is_sound(self, lower, width, direction, offset, keep_leq):
        """Every θ kept by the exact halfspace intersection stays in the interval."""
        knowledge = IntervalKnowledge(lower, lower + width)
        original = (knowledge.lower, knowledge.upper)
        keep = "leq" if keep_leq else "geq"
        knowledge.cut(direction, offset, keep=keep)
        assert knowledge.lower <= knowledge.upper
        # Soundness: points of the original interval satisfying the constraint
        # are still inside the updated interval.
        for theta in np.linspace(original[0], original[1], 9):
            satisfied = direction * theta <= offset if keep == "leq" else direction * theta >= offset
            if satisfied:
                assert knowledge.lower - 1e-9 <= theta <= knowledge.upper + 1e-9


class TestPricerProperties:
    @SETTINGS
    @given(
        theta=hnp.arrays(
            dtype=float,
            shape=3,
            elements=st.floats(min_value=0.05, max_value=1.5, allow_nan=False),
        ),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_knowledge_always_contains_theta_without_noise(self, theta, seed):
        """With consistent (noise-free) feedback the knowledge set never loses θ*."""
        rng = np.random.default_rng(seed)
        dimension = 3
        pricer = EllipsoidPricer(
            PricerConfig(dimension=dimension, radius=4.0, epsilon=0.01, use_reserve=True)
        )
        for _ in range(40):
            features = np.abs(rng.standard_normal(dimension)) + 0.05
            features /= np.linalg.norm(features)
            value = float(features @ theta)
            decision = pricer.propose(features, reserve=0.5 * value)
            if decision.skipped or decision.price is None:
                continue
            pricer.update(decision, accepted=decision.price <= value)
            assert pricer.knowledge.contains(theta)

    @SETTINGS
    @given(
        reserve=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_posted_price_respects_reserve(self, reserve, seed):
        rng = np.random.default_rng(seed)
        pricer = EllipsoidPricer(PricerConfig(dimension=3, radius=2.0, epsilon=0.05))
        features = np.abs(rng.standard_normal(3)) + 0.1
        features /= np.linalg.norm(features)
        decision = pricer.propose(features, reserve=reserve)
        if decision.posted:
            assert decision.price >= reserve - 1e-12
        else:
            # Skipping is only allowed when the reserve certainly exceeds the value.
            assert reserve >= decision.upper_bound
