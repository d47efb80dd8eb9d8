"""Where pricing inputs are checked: once per quote, at the public entry points.

``EllipsoidPricer.propose`` validates its features once and then prices
through unchecked kernels (``KnowledgeSet._bounds``, ``Ellipsoid._support``);
``update`` checks its cut direction once, in ``loewner_john_cut``; the
engine's block walk checks the whole feature matrix once and cuts through
``EllipsoidKnowledge._cut``; and a fresh pricer wraps its initial ball
without re-proving it positive definite.  These tests pin those counts,
that every entry point which checked its input still rejects bad input,
and that ``Ellipsoid.ball`` returns the same bits or raises the same error
as the checked construction.
"""

import math
import warnings

import numpy as np
import pytest

import repro.core.cuts as cuts_module
import repro.core.ellipsoid as ellipsoid_module
import repro.core.knowledge as knowledge_module
import repro.core.pricing as pricing_module
from repro.core.base import PricingDecision
from repro.core.cuts import loewner_john_cut
from repro.core.ellipsoid import Ellipsoid
from repro.core.knowledge import EllipsoidKnowledge
from repro.core.models import LinearModel
from repro.core.pricing import EllipsoidPricer, PricerConfig
from repro.engine import ArrivalBatch, simulate
from repro.exceptions import DimensionMismatchError, NotPositiveDefiniteError, ServingError
from repro.serving import PricerRegistry, QuoteRequest, QuoteService, SessionKey

DIMENSION = 4

#: Bad feature vectors and the error each entry point raises for them.
BAD_INPUTS = {
    "nan": (np.array([0.1, np.nan, 0.2, 0.3]), ValueError),
    "inf": (np.array([0.1, 0.2, -np.inf, 0.3]), ValueError),
    "wrong-length": (np.array([0.1, 0.2, 0.3]), DimensionMismatchError),
}


def _pricer(knowledge="ellipsoid"):
    config = PricerConfig(dimension=DIMENSION, radius=2.0, epsilon=0.05, knowledge=knowledge)
    return EllipsoidPricer(config)


def _count_validations(monkeypatch):
    """Record each ``ensure_vector`` call made through the modules a quote
    and its feedback pass: the pricer, its knowledge set, the ellipsoid and
    the cut."""
    calls = []
    for module in (pricing_module, knowledge_module, ellipsoid_module, cuts_module):
        original = module.ensure_vector

        def counted(*args, _original=original, _module=module.__name__, **kwargs):
            calls.append(_module)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "ensure_vector", counted)
    return calls


@pytest.mark.parametrize("knowledge", ["ellipsoid", "polytope"])
def test_propose_validates_its_features_once(monkeypatch, knowledge):
    pricer = _pricer(knowledge)
    calls = _count_validations(monkeypatch)
    rng = np.random.default_rng(0)
    decisions = []
    for reserve in (None, 0.1, 50.0):  # priced, priced at a reserve, skipped
        calls.clear()
        decisions.append(pricer.propose(list(rng.random(DIMENSION)), reserve=reserve))
        assert calls == ["repro.core.pricing"]
    assert not decisions[0].skipped and decisions[-1].skipped


def test_value_bounds_validates_once_and_agrees_with_propose(monkeypatch):
    pricer = _pricer()
    features = np.array([0.3, 0.1, 0.5, 0.2])
    calls = _count_validations(monkeypatch)
    bounds = pricer.value_bounds(features)
    assert calls == ["repro.core.pricing"]
    assert bounds == pricer.knowledge.ellipsoid.support_interval(features)
    decision = pricer.propose(features)
    assert (decision.lower_bound, decision.upper_bound) == bounds


def test_an_update_that_cuts_validates_its_direction_once(monkeypatch):
    pricer = _pricer()
    decision = pricer.propose(np.array([0.3, 0.1, 0.5, 0.2]))
    assert decision.exploratory
    calls = _count_validations(monkeypatch)
    pricer.update(decision, accepted=False)
    assert pricer.cuts_applied == 1
    assert calls == ["repro.core.cuts"]


def test_the_engine_makes_no_per_cut_validation(monkeypatch):
    """``run_batch`` checks the feature matrix once and cuts through the
    unchecked ``EllipsoidKnowledge._cut``: no ``ensure_vector`` per cut."""
    rng = np.random.default_rng(5)
    features = np.abs(rng.standard_normal((400, DIMENSION)))
    theta = np.full(DIMENSION, 0.4)
    model = LinearModel(theta)
    batch = ArrivalBatch(features, 0.5 * (features @ theta), np.zeros(400))
    pricer = _pricer()
    calls = _count_validations(monkeypatch)
    simulate(model, pricer, arrivals=batch)
    assert pricer.cuts_applied > 10
    assert calls == []


def _exploratory_decision(features):
    """A decision as ``propose`` would hand back for an exploratory round,
    built by hand so that it can carry bad features into ``update``."""
    return PricingDecision(
        features=features,
        reserve=None,
        lower_bound=-1.0,
        upper_bound=1.0,
        price=0.0,
        exploratory=True,
        skipped=False,
        round_index=0,
    )


def _knowledge_state(center, shape):
    return {"kind": "ellipsoid", "center": center, "shape": shape, "cut_count": 0}


#: Every entry point that checked its vector input before the check moved.
ENTRY_POINTS = {
    "EllipsoidPricer.propose": lambda x: _pricer().propose(x, reserve=0.1),
    "EllipsoidPricer.value_bounds": lambda x: _pricer().value_bounds(x),
    "Ellipsoid.support_interval": lambda x: Ellipsoid.ball(DIMENSION, 2.0).support_interval(x),
    "Ellipsoid(center)": lambda x: Ellipsoid(x, np.eye(DIMENSION)),
    "Ellipsoid(shape)": lambda x: Ellipsoid(np.zeros(DIMENSION), np.diag(x)),
    "loewner_john_cut": lambda x: loewner_john_cut(Ellipsoid.ball(DIMENSION, 2.0), x, 0.0, "leq"),
    "EllipsoidPricer.update": lambda x: _pricer().update(_exploratory_decision(x), accepted=False),
    "EllipsoidKnowledge.cut": lambda x: EllipsoidKnowledge(Ellipsoid.ball(DIMENSION, 2.0)).cut(
        x, 0.0, "leq"
    ),
    "EllipsoidKnowledge.load_state(center)": lambda x: EllipsoidKnowledge(
        Ellipsoid.ball(DIMENSION, 2.0)
    ).load_state(_knowledge_state(x, np.eye(DIMENSION))),
    "EllipsoidKnowledge.load_state(shape)": lambda x: EllipsoidKnowledge(
        Ellipsoid.ball(DIMENSION, 2.0)
    ).load_state(_knowledge_state(np.zeros(DIMENSION), np.diag(x))),
}


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_still_reject_bad_input(entry, bad):
    values, error = BAD_INPUTS[bad]
    with pytest.raises(error):
        ENTRY_POINTS[entry](values)


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
def test_quote_service_rejects_bad_features(bad):
    values, error = BAD_INPUTS[bad]
    registry = PricerRegistry(lambda key: (LinearModel(np.ones(DIMENSION)), _pricer()))
    service = QuoteService(registry)
    with pytest.raises(ServingError) as failure:
        service.quote(QuoteRequest(SessionKey("app", "segment"), values, 0.1))
    assert isinstance(failure.value.__cause__, error)
    # The failed quote left nothing pending, and a good one still prices.
    assert not registry.peek(SessionKey("app", "segment")).pending
    assert service.quote(QuoteRequest(SessionKey("app", "segment"), np.full(DIMENSION, 0.2)))


# --------------------------------------------------------------------------- #
# Ellipsoid.ball
# --------------------------------------------------------------------------- #


def _checked_ball(dimension, radius):
    """``Ellipsoid.ball`` built through ``__init__``, which re-symmetrises
    ``r² I`` and proves it positive definite."""
    if radius <= 0:
        raise ValueError("radius must be positive, got %g" % radius)
    return Ellipsoid(np.zeros(dimension), (radius**2) * np.eye(dimension))


#: Radii and what the checked construction makes of them (``None``: a ball).
RADII = [
    (0.0, ValueError),
    (-1.0, ValueError),
    (math.nan, ValueError),  # r² I holds NaN
    (math.inf, ValueError),  # inf on the diagonal, 0 * inf off it
    (1e-6, NotPositiveDefiniteError),  # r² = 1e-12 fails the tolerance
    (1e-5, None),  # r² = 1.0000000000000002e-10 just clears it
    (1.0, None),
    (1e150, None),
    (1e154, NotPositiveDefiniteError),  # the symmetrising sum 2 r² overflows
    (1e155, OverflowError),  # r² itself overflows
]


def _outcome(build):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return build()
        except Exception as exc:  # the type is the outcome under test
            return exc


@pytest.mark.parametrize("dimension", [0, 1, 3])
@pytest.mark.parametrize("radius,expected", RADII, ids=[repr(r) for r, _ in RADII])
def test_ball_equals_the_checked_construction(dimension, radius, expected):
    checked = _outcome(lambda: _checked_ball(dimension, radius))
    ball = _outcome(lambda: Ellipsoid.ball(dimension, radius))
    if isinstance(checked, Exception):
        assert type(ball) is type(checked)
        return
    assert isinstance(ball, Ellipsoid), ball
    for mine, theirs in ((ball.center, checked.center), (ball.shape, checked.shape)):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert np.array_equal(mine, theirs) and np.array_equal(np.signbit(mine), np.signbit(theirs))


@pytest.mark.parametrize("radius,expected", RADII, ids=[repr(r) for r, _ in RADII])
def test_ball_outcomes_at_three_dimensions(radius, expected):
    """The premise of each radius above: a ball, or this error type."""
    ball = _outcome(lambda: Ellipsoid.ball(3, radius))
    if expected is None:
        assert isinstance(ball, Ellipsoid)
    else:
        assert type(ball) is expected


def test_a_fresh_pricer_does_not_re_prove_its_ball(monkeypatch):
    proofs = []
    check = Ellipsoid._check_positive_definite
    monkeypatch.setattr(
        Ellipsoid, "_check_positive_definite", lambda self: proofs.append(check(self))
    )
    _pricer()
    Ellipsoid.ball(DIMENSION, 1e-5)
    assert proofs == []
    # An explicit center still goes through the checks of __init__.
    Ellipsoid.ball(DIMENSION, 2.0, center=np.ones(DIMENSION))
    assert len(proofs) == 1
