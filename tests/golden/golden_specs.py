"""Shared fixture specs for the golden-transcript regression tier.

One spec per pricer family: how to generate its seeded T=512 market and how
to build a fresh pricer for it.  Both the committed fixture generator
(``scripts/make_golden_transcripts.py``) and the replay test import this
module, so the fixtures can always be regenerated from the same definitions.

Determinism notes
-----------------
The markets use only *uniform* RNG draws plus IEEE-exact arithmetic
(add/mul/div/sqrt) — no ``normal``/``exp``/``log`` — and the identity-link
:class:`~repro.core.models.LinearModel`, so regeneration does not depend on
the platform's libm.  Noise and reserves are pre-drawn and **stored** in the
fixture, which means the replay exercises exactly the committed market even
if the generator's arithmetic ever drifted.  The replay itself still goes
through per-row ``numpy`` dot products, which are deterministic for a given
BLAS build.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.baselines import (
    ConstantMarkupPricer,
    FixedPricePricer,
    OraclePricer,
    RiskAversePricer,
)
from repro.core.models import LinearModel
from repro.core.pricing import make_pricer
from repro.core.sgd_pricer import SGDContextualPricer
from repro.engine import ArrivalBatch
from repro.engine.equivalence import TRANSCRIPT_COLUMNS

#: Horizon of every golden fixture.
GOLDEN_ROUNDS = 512

#: Directory holding the committed fixtures (next to this module).
GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

#: Transcript columns pinned by the fixtures, in a fixed order.
GOLDEN_COLUMNS = TRANSCRIPT_COLUMNS


def _uniform_market(seed: int, dimension: int, rounds: int = GOLDEN_ROUNDS):
    """A seeded market from uniform draws only (libm-free generation).

    Features are positive and unit-normalised, θ* is positive with
    ``‖θ*‖ = sqrt(2 n)`` (the paper's Section V-A setup), reserves sit at 60%
    of the deterministic value, and a small pre-drawn uniform noise term
    keeps the accept/reject boundary non-trivial.
    """
    rng = np.random.default_rng(seed)
    theta = rng.random(dimension) + 0.1
    theta *= np.sqrt(2.0 * dimension) / np.linalg.norm(theta)
    features = rng.random((rounds, dimension)) + 0.05
    features /= np.linalg.norm(features, axis=1, keepdims=True)
    reserves = 0.6 * np.array([float(row @ theta) for row in features])
    noise = 0.01 * (rng.random(rounds) - 0.5)
    return theta, features, reserves, noise


def _spec(seed, dimension, build, with_reserve=True):
    return {"seed": seed, "dimension": dimension, "build": build, "with_reserve": with_reserve}


def _ellipsoid_reserve(theta):
    dimension = theta.shape[0]
    return make_pricer(dimension=dimension, radius=2.0 * np.sqrt(dimension), epsilon=0.05)


def _ellipsoid_uncertainty(theta):
    dimension = theta.shape[0]
    return make_pricer(
        dimension=dimension,
        radius=2.0 * np.sqrt(dimension),
        epsilon=0.2,
        delta=0.01,
        use_reserve=False,
    )


def _one_dim(theta):
    return make_pricer(dimension=1, radius=2.0, epsilon=0.01)


def _sgd(theta):
    dimension = theta.shape[0]
    return SGDContextualPricer(dimension=dimension, radius=2.0 * np.sqrt(dimension))


def _oracle(theta):
    return OraclePricer(lambda x: float(x @ theta))


#: family name -> spec.  One entry per pricer family of the engine: the two
#: ellipsoid algorithm branches (reserve / starred-with-uncertainty), the
#: one-dimensional bisection pricer, the SGD learner, and the four stateless
#: baselines.
GOLDEN_SPECS = {
    "ellipsoid-reserve": _spec(101, 6, _ellipsoid_reserve),
    "ellipsoid-uncertainty": _spec(102, 6, _ellipsoid_uncertainty),
    "one-dim": _spec(103, 1, _one_dim),
    "sgd": _spec(104, 5, _sgd),
    "risk-averse": _spec(105, 4, lambda theta: RiskAversePricer()),
    "fixed-price": _spec(106, 4, lambda theta: FixedPricePricer(1.1)),
    "constant-markup": _spec(107, 4, lambda theta: ConstantMarkupPricer(1.5)),
    "oracle": _spec(108, 4, _oracle),
}


def fixture_path(family: str) -> str:
    return os.path.join(GOLDEN_DIR, "%s.npz" % family)


def build_market(family: str):
    """(model, batch, theta) for one family — regenerated from the spec."""
    spec = GOLDEN_SPECS[family]
    theta, features, reserves, noise = _uniform_market(spec["seed"], spec["dimension"])
    if not spec["with_reserve"]:
        reserves = np.full(features.shape[0], np.nan)
    model = LinearModel(theta)
    batch = ArrivalBatch(features=features, reserve_values=reserves, noise=noise)
    return model, batch, theta


def build_pricer(family: str, theta: np.ndarray):
    """A fresh pricer for one family."""
    return GOLDEN_SPECS[family]["build"](theta)


def market_from_fixture(data) -> tuple:
    """(model, batch, theta) reconstructed from a loaded fixture archive.

    The market replayed by the test is the *committed* one: features,
    reserves, and noise come from the fixture file, never from regeneration.
    """
    theta = np.asarray(data["theta"], dtype=float)
    batch = ArrivalBatch(
        features=np.asarray(data["features"], dtype=float),
        reserve_values=np.asarray(data["reserve_values"], dtype=float),
        noise=np.asarray(data["noise"], dtype=float),
    )
    return LinearModel(theta), batch, theta
