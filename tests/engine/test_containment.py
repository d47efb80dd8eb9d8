"""θ* stays inside the ellipsoid pricer's knowledge set over long horizons.

Noiseless linear markets with δ = 0 answer every posted price exactly, so
each cut keeps θ*, and so does the Löwner–John ellipsoid of the kept part.
Rounding is the only way out.  Each market runs through the engine's block
path in 500-round slices of one materialisation, and θ* is checked after
every slice at :meth:`Ellipsoid.contains`'s default tolerance.
"""

import numpy as np
import pytest

from repro.core.models import LinearModel
from repro.core.pricing import EllipsoidPricer, PricerConfig
from repro.engine import ArrivalBatch, prepare, simulate

ROUNDS = 5_000
SLICE = 500
SEEDS = range(6)


def _noiseless_market(dimension, seed, use_reserve):
    """Unit-norm positive features, ‖θ*‖ = 0.8, reserves at 0.6 of the value."""
    rng = np.random.default_rng(seed)
    theta = np.abs(rng.standard_normal(dimension))
    theta *= 0.8 / np.linalg.norm(theta)
    features = np.abs(rng.standard_normal((ROUNDS, dimension)))
    features /= np.linalg.norm(features, axis=1)[:, None]
    reserves = 0.6 * (features @ theta) if use_reserve else np.full(ROUNDS, np.nan)
    return LinearModel(theta), ArrivalBatch(features, reserves, np.zeros(ROUNDS))


@pytest.mark.parametrize("dimension", [2, 5, 20])
@pytest.mark.parametrize("use_reserve", [True, False], ids=["reserve", "no-reserve"])
def test_theta_stays_inside_through_the_engine(dimension, use_reserve):
    for seed in SEEDS:
        model, batch = _noiseless_market(dimension, seed, use_reserve)
        market = prepare(model, batch)
        config = PricerConfig(
            dimension=dimension,
            radius=2.0,
            epsilon=PricerConfig.theoretical_epsilon(dimension, ROUNDS),
            use_reserve=use_reserve,
        )
        pricer = EllipsoidPricer(config)
        for start in range(0, ROUNDS, SLICE):
            simulate(model, pricer, materialized=market.slice(start, start + SLICE))
            ellipsoid = pricer.knowledge.ellipsoid
            assert ellipsoid.contains(model.theta), (
                "seed %d: θ* left the ellipsoid by round %d (Mahalanobis %r)"
                % (seed, start + SLICE, ellipsoid.mahalanobis(model.theta))
            )
        # The premise: the horizon is learned through many cuts, not a few.
        assert pricer.cuts_applied >= 10 * dimension
