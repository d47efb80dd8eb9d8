"""Stochastic-gradient contextual pricing baseline.

The related-work section of the paper discusses the stochastic gradient
descent approach of Amin, Rostamizadeh and Syed ("Repeated contextual auctions
with strategic buyers", NIPS 2014) as the first contextual posted-price
learner: it maintains a point estimate of the weight vector, posts (roughly)
the estimated value, and nudges the estimate up after an acceptance and down
after a rejection.  Its regret is `O(T^{2/3})` and it needs i.i.d. feature
vectors, both of which the ellipsoid mechanism improves upon — which is
exactly why it makes a useful learning baseline for the experiment harness.

This implementation keeps the spirit of that algorithm while fitting the
repository's posted-price interface:

* the estimate ``θ̂_t`` is updated by ``±η_t · x_t`` depending on the feedback
  (the sign of the surrogate gradient), with ``η_t = learning_rate / sqrt(t)``,
* the posted price is ``max(reserve, x_t^T θ̂_t - margin_t)`` where the margin
  ``margin_t = margin / t^{1/4}`` trades off exploration undershoot against
  lost revenue,
* the estimate is projected back onto the ball of radius ``radius`` so it
  remains comparable to the ellipsoid pricer's knowledge set.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.base import PostedPriceMechanism, PricingDecision
from repro.utils.validation import ensure_finite_scalar, ensure_positive, ensure_vector

_NEGATIVE_INFINITY = float("-inf")


class SGDContextualPricer(PostedPriceMechanism):
    """Gradient-based contextual posted-price baseline (Amin et al. style).

    Parameters
    ----------
    dimension:
        Feature dimension ``n``.
    radius:
        Radius of the ball the estimate is projected onto (the analogue of the
        ellipsoid pricer's ``R``).
    learning_rate:
        Base step size; the per-round step is ``learning_rate / sqrt(t)``.
    margin:
        Base undershoot below the estimated value; the per-round margin is
        ``margin / t^{1/4}``.
    use_reserve:
        Whether the reserve price constraint is enforced.
    """

    def __init__(
        self,
        dimension: int,
        radius: float,
        learning_rate: float = 1.0,
        margin: float = 0.5,
        use_reserve: bool = True,
    ) -> None:
        super().__init__()
        if dimension < 1:
            raise ValueError("dimension must be positive, got %d" % dimension)
        ensure_positive(radius, name="radius")
        ensure_positive(learning_rate, name="learning_rate")
        ensure_positive(margin, name="margin", strict=False)
        self.dimension = int(dimension)
        self.radius = float(radius)
        self.learning_rate = float(learning_rate)
        self.margin = float(margin)
        self.use_reserve = bool(use_reserve)
        self.estimate = np.zeros(self.dimension)
        self.name = "SGD baseline" + ("" if use_reserve else " (no reserve)")

    # ------------------------------------------------------------------ #

    def propose(self, features, reserve: Optional[float] = None) -> PricingDecision:
        features = ensure_vector(features, dimension=self.dimension, name="features")
        round_index = self._next_round()
        step = round_index + 1
        estimated_value = float(features @ self.estimate)
        margin = self.margin / step**0.25
        price = estimated_value - margin
        effective_reserve = self._effective_reserve(reserve)
        price = max(price, effective_reserve)
        return PricingDecision(
            features=features,
            reserve=reserve if self.use_reserve else None,
            lower_bound=estimated_value - margin,
            upper_bound=estimated_value + margin,
            price=price,
            exploratory=True,
            skipped=False,
            round_index=round_index,
            metadata={"estimated_value": estimated_value, "margin": margin},
        )

    def update(self, decision: PricingDecision, accepted: bool) -> None:
        if decision.skipped or decision.price is None:
            return
        step = decision.round_index + 1
        learning_rate = self.learning_rate / math.sqrt(step)
        direction = 1.0 if accepted else -1.0
        self.estimate = self.estimate + direction * learning_rate * decision.features
        norm = float(np.linalg.norm(self.estimate))
        if norm > self.radius:
            self.estimate = self.estimate * (self.radius / norm)

    # ------------------------------------------------------------------ #
    # Columnar engine fast path
    # ------------------------------------------------------------------ #

    def run_batch(self, model, materialized, transcript) -> bool:
        """Whole-horizon run for the weakly-stateful SGD pricer.

        The price depends on the running estimate, which depends on feedback,
        so the time loop itself cannot be collapsed — but the per-round
        schedules (margin ``margin / t^{1/4}`` and step size
        ``learning_rate / sqrt(t)``) are precomputed up front and the loop body
        is reduced to the exact arithmetic of propose/update (one dot product,
        one rank-one estimate update, one projection), with no decision-object
        allocation or input re-validation.
        """
        features = materialized.mapped_features
        if features.shape[1] != self.dimension:
            return False  # let the generic loop raise the usual dimension error
        if not np.all(np.isfinite(features)):
            return False
        link_reserves = materialized.link_reserves
        market_values = materialized.market_values
        identity_link = getattr(model, "link_is_identity", False)
        link = model.link
        link_prices = transcript.link_prices
        posted_prices = transcript.posted_prices
        sold_column = transcript.sold
        exploratory_column = transcript.exploratory
        rounds = features.shape[0]
        start = self._round_index
        # Same scalar expressions as propose/update, hoisted out of the loop.
        margins = [self.margin / (start + t + 1) ** 0.25 for t in range(rounds)]
        rates = [self.learning_rate / math.sqrt(start + t + 1) for t in range(rounds)]
        use_reserve = self.use_reserve
        radius = self.radius
        isnan = math.isnan
        estimate = self.estimate
        for index in range(rounds):
            x = features[index]
            estimated_value = float(x @ estimate)
            price = estimated_value - margins[index]
            if use_reserve:
                reserve = link_reserves[index]
                if not isnan(reserve):
                    price = max(price, reserve)
            posted = price if identity_link else link(float(price))
            accepted = posted <= market_values[index]
            link_prices[index] = price
            posted_prices[index] = posted
            sold_column[index] = accepted
            exploratory_column[index] = True
            direction = 1.0 if accepted else -1.0
            estimate = estimate + direction * rates[index] * x
            norm = float(np.linalg.norm(estimate))
            if norm > radius:
                estimate = estimate * (radius / norm)
        self.estimate = estimate
        self.advance_rounds(rounds)
        return True

    # ------------------------------------------------------------------ #

    def state_arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.estimate,)

    def _extra_state(self) -> dict:
        return {"estimate": self.estimate.copy()}

    def _load_extra_state(self, state: dict) -> None:
        estimate = np.asarray(state["estimate"], dtype=float)
        if estimate.shape != (self.dimension,):
            raise ValueError(
                "estimate state has shape %s, expected (%d,)"
                % (estimate.shape, self.dimension)
            )
        self.estimate = estimate.copy()

    def _effective_reserve(self, reserve: Optional[float]) -> float:
        if not self.use_reserve or reserve is None:
            return _NEGATIVE_INFINITY
        return ensure_finite_scalar(reserve, name="reserve")

    def __repr__(self) -> str:  # pragma: no cover
        return "SGDContextualPricer(dimension=%d, radius=%g)" % (self.dimension, self.radius)
