"""The one-dimensional posted price mechanism (Section II-C, Theorem 3).

When the feature vector is a single scalar (for instance the total privacy
compensation), the knowledge set is an interval of feasible weights and the
Löwner–John machinery degenerates: the exploratory price bisects the interval
of possible market values, the conservative price posts its lower end, and the
worst-case regret of the pure version is ``O(log T)`` (Theorem 3).

The uncertainty buffer and the reserve price constraint work exactly as in the
multi-dimensional Algorithms 1/2; only the knowledge-set update differs.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.base import KnowledgePricerStateMixin, PostedPriceMechanism, PricingDecision
from repro.core.knowledge import IntervalKnowledge
from repro.utils.validation import ensure_finite_scalar, ensure_positive

_NEGATIVE_INFINITY = float("-inf")


class OneDimensionalPricer(KnowledgePricerStateMixin, PostedPriceMechanism):
    """Posted price mechanism for a one-dimensional feature (``n = 1``).

    Parameters
    ----------
    theta_lower, theta_upper:
        The initial interval ``[l, u]`` of feasible scalar weights ``θ*``.
    epsilon:
        Exploration threshold on the width of the market value bounds;
        the paper's Theorem 3 uses ``ε = log²(T)/T``.
    delta:
        Uncertainty buffer (0 for the deterministic setting).
    use_reserve:
        Whether the reserve price constraint is enforced.
    allow_conservative_cuts:
        Ablation switch mirroring the multi-dimensional pricer: when true,
        conservative-price feedback also refines the interval.
    """

    def __init__(
        self,
        theta_lower: float,
        theta_upper: float,
        epsilon: float,
        delta: float = 0.0,
        use_reserve: bool = True,
        allow_conservative_cuts: bool = False,
    ) -> None:
        super().__init__()
        theta_lower = ensure_finite_scalar(theta_lower, name="theta_lower")
        theta_upper = ensure_finite_scalar(theta_upper, name="theta_upper")
        ensure_positive(epsilon, name="epsilon")
        ensure_positive(delta, name="delta", strict=False)
        self.knowledge = IntervalKnowledge(theta_lower, theta_upper)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.use_reserve = bool(use_reserve)
        self.allow_conservative_cuts = bool(allow_conservative_cuts)
        self.exploratory_rounds = 0
        self.conservative_rounds = 0
        self.skipped_rounds = 0
        self.cuts_applied = 0
        self.name = self._derive_name()

    def _derive_name(self) -> str:
        if self.use_reserve and self.delta > 0:
            return "with reserve price and uncertainty"
        if self.use_reserve:
            return "with reserve price"
        if self.delta > 0:
            return "with uncertainty"
        return "pure version"

    # ------------------------------------------------------------------ #

    def propose(self, features, reserve: Optional[float] = None) -> PricingDecision:
        feature = _as_scalar_feature(features)
        effective_reserve = self._effective_reserve(reserve)
        lower, upper = self.knowledge._bounds(feature)

        if effective_reserve >= upper + self.delta:
            self.skipped_rounds += 1
            self._next_round()
            return PricingDecision(
                features=np.array([feature]),
                reserve=reserve if self.use_reserve else None,
                lower_bound=lower,
                upper_bound=upper,
                price=None,
                exploratory=False,
                skipped=True,
                round_index=self.rounds_seen - 1,
            )

        width = upper - lower
        if width > self.epsilon:
            price = max(effective_reserve, 0.5 * (lower + upper))
            exploratory = True
            self.exploratory_rounds += 1
        else:
            price = max(effective_reserve, lower - self.delta)
            exploratory = False
            self.conservative_rounds += 1

        self._next_round()
        return PricingDecision(
            features=np.array([feature]),
            reserve=reserve if self.use_reserve else None,
            lower_bound=lower,
            upper_bound=upper,
            price=price,
            exploratory=exploratory,
            skipped=False,
            round_index=self.rounds_seen - 1,
        )

    def update(self, decision: PricingDecision, accepted: bool) -> None:
        if decision.skipped or decision.price is None:
            return
        refine = decision.exploratory or self.allow_conservative_cuts
        if not refine:
            return
        feature = float(decision.features[0])
        if feature == 0.0:
            return
        if accepted:
            changed = self.knowledge.cut(feature, decision.price - self.delta, keep="geq")
        else:
            changed = self.knowledge.cut(feature, decision.price + self.delta, keep="leq")
        if changed:
            self.cuts_applied += 1

    # ------------------------------------------------------------------ #
    # Columnar engine fast path
    # ------------------------------------------------------------------ #

    def run_batch(self, model, materialized, transcript) -> bool:
        """Whole-horizon loop with the exact per-round arithmetic of
        propose/update (interval bounds, bisection prices, interval cuts),
        minus the per-round validation and decision allocation."""
        features = materialized.mapped_features
        if features.ndim != 2 or features.shape[1] != 1:
            return False  # let the generic loop raise the usual shape error
        if not np.all(np.isfinite(features)):
            return False
        link_reserves = materialized.link_reserves
        if self.use_reserve and np.any(np.isinf(link_reserves)):
            return False  # NaN means no reserve; propose rejects ±inf
        knowledge = self.knowledge
        use_reserve = self.use_reserve
        delta = self.delta
        epsilon = self.epsilon
        allow_conservative_cuts = self.allow_conservative_cuts
        market_values = materialized.market_values
        identity_link = getattr(model, "link_is_identity", False)
        link = model.link
        link_prices = transcript.link_prices
        posted_prices = transcript.posted_prices
        sold_column = transcript.sold
        skipped_column = transcript.skipped
        exploratory_column = transcript.exploratory
        isnan = math.isnan
        rounds = features.shape[0]
        skipped_rounds = exploratory_rounds = conservative_rounds = cuts_applied = 0
        theta_lower, theta_upper = knowledge.lower, knowledge.upper
        for index in range(rounds):
            feature = float(features[index, 0])
            # Inlined IntervalKnowledge._bounds (same expressions).
            bound_a = feature * theta_lower
            bound_b = feature * theta_upper
            lower = min(bound_a, bound_b)
            upper = max(bound_a, bound_b)
            if use_reserve:
                reserve = link_reserves[index]
                effective_reserve = _NEGATIVE_INFINITY if isnan(reserve) else reserve
            else:
                effective_reserve = _NEGATIVE_INFINITY
            if effective_reserve >= upper + delta:
                skipped_rounds += 1
                skipped_column[index] = True
                continue
            width = upper - lower
            if width > epsilon:
                price = max(effective_reserve, 0.5 * (lower + upper))
                exploratory = True
                exploratory_rounds += 1
            else:
                price = max(effective_reserve, lower - delta)
                exploratory = False
                conservative_rounds += 1
            posted = price if identity_link else link(float(price))
            accepted = posted <= market_values[index]
            link_prices[index] = price
            posted_prices[index] = posted
            sold_column[index] = accepted
            exploratory_column[index] = exploratory
            if (exploratory or allow_conservative_cuts) and feature != 0.0:
                if accepted:
                    changed = knowledge.cut(feature, price - delta, keep="geq")
                else:
                    changed = knowledge.cut(feature, price + delta, keep="leq")
                if changed:
                    cuts_applied += 1
                    theta_lower, theta_upper = knowledge.lower, knowledge.upper
        self.skipped_rounds += skipped_rounds
        self.exploratory_rounds += exploratory_rounds
        self.conservative_rounds += conservative_rounds
        self.cuts_applied += cuts_applied
        self.advance_rounds(rounds)
        return True

    # ------------------------------------------------------------------ #

    def value_bounds(self, features) -> Tuple[float, float]:
        """Current bounds on the market value for the scalar feature."""
        return self.knowledge._bounds(_as_scalar_feature(features))

    def state_arrays(self) -> Tuple[np.ndarray, ...]:
        return self.knowledge.state_arrays()

    def _effective_reserve(self, reserve: Optional[float]) -> float:
        if not self.use_reserve or reserve is None:
            return _NEGATIVE_INFINITY
        return ensure_finite_scalar(reserve, name="reserve")

    def __repr__(self) -> str:  # pragma: no cover
        return "OneDimensionalPricer(%s, theta in [%g, %g])" % (
            self.name,
            self.knowledge.lower,
            self.knowledge.upper,
        )


def _as_scalar_feature(features) -> float:
    arr = np.asarray(features, dtype=float)
    if arr.ndim == 0:
        return float(arr)
    if arr.ndim == 1 and arr.shape[0] == 1:
        return float(arr[0])
    raise ValueError(
        "OneDimensionalPricer expects a scalar feature, got shape %s" % (arr.shape,)
    )
