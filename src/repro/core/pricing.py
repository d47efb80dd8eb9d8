"""Ellipsoid based posted price mechanisms (Algorithms 1, 1*, 2, 2*).

A single implementation, :class:`EllipsoidPricer`, covers all four algorithm
versions evaluated in the paper:

==============================  ==========================  =================
Paper name                      ``use_reserve``             ``delta``
==============================  ==========================  =================
Algorithm 1  (with reserve)     ``True``                    ``0``
Algorithm 1* (pure version)     ``False``                   ``0``
Algorithm 2  (reserve + unc.)   ``True``                    ``> 0``
Algorithm 2* (with uncertainty) ``False``                   ``> 0``
==============================  ==========================  =================

Setting ``delta = 0`` reduces Algorithm 2 exactly to Algorithm 1 (the skip
condition, the exploratory/conservative prices, and the cut positions all
coincide), so the uncertainty-aware pseudo-code is the one implemented.

The knowledge set defaults to the Löwner–John ellipsoid representation; the
exact polytope representation can be selected for validation at the cost of
two linear programs per round (``knowledge='polytope'``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.base import KnowledgePricerStateMixin, PostedPriceMechanism, PricingDecision
from repro.core.knowledge import EllipsoidKnowledge, KnowledgeSet, PolytopeKnowledge
from repro.utils.validation import ensure_finite_scalar, ensure_positive, ensure_vector

_NEGATIVE_INFINITY = float("-inf")


@dataclass(frozen=True)
class PricerConfig:
    """Configuration of an :class:`EllipsoidPricer`.

    Attributes
    ----------
    dimension:
        Dimension ``n`` of the (link-space) feature vector.
    radius:
        Radius ``R`` of the initial ball-shaped knowledge set ``E_1``.
    epsilon:
        The exploration threshold ``ε``: when the width of the value bounds
        exceeds ``ε`` the exploratory price is posted.  The paper's theory
        suggests ``ε = max(n²/T, 4nδ)``; see :meth:`theoretical_epsilon`.
    delta:
        The uncertainty buffer ``δ`` (0 for the deterministic Algorithms 1/1*).
    use_reserve:
        Whether the reserve price constraint is enforced (Algorithms 1/2) or
        ignored (the starred versions).
    allow_conservative_cuts:
        Ablation switch for Lemma 8: when true the pricer also refines its
        knowledge set after conservative-price rounds, which the paper shows
        enables an adversary to force Ω(T) regret.
    knowledge:
        ``'ellipsoid'`` (default) or ``'polytope'`` for the exact LP-based
        reference representation.
    """

    dimension: int
    radius: float
    epsilon: float
    delta: float = 0.0
    use_reserve: bool = True
    allow_conservative_cuts: bool = False
    knowledge: str = "ellipsoid"

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1, got %d" % self.dimension)
        ensure_positive(self.radius, name="radius")
        ensure_positive(self.epsilon, name="epsilon")
        ensure_positive(self.delta, name="delta", strict=False)
        if self.knowledge not in ("ellipsoid", "polytope"):
            raise ValueError("knowledge must be 'ellipsoid' or 'polytope', got %r" % self.knowledge)

    @staticmethod
    def theoretical_epsilon(dimension: int, total_rounds: int, delta: float = 0.0) -> float:
        """The threshold used in the paper's analysis and evaluation.

        ``ε = log²(T)/T`` in the one-dimensional case (Theorem 3) and
        ``ε = max(n²/T, 4nδ)`` otherwise (Theorem 1).
        """
        if total_rounds < 1:
            raise ValueError("total_rounds must be at least 1, got %d" % total_rounds)
        if dimension == 1:
            if total_rounds == 1:
                return 1.0
            return max(math.log(total_rounds) ** 2 / total_rounds, 4.0 * delta, 1e-12)
        return max(dimension**2 / total_rounds, 4.0 * dimension * delta, 1e-12)


class EllipsoidPricer(KnowledgePricerStateMixin, PostedPriceMechanism):
    """The paper's contextual dynamic pricing mechanism with reserve price.

    Parameters
    ----------
    config:
        A :class:`PricerConfig`.  The pricer operates in link space: callers
        supply ``φ(x_t)`` feature vectors and link-space reserve prices, and
        receive link-space posted prices (see :mod:`repro.core.models` and
        :class:`repro.core.simulation.MarketSimulator` for the translation to
        real prices under non-linear models).
    """

    def __init__(self, config: PricerConfig, initial_ellipsoid=None) -> None:
        super().__init__()
        if config.dimension < 2:
            raise ValueError(
                "EllipsoidPricer requires dimension >= 2; "
                "use OneDimensionalPricer (or make_pricer) for n = 1"
            )
        self.config = config
        self.knowledge: KnowledgeSet
        if initial_ellipsoid is not None:
            # Warm start: the broker begins from an explicit knowledge
            # ellipsoid (e.g. fitted on historical transactions) instead of
            # the origin-centered ball of radius R.
            if config.knowledge != "ellipsoid":
                raise ValueError("an initial ellipsoid requires knowledge='ellipsoid'")
            if initial_ellipsoid.dimension != config.dimension:
                raise ValueError(
                    "initial ellipsoid dimension %d does not match config dimension %d"
                    % (initial_ellipsoid.dimension, config.dimension)
                )
            self.knowledge = EllipsoidKnowledge(initial_ellipsoid.copy())
        elif config.knowledge == "ellipsoid":
            self.knowledge = EllipsoidKnowledge.from_radius(config.dimension, config.radius)
        else:
            self.knowledge = PolytopeKnowledge.from_radius(config.dimension, config.radius)
        self.exploratory_rounds = 0
        self.conservative_rounds = 0
        self.skipped_rounds = 0
        self.cuts_applied = 0
        self.name = self._derive_name()

    def _derive_name(self) -> str:
        if self.config.use_reserve and self.config.delta > 0:
            return "with reserve price and uncertainty"
        if self.config.use_reserve:
            return "with reserve price"
        if self.config.delta > 0:
            return "with uncertainty"
        return "pure version"

    # ------------------------------------------------------------------ #
    # Posted price mechanism interface
    # ------------------------------------------------------------------ #

    def propose(self, features, reserve: Optional[float] = None) -> PricingDecision:
        """Lines 2–13 / 22–27 of Algorithms 1 and 2: choose the posted price."""
        features = ensure_vector(features, dimension=self.config.dimension, name="features")
        effective_reserve = self._effective_reserve(reserve)
        lower, upper = self.knowledge._bounds(features)
        delta = self.config.delta

        if effective_reserve >= upper + delta:
            # Certain no deal: any admissible price exceeds the maximum
            # possible market value (Lines 8-10).
            self.skipped_rounds += 1
            self._next_round()
            return PricingDecision(
                features=features,
                reserve=reserve if self.config.use_reserve else None,
                lower_bound=lower,
                upper_bound=upper,
                price=None,
                exploratory=False,
                skipped=True,
                round_index=self.rounds_seen - 1,
            )

        width = upper - lower
        if width > self.config.epsilon:
            price = max(effective_reserve, 0.5 * (lower + upper))
            exploratory = True
            self.exploratory_rounds += 1
        else:
            price = max(effective_reserve, lower - delta)
            exploratory = False
            self.conservative_rounds += 1

        self._next_round()
        return PricingDecision(
            features=features,
            reserve=reserve if self.config.use_reserve else None,
            lower_bound=lower,
            upper_bound=upper,
            price=price,
            exploratory=exploratory,
            skipped=False,
            round_index=self.rounds_seen - 1,
        )

    def update(self, decision: PricingDecision, accepted: bool) -> None:
        """Lines 14–21 of Algorithms 1 and 2: refine the knowledge set."""
        if decision.skipped or decision.price is None:
            return
        refine = decision.exploratory or self.config.allow_conservative_cuts
        if not refine:
            # Conservative prices never refine the knowledge set (Line 24);
            # Lemma 8 shows that allowing them to would admit Ω(T) regret.
            return
        if decision.width <= 1e-12:
            # The knowledge set carries (numerically) no width along this
            # direction, so the feedback contains no refinable information and
            # the rank-one update would be degenerate.
            return
        delta = self.config.delta
        if accepted:
            # Acceptance implies price <= v <= φ(x)^T θ* + δ, i.e. the
            # effective price (price - δ) lower-bounds φ(x)^T θ*.
            changed = self.knowledge.cut(decision.features, decision.price - delta, keep="geq")
        else:
            # Rejection implies price >= v >= φ(x)^T θ* - δ.
            changed = self.knowledge.cut(decision.features, decision.price + delta, keep="leq")
        if changed:
            self.cuts_applied += 1

    # ------------------------------------------------------------------ #
    # Columnar engine fast path
    # ------------------------------------------------------------------ #

    #: Cap on the rows priced per block.  After a cut the next block is twice
    #: the rows since the previous cut, and it doubles across cut-free blocks:
    #: the rows priced past a cut and thrown away stay in proportion to the
    #: rows kept, whatever the dimension, and a cut-free tail takes a few
    #: long blocks.
    _BLOCK_MAX = 4096

    def run_batch(self, model, materialized, transcript) -> bool:
        """Run a whole horizon in blocks of rounds between knowledge cuts.

        The ellipsoid changes only on applied cuts, so between two of them a
        block of rounds is decided in array passes: support intervals
        (:meth:`Ellipsoid.support_intervals`, which round like the scalar
        products of :meth:`propose`), skip and exploratory flags and prices.
        The first cut candidate that changes the ellipsoid goes through the
        unchecked :meth:`EllipsoidKnowledge._cut` (the features were checked
        once, here); the block's rows up to it are copied into horizon-length
        columns and the walk restarts after it.  Posted prices, sales and the
        counters are computed once, over the whole horizon, at the end.
        Every expression is that of :meth:`propose`/:meth:`update` (Python's
        ``max(a, b)`` is ``np.where(b > a, b, a)``, signed zeros included),
        so transcripts and counters are bit-identical to the sequential loop.
        After a cut the next block is twice the rows since the previous cut;
        it doubles over cut-free blocks up to :attr:`_BLOCK_MAX`.

        Polytope knowledge returns ``False``: the engine's loop then drives
        :meth:`propose`/:meth:`update`.  So does a market with non-finite
        features or, under the reserve constraint, an infinite reserve, so
        that :meth:`propose` raises its usual error.
        """
        config = self.config
        knowledge = self.knowledge
        features = materialized.mapped_features
        if not isinstance(knowledge, EllipsoidKnowledge):
            return False
        if features.shape[1] != config.dimension:
            return False  # let the generic loop raise the usual dimension error
        if not np.all(np.isfinite(features)):
            return False
        delta = config.delta
        epsilon = config.epsilon
        allow_conservative_cuts = config.allow_conservative_cuts
        identity_link = getattr(model, "link_is_identity", False)
        market_values = materialized.market_values
        rounds = features.shape[0]
        if config.use_reserve:
            reserves = materialized.link_reserves
            if np.any(np.isinf(reserves)):
                return False  # NaN means no reserve; propose rejects ±inf
            effective_reserves = np.where(np.isnan(reserves), _NEGATIVE_INFINITY, reserves)
        else:
            effective_reserves = np.full(rounds, _NEGATIVE_INFINITY)

        # The committed decisions; the flags go straight to the transcript.
        prices = np.empty(rounds)
        skipped = transcript.skipped
        exploratory = transcript.exploratory
        cuts_applied = 0
        start = previous_cut = 0
        block_size = 1
        while start < rounds:
            stop = min(rounds, start + block_size)
            block = features[start:stop]
            lower, upper = knowledge.ellipsoid.support_intervals(block)
            reserve = effective_reserves[start:stop]
            block_skipped = reserve >= upper + delta
            active = ~block_skipped
            width = upper - lower
            block_exploratory = active & (width > epsilon)
            anchor = np.where(block_exploratory, 0.5 * (lower + upper), lower - delta)
            price = np.where(anchor > reserve, anchor, reserve)
            # Conservative rounds cut only in the ablation; exploratory rounds
            # are active ones, so either way a candidate is an active round.
            candidates = (active if allow_conservative_cuts else block_exploratory) & (width > 1e-12)

            limit = stop - start
            block_size = min(2 * block_size, self._BLOCK_MAX)
            for index in candidates.nonzero()[0]:
                link_price = float(price[index])
                posted = link_price if identity_link else model.link(link_price)
                if posted <= market_values[start + index]:
                    offset, sign = link_price - delta, -1.0  # keep 'geq'
                else:
                    offset, sign = link_price + delta, 1.0  # keep 'leq'
                # The features were checked once, above; the offset is checked
                # here, as update's cut checks it.
                offset = ensure_finite_scalar(offset, name="offset")
                if knowledge._cut(block[index], offset, sign):
                    cuts_applied += 1
                    limit = index + 1
                    block_size = min(2 * (start + limit - previous_cut), self._BLOCK_MAX)
                    previous_cut = start + limit
                    break

            end = start + limit
            prices[start:end] = price[:limit]
            skipped[start:end] = block_skipped[:limit]
            exploratory[start:end] = block_exploratory[:limit]
            start = end

        live = ~skipped
        posted = prices if identity_link else model.link_batch(np.where(live, prices, np.nan))
        np.copyto(transcript.link_prices, prices, where=live)
        np.copyto(transcript.posted_prices, posted, where=live)
        np.logical_and(live, posted <= market_values, out=transcript.sold)
        skipped_rounds = int(np.count_nonzero(skipped))
        exploratory_rounds = int(np.count_nonzero(exploratory))
        self.skipped_rounds += skipped_rounds
        self.exploratory_rounds += exploratory_rounds
        self.conservative_rounds += rounds - skipped_rounds - exploratory_rounds
        self.cuts_applied += cuts_applied
        self.advance_rounds(rounds)
        return True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def value_bounds(self, features) -> Tuple[float, float]:
        """Current bounds on the link-space market value for ``features``."""
        features = ensure_vector(features, dimension=self.config.dimension, name="features")
        return self.knowledge._bounds(features)

    def state_arrays(self) -> Tuple[np.ndarray, ...]:
        return self.knowledge.state_arrays()

    def _effective_reserve(self, reserve: Optional[float]) -> float:
        if not self.config.use_reserve or reserve is None:
            return _NEGATIVE_INFINITY
        reserve = ensure_finite_scalar(reserve, name="reserve")
        return reserve

    def __repr__(self) -> str:  # pragma: no cover
        return "EllipsoidPricer(%s, n=%d, epsilon=%g, delta=%g)" % (
            self.name,
            self.config.dimension,
            self.config.epsilon,
            self.config.delta,
        )


def make_pricer(
    dimension: int,
    radius: float,
    epsilon: float,
    delta: float = 0.0,
    use_reserve: bool = True,
    allow_conservative_cuts: bool = False,
    knowledge: str = "ellipsoid",
    theta_bounds: Optional[Tuple[float, float]] = None,
    initial_ellipsoid=None,
) -> PostedPriceMechanism:
    """Create the appropriate pricer for the feature dimension.

    For ``dimension == 1`` the ellipsoid degenerates to an interval and the
    Löwner–John update formulas are undefined (they divide by ``n² - 1``), so a
    :class:`~repro.core.one_dim.OneDimensionalPricer` is returned instead; for
    higher dimensions an :class:`EllipsoidPricer` is returned.

    Parameters
    ----------
    theta_bounds:
        Optional ``(lower, upper)`` interval for the scalar weight in the
        one-dimensional case; defaults to ``(-radius, radius)``.
    initial_ellipsoid:
        Optional warm-start knowledge ellipsoid (multi-dimensional case only);
        overrides the origin-centered ball of radius ``radius``.
    """
    if dimension == 1:
        from repro.core.one_dim import OneDimensionalPricer

        if theta_bounds is None:
            theta_bounds = (-radius, radius)
        return OneDimensionalPricer(
            theta_lower=theta_bounds[0],
            theta_upper=theta_bounds[1],
            epsilon=epsilon,
            delta=delta,
            use_reserve=use_reserve,
            allow_conservative_cuts=allow_conservative_cuts,
        )
    config = PricerConfig(
        dimension=dimension,
        radius=radius,
        epsilon=epsilon,
        delta=delta,
        use_reserve=use_reserve,
        allow_conservative_cuts=allow_conservative_cuts,
        knowledge=knowledge,
    )
    return EllipsoidPricer(config, initial_ellipsoid=initial_ellipsoid)
