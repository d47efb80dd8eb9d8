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
from repro.core.batched_ellipsoid import block_support_intervals, single_cut
from repro.core.ellipsoid import _DEGENERATE_GAIN, Ellipsoid
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
        lower, upper = self.knowledge.value_bounds(features)
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

    def run_batch(self, model, materialized, transcript, backend=None) -> bool:
        """Run a whole horizon with the per-round arithmetic of propose/update.

        With ``backend=None`` (or ``"reference"``) the loop body performs
        exactly the floating-point operations of :meth:`propose` (the support
        interval ``x^T c ± sqrt(x^T A x)``) and :meth:`update` (the
        Löwner–John cut), in the same order — only the per-round input
        validation and :class:`PricingDecision` allocation are elided — so
        seeded transcripts are bit-identical to the sequential loop.  Internal
        counters (`exploratory_rounds`, `cuts_applied`, ...) are maintained
        exactly as in the sequential path.

        With the relaxed-tier ``backend="batched"`` the run is
        block-vectorised through the stacked primitives of
        :mod:`repro.core.batched_ellipsoid`: the knowledge ellipsoid is
        constant between applied cuts, so whole blocks of support intervals
        collapse into one gemm-backed contraction — the conservative tail,
        where cuts never happen, becomes a handful of array passes.  The
        result is held to the relaxed equivalence tier
        (:mod:`repro.engine.equivalence`), not byte-identity.
        """
        config = self.config
        features = materialized.mapped_features
        if features.shape[1] != config.dimension:
            return False  # let the generic loop raise the usual dimension error
        if not np.all(np.isfinite(features)):
            return False
        if backend not in (None, "reference"):
            return self._run_batch_backend(model, materialized, transcript)
        knowledge = self.knowledge
        fast_ellipsoid = isinstance(knowledge, EllipsoidKnowledge)
        use_reserve = config.use_reserve
        delta = config.delta
        epsilon = config.epsilon
        allow_conservative_cuts = config.allow_conservative_cuts
        link_reserves = materialized.link_reserves
        market_values = materialized.market_values
        identity_link = getattr(model, "link_is_identity", False)
        link = model.link
        link_prices = transcript.link_prices
        posted_prices = transcript.posted_prices
        sold_column = transcript.sold
        skipped_column = transcript.skipped
        exploratory_column = transcript.exploratory
        sqrt = math.sqrt
        isnan = math.isnan
        rounds = features.shape[0]
        skipped_rounds = exploratory_rounds = conservative_rounds = cuts_applied = 0
        if fast_ellipsoid:
            ellipsoid = knowledge.ellipsoid
            shape, center = ellipsoid.shape, ellipsoid.center
        for index in range(rounds):
            x = features[index]
            if fast_ellipsoid:
                # Inlined Ellipsoid.support_interval (same expressions,
                # including the degenerate-gain clamp).
                gain = float(x @ shape @ x)
                if not gain >= _DEGENERATE_GAIN:
                    gain = 0.0
                half_width = sqrt(gain)
                middle = float(x @ center)
                lower = middle - half_width
                upper = middle + half_width
            else:
                lower, upper = knowledge.value_bounds(x)
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
            if (exploratory or allow_conservative_cuts) and width > 1e-12:
                if accepted:
                    changed = knowledge.cut(x, price - delta, keep="geq")
                else:
                    changed = knowledge.cut(x, price + delta, keep="leq")
                if changed:
                    cuts_applied += 1
                    if fast_ellipsoid:
                        ellipsoid = knowledge.ellipsoid
                        shape, center = ellipsoid.shape, ellipsoid.center
        self.skipped_rounds += skipped_rounds
        self.exploratory_rounds += exploratory_rounds
        self.conservative_rounds += conservative_rounds
        self.cuts_applied += cuts_applied
        self.advance_rounds(rounds)
        return True

    #: Initial block size of the backend path; doubled after every cut-free
    #: block (galloping), so a cut-free conservative tail costs O(log T)
    #: array passes while an exploration-heavy prefix wastes at most one
    #: small block of speculative support intervals per applied cut.
    _BACKEND_BLOCK_START = 64
    _BACKEND_BLOCK_MAX = 65536

    def _run_batch_backend(self, model, materialized, transcript) -> bool:
        """Block-vectorised horizon via the relaxed-tier stacked primitives.

        Between two *applied* cuts the knowledge ellipsoid is constant, so
        every decision in between depends only on the stacked support
        intervals — one backend contraction per block.  Blocks are scanned in
        round order for the first cut candidate that actually changes the
        ellipsoid (no-op cuts — degenerate directions, out-of-range α — leave
        it unchanged, exactly as in the scalar path); the block's decided
        prefix is committed, the cut is applied through the scalar twin of
        the stacked kernel, and the walk resumes after it.
        """
        knowledge = self.knowledge
        if not isinstance(knowledge, EllipsoidKnowledge):
            # Polytope knowledge has no stacked kernel; reference semantics.
            return self.run_batch(model, materialized, transcript)

        config = self.config
        features = materialized.mapped_features
        market_values = materialized.market_values
        link_reserves = materialized.link_reserves
        use_reserve = config.use_reserve
        delta = config.delta
        epsilon = config.epsilon
        allow_conservative_cuts = config.allow_conservative_cuts
        identity_link = getattr(model, "link_is_identity", False)
        rounds = features.shape[0]

        link_prices = transcript.link_prices
        posted_prices = transcript.posted_prices
        sold_column = transcript.sold
        skipped_column = transcript.skipped
        exploratory_column = transcript.exploratory

        # Hoisted per-horizon invariant: effective reserves (NaN = absent).
        if use_reserve:
            effective_all = np.where(
                np.isnan(link_reserves), _NEGATIVE_INFINITY, link_reserves
            )
        else:
            effective_all = np.full(rounds, _NEGATIVE_INFINITY)

        skipped_rounds = exploratory_rounds = conservative_rounds = cuts_applied = 0
        start = 0
        block_size = self._BACKEND_BLOCK_START
        while start < rounds:
            stop = min(rounds, start + block_size)
            block = features[start:stop]
            ellipsoid = knowledge.ellipsoid
            lower, upper = block_support_intervals(
                ellipsoid.center, ellipsoid.shape, block
            )
            effective = effective_all[start:stop]
            skipped = effective >= upper + delta
            width = upper - lower
            active = ~skipped
            exploratory = active & (width > epsilon)
            price = np.where(
                exploratory,
                np.maximum(effective, 0.5 * (lower + upper)),
                np.maximum(effective, lower - delta),
            )
            # The reference loop never evaluates the link on skipped rounds;
            # zero out their placeholder prices so a non-linear link cannot
            # overflow on values that are never posted.
            safe_price = price if identity_link else np.where(active, price, 0.0)
            posted = safe_price if identity_link else model.link_batch(safe_price)
            accepted = active & (posted <= market_values[start:stop])

            # First cut candidate that actually changes the ellipsoid.
            candidates = active & (width > 1e-12)
            if not allow_conservative_cuts:
                candidates &= exploratory
            limit = stop - start
            applied = False
            for offset_index in np.flatnonzero(candidates):
                j = int(offset_index)
                if accepted[j]:
                    cut_offset, sign = price[j] - delta, -1.0  # keep 'geq'
                else:
                    cut_offset, sign = price[j] + delta, 1.0  # keep 'leq'
                updated = single_cut(
                    ellipsoid.center, ellipsoid.shape, block[j], cut_offset, sign
                )
                if updated is not None:
                    # The kernel re-symmetrises and returns fresh arrays, so
                    # the in-place swap skips Ellipsoid.__init__ revalidation.
                    ellipsoid.center, ellipsoid.shape = updated
                    knowledge.cut_count += 1
                    cuts_applied += 1
                    limit = j + 1
                    applied = True
                    break

            prefix = slice(start, start + limit)
            live = active[:limit]
            live_rows = start + np.flatnonzero(live)
            link_prices[live_rows] = price[:limit][live]
            posted_prices[live_rows] = posted[:limit][live]
            sold_column[prefix] = accepted[:limit]
            skipped_column[prefix] = skipped[:limit]
            exploratory_column[prefix] = exploratory[:limit]
            skipped_rounds += int(np.count_nonzero(skipped[:limit]))
            exploratory_rounds += int(np.count_nonzero(exploratory[:limit]))
            conservative_rounds += int(np.count_nonzero(live & ~exploratory[:limit]))
            start += limit
            block_size = (
                self._BACKEND_BLOCK_START
                if applied
                else min(block_size * 2, self._BACKEND_BLOCK_MAX)
            )

        self.skipped_rounds += skipped_rounds
        self.exploratory_rounds += exploratory_rounds
        self.conservative_rounds += conservative_rounds
        self.cuts_applied += cuts_applied
        self.advance_rounds(rounds)
        return True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def value_bounds(self, features) -> Tuple[float, float]:
        """Current bounds on the link-space market value for ``features``."""
        features = ensure_vector(features, dimension=self.config.dimension, name="features")
        return self.knowledge.value_bounds(features)

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
