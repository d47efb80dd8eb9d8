"""Shared interface of all posted price mechanisms.

Every pricer in this package — the ellipsoid pricers of Algorithms 1/2, the
one-dimensional bisection pricer, and the baselines — exposes the same two-step
protocol used by the online market simulator:

1. :meth:`PostedPriceMechanism.propose` receives the query's (link-space)
   feature vector and reserve price and returns a :class:`PricingDecision`;
2. :meth:`PostedPriceMechanism.update` receives the same decision together with
   the consumer's accept/reject feedback and refines the pricer's state.

All quantities live in the *link space* of the market value model (see
:mod:`repro.core.models`); for the fundamental linear model the link space and
the real price space coincide.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.utils.memory import PricerMemoryReport, report_for_arrays


@dataclass
class BatchDecisions:
    """Struct-of-arrays outcome of one :meth:`PostedPriceMechanism.propose_batch`.

    The columnar analogue of a sequence of :class:`PricingDecision` objects,
    restricted to the fields the simulation engine consumes.

    Attributes
    ----------
    link_prices:
        Posted link-space prices, shape ``(rounds,)``; ``NaN`` marks a skipped
        round (no price posted).
    exploratory:
        Whether each price was the exploratory (midpoint-based) price.
    skipped:
        Whether the pricer declined to post in each round.
    """

    link_prices: np.ndarray
    exploratory: np.ndarray
    skipped: np.ndarray

    def __post_init__(self) -> None:
        self.link_prices = np.asarray(self.link_prices, dtype=float)
        self.exploratory = np.asarray(self.exploratory, dtype=bool)
        self.skipped = np.asarray(self.skipped, dtype=bool)
        if not (self.link_prices.shape == self.exploratory.shape == self.skipped.shape):
            raise ValueError("BatchDecisions columns must share one shape")

    @property
    def rounds(self) -> int:
        """Number of decided rounds."""
        return self.link_prices.shape[0]

    def to_decisions(
        self, features: np.ndarray, reserves: np.ndarray, start_index: int
    ) -> "list":
        """Expand the columnar decisions into object-level :class:`PricingDecision`\\ s.

        The engine discards decision objects on its batched paths, but the
        serving layer needs one per quote to route asynchronous accept/reject
        feedback back through :meth:`PostedPriceMechanism.update`.  Only
        stateless pricers produce :class:`BatchDecisions` (the
        ``supports_batch_propose`` contract), so the bounds are the ±∞ they
        report from :meth:`propose` as well; ``start_index`` is the pricer's
        ``rounds_seen`` *before* the ``propose_batch`` call, matching the
        ``round_index`` sequence the object protocol would have assigned.
        """
        features = np.asarray(features, dtype=float)
        reserves = np.asarray(reserves, dtype=float)
        if features.shape[0] != self.rounds or reserves.shape[0] != self.rounds:
            raise ValueError(
                "expected %d feature rows / reserves, got %d / %d"
                % (self.rounds, features.shape[0], reserves.shape[0])
            )
        decisions = []
        for index in range(self.rounds):
            price = self.link_prices[index]
            reserve = reserves[index]
            decisions.append(
                PricingDecision(
                    features=features[index],
                    reserve=None if np.isnan(reserve) else float(reserve),
                    lower_bound=float("-inf"),
                    upper_bound=float("inf"),
                    price=None if np.isnan(price) else float(price),
                    exploratory=bool(self.exploratory[index]),
                    skipped=bool(self.skipped[index]),
                    round_index=int(start_index) + index,
                )
            )
        return decisions


@dataclass
class PricingDecision:
    """The outcome of one call to :meth:`PostedPriceMechanism.propose`.

    Attributes
    ----------
    features:
        The (link-space) feature vector ``φ(x_t)`` the decision was made for.
    reserve:
        The reserve price in link space, or ``None`` when the pricer ignores
        reserve prices (the starred algorithm versions).
    lower_bound / upper_bound:
        The pricer's bounds ``p̲_t`` / ``p̄_t`` on the link-space market value.
        Baselines that do not track bounds report ``-inf`` / ``+inf``.
    price:
        The posted link-space price, or ``None`` when the round is skipped.
    exploratory:
        Whether the price is the exploratory price (midpoint-based) rather
        than the conservative price.
    skipped:
        ``True`` when the pricer declines to post (certain no-deal because the
        reserve price exceeds the maximum possible market value).
    round_index:
        Sequential index assigned by the pricer (0-based).
    """

    features: np.ndarray
    reserve: Optional[float]
    lower_bound: float
    upper_bound: float
    price: Optional[float]
    exploratory: bool
    skipped: bool
    round_index: int
    metadata: dict = field(default_factory=dict)

    @property
    def width(self) -> float:
        """Width ``p̄_t - p̲_t`` of the value bounds."""
        return self.upper_bound - self.lower_bound

    @property
    def posted(self) -> bool:
        """Whether a price was actually posted this round."""
        return not self.skipped and self.price is not None


class PostedPriceMechanism(abc.ABC):
    """Abstract posted price mechanism (seller side of one data trading round)."""

    #: Human-readable name used in experiment reports.
    name: str = "posted-price-mechanism"

    def __init__(self) -> None:
        self._round_index = 0

    @property
    def rounds_seen(self) -> int:
        """Number of propose() calls so far."""
        return self._round_index

    @abc.abstractmethod
    def propose(self, features, reserve: Optional[float] = None) -> PricingDecision:
        """Choose a posted price for the query with link-space features ``features``."""

    @abc.abstractmethod
    def update(self, decision: PricingDecision, accepted: bool) -> None:
        """Incorporate the consumer's accept/reject feedback for ``decision``."""

    # ------------------------------------------------------------------ #
    # Batched protocol (optional fast paths; the engine falls back to a
    # sequential propose/update loop when neither hook is provided).
    # ------------------------------------------------------------------ #

    #: Whether :meth:`propose_batch` is available.  Only pricers whose
    #: proposals never depend on accept/reject feedback (the stateless
    #: baselines) may set this — a feedback-dependent pricer cannot commit to
    #: a whole horizon of prices up front.
    supports_batch_propose: bool = False

    def propose_batch(self, features: np.ndarray, reserves: np.ndarray) -> BatchDecisions:
        """Propose prices for a whole horizon at once.

        Parameters
        ----------
        features:
            Link-space feature matrix ``φ(x_t)``, shape ``(rounds, n)``.
        reserves:
            Link-space reserve prices, shape ``(rounds,)``; ``NaN`` encodes
            "no reserve this round" (the ``reserve=None`` case of
            :meth:`propose`).

        Must be element-wise identical to calling :meth:`propose` round by
        round, and must advance :attr:`rounds_seen` by ``rounds``.
        """
        raise NotImplementedError(
            "%s does not implement propose_batch" % type(self).__name__
        )

    def update_batch(self, decisions: BatchDecisions, accepted: np.ndarray) -> None:
        """Incorporate a whole horizon of accept/reject feedback.

        The default is a no-op, which is correct exactly for the stateless
        pricers that set :attr:`supports_batch_propose`; learning pricers
        either run through the engine's sequential fallback or provide
        :meth:`run_batch`.
        """

    def run_batch(self, model, materialized, transcript) -> bool:
        """Optionally run a whole horizon with a pricer-specific fast path.

        Parameters
        ----------
        model:
            The :class:`repro.core.models.MarketValueModel` of the market (the
            feedback loop needs its ``link`` to translate link-space prices
            into real posted prices).
        materialized:
            A :class:`repro.engine.arrivals.MaterializedArrivals` (duck-typed;
            this module does not import the engine).
        transcript:
            A :class:`repro.engine.transcript.Transcript` whose decision
            columns (``link_prices``, ``posted_prices``, ``sold``, ``skipped``,
            ``exploratory``) the pricer must fill for every round.

        The run must be element-wise identical to the sequential
        propose/update loop, internal counters included (the bit-exact
        contract of :mod:`repro.engine.equivalence`).

        Returns ``True`` when the pricer handled the run, or ``False`` to
        request the engine's generic loop fallback.
        """
        return False

    def advance_rounds(self, count: int) -> None:
        """Advance the internal round counter after a batched run."""
        if count < 0:
            raise ValueError("count must be non-negative, got %d" % count)
        self._round_index += count

    def state_arrays(self) -> Tuple[np.ndarray, ...]:
        """Arrays making up the pricer's state (for memory accounting)."""
        return ()

    def memory_report(self) -> PricerMemoryReport:
        """Memory footprint of this pricer (Section V-D style accounting)."""
        return report_for_arrays(self.state_arrays())

    # ------------------------------------------------------------------ #
    # Checkpoint / restore protocol
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """A complete snapshot of the pricer's mutable state.

        The contract is *exact resumability*: for any round boundary ``k``,
        running rounds ``[0, k)``, snapshotting, loading the snapshot into a
        freshly constructed pricer (same constructor arguments), and running
        rounds ``[k, T)`` must produce decisions bit-identical to an
        uninterrupted run.  The snapshot therefore covers the round counter,
        the knowledge-set / learner state, all bookkeeping counters, and —
        for pricers that carry a random source in an ``rng`` attribute — the
        RNG position.

        The returned mapping contains only JSON-compatible scalars, nested
        dicts/lists, and ``numpy.ndarray`` leaves, so it can be persisted by
        :mod:`repro.engine.checkpoint` without pickling.
        """
        state: dict = {"round_index": int(self._round_index)}
        rng = getattr(self, "rng", None)
        if isinstance(rng, np.random.Generator):
            state["rng_state"] = rng.bit_generator.state
        state.update(self._extra_state())
        return state

    def load_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        The pricer must have been constructed with the same configuration as
        the one that produced the snapshot; ``load_state`` replaces only the
        mutable state.
        """
        self._round_index = int(state["round_index"])
        rng_state = state.get("rng_state")
        if rng_state is not None:
            rng = getattr(self, "rng", None)
            if not isinstance(rng, np.random.Generator):
                raise ValueError(
                    "checkpoint carries an RNG position but %s has no rng attribute"
                    % type(self).__name__
                )
            rng.bit_generator.state = rng_state
        self._load_extra_state(state)

    def _extra_state(self) -> dict:
        """Subclass hook: additional entries for :meth:`state_dict`."""
        return {}

    def _load_extra_state(self, state: dict) -> None:
        """Subclass hook: restore the entries produced by :meth:`_extra_state`."""

    def _next_round(self) -> int:
        index = self._round_index
        self._round_index += 1
        return index


class KnowledgePricerStateMixin:
    """Snapshot plumbing shared by the knowledge-set pricers.

    The ellipsoid and one-dimensional pricers carry exactly the same mutable
    extras — a ``knowledge`` set plus the four bookkeeping counters — so the
    snapshot hooks live here once; a counter added to one family's snapshot
    cannot silently miss the other.
    """

    def _extra_state(self) -> dict:
        return {
            "exploratory_rounds": int(self.exploratory_rounds),
            "conservative_rounds": int(self.conservative_rounds),
            "skipped_rounds": int(self.skipped_rounds),
            "cuts_applied": int(self.cuts_applied),
            "knowledge": self.knowledge.state_dict(),
        }

    def _load_extra_state(self, state: dict) -> None:
        self.exploratory_rounds = int(state["exploratory_rounds"])
        self.conservative_rounds = int(state["conservative_rounds"])
        self.skipped_rounds = int(state["skipped_rounds"])
        self.cuts_applied = int(state["cuts_applied"])
        self.knowledge.load_state(state["knowledge"])
