"""Micro-batched quote service.

:class:`QuoteService` turns the batch simulator's pricers into a
request/response system.  Incoming :class:`~repro.serving.requests.
QuoteRequest`\\ s accumulate in a queue; a *drain* fires when the batch window
closes — either ``max_batch`` requests are waiting or the oldest has waited
``max_wait_seconds`` — and coalesces the queued requests into as few pricer
calls as possible:

* requests are grouped by session (first-come order preserved within a
  group);
* a group addressed to a stateless pricer (``supports_batch_propose``)
  becomes **one** columnar ``propose_batch`` call, expanded back to
  object-level decisions only for feedback bookkeeping;
* a group addressed to a learning pricer runs ``propose`` per request —
  feedback-dependent pricers cannot commit to several prices at once without
  changing semantics, which is exactly the engine's batching rule.

The feedback path mirrors this: :meth:`QuoteService.feedback_batch` applies a
whole window of accept/reject outcomes, using ``update_batch`` for stateless
sessions and ordered per-decision ``update`` calls for learning ones.

**Window semantics and exactness.**  Within one drain no feedback is applied
between the proposals of a group, so for a *learning* pricer a batch of k > 1
concurrent quotes is priced on the same knowledge state (decisions cannot see
each other's outcomes — they are concurrent).  A closed-loop driver that
waits for each quote's feedback before submitting the next
(:func:`repro.serving.loop.serve_closed_loop`) therefore reproduces the
offline engine transcript bit-identically, while an open-loop burst trades
exact sequential semantics for coalescing — the same trade the paper's
online setting makes under concurrent arrivals.

Per-quote latency is measured enqueue → response on the service clock (so it
includes queueing delay inside the window) and aggregated by the shared
:class:`repro.utils.metrics.LatencySummary`.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional

import numpy as np

from repro.core.base import BatchDecisions
from repro.exceptions import ServingError
from repro.serving.store import PricerRegistry, PricingSession
from repro.serving.requests import FeedbackEvent, QuoteRequest, QuoteResponse
from repro.utils.metrics import LatencySummary
from repro.utils.timing import OnlineLatencyTracker


@dataclass(frozen=True)
class MicroBatchConfig:
    """The coalescing window of the quote queue.

    A drain fires as soon as either bound is hit: ``max_batch`` requests
    queued, or the oldest queued request older than ``max_wait_seconds``.
    ``max_batch=1`` (or ``max_wait_seconds=0``) degenerates to immediate
    per-request dispatch.
    """

    max_batch: int = 64
    max_wait_seconds: float = 0.001

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1, got %d" % self.max_batch)
        if self.max_wait_seconds < 0:
            raise ValueError(
                "max_wait_seconds must be non-negative, got %g" % self.max_wait_seconds
            )


@dataclass
class ServiceStats:
    """Operational counters of one :class:`QuoteService`."""

    quotes_served: int = 0
    drains: int = 0
    batched_proposals: int = 0
    feedback_applied: int = 0
    latency: OnlineLatencyTracker = field(default_factory=OnlineLatencyTracker)

    def latency_summary(self) -> LatencySummary:
        """p50/p99-style summary of the per-quote latencies."""
        return LatencySummary.from_seconds(self.latency.samples_seconds)


def _stamped(request: QuoteRequest, quote_id: int, enqueued_at: float) -> QuoteRequest:
    """The service's private copy of ``request``, stamped for the queue.

    The constructor directly, not ``dataclasses.replace``: the same fields at
    a fraction of the cost on the per-quote path.
    """
    return QuoteRequest(
        request.key, request.features, request.reserve, request.metadata, quote_id, enqueued_at
    )


class QuoteService:
    """The online pricing front end over a :class:`PricerRegistry`.

    Parameters
    ----------
    registry:
        Session store resolving :class:`~repro.serving.requests.SessionKey`
        to live pricers.
    config:
        Micro-batch window; defaults to :class:`MicroBatchConfig`.
    clock:
        Monotonic time source (injectable for deterministic window tests).
    first_quote_id:
        First quote id to assign.  A respawned shard worker is seeded past
        its dead predecessor's highest issued id, so a stale feedback event
        for a lost quote can never settle a fresh one by id collision.
    """

    def __init__(
        self,
        registry: PricerRegistry,
        config: Optional[MicroBatchConfig] = None,
        clock: Callable[[], float] = time.perf_counter,
        first_quote_id: int = 0,
    ) -> None:
        if first_quote_id < 0:
            raise ValueError(
                "first_quote_id must be non-negative, got %d" % first_quote_id
            )
        self.registry = registry
        self.config = config or MicroBatchConfig()
        self._clock = clock
        self._queue: Deque[QuoteRequest] = deque()
        self._outbox: List[QuoteResponse] = []
        self._next_quote_id = first_quote_id
        self.stats = ServiceStats()

    # ------------------------------------------------------------------ #
    # Quote path
    # ------------------------------------------------------------------ #

    def submit(self, request: QuoteRequest) -> int:
        """Enqueue one request and return its assigned quote id.

        The service queues a private copy stamped with the quote id and the
        enqueue time — the caller's object is never mutated, so one request
        template can be resubmitted (each submission is an independent quote)
        without corrupting the pending bookkeeping of earlier submissions.
        """
        quote_id = self._next_quote_id
        self._next_quote_id += 1
        self._queue.append(_stamped(request, quote_id, self._clock()))
        return quote_id

    def submit_many(self, requests: Iterable[QuoteRequest]) -> List[int]:
        """Enqueue a batch of requests; returns their quote ids in order.

        Semantically identical to calling :meth:`submit` per request (same
        id assignment, same private stamped copies) with one clock read for
        the whole batch — the entry point the frontend's per-tick dispatch
        uses to enqueue a coalesced run of quote frames in one call.
        """
        now = self._clock()
        quote_ids: List[int] = []
        for request in requests:
            quote_id = self._next_quote_id
            self._next_quote_id += 1
            self._queue.append(_stamped(request, quote_id, now))
            quote_ids.append(quote_id)
        return quote_ids

    @property
    def queued(self) -> int:
        """Requests currently waiting in the micro-batch window."""
        return len(self._queue)

    def queued_for(self, key) -> int:
        """Requests of one session waiting in the micro-batch window.

        The rebalancer's quiesce probe: a session is drained once nothing of
        it is queued here and nothing is pending in its registry session.
        """
        return sum(1 for request in self._queue if request.key == key)

    def window_closed(self, now: Optional[float] = None) -> bool:
        """Whether the micro-batch window has closed (a drain would fire)."""
        if not self._queue:
            return False
        if len(self._queue) >= self.config.max_batch:
            return True
        now = self._clock() if now is None else now
        return (now - self._queue[0].enqueued_at) >= self.config.max_wait_seconds

    def poll(self, now: Optional[float] = None) -> List[QuoteResponse]:
        """Drain the queue if the window has closed; return ready responses."""
        if self.window_closed(now):
            self._drain()
        return self._take_outbox()

    def flush(self) -> List[QuoteResponse]:
        """Drain the queue unconditionally; return all ready responses."""
        self._drain()
        return self._take_outbox()

    def quote(self, request: QuoteRequest) -> QuoteResponse:
        """Submit one request and serve it immediately (synchronous path).

        Any other queued requests are drained along with it; their responses
        stay in the outbox for the next :meth:`poll` / :meth:`flush`.

        Failure accounting: when *another* session group fails mid-drain the
        synchronous caller's request must not be silently stranded.  Three
        cases, all reported through the raised :class:`ServingError`:

        * the caller's group was served *before* the failure — its response
          is popped from the outbox and handed over as ``error.response``
          (nobody else would ever collect it);
        * the caller's group was requeued (ordered *after* the failing
          group) — the request is cancelled (pulled back out of the queue,
          it will never be double-served) and the error names the caller's
          quote id in ``lost_quote_ids``;
        * the caller's own group failed — the drain error already names the
          quote id as lost and is re-raised as-is.
        """
        quote_id = self.submit(request)
        try:
            self._drain()
        except ServingError as exc:
            if quote_id in exc.requeued_quote_ids:
                self._cancel_queued(quote_id)
                exc.requeued_quote_ids.remove(quote_id)
                raise ServingError(
                    "quote %d cancelled: session %s failed while draining an "
                    "earlier group (resubmit the request): %s"
                    % (quote_id, exc.key, exc),
                    key=exc.key,
                    # The caller's cancelled quote first, then the failing
                    # group's quotes — all of them will never be served, and
                    # consumers (waiter notification, shard queue-depth
                    # accounting) repair state from this list.
                    lost_quote_ids=[quote_id] + exc.lost_quote_ids,
                    requeued_quote_ids=exc.requeued_quote_ids,
                ) from exc
            for index, response in enumerate(self._outbox):
                if response.quote_id == quote_id:
                    exc.response = self._outbox.pop(index)
                    break
            raise
        for index, response in enumerate(self._outbox):
            if response.quote_id == quote_id:
                return self._outbox.pop(index)
        raise ServingError("drain produced no response for quote %d" % quote_id)

    def _cancel_queued(self, quote_id: int) -> bool:
        """Remove one not-yet-served request from the queue by quote id.

        Deletes by index — ``deque.remove`` would go through the dataclass
        ``__eq__``, which compares numpy feature arrays and raises on any
        other same-key request ahead in the queue.
        """
        for index, queued in enumerate(self._queue):
            if queued.quote_id == quote_id:
                del self._queue[index]
                return True
        return False

    # ------------------------------------------------------------------ #
    # Feedback path
    # ------------------------------------------------------------------ #

    def feedback(self, event: FeedbackEvent) -> None:
        """Apply one accept/reject outcome to its session's pricer."""
        session = self._session_for_feedback(event.key)
        decision = self._settle(session, event)
        session.pricer.update(decision, event.accepted)
        self.registry.note_feedback(session)
        self.stats.feedback_applied += 1

    def feedback_batch(self, events: Iterable[FeedbackEvent]) -> None:
        """Apply a window of outcomes, coalescing per session.

        Stateless sessions take the whole group through one ``update_batch``
        call; learning sessions apply ordered per-decision ``update`` calls
        (order is semantics for them — each cut changes the next update's
        knowledge state).
        """
        groups: "OrderedDict" = OrderedDict()
        for event in events:
            groups.setdefault(event.key, []).append(event)
        for key, group in groups.items():
            session = self._session_for_feedback(key)
            pricer = session.pricer
            # Validate the whole group before settling or updating anything:
            # a bad quote id (e.g. a client retry, or a duplicate within the
            # window) must not strand valid outcomes behind popped decisions
            # or half-applied updates.
            seen = set()
            for event in group:
                if event.quote_id not in session.pending or event.quote_id in seen:
                    raise ServingError(
                        "feedback for unknown, duplicate, or already-settled "
                        "quote %d on session %s" % (event.quote_id, session.key)
                    )
                seen.add(event.quote_id)
            if getattr(pricer, "supports_batch_propose", False):
                decisions = [self._settle(session, event) for event in group]
                batch = BatchDecisions(
                    link_prices=np.array(
                        [np.nan if d.price is None else float(d.price) for d in decisions]
                    ),
                    exploratory=np.array([d.exploratory for d in decisions], dtype=bool),
                    skipped=np.array([d.skipped for d in decisions], dtype=bool),
                )
                pricer.update_batch(
                    batch, np.array([event.accepted for event in group], dtype=bool)
                )
                self.registry.note_feedback(session, count=len(group))
                self.stats.feedback_applied += len(group)
                continue
            for event in group:
                decision = self._settle(session, event)
                pricer.update(decision, event.accepted)
            self.registry.note_feedback(session, count=len(group))
            self.stats.feedback_applied += len(group)

    def feedback_many(self, events: Iterable[FeedbackEvent]) -> List[Optional[Exception]]:
        """Apply a mixed window of outcomes with **per-event** results.

        Groups by session exactly like :meth:`feedback_batch` and applies
        each group all-or-nothing through it, but instead of raising on the
        first bad group it returns one outcome per input event, aligned with
        the input order: ``None`` for an applied event, the exception for a
        failed one.  This is the frontend's coalesced-dispatch entry point —
        one executor hop applies a whole tick's feedback frames while
        keeping the per-frame acknowledge/error granularity of the protocol
        (a naive batch-then-retry would mis-report the already-applied
        events of a partially failed batch as errors).
        """
        events = list(events)
        outcomes: List[Optional[Exception]] = [None] * len(events)
        groups: "OrderedDict" = OrderedDict()
        for index, event in enumerate(events):
            groups.setdefault(event.key, []).append(index)
        for key, indices in groups.items():
            try:
                self.feedback_batch([events[index] for index in indices])
            except (ServingError, TypeError, ValueError) as exc:
                for index in indices:
                    outcomes[index] = exc
        return outcomes

    def _session_for_feedback(self, key) -> PricingSession:
        """Resolve a feedback target without creating (or LRU-thrashing) it.

        Feedback can only apply to a session that served the quote and is
        still resident; a lookup through :meth:`PricerRegistry.session`
        would *create* sessions for mistyped keys — and could evict a
        legitimate cold one on the way — before the quote-id check fires.
        """
        session = self.registry.peek(key)
        if session is None:
            raise ServingError("feedback for session %s, which is not resident" % (key,))
        return session

    def _settle(self, session: PricingSession, event: FeedbackEvent):
        decision = session.pending.pop(event.quote_id, None)
        if decision is None:
            raise ServingError(
                "feedback for unknown or already-settled quote %d on session %s"
                % (event.quote_id, session.key)
            )
        return decision

    # ------------------------------------------------------------------ #
    # Drain
    # ------------------------------------------------------------------ #

    def _take_outbox(self) -> List[QuoteResponse]:
        out, self._outbox = self._outbox, []
        return out

    def _drain(self) -> None:
        """Coalesce the queued requests into pricer calls (one per session
        for stateless pricers) and move their responses to the outbox.

        Failure containment: a pricer (or factory) exception must not make
        queued requests vanish.  Requests of *later* session groups are
        untouched and go back to the front of the queue; the failing group's
        unserved requests are named in the raised :class:`ServingError`
        (its ``__cause__`` is the original exception).  Already-emitted
        responses stay valid.
        """
        if not self._queue:
            return
        requests = list(self._queue)
        self._queue.clear()
        self.stats.drains += 1

        groups: "OrderedDict" = OrderedDict()
        for request in requests:
            groups.setdefault(request.key, []).append(request)

        group_list = list(groups.items())
        for group_index, (key, group) in enumerate(group_list):
            # Emissions are counted by outbox growth, which is exact on both
            # serve paths: every served request appends exactly one response
            # (and a failure inside an emission appends nothing), so a
            # mid-group failure — including one in the batched path's
            # ``model.link`` expansion — never reports already-served quotes
            # as lost or leaks their pending entries.
            emitted_before = len(self._outbox)
            try:
                self._serve_group(key, group)
            except Exception as exc:
                served = len(self._outbox) - emitted_before
                # Everything after the failing group never started — requeue
                # in arrival order so the next drain serves it.
                for _, later_group in reversed(group_list[group_index + 1 :]):
                    self._queue.extendleft(reversed(later_group))
                requeued = [
                    request.quote_id
                    for _, later_group in group_list[group_index + 1 :]
                    for request in later_group
                ]
                lost = [request.quote_id for request in group[served:]]
                self.stats.quotes_served += served
                raise ServingError(
                    "session %s failed while serving quote(s) %s: %s"
                    % (key, lost, exc),
                    key=key,
                    lost_quote_ids=lost,
                    requeued_quote_ids=requeued,
                ) from exc
            self.stats.quotes_served += len(group)

    def _serve_group(self, key, group) -> None:
        """Serve one session's requests, one emitted response per request.

        Progress is observable through the outbox (each emission appends
        exactly one response), which is what :meth:`_drain` uses for both
        success and failure accounting on both paths — there is deliberately
        no separate served counter here.
        """
        session = self.registry.session(key)
        pricer = session.pricer
        if len(group) > 1 and getattr(pricer, "supports_batch_propose", False):
            start_index = pricer.rounds_seen
            features = np.vstack(
                [np.atleast_1d(np.asarray(r.features, dtype=float)) for r in group]
            )
            reserves = np.array(
                [np.nan if r.reserve is None else float(r.reserve) for r in group]
            )
            batch = pricer.propose_batch(features, reserves)
            decisions = batch.to_decisions(features, reserves, start_index)
            self.stats.batched_proposals += 1
            for request, decision in zip(group, decisions):
                self._emit(session, request, decision)
            return
        # Sequential path: propose and emit per request, so partial progress
        # survives a mid-group pricer failure.
        for request in group:
            decision = pricer.propose(request.features, reserve=request.reserve)
            self._emit(session, request, decision)

    def _emit(self, session: PricingSession, request: QuoteRequest, decision) -> None:
        """Record one decision: pending entry, latency sample, response.

        A price that is not finite fails the quote before anything is
        recorded: no cut can settle it (its offset must be finite).  The
        ellipsoid pricer prices at -inf when ``x^T A x`` overflows, where
        the offline engine raises at that round's cut.
        """
        if decision.skipped or decision.price is None:
            link_price = None
            posted_price = None
        else:
            link_price = float(decision.price)
            if not math.isfinite(link_price):
                raise ValueError("price must be finite, got %r" % link_price)
            posted_price = session.model.link(link_price)
        session.pending[request.quote_id] = decision
        session.quotes_served += 1
        # Clamp once and report the same value everywhere: an injected clock
        # that steps backwards must not make the response's latency disagree
        # with the recorded statistics (latency is elapsed time; negative
        # readings are clock artifacts, floored to zero).
        latency = max(0.0, self._clock() - request.enqueued_at)
        self.stats.latency.record(latency)
        self._outbox.append(
            QuoteResponse(
                quote_id=request.quote_id,
                key=session.key,
                link_price=link_price,
                posted_price=posted_price,
                exploratory=decision.exploratory,
                skipped=decision.skipped,
                round_index=decision.round_index,
                latency_seconds=latency,
            )
        )
