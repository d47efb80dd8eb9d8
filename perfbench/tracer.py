"""Outside-in span tracing around the program's public calls.

The benchmark never edits the program to trace it.  It installs timing
wrappers, as instance attributes, on objects it built itself (a registry's
``session``, a service's methods, the pricers its session factory returns)
and around its own calls into the engine.  Each call becomes one span with a
name, start, end, parent span and, where the boundary exposes one, a request
id (a quote id or a round index).

Spans live in preallocated columns, so tracing a long run does not grow
Python objects, and are written out when the run ends.  Per-boundary figures
(calls, busy time, self time, median duration) are computed from the columns
afterwards: a span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench.stats import MIN_TAIL_SAMPLES, TooFewSamples, nearest_rank

#: Spans kept per run; calls beyond it are counted in ``dropped`` only.
DEFAULT_CAPACITY = 1 << 21

#: Every boundary the traced run reports, in report order.
BOUNDARIES = (
    "market.build",
    "engine.prepare",
    "engine.simulate",
    "engine.simulate.pure",
    "engine.simulate.uncertainty",
    "engine.simulate.reserve",
    "engine.simulate.reserve-uncertainty",
    "core.propose",
    "core.update",
    "service.submit",
    "service.submit_many",
    "service.poll",
    "service.feedback_batch",
    "service.feedback_many",
    "service.quote",
    "service.feedback",
    "store.session",
    "client.submit_quote",
    "client.submit_feedback",
)


class Tracer:
    """Span recorder; one per traced run.

    Spans opened by the wrappers are strictly nested per thread (every
    wrapper is synchronous), so the parent of a span is the innermost span
    open on the same thread.  Calls that overlap on one thread (awaited
    round trips of an asyncio client) are timed by the caller and added
    whole with :meth:`record`, as root spans.  Recording takes no lock: in
    each process the wrapped calls run on one thread at a time (the socket
    frontend runs every backend call on its single executor thread).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, clock=time.perf_counter) -> None:
        self.clock = clock
        self.capacity = int(capacity)
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.name_code = np.empty(self.capacity, dtype=np.int16)
        self.start = np.empty(self.capacity, dtype=np.float64)
        self.end = np.empty(self.capacity, dtype=np.float64)
        self.parent = np.empty(self.capacity, dtype=np.int32)
        self.request = np.empty(self.capacity, dtype=np.int64)
        self.count = 0
        self.window_start = 0
        self.dropped = 0
        self.errors = 0
        self._local = threading.local()

    # -- recording ------------------------------------------------------- #

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def open(self, code: int) -> int:
        """Start a span; returns its index (``-1`` once capacity is spent)."""
        index = self.count
        if index >= self.capacity:
            self.dropped += 1
            return -1
        self.count = index + 1
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        self.name_code[index] = code
        self.parent[index] = stack[-1] if stack else -1
        self.request[index] = -1
        stack.append(index)
        self.start[index] = self.clock()
        return index

    def close(self, index: int) -> None:
        if index >= 0:
            self.end[index] = self.clock()
            self._local.stack.pop()

    def record(self, code: int, start: float, end: float, request: int = -1) -> None:
        """Add a finished root span timed by the caller."""
        index = self.count
        if index >= self.capacity:
            self.dropped += 1
            return
        self.count = index + 1
        self.name_code[index] = code
        self.parent[index] = -1
        self.request[index] = request
        self.start[index] = start
        self.end[index] = end

    def tag(self, index: int, request: int) -> None:
        """Attach a request id to a span."""
        if index >= 0:
            self.request[index] = request

    def wrap(self, function: Callable, name: str, after=None) -> Callable:
        """``function`` timed as boundary ``name``.

        ``after(args, result)`` runs once the span has closed and returns the
        request id the span carries (``-1`` for none).
        """
        code = self.code(name)

        def traced(*args, **kwargs):
            index = self.open(code)
            try:
                result = function(*args, **kwargs)
            except Exception:
                self.errors += 1
                self.close(index)
                raise
            self.close(index)
            if after is not None:
                self.tag(index, after(args, result))
            return result

        return traced

    def wrap_attr(self, obj, attr: str, name: str, after=None) -> None:
        """Replace ``obj.attr`` by its traced version (an instance attribute)."""
        setattr(obj, attr, self.wrap(getattr(obj, attr), name, after))

    def mark(self) -> None:
        """Start the timed window: later reads see only spans opened after."""
        self.window_start = self.count
        self.errors = 0

    # -- reading --------------------------------------------------------- #

    def spans(self) -> Dict[str, np.ndarray]:
        """The window's span columns; ``parent`` indexes into them (``-1``
        for a root span or one whose parent opened before the window)."""
        lo, hi = self.window_start, self.count
        return {
            "name": self.name_code[lo:hi],
            "start": self.start[lo:hi],
            "end": self.end[lo:hi],
            "parent": np.maximum(self.parent[lo:hi] - lo, -1),
            "request": self.request[lo:hi],
        }

    def root_cover_s(self) -> float:
        """Time covered by the window's root spans (calls into the program
        made from outside any other traced call), overlaps counted once."""
        spans = self.spans()
        roots = spans["parent"] < 0
        return covered_s(spans["start"][roots], spans["end"][roots])

    def summary(self, names=BOUNDARIES) -> Dict[str, dict]:
        """Per-boundary ``calls``, ``busy_s``, ``self_s`` and ``p50_us``.

        A boundary with no calls in the window reports zeros.
        """
        spans = self.spans()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        duration = spans["end"] - spans["start"]
        out = {}
        for name in names:
            code = self._codes.get(name, -1)
            mask = spans["name"] == code
            calls = int(np.count_nonzero(mask))
            if calls == 0:
                out[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_us": 0.0}
                continue
            durations = duration[mask]
            out[name] = {
                "calls": calls,
                "busy_s": float(durations.sum()),
                "self_s": float(own[mask].sum()),
                "p50_us": percentile_us(durations, 50),
                "p99_us": percentile_us(durations, 99),
            }
        return out

    def save(self, path: str) -> None:
        """Write the window's spans and the name table as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.spans())


def percentile_us(durations: np.ndarray, percentile: float) -> float:
    """A span-duration percentile in microseconds.

    A median needs only one sample; a tail percentile needs ten beyond it
    and reads ``0.0`` without them (the report lists the call count).
    """
    min_beyond = 0 if percentile <= 50 else MIN_TAIL_SAMPLES
    try:
        return 1e6 * nearest_rank(durations, percentile, min_beyond)
    except TooFewSamples:
        return 0.0


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Children of one span never overlap (they run one after another on the
    parent's thread), so the covered time is the sum of their durations.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def covered_s(start: np.ndarray, end: np.ndarray) -> float:
    """Length of the union of the intervals ``[start[i], end[i])``."""
    if start.size == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    start, end = start[order], end[order]
    reach = np.maximum.accumulate(end)
    # A stretch of overlapping intervals opens where one starts after every
    # earlier one has ended.
    first = np.flatnonzero(np.r_[True, start[1:] > reach[:-1]])
    last = np.r_[first[1:], start.size] - 1
    return float((reach[last] - start[first]).sum())


class QueueWaits:
    """Per quote id: when ``submit``/``submit_many`` returned it and when
    the ``poll`` drain that returned its response ended."""

    def __init__(self, capacity: int = 1 << 22, clock=time.perf_counter) -> None:
        # Zero-filled pages cost no memory until a quote id touches them.
        self.submitted = np.zeros(capacity)
        self.drained = np.zeros(capacity)
        self.clock = clock
        self.window_start = 0.0

    def on_submit(self, quote_ids) -> None:
        now = self.clock()
        for quote_id in quote_ids:
            if quote_id < self.submitted.size:
                self.submitted[quote_id] = now

    def on_drain(self, responses) -> None:
        now = self.clock()
        for response in responses:
            if response.quote_id < self.drained.size:
                self.drained[response.quote_id] = now

    def mark(self) -> None:
        self.window_start = self.clock()

    def p50_ms(self) -> float:
        """Median wait of the window's quotes (``0.0`` with too few)."""
        both = (self.submitted >= self.window_start) & (self.drained > 0)
        waits = self.drained[both] - self.submitted[both]
        return percentile_us(waits, 50) / 1e3


def install_service(tracer: Optional[Tracer], service) -> Optional[QueueWaits]:
    """Wrap a ``QuoteService``'s public methods and its registry's
    ``session``; returns the queue-wait recorder fed by the wrappers."""
    if tracer is None:
        return None
    waits = QueueWaits(clock=tracer.clock)

    def submitted(args, quote_id):
        waits.on_submit((quote_id,))
        return quote_id

    def submitted_many(args, quote_ids):
        waits.on_submit(quote_ids)
        return quote_ids[0] if quote_ids else -1

    def drained(args, responses):
        waits.on_drain(responses)
        return -1

    after = {
        "submit": submitted,
        "submit_many": submitted_many,
        "poll": drained,
        "feedback_batch": None,
        "feedback_many": None,
        "quote": lambda args, response: response.quote_id,
        "feedback": lambda args, result: args[0].quote_id,
    }
    for method, hook in after.items():
        tracer.wrap_attr(service, method, "service." + method, hook)
    tracer.wrap_attr(service.registry, "session", "store.session")
    return waits


class CoreTally:
    """Outcome counts of the traced ``propose``/``update`` calls."""

    def __init__(self) -> None:
        self.mark()

    def mark(self) -> None:
        self.proposals = 0
        self.exploratory = 0
        self.skipped = 0
        self.cuts = 0

    def metrics(self) -> Dict[str, float]:
        proposals = max(self.proposals, 1)
        return {
            "core.cuts": 1000.0 * self.cuts / proposals,
            "core.exploratory_share": self.exploratory / proposals,
            "core.skip_share": self.skipped / proposals,
        }


def install_pricer(tracer: Optional[Tracer], pricer, tally: CoreTally) -> None:
    """Wrap one pricer's ``propose``/``update``, tallying their outcomes."""
    if tracer is None:
        return
    propose, update = pricer.propose, pricer.update
    propose_code, update_code = tracer.code("core.propose"), tracer.code("core.update")

    def traced_propose(features, reserve=None):
        index = tracer.open(propose_code)
        try:
            decision = propose(features, reserve=reserve)
        finally:
            tracer.close(index)
        tracer.tag(index, decision.round_index)
        tally.proposals += 1
        tally.exploratory += decision.exploratory
        tally.skipped += decision.skipped
        return decision

    def traced_update(decision, accepted):
        cuts_before = pricer.cuts_applied
        index = tracer.open(update_code)
        try:
            update(decision, accepted)
        finally:
            tracer.close(index)
        tracer.tag(index, decision.round_index)
        tally.cuts += pricer.cuts_applied - cuts_before

    pricer.propose = traced_propose
    pricer.update = traced_update
