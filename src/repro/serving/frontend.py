"""Asyncio socket front end for the quote-serving subsystem.

:class:`QuoteFrontend` exposes a :class:`~repro.serving.service.QuoteService`
(or a :class:`~repro.serving.sharding.ShardedRegistry`) over TCP or a unix
domain socket.  The framing and the codecs live in
:mod:`repro.serving.wire`: quotes, results, feedback and acknowledgements
cross the socket only as binary v2 batches of tagged items, in both
directions, and JSON frames carry only control.  v2 moves prices and
features as raw IEEE doubles, which is what lets a closed-loop replay
*through the socket* stay bit-identical to the offline engine (pinned by
``tests/serving/test_frontend.py`` for every golden family).
:class:`~repro.serving.client.AsyncQuoteClient` is the one client.

Client → server operations:

====================  ======================================================
``quote_batch``       v2: ``quote`` items ``{app, segment, features,
                      reserve, id}``; each is answered when the micro-batch
                      window drains, by a ``quote_result`` item with the
                      same ``id`` in a v2 ``quote_result_batch``.
``feedback_batch``    v2: ``feedback`` items ``{app, segment, quote_id,
                      accepted, id}``, each answered by a ``feedback_ok``
                      item in a v2 ``feedback_ok_batch``.
``flush``             JSON: force a drain → ``{op: flush_ok, drained: n}``.
``stats``             JSON: service/registry counters → ``{op: stats, ...}``.
``ping``              JSON: liveness → ``{op: pong}``.
====================  ======================================================

Failures arrive as JSON ``{op: error, error: msg, id?, lost_quote_ids:
[..]}``; a drain failure notifies every connection whose quote was lost or
requeued.  Any other JSON op, a JSON ``quote`` or ``feedback`` included,
gets an unknown-op ``error`` frame.  A body that does not decode (an
untagged v2 item among the causes) gets an ``error`` frame with ``code:
"protocol"`` and the server hangs up: the stream is no longer at a frame
boundary it can trust.

**Per-tick frame dispatch.**  The connection handler reads socket chunks
into a sans-IO :class:`~repro.serving.wire.FrameDecoder`; every chunk yields
the *list* of frames that arrived in that event-loop tick.  Consecutive
quote items of a tick (across batch frames) are coalesced into **one**
backend ``submit_many`` call — one lock acquisition and one executor hop
for the whole run — and consecutive feedback items into one
``feedback_many`` call with per-event outcomes.  Coalescing never reorders
a connection's operations: only *adjacent* items of the same kind merge, so
the closed-loop protocol (feedback before the next quote) is preserved
exactly.  Responses are batched symmetrically: each drain writes one
connection's results as a single ``quote_result_batch`` frame, so a window
of quotes crosses the wire as one frame in each direction.

All backend access is serialised behind one lock and pushed off the event
loop via a dedicated single-worker executor owned by the frontend (no
per-call thread churn; the submit serialisation point is explicit), so a
slow pricer (or a shard pipe round-trip) never stalls frame parsing.

**Backpressure.**  A frontend degrades gracefully instead of leaking memory
when clients outrun the backend or stop reading:

* the waiter map (quote id → issuing connection) is bounded by
  ``max_waiters``; a quote that would exceed it is rejected with an
  ``error`` frame carrying ``code: "backpressure"`` (clients raise
  :class:`~repro.exceptions.BackpressureError`) and is **not** submitted;
* each connection has an outstanding-request budget
  (``max_outstanding_per_connection``), rejected the same way, so one
  pipelined client cannot monopolise the waiter map;
* response writes never await a slow reader: when a connection's transport
  write buffer exceeds ``max_write_buffer_bytes`` the connection is aborted
  and its waiters dropped (a stalled client costs one bounded buffer, not
  the drain task);
* a connection that disconnects mid-flight has its waiters removed — the
  backend still serves the quotes, the responses are simply discarded.

The admission checks run under the same lock as the submit — including the
quotes admitted earlier in the *same* coalesced batch — so the bounds are
exact, and the counters (`frontend_stats`, also in the ``stats`` frame)
make them assertable: ``peak_waiters`` can never exceed ``max_waiters``.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import ServingError
from repro.serving.requests import FeedbackEvent, QuoteRequest, QuoteResponse, SessionKey
from repro.serving.wire import (
    Batch,
    FrameDecoder,
    encode_feedback_ok_batch,
    encode_frame,
    encode_quote_result_batch,
)

#: Socket read size of the per-connection tick loop.
READ_CHUNK_BYTES = 256 * 1024


# --------------------------------------------------------------------------- #
# Payload codecs
# --------------------------------------------------------------------------- #


def request_from_item(item: dict) -> QuoteRequest:
    """A decoded ``quote`` item as a :class:`QuoteRequest`."""
    return QuoteRequest(
        key=SessionKey(app=item["app"], segment=item["segment"]),
        features=item["features"],
        reserve=item["reserve"],
    )


def response_to_payload(response: QuoteResponse) -> dict:
    """Encode a :class:`QuoteResponse` as a ``quote_result`` item."""
    return {
        "op": "quote_result",
        "quote_id": response.quote_id,
        "app": response.key.app,
        "segment": response.key.segment,
        "link_price": response.link_price,
        "posted_price": response.posted_price,
        "exploratory": bool(response.exploratory),
        "skipped": bool(response.skipped),
        "round_index": int(response.round_index),
        "latency_seconds": response.latency_seconds,
    }


# --------------------------------------------------------------------------- #
# Server
# --------------------------------------------------------------------------- #


@dataclass(eq=False)  # identity semantics: connections live in sets
class _Connection:
    """Server-side state of one client connection."""

    writer: asyncio.StreamWriter
    #: Quote ids submitted on this connection and not yet answered — the
    #: per-connection budget and the disconnect cleanup both read this.
    outstanding: Set[int] = field(default_factory=set)
    #: Set when the connection was aborted as a slow reader; suppresses
    #: further writes while the handler unwinds.
    aborted: bool = False


class BatchSizeHistogram:
    """Power-of-two histogram of batch sizes (1, 2, ≤4, ≤8, ...).

    Cheap enough for the hot path (one ``bit_length`` per record) while
    still answering the question the bench report needs: how large are the
    coalesced batches actually getting?
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0

    def record(self, size: int) -> None:
        bucket = 1 << max(0, int(size) - 1).bit_length()  # smallest pow2 >= size
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += int(size)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": round(self.mean, 3),
            "buckets": {
                "<=%d" % bucket: self._buckets[bucket]
                for bucket in sorted(self._buckets)
            },
        }


@dataclass
class WireStats:
    """Wire and dispatch counters of one :class:`QuoteFrontend`.

    Frames and bytes in each direction, and the dispatch histograms that
    attribute the throughput: how many frames arrive per event-loop tick,
    how many quotes coalesce into one executor hop, and how many responses
    batch into one write.
    """

    frames_in: int = 0
    bytes_in: int = 0
    frames_out: int = 0
    bytes_out: int = 0
    ticks: int = 0
    executor_hops: int = 0
    frames_per_tick: BatchSizeHistogram = field(default_factory=BatchSizeHistogram)
    submit_batch: BatchSizeHistogram = field(default_factory=BatchSizeHistogram)
    feedback_batch: BatchSizeHistogram = field(default_factory=BatchSizeHistogram)
    response_batch: BatchSizeHistogram = field(default_factory=BatchSizeHistogram)

    def as_dict(self) -> dict:
        return {
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "ticks": self.ticks,
            "executor_hops": self.executor_hops,
            "frames_per_tick": self.frames_per_tick.as_dict(),
            "submit_batch": self.submit_batch.as_dict(),
            "feedback_batch": self.feedback_batch.as_dict(),
            "response_batch": self.response_batch.as_dict(),
        }


@dataclass
class FrontendStats:
    """Backpressure and lifecycle counters of one :class:`QuoteFrontend`."""

    connections_opened: int = 0
    connections_closed: int = 0
    rejected_waiter_map: int = 0
    rejected_connection_budget: int = 0
    slow_reader_disconnects: int = 0
    peak_waiters: int = 0

    @property
    def rejected(self) -> int:
        """Total backpressure rejections (waiter map + connection budget)."""
        return self.rejected_waiter_map + self.rejected_connection_budget


class QuoteFrontend:
    """Socket server (v2 data plane, JSON control) over a serving backend.

    ``backend`` must provide the service surface this module drives:
    ``submit_many(requests) -> [quote_id]``, ``feedback_many(events) ->
    [outcome]``, ``poll() -> [QuoteResponse]`` and ``flush() ->
    [QuoteResponse]``.  :class:`QuoteService` and :class:`ShardedRegistry`
    both do.

    The three backpressure bounds (see the module docstring): ``max_waiters``
    caps the waiter map across all connections,
    ``max_outstanding_per_connection`` budgets one connection's pipelined
    quotes, and ``max_write_buffer_bytes`` caps the bytes buffered for a
    reader that stopped consuming responses (beyond it the connection is
    aborted and its waiters dropped).
    """

    def __init__(
        self,
        backend,
        drain_interval: float = 0.001,
        max_waiters: int = 16384,
        max_outstanding_per_connection: int = 1024,
        max_write_buffer_bytes: int = 8 * 1024 * 1024,
    ) -> None:
        if drain_interval <= 0:
            raise ValueError("drain_interval must be positive, got %g" % drain_interval)
        if max_waiters < 1:
            raise ValueError("max_waiters must be at least 1, got %d" % max_waiters)
        if max_outstanding_per_connection < 1:
            raise ValueError(
                "max_outstanding_per_connection must be at least 1, got %d"
                % max_outstanding_per_connection
            )
        if max_write_buffer_bytes < 1:
            raise ValueError(
                "max_write_buffer_bytes must be positive, got %d" % max_write_buffer_bytes
            )
        self.backend = backend
        self.drain_interval = drain_interval
        self.max_waiters = max_waiters
        self.max_outstanding_per_connection = max_outstanding_per_connection
        self.max_write_buffer_bytes = max_write_buffer_bytes
        self.stats = FrontendStats()
        self.wire_stats = WireStats()
        self._lock = asyncio.Lock()
        self._kick = asyncio.Event()
        self._waiters: Dict[int, Tuple[_Connection, Any]] = {}
        self._connections: Set[_Connection] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._drain_task: Optional[asyncio.Task] = None
        #: Dedicated single worker for all backend calls: no thread churn,
        #: and the backend serialisation point is explicit (the lock orders
        #: the calls; the worker runs them).  Created in start(), shut down
        #: in stop().
        self._executor: Optional[ThreadPoolExecutor] = None
        self._running = False

    @property
    def waiter_count(self) -> int:
        """Quotes currently awaiting a response across all connections."""
        return len(self._waiters)

    # -- lifecycle ------------------------------------------------------ #

    async def start(
        self,
        host: Optional[str] = None,
        port: int = 0,
        unix_path: Optional[str] = None,
    ) -> None:
        """Bind and start serving on TCP ``host:port`` or ``unix_path``."""
        if self._server is not None:
            raise ServingError("frontend already started")
        if (unix_path is None) == (host is None):
            raise ValueError("pass exactly one of host/port or unix_path")
        self._running = True
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="quote-frontend-backend"
        )
        if unix_path is not None:
            self._server = await asyncio.start_unix_server(self._handle, path=unix_path)
        else:
            self._server = await asyncio.start_server(self._handle, host=host, port=port)
        self._drain_task = asyncio.get_running_loop().create_task(self._drain_loop())

    @property
    def addresses(self) -> List:
        """Bound socket addresses (``(host, port)`` tuples or unix paths)."""
        if self._server is None:
            return []
        return [sock.getsockname() for sock in self._server.sockets]

    async def stop(self) -> None:
        """Stop accepting, cancel the drain task, hang up every connection.

        Clean even with quotes in flight: live connections are closed (their
        clients observe EOF and fail their pending futures), the waiter map
        is cleared, the drain task is cancelled mid-await if necessary, and
        the backend executor is shut down (in-flight call completes).
        """
        self._running = False
        if self._drain_task is not None:
            self._kick.set()
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
            self._drain_task = None
        # Hang up before waiting on the server: connection handlers blocked
        # on a socket read observe EOF and exit, so wait_closed cannot hang
        # on a client that never disconnects.
        for connection in list(self._connections):
            try:
                connection.writer.close()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._waiters.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- backend access (serialised, off-loop) -------------------------- #

    def _run_in_executor(self, loop, function, *args):
        executor = self._executor
        if executor is None:
            raise ServingError("frontend is not running")
        self.wire_stats.executor_hops += 1
        try:
            return loop.run_in_executor(executor, function, *args)
        except RuntimeError:
            # A dispatch racing stop(): the pool rejected the job.
            raise ServingError("frontend is stopping")

    async def _backend_call(self, method: str, *args):
        loop = asyncio.get_running_loop()
        function = getattr(self.backend, method)
        async with self._lock:
            return await self._run_in_executor(loop, function, *args)

    # -- the drain task -------------------------------------------------- #

    async def _drain_loop(self) -> None:
        """Poll the backend whenever kicked, else every ``drain_interval``.

        ``poll`` respects the backend's micro-batch window, so calling it on
        every kick never over-drains; the interval tick catches windows that
        close by the time bound with no new traffic.
        """
        while self._running:
            try:
                await asyncio.wait_for(self._kick.wait(), timeout=self.drain_interval)
            except asyncio.TimeoutError:
                pass
            self._kick.clear()
            await self._drain_once("poll")

    async def _drain_once(self, method: str) -> int:
        try:
            responses = await self._backend_call(method)
        except ServingError as exc:
            self._notify_drain_failure(exc)
            return 0
        self._route(responses)
        return len(responses)

    def _route(self, responses) -> None:
        """Deliver one drain's responses, batched per connection.

        All of a connection's responses from this drain leave as **one**
        transport write: a single ``quote_result_batch`` frame.
        """
        by_connection: Dict[_Connection, List[dict]] = {}
        for response in responses:
            connection, client_id = self._waiters.pop(response.quote_id, (None, None))
            if connection is None:
                continue
            connection.outstanding.discard(response.quote_id)
            payload = response_to_payload(response)
            payload["id"] = client_id
            by_connection.setdefault(connection, []).append(payload)
        for connection, payloads in by_connection.items():
            self.wire_stats.response_batch.record(len(payloads))
            self._write_many(connection, payloads)

    def _notify_drain_failure(self, exc: ServingError) -> None:
        """Fan a drain failure out to the connections it affects.

        Lost quotes get an ``error`` frame (they will never be served);
        requeued quotes stay registered — their responses arrive on a later
        drain.  A response the error carries (synchronous-path hand-over)
        is routed normally.
        """
        if exc.response is not None:
            self._route([exc.response])
        for quote_id in exc.lost_quote_ids:
            connection, client_id = self._waiters.pop(quote_id, (None, None))
            if connection is None:
                continue
            connection.outstanding.discard(quote_id)
            self._write(
                connection,
                {
                    "op": "error",
                    "code": "drain",
                    "error": str(exc),
                    "quote_id": quote_id,
                    "lost_quote_ids": list(exc.lost_quote_ids),
                    "id": client_id,
                },
            )

    # -- writes (never await a slow reader) ------------------------------ #

    def _write_raw(self, connection: _Connection, data: bytes, frames: int) -> None:
        """Write one pre-encoded buffer without ever awaiting a slow reader.

        ``StreamWriter.drain()`` would block the drain task behind a client
        that stopped consuming; instead the write buffer is inspected after
        every write, and a connection holding more than
        ``max_write_buffer_bytes`` is aborted — its memory cost is bounded
        and the drain task never stalls.
        """
        writer = connection.writer
        if connection.aborted or writer.is_closing():
            return
        try:
            writer.write(data)
        except (ConnectionResetError, BrokenPipeError, OSError):
            return
        self.wire_stats.bytes_out += len(data)
        self.wire_stats.frames_out += frames
        if writer.transport.get_write_buffer_size() > self.max_write_buffer_bytes:
            self._abort_slow_reader(connection)

    def _write(self, connection: _Connection, payload: dict) -> None:
        """Write one JSON frame (control replies and errors)."""
        self._write_raw(connection, encode_frame(payload), 1)

    def _write_many(self, connection: _Connection, payloads: Sequence[dict]) -> None:
        """Write one tick's response payloads as a single transport buffer.

        Results collapse into one ``quote_result_batch`` frame and acks into
        one ``feedback_ok_batch`` frame; errors follow as JSON frames.  The
        client correlates by tag, so the regrouping is safe.
        """
        results = []
        ok_tags = []
        errors = []
        for payload in payloads:
            if payload["op"] == "quote_result":
                results.append(payload)
            elif payload["op"] == "feedback_ok":
                ok_tags.append(payload["id"])
            else:
                errors.append(payload)
        frames = []
        if results:
            frames.append(encode_quote_result_batch(results))
        if ok_tags:
            frames.append(encode_feedback_ok_batch(ok_tags))
        frames.extend(encode_frame(payload) for payload in errors)
        if frames:
            self._write_raw(connection, b"".join(frames), len(frames))

    def _abort_slow_reader(self, connection: _Connection) -> None:
        connection.aborted = True
        self.stats.slow_reader_disconnects += 1
        self._forget_connection_waiters(connection)
        try:
            connection.writer.transport.abort()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    def _forget_connection_waiters(self, connection: _Connection) -> None:
        """Drop every waiter registered by one connection (gone or aborted).

        The backend still serves the underlying quotes; their responses find
        no waiter and are discarded by :meth:`_route` — nothing leaks, and
        nothing is double-served.
        """
        for quote_id in connection.outstanding:
            self._waiters.pop(quote_id, None)
        connection.outstanding.clear()

    # -- per-connection protocol ---------------------------------------- #

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        connection = _Connection(writer=writer)
        self._connections.add(connection)
        self.stats.connections_opened += 1
        decoder = FrameDecoder(on_frame=self._count_frame_in)
        try:
            while True:
                try:
                    chunk = await reader.read(READ_CHUNK_BYTES)
                except OSError:
                    # A failed response write poisons the stream reader with
                    # the same BrokenPipeError — treat as EOF, not a crash.
                    break
                if not chunk or connection.aborted:
                    break
                try:
                    frames = decoder.feed(chunk)
                except ServingError as exc:
                    # Oversized header or undecodable body: the stream is no
                    # longer at a frame boundary — report and hang up.
                    self._write(
                        connection, {"op": "error", "code": "protocol", "error": str(exc)}
                    )
                    break
                if frames:
                    await self._dispatch_tick(frames, connection)
        finally:
            self._connections.discard(connection)
            self.stats.connections_closed += 1
            # Mid-flight disconnect: the client is gone, so nobody will ever
            # read its responses — unregister them or the waiter map grows
            # by every abandoned quote.
            self._forget_connection_waiters(connection)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _count_frame_in(self, nbytes: int) -> None:
        self.wire_stats.bytes_in += nbytes
        self.wire_stats.frames_in += 1

    async def _dispatch_tick(self, frames: List[dict], connection: _Connection) -> None:
        """Dispatch every frame parsed in one event-loop tick, coalesced.

        Batch frames are expanded to their items; consecutive runs of the
        same kind (``quote`` / ``feedback``) become one batched backend call
        each.  Adjacent-run coalescing preserves the connection's operation
        order exactly — a feedback between two quotes still applies between
        them.  Every other frame is a control op, dispatched on its own.
        """
        self.wire_stats.ticks += 1
        self.wire_stats.frames_per_tick.record(len(frames))
        ops: List[Tuple[str, dict]] = []
        for frame in frames:
            if isinstance(frame, Batch) and frame["op"] == "quote_batch":
                ops.extend(("quote", item) for item in frame["items"])
            elif isinstance(frame, Batch) and frame["op"] == "feedback_batch":
                ops.extend(("feedback", item) for item in frame["items"])
            elif isinstance(frame, dict):
                ops.append(("other", frame))
            else:
                # A valid-JSON body need not be an object; surface junk as
                # an unknown-op error instead of crashing the handler.
                ops.append(("other", {"op": frame}))
        index = 0
        while index < len(ops):
            kind = ops[index][0]
            end = index + 1
            if kind in ("quote", "feedback"):
                while end < len(ops) and ops[end][0] == kind:
                    end += 1
            group = [payload for _kind, payload in ops[index:end]]
            if kind == "quote":
                await self._dispatch_quotes(group, connection)
            elif kind == "feedback":
                await self._dispatch_feedbacks(group, connection)
            else:
                await self._dispatch(group[0], connection)
            index = end

    def _admit_quote(
        self, connection: _Connection, admitted_in_batch: int = 0
    ) -> Optional[str]:
        """The backpressure gate; a rejection reason, or ``None`` to admit.

        Called with the backend lock held (atomic with the submit and the
        waiter registration).  ``admitted_in_batch`` counts quotes admitted
        earlier in the same coalesced batch — they have not been registered
        yet, but they will be, so the bounds stay exact: the waiter map can
        never exceed ``max_waiters``, provably.
        """
        if len(self._waiters) + admitted_in_batch >= self.max_waiters:
            self.stats.rejected_waiter_map += 1
            return "waiter map full (%d quotes in flight, bound %d)" % (
                len(self._waiters) + admitted_in_batch,
                self.max_waiters,
            )
        if (
            len(connection.outstanding) + admitted_in_batch
            >= self.max_outstanding_per_connection
        ):
            self.stats.rejected_connection_budget += 1
            return "connection budget exhausted (%d outstanding, bound %d)" % (
                len(connection.outstanding) + admitted_in_batch,
                self.max_outstanding_per_connection,
            )
        return None

    async def _dispatch_quotes(
        self, items: Sequence[dict], connection: _Connection
    ) -> None:
        """Admit, submit, and register one coalesced run of quotes.

        One lock acquisition and one executor hop (``submit_many``) for the
        whole run.  Admission is checked per quote under the lock, counting
        the quotes admitted earlier in this batch, so the backpressure
        bounds hold exactly as they do for per-frame dispatch.
        """
        out: List[dict] = []
        admitted: List[Tuple[Any, QuoteRequest]] = []
        loop = asyncio.get_running_loop()
        # Registering the waiters must be atomic with the submit w.r.t.
        # the drain task's poll (both hold the backend lock), or a drain
        # racing in between could produce a response before anyone is
        # listening for it.
        async with self._lock:
            for item in items:
                rejection = self._admit_quote(connection, len(admitted))
                if rejection is not None:
                    out.append(
                        {
                            "op": "error",
                            "code": "backpressure",
                            "error": "quote rejected: %s" % rejection,
                            "id": item["id"],
                        }
                    )
                    continue
                admitted.append((item["id"], request_from_item(item)))
            if admitted:
                requests = [request for _tag, request in admitted]
                self.wire_stats.submit_batch.record(len(requests))
                try:
                    quote_ids = await self._run_in_executor(
                        loop, self.backend.submit_many, requests
                    )
                except (ServingError, TypeError, ValueError) as exc:
                    # A sharded backend reports partial failure with the
                    # per-position ids it *did* enqueue (None = never
                    # enqueued).  Those quotes will be served — register
                    # their waiters; answering them with errors here
                    # would orphan their responses and strand their
                    # decisions pending forever on healthy workers.
                    partial = getattr(exc, "submitted_quote_ids", None)
                    if partial is None or not self._running:
                        partial = [None] * len(admitted)
                    survivors = []
                    for (tag, request), quote_id in zip(admitted, partial):
                        if quote_id is None:
                            out.append(
                                {"op": "error", "error": str(exc), "id": tag}
                            )
                            continue
                        self._waiters[quote_id] = (connection, tag)
                        connection.outstanding.add(quote_id)
                        survivors.append((tag, request))
                    if survivors:
                        self.stats.peak_waiters = max(
                            self.stats.peak_waiters, len(self._waiters)
                        )
                    admitted = survivors
                else:
                    # A stop() racing this submit has already cleared
                    # the waiter map; registering now would leak the
                    # entries forever (nothing routes after shutdown).
                    if self._running:
                        for (tag, _request), quote_id in zip(admitted, quote_ids):
                            self._waiters[quote_id] = (connection, tag)
                            connection.outstanding.add(quote_id)
                        self.stats.peak_waiters = max(
                            self.stats.peak_waiters, len(self._waiters)
                        )
        self._write_many(connection, out)
        if admitted:
            self._kick.set()

    async def _dispatch_feedbacks(
        self, items: Sequence[dict], connection: _Connection
    ) -> None:
        """Apply one coalesced run of feedback events in one executor hop.

        ``feedback_many`` returns per-event outcomes, so each event is
        acknowledged (``feedback_ok``) or answered with its own ``error``
        frame — the same observable granularity as per-frame dispatch.
        """
        events = [
            FeedbackEvent(
                key=SessionKey(app=item["app"], segment=item["segment"]),
                quote_id=item["quote_id"],
                accepted=item["accepted"],
            )
            for item in items
        ]
        self.wire_stats.feedback_batch.record(len(events))
        try:
            outcomes = await self._backend_call("feedback_many", events)
        except ServingError as exc:
            outcomes = [exc] * len(events)
        out = []
        for item, outcome in zip(items, outcomes):
            if outcome is None:
                out.append({"op": "feedback_ok", "id": item["id"]})
            else:
                out.append({"op": "error", "error": str(outcome), "id": item["id"]})
        self._write_many(connection, out)

    async def _dispatch(self, message: dict, connection: _Connection) -> None:
        """Control operations (one JSON frame each; never coalesced)."""
        op = message.get("op")
        client_id = message.get("id")
        try:
            if op == "flush":
                drained = await self._drain_once("flush")
                self._write(
                    connection, {"op": "flush_ok", "drained": drained, "id": client_id}
                )
            elif op == "stats":
                payload = await self._collect_stats()
                payload.update({"op": "stats", "id": client_id})
                self._write(connection, payload)
            elif op == "ping":
                self._write(connection, {"op": "pong", "id": client_id})
            else:
                raise ServingError("unknown op %r" % (op,))
        except KeyError as exc:
            self._write(
                connection,
                {"op": "error", "error": "missing field %s" % exc, "id": client_id},
            )
        except (ServingError, TypeError, ValueError) as exc:
            # TypeError/ValueError cover malformed field values: answer with
            # an error frame instead of killing the connection mid-protocol.
            self._write(connection, {"op": "error", "error": str(exc), "id": client_id})

    def frontend_stats(self) -> dict:
        """The frontend's own gauges, counters, and configured bounds."""
        return {
            "waiters": len(self._waiters),
            "peak_waiters": self.stats.peak_waiters,
            "connections_open": len(self._connections),
            "connections_opened": self.stats.connections_opened,
            "connections_closed": self.stats.connections_closed,
            "rejected_waiter_map": self.stats.rejected_waiter_map,
            "rejected_connection_budget": self.stats.rejected_connection_budget,
            "rejected": self.stats.rejected,
            "slow_reader_disconnects": self.stats.slow_reader_disconnects,
            "wire": self.wire_stats.as_dict(),
            "limits": {
                "max_waiters": self.max_waiters,
                "max_outstanding_per_connection": self.max_outstanding_per_connection,
                "max_write_buffer_bytes": self.max_write_buffer_bytes,
            },
        }

    async def _collect_stats(self) -> dict:
        backend = self.backend
        if hasattr(backend, "stats") and callable(backend.stats):
            # ShardedRegistry: its aggregate block flows through verbatim
            # (minus the bulky per-shard detail) — including the
            # ``rebalance`` block (sessions moved, parked/replayed quote
            # counts, quiesce-time percentiles) and the ``routing`` block
            # (table version, hash divisor, live overrides), so stats-frame
            # consumers can watch an online migration progress without a
            # side channel.  Quotes submitted for a session mid-move are
            # parked by the backend and replayed on the target shard under
            # their already-issued ids, so the frontend's waiter map needs
            # no special casing — responses arrive under the ids it waited
            # on, and no quote is ever lost to a migration.
            stats = await self._backend_call("stats")
            stats.pop("per_shard", None)
            payload = dict(stats)
        else:
            # QuoteService: dataclass counters + its registry.
            payload = {
                "quotes_served": backend.stats.quotes_served,
                "drains": backend.stats.drains,
                "batched_proposals": backend.stats.batched_proposals,
                "feedback_applied": backend.stats.feedback_applied,
                "latency": backend.stats.latency_summary().as_dict(),
                "sessions_resident": backend.registry.resident_count,
                "registry": backend.registry.stats.as_dict(),
            }
        payload["frontend"] = self.frontend_stats()
        return payload


# --------------------------------------------------------------------------- #
# Background-thread harness (examples, tests, the bench)
# --------------------------------------------------------------------------- #


@dataclass
class FrontendHandle:
    """A running frontend on its own event-loop thread."""

    frontend: QuoteFrontend
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop
    address: Any

    def stop(self, timeout: float = 5.0) -> None:
        future = asyncio.run_coroutine_threadsafe(self.frontend.stop(), self.loop)
        future.result(timeout)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout)

    def __enter__(self) -> "FrontendHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_frontend_thread(
    backend,
    host: Optional[str] = None,
    port: int = 0,
    unix_path: Optional[str] = None,
    drain_interval: float = 0.001,
    startup_timeout: float = 10.0,
    **frontend_options,
) -> FrontendHandle:
    """Run a :class:`QuoteFrontend` on a daemon thread; returns its handle.

    The handle's ``address`` is the bound unix path, or the ``(host, port)``
    actually bound (so ``port=0`` works for tests).  Extra keyword arguments
    (``max_waiters``, ``max_outstanding_per_connection``,
    ``max_write_buffer_bytes``) are forwarded to :class:`QuoteFrontend`.
    """
    frontend = QuoteFrontend(backend, drain_interval=drain_interval, **frontend_options)
    started = threading.Event()
    failure: List[BaseException] = []
    loop_holder: List[asyncio.AbstractEventLoop] = []

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop_holder.append(loop)

        async def _start() -> None:
            await frontend.start(host=host, port=port, unix_path=unix_path)

        try:
            loop.run_until_complete(_start())
        except BaseException as exc:  # surface bind errors to the caller
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="quote-frontend", daemon=True)
    thread.start()
    if not started.wait(startup_timeout):
        raise ServingError("frontend failed to start within %gs" % startup_timeout)
    if failure:
        raise failure[0]
    address = unix_path if unix_path is not None else frontend.addresses[0]
    return FrontendHandle(
        frontend=frontend, thread=thread, loop=loop_holder[0], address=address
    )
