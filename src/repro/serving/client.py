"""The client of the quote-serving socket protocol: one core, two faces.

:class:`AsyncQuoteClient` keeps **multiple requests outstanding on one
connection**.  Every request carries a connection-unique ``id`` tag; a
background reader task correlates each incoming item back to the future
awaiting it, so responses may arrive in any order (the server answers
quotes when the micro-batch window drains, not in submission order) and
the connection is never idle between request and response.

Two usage levels:

* the ``await``-style operations (:meth:`~AsyncQuoteClient.quote`,
  :meth:`~AsyncQuoteClient.feedback`, ...) can be driven from many
  concurrent tasks sharing one connection;
* the ``submit_*`` primitives return the :class:`asyncio.Future` directly —
  the open-loop load driver (``scripts/bench_serving.py --net-target-qps``)
  fires thousands of these without awaiting, which is what makes offered
  rate independent of completion rate through the socket.

**One wire path.**  Requests are staged and flushed at the end of the
current event-loop tick: consecutive quotes leave as **one** binary v2
``quote_batch`` frame and consecutive feedback events as one
``feedback_batch`` frame (:mod:`repro.serving.wire`), so an open loop that
fires a burst of submits per tick pays one syscall and, server-side, one
executor hop for the whole burst.  Control ops (``flush``, ``stats``,
``ping``) are JSON frames on the same stage.  The flush never reorders:
only adjacent same-kind requests merge, so a closed loop (feedback before
the next quote) is preserved exactly.

Failure mapping: ``error`` frames with ``code: "backpressure"`` resolve the
future with :class:`~repro.exceptions.BackpressureError` (the quote was
rejected before submission — resubmitting is safe); other ``error`` frames
become :class:`~repro.exceptions.ServingError` with the drain accounting;
a connection-level failure (EOF, frame-boundary corruption) fails **every**
pending future, so no caller can hang on a dead connection.

:class:`QuoteSocketClient` is the blocking face of the same core: it runs
one :class:`AsyncQuoteClient` on a private event loop.
:func:`serve_closed_loop_async` is the closed-loop replay driver through
the socket; its transcript is bit-identical to the offline engine (pinned
for every golden family by ``tests/serving/test_frontend.py``,
``test_async_client.py`` and ``test_wire_v2.py``).
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.arrivals import MaterializedArrivals
from repro.engine.results import SimulationResult
from repro.engine.streaming import stream_rounds
from repro.engine.transcript import Transcript
from repro.exceptions import BackpressureError, ServingError
from repro.serving.requests import SessionKey
from repro.serving.wire import (
    WIRE_V2,
    Batch,
    FrameDecoder,
    encode_feedback_batch,
    encode_frame,
    encode_quote_batch,
)

#: Socket read size of the client reader task.
READ_CHUNK_BYTES = 256 * 1024


# --------------------------------------------------------------------------- #
# Reading reply items
# --------------------------------------------------------------------------- #


def frame_sold_at(result: dict, market_value: float) -> bool:
    """The engine's sale rule applied to a ``quote_result`` item.

    The dict twin of :meth:`~repro.serving.requests.QuoteResponse.sold_at` —
    one definition of the sale shared by every settle site that works on
    wire results (the socket closed-loop driver and the networked load
    drivers); the bit-identical equivalence contract depends on all of them
    agreeing.
    """
    posted_price = result.get("posted_price")
    if result.get("skipped") or posted_price is None:
        return False
    return posted_price <= market_value


def settle_frame_into_transcript(
    transcript: Transcript, index: int, result: dict, market_value: float
) -> bool:
    """Record one ``quote_result`` item as an engine-format transcript row.

    Decide the sale with :func:`frame_sold_at`, write the price columns only
    on a posted round, and always record the decision flags.  Returns the
    sale outcome to feed back.
    """
    sold = frame_sold_at(result, market_value)
    if not result["skipped"] and result["posted_price"] is not None:
        transcript.link_prices[index] = result["link_price"]
        transcript.posted_prices[index] = result["posted_price"]
        transcript.sold[index] = sold
    transcript.skipped[index] = result["skipped"]
    transcript.exploratory[index] = result["exploratory"]
    return sold


def error_from_frame(frame: dict) -> ServingError:
    """Rebuild the typed client-side exception of one ``error`` frame.

    Frames with ``code: "backpressure"`` become
    :class:`~repro.exceptions.BackpressureError` (the request was rejected
    before submission — retry is safe); everything else is a plain
    :class:`ServingError` carrying the drain accounting the frame names.
    """
    cls = BackpressureError if frame.get("code") == "backpressure" else ServingError
    return cls(
        str(frame.get("error")),
        lost_quote_ids=frame.get("lost_quote_ids") or [],
    )


# --------------------------------------------------------------------------- #
# The client core
# --------------------------------------------------------------------------- #


class AsyncQuoteClient:
    """Asyncio client with pipelining over one frontend connection.

    Construct via :meth:`connect`; use as an async context manager to
    guarantee the reader task and the socket are torn down.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_tag = 0
        self._closed = False
        self._failure: Optional[ServingError] = None
        #: Requests staged for the end-of-tick flush: ``(kind, payload)``.
        self._staged: List[Tuple[str, dict]] = []
        self._flush_scheduled = False
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: Optional[str] = None,
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
        wire: int = WIRE_V2,
        coalesce_writes: bool = True,
    ) -> "AsyncQuoteClient":
        """Open a TCP or unix-socket connection to a :class:`QuoteFrontend`.

        ``wire`` and ``coalesce_writes`` accept only ``WIRE_V2`` and
        ``True``, the one wire path; any other value raises
        :class:`ValueError`.
        """
        if wire != WIRE_V2:
            raise ValueError("wire must be %d, got %r" % (WIRE_V2, wire))
        if coalesce_writes is not True:
            raise ValueError("coalesce_writes must be True, got %r" % (coalesce_writes,))
        if (unix_path is None) == (host is None) or (
            unix_path is None and port is None
        ):
            raise ValueError("pass exactly one of host/port or unix_path")
        if unix_path is not None:
            reader, writer = await asyncio.open_unix_connection(unix_path)
        else:
            reader, writer = await asyncio.open_connection(host, int(port))
        return cls(reader, writer)

    @property
    def outstanding(self) -> int:
        """Requests sent and not yet answered on this connection."""
        return len(self._pending)

    # -- correlation ----------------------------------------------------- #

    async def _read_loop(self) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                try:
                    chunk = await self._reader.read(READ_CHUNK_BYTES)
                except OSError:
                    chunk = b""
                if not chunk:
                    self._fail_all(ServingError("server closed the connection"))
                    return
                for frame in decoder.feed(chunk):
                    if isinstance(frame, Batch):
                        for item in frame["items"]:
                            self._deliver(item)
                    elif isinstance(frame, dict):
                        self._deliver(frame)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — any reader failure kills the link
            self._fail_all(ServingError("connection failed: %s" % exc))

    def _deliver(self, frame: dict) -> None:
        tag = frame.get("id")
        future = self._pending.pop(tag, None) if tag is not None else None
        if future is None or future.done():
            if frame.get("op") == "error" and tag is None:
                # A frame-boundary protocol error: the server hangs up after
                # sending it, so nothing pending can ever be answered.
                self._fail_all(error_from_frame(frame))
            # Anything else without a live future (e.g. a response to a
            # caller that gave up) is dropped — ids are never reused, so it
            # cannot be mistaken for another request's answer.
            return
        if frame.get("op") == "error":
            future.set_exception(error_from_frame(frame))
        else:
            future.set_result(frame)

    def _fail_all(self, exc: ServingError) -> None:
        # Remember the terminal failure: a request submitted *after* the
        # connection died has no reader left to resolve its future, so
        # _submit must refuse it instead of letting the caller hang.
        if self._failure is None:
            self._failure = exc
        self._staged.clear()
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    # -- writes ----------------------------------------------------------- #

    def _submit(self, kind: str, payload: dict) -> "asyncio.Future":
        """Tag a request, stage it for the end-of-tick flush, return its future."""
        if self._closed:
            raise ServingError("client is closed")
        if self._failure is not None:
            raise ServingError("connection is dead: %s" % self._failure)
        self._next_tag += 1
        payload["id"] = self._next_tag
        future = asyncio.get_running_loop().create_future()
        self._pending[self._next_tag] = future
        self._staged.append((kind, payload))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_staged)
        return future

    def _flush_staged(self) -> None:
        """End-of-tick flush: each same-kind run of requests is one frame."""
        self._flush_scheduled = False
        staged, self._staged = self._staged, []
        if not staged or self._closed or self._failure is not None:
            return
        frames = []
        try:
            for kind, run in itertools.groupby(staged, key=lambda entry: entry[0]):
                payloads = [payload for _kind, payload in run]
                if kind == "quote":
                    frames.append(encode_quote_batch(payloads))
                elif kind == "feedback":
                    frames.append(encode_feedback_batch(payloads))
                else:
                    frames.extend(encode_frame(payload) for payload in payloads)
            self._writer.write(b"".join(frames))
        except Exception as exc:  # noqa: BLE001 — a dead writer fails the link
            self._fail_all(ServingError("write failed: %s" % exc))

    # -- pipelining primitives ------------------------------------------- #

    def submit_quote(
        self,
        key: SessionKey,
        features,
        reserve: Optional[float] = None,
    ) -> "asyncio.Future":
        """Fire one quote; the future resolves to its ``quote_result`` dict.

        Returns immediately — pipelining is simply calling this again before
        awaiting.  The future raises :class:`BackpressureError` on a
        frontend rejection and :class:`ServingError` on a drain failure.
        The request leaves at the end of the current event-loop tick,
        batched with its same-kind neighbours.
        """
        return self._submit(
            "quote",
            {
                "app": key.app,
                "segment": key.segment,
                "features": np.array(features, dtype=float),
                "reserve": None if reserve is None else float(reserve),
            },
        )

    def submit_feedback(
        self, key: SessionKey, quote_id: int, accepted: bool
    ) -> "asyncio.Future":
        """Fire one feedback event; the future resolves on ``feedback_ok``."""
        return self._submit(
            "feedback",
            {
                "app": key.app,
                "segment": key.segment,
                "quote_id": int(quote_id),
                "accepted": bool(accepted),
            },
        )

    @staticmethod
    async def _expect(future: "asyncio.Future", op: str) -> dict:
        frame = await future
        if frame.get("op") != op:
            raise ServingError("expected %r frame, got %r" % (op, frame.get("op")))
        return frame

    # -- awaited operations ---------------------------------------------- #

    async def quote(
        self, key: SessionKey, features, reserve: Optional[float] = None
    ) -> dict:
        """Request one quote and await its result."""
        return await self._expect(
            self.submit_quote(key, features, reserve=reserve), "quote_result"
        )

    async def feedback(self, key: SessionKey, quote_id: int, accepted: bool) -> None:
        await self._expect(self.submit_feedback(key, quote_id, accepted), "feedback_ok")

    async def flush(self) -> int:
        frame = await self._expect(self._submit("control", {"op": "flush"}), "flush_ok")
        return int(frame["drained"])

    async def stats(self) -> dict:
        return await self._expect(self._submit("control", {"op": "stats"}), "stats")

    async def ping(self) -> None:
        await self._expect(self._submit("control", {"op": "ping"}), "pong")

    async def drain(self) -> None:
        """Put staged requests on the wire and flow-control the buffer."""
        self._flush_staged()
        await self._writer.drain()

    # -- lifecycle -------------------------------------------------------- #

    async def close(self) -> None:
        """Tear down the reader task and the socket; fail anything pending."""
        if self._closed:
            return
        self._closed = True
        self._staged.clear()
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass
        self._fail_all(ServingError("client closed with requests outstanding"))
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def __aenter__(self) -> "AsyncQuoteClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class QuoteSocketClient:
    """Blocking client: one :class:`AsyncQuoteClient` on a private loop.

    Each call runs one operation to completion, so a client has one request
    outstanding at a time; open several clients for concurrent traffic (the
    server multiplexes connections).  ``timeout`` bounds every call.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        self._timeout = timeout
        self._loop = asyncio.new_event_loop()
        try:
            self._client = self._run(
                AsyncQuoteClient.connect(host=host, port=port, unix_path=unix_path)
            )
        except BaseException:
            self._loop.close()
            raise

    def _run(self, operation):
        return self._loop.run_until_complete(asyncio.wait_for(operation, self._timeout))

    def quote(self, key: SessionKey, features, reserve: Optional[float] = None) -> dict:
        """Request one quote and block until its result arrives."""
        return self._run(self._client.quote(key, features, reserve=reserve))

    def feedback(self, key: SessionKey, quote_id: int, accepted: bool) -> None:
        self._run(self._client.feedback(key, quote_id, accepted))

    def flush(self) -> int:
        return self._run(self._client.flush())

    def stats(self) -> dict:
        return self._run(self._client.stats())

    def ping(self) -> None:
        self._run(self._client.ping())

    def close(self) -> None:
        if not self._loop.is_closed():
            self._run(self._client.close())
            self._loop.close()

    def __enter__(self) -> "QuoteSocketClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


async def serve_closed_loop_async(
    client: AsyncQuoteClient,
    key: SessionKey,
    materialized: MaterializedArrivals,
    pricer_name: Optional[str] = None,
) -> SimulationResult:
    """Drive one session through a materialised market over the socket.

    The socket twin of :func:`repro.serving.loop.serve_closed_loop`: one
    quote per round, the sale settled against the realised market value
    with the engine's scalar comparison, feedback awaited before the next
    round.  v2 carries floats as raw IEEE doubles and the backend drives the
    same propose/update protocol, so the resulting transcript is
    bit-identical to the offline engine — through the socket *and* (with a
    sharded backend) through a process boundary.
    """
    transcript = Transcript.for_materialized(materialized)
    for round_ in stream_rounds(materialized):
        result = await client.quote(key, round_.features, reserve=round_.reserve)
        sold = settle_frame_into_transcript(
            transcript, round_.index, result, round_.market_value
        )
        await client.feedback(key, result["quote_id"], sold)
    transcript.finalize_regrets()
    return SimulationResult(
        pricer_name=pricer_name if pricer_name is not None else str(key),
        transcript=transcript,
    )
