"""The pipelined async client: equivalence, multiplexing, correlation.

The acceptance bar of the one client core: a closed-loop replay through
:class:`AsyncQuoteClient` (binary v2 batch frames over a unix socket,
request tags correlating out-of-order responses, the event-loop drain task
in between) produces a transcript bit-identical in all nine columns to the
offline engine for every golden family.  Beside it: two concurrent
sessions share one pipelined connection; the requests of one event-loop
tick leave as one write of same-kind batch frames, in submission order;
replies resolve their own futures in any order, typed by their ``error``
code; a connection-level failure fails every pending future; and the
client's one configuration and its closed-use errors are pinned.  The
correlation tests drive the client over an in-memory stream pair, no
socket.
"""

import asyncio
import os
import sys
import tempfile

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "golden"))
import golden_specs

from repro.engine import prepare, simulate
from repro.engine.equivalence import assert_bit_exact, transcript_columns
from repro.engine.transcript import Transcript
from repro.exceptions import BackpressureError, ServingError
from repro.serving import (
    WIRE_V2,
    AsyncQuoteClient,
    FrameDecoder,
    MicroBatchConfig,
    PricerRegistry,
    QuoteService,
    QuoteResponse,
    QuoteSocketClient,
    SessionKey,
    frame_sold_at,
    serve_closed_loop_async,
    start_frontend_thread,
)
from repro.serving.client import settle_frame_into_transcript
from repro.serving.wire import (
    encode_feedback_ok_batch,
    encode_frame,
    encode_quote_result_batch,
)


def _offline(family):
    model, batch, theta = golden_specs.build_market(family)
    materialized = prepare(model, batch)
    result = simulate(
        model, golden_specs.build_pricer(family, theta), materialized=materialized
    )
    return model, theta, materialized, result


def _immediate_config():
    return MicroBatchConfig(max_batch=1, max_wait_seconds=0.0)


@pytest.mark.parametrize("family", sorted(golden_specs.GOLDEN_SPECS))
def test_closed_loop_through_async_client_matches_offline(tmp_path, family):
    """All 8 golden families replayed closed-loop through AsyncQuoteClient
    against an in-process service must be bit-identical to the offline
    engine in all nine columns (signed zeros and NaN placement included)."""
    model, theta, materialized, offline = _offline(family)
    key = SessionKey(app="golden", segment=family)
    service = QuoteService(
        PricerRegistry(lambda _key: (model, golden_specs.build_pricer(family, theta))),
        config=_immediate_config(),
    )
    handle = start_frontend_thread(
        service, unix_path=str(tmp_path / "async.sock"), drain_interval=0.0005
    )

    async def _replay():
        async with await AsyncQuoteClient.connect(unix_path=handle.address) as client:
            return await serve_closed_loop_async(client, key, materialized)

    try:
        online = asyncio.run(_replay())
    finally:
        handle.stop()
    assert_bit_exact(online.transcript, offline.transcript, family)


def test_async_client_concurrent_sessions_one_connection(tmp_path):
    """Two sessions driven by concurrent tasks multiplexed over one
    pipelined connection each replay a window bit-identically — per-session
    closed-loop order is what matters, not connection-global order."""
    family = "ellipsoid-reserve"
    model, theta, materialized, offline = _offline(family)
    window = materialized.slice(0, 96)
    service = QuoteService(
        PricerRegistry(lambda _key: (model, golden_specs.build_pricer(family, theta))),
        config=MicroBatchConfig(max_batch=4, max_wait_seconds=0.0005),
    )
    handle = start_frontend_thread(
        service, unix_path=str(tmp_path / "multi.sock"), drain_interval=0.0005
    )

    async def _replay():
        async with await AsyncQuoteClient.connect(unix_path=handle.address) as client:
            return await asyncio.gather(
                serve_closed_loop_async(
                    client, SessionKey("golden", "left"), window
                ),
                serve_closed_loop_async(
                    client, SessionKey("golden", "right"), window
                ),
            )

    try:
        left, right = asyncio.run(_replay())
    finally:
        handle.stop()
    prefix = {
        name: column[:96] for name, column in transcript_columns(offline.transcript).items()
    }
    for online in (left, right):
        assert_bit_exact(online.transcript, prefix, family)


def test_submits_of_one_tick_leave_as_one_batch_frame(tmp_path):
    """Twelve quotes submitted in one tick reach the server as one
    ``quote_batch`` frame and one backend submit; their twelve feedback
    events as one ``feedback_batch`` frame and one backend call.  Every
    future resolves exactly once."""
    family = "ellipsoid-reserve"
    model, theta, materialized, _ = _offline(family)
    service = QuoteService(
        PricerRegistry(lambda _key: (model, golden_specs.build_pricer(family, theta))),
        config=MicroBatchConfig(max_batch=8, max_wait_seconds=0.0005),
    )
    handle = start_frontend_thread(
        service, unix_path=str(tmp_path / "batch.sock"), drain_interval=0.0005
    )
    wire = handle.frontend.wire_stats
    key = SessionKey("golden", family)

    async def _run():
        async with await AsyncQuoteClient.connect(unix_path=handle.address) as client:
            results = await asyncio.gather(
                *[client.submit_quote(key, materialized.mapped_features[i]) for i in range(12)]
            )
            assert (wire.frames_in, wire.submit_batch.count, wire.submit_batch.total) == (
                1, 1, 12
            )
            acks = await asyncio.gather(
                *[
                    client.submit_feedback(key, result["quote_id"], bool(i % 2))
                    for i, result in enumerate(results)
                ]
            )
            assert (wire.frames_in, wire.feedback_batch.count, wire.feedback_batch.total) == (
                2, 1, 12
            )
            return results, acks

    try:
        results, acks = asyncio.run(_run())
    finally:
        handle.stop()
    assert [result["id"] for result in results] == list(range(1, 13))
    assert len({result["quote_id"] for result in results}) == 12
    assert all(result["op"] == "quote_result" for result in results)
    assert acks == [{"op": "feedback_ok", "id": tag} for tag in range(13, 25)]


# --------------------------------------------------------------------------- #
# Correlation over an in-memory connection
# --------------------------------------------------------------------------- #


class _RecordingWriter:
    """The client's half of an in-memory connection: keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


def _with_memory_connection(scenario, timeout=10.0):
    """Run ``scenario(client, reader, writer)``; the test feeds ``reader``.

    A future left unresolved fails the test after ``timeout`` seconds
    instead of hanging it.
    """

    async def _main():
        reader, writer = asyncio.StreamReader(), _RecordingWriter()
        client = AsyncQuoteClient(reader, writer)
        try:
            return await asyncio.wait_for(scenario(client, reader, writer), timeout)
        finally:
            await client.close()

    return asyncio.run(_main())


def _result(tag, quote_id, posted_price=1.5):
    return {
        "quote_id": quote_id, "app": "a", "segment": "b", "link_price": posted_price,
        "posted_price": posted_price, "exploratory": False, "skipped": False,
        "round_index": quote_id, "latency_seconds": 0.0, "id": tag,
    }


KEY = SessionKey("a", "b")


def test_one_tick_of_requests_is_one_write_of_same_kind_runs_in_order():
    """Requests wait for the end of the tick, then leave in one write:
    adjacent same-kind requests merge into one batch frame, and a feedback
    between two quotes stays between them."""

    async def scenario(client, reader, writer):
        futures = [
            client.submit_quote(KEY, [1.0, 2.0], reserve=0.5),
            client.submit_quote(KEY, [3.0, 4.0]),
            client.submit_feedback(KEY, 7, True),
            client.submit_quote(KEY, [5.0, 6.0]),
        ]
        assert writer.writes == []
        await asyncio.sleep(0)
        for future in futures:
            future.cancel()
        return writer.writes

    (written,) = _with_memory_connection(scenario)
    frames = FrameDecoder().feed(written)
    assert [(frame["op"], [item["id"] for item in frame["items"]]) for frame in frames] == [
        ("quote_batch", [1, 2]),
        ("feedback_batch", [3]),
        ("quote_batch", [4]),
    ]
    first, second = frames[0]["items"]
    assert list(first["features"]) == [1.0, 2.0] and first["reserve"] == 0.5
    assert list(second["features"]) == [3.0, 4.0] and second["reserve"] is None
    assert frames[1]["items"][0]["quote_id"] == 7 and frames[1]["items"][0]["accepted"]


def test_replies_resolve_their_own_futures_in_any_order():
    async def scenario(client, reader, writer):
        first = client.submit_quote(KEY, [1.0])
        second = client.submit_quote(KEY, [2.0])
        ack = client.submit_feedback(KEY, 10, False)
        await asyncio.sleep(0)
        reader.feed_data(
            encode_feedback_ok_batch([3])
            + encode_quote_result_batch([_result(2, quote_id=11), _result(1, quote_id=10)])
        )
        replies = await asyncio.gather(first, second, ack)
        assert client.outstanding == 0
        return replies

    first, second, ack = _with_memory_connection(scenario)
    assert (first["id"], first["quote_id"]) == (1, 10)
    assert (second["id"], second["quote_id"]) == (2, 11)
    assert ack == {"op": "feedback_ok", "id": 3}


def test_reply_for_an_unknown_answered_or_abandoned_tag_is_dropped():
    """A reply nobody awaits (a tag never issued, one already answered, or
    one whose caller gave up) resolves nothing else and leaves the
    connection serving."""

    async def scenario(client, reader, writer):
        first = client.submit_quote(KEY, [1.0])
        abandoned = client.submit_quote(KEY, [2.0])
        await asyncio.sleep(0)
        abandoned.cancel()
        reader.feed_data(
            encode_quote_result_batch(
                [_result(99, quote_id=5), _result(2, quote_id=6), _result(1, quote_id=7)]
            )
        )
        first = await first
        second = client.submit_quote(KEY, [3.0])
        await asyncio.sleep(0)
        reader.feed_data(
            encode_quote_result_batch([_result(1, quote_id=7), _result(3, quote_id=8)])
        )
        return first, await second

    first, second = _with_memory_connection(scenario)
    assert (first["id"], first["quote_id"]) == (1, 7)
    assert (second["id"], second["quote_id"]) == (3, 8)


@pytest.mark.parametrize(
    "frame, expected",
    [
        (
            {"op": "error", "code": "backpressure",
             "error": "quote rejected: waiter map full"},
            BackpressureError,
        ),
        ({"op": "error", "error": "drain failed", "lost_quote_ids": [3, 5]}, ServingError),
    ],
    ids=["backpressure", "drain-failure"],
)
def test_tagged_error_fails_only_its_request_with_a_typed_error(frame, expected):
    async def scenario(client, reader, writer):
        failing = client.submit_quote(KEY, [1.0])
        healthy = client.submit_quote(KEY, [2.0])
        await asyncio.sleep(0)
        reader.feed_data(
            encode_frame(dict(frame, id=1))
            + encode_quote_result_batch([_result(2, quote_id=0)])
        )
        return await asyncio.gather(failing, healthy, return_exceptions=True)

    failure, result = _with_memory_connection(scenario)
    assert type(failure) is expected
    assert str(failure) == frame["error"]
    assert failure.lost_quote_ids == frame.get("lost_quote_ids", [])
    assert result["id"] == 2


@pytest.mark.parametrize(
    "hang_up",
    [
        lambda reader: reader.feed_data(
            encode_frame({"op": "error", "code": "protocol", "error": "undecodable body"})
        ),
        lambda reader: reader.feed_eof(),
    ],
    ids=["untagged-error-frame", "eof"],
)
def test_connection_failure_fails_every_pending_future_and_later_submits(hang_up):
    """An untagged ``error`` frame (the server's frame-boundary protocol
    error, sent before it hangs up) and a bare EOF both fail every pending
    request; a later submit raises at once instead of hanging."""

    async def scenario(client, reader, writer):
        pending = [client.submit_quote(KEY, [1.0]), client.submit_feedback(KEY, 0, True)]
        await asyncio.sleep(0)
        hang_up(reader)
        outcomes = await asyncio.gather(*pending, return_exceptions=True)
        with pytest.raises(ServingError, match="connection is dead"):
            client.submit_quote(KEY, [1.0])
        return outcomes

    outcomes = _with_memory_connection(scenario)
    assert len(outcomes) == 2
    assert all(type(outcome) is ServingError for outcome in outcomes)
    assert len({str(outcome) for outcome in outcomes}) == 1


# --------------------------------------------------------------------------- #
# Settling a quote_result item
# --------------------------------------------------------------------------- #


def _response(result):
    return QuoteResponse(
        quote_id=0, key=KEY, link_price=result["posted_price"],
        posted_price=result["posted_price"], exploratory=False,
        skipped=result["skipped"], round_index=0, latency_seconds=0.0,
    )


@pytest.mark.parametrize(
    "result, market_value, sold",
    [
        ({"skipped": False, "posted_price": 1.0}, 1.0, True),
        ({"skipped": False, "posted_price": 1.0}, float(np.nextafter(1.0, 0.0)), False),
        ({"skipped": False, "posted_price": -0.0}, 0.0, True),
        ({"skipped": True, "posted_price": 0.5}, 1.0, False),
        ({"skipped": False, "posted_price": None}, 1.0, False),
    ],
    ids=["price-equals-value", "price-one-ulp-above", "signed-zero", "skipped", "unposted"],
)
def test_frame_sold_at_is_the_engine_sale_rule(result, market_value, sold):
    """A sale is ``posted_price <= market_value`` on a posted round, and
    the wire-dict rule agrees with :meth:`QuoteResponse.sold_at`."""
    assert frame_sold_at(result, market_value) is sold
    assert _response(result).sold_at(market_value) is sold


def test_settling_writes_prices_only_on_posted_rounds():
    _model, _theta, materialized, _ = _offline("ellipsoid-reserve")
    window = materialized.slice(0, 2)
    transcript = Transcript.for_materialized(window)
    skipped = dict(_result(1, quote_id=0), link_price=None, posted_price=None, skipped=True)
    posted = dict(_result(2, quote_id=1, posted_price=-0.0), exploratory=True)
    assert settle_frame_into_transcript(transcript, 0, skipped, 1.0) is False
    assert settle_frame_into_transcript(transcript, 1, posted, 1.0) is True
    assert np.isnan(transcript.link_prices[0]) and np.isnan(transcript.posted_prices[0])
    assert list(transcript.skipped) == [True, False]
    assert list(transcript.exploratory) == [False, True]
    assert list(transcript.sold) == [False, True]
    # Prices cross as raw doubles: a posted -0.0 keeps its sign bit.
    assert np.signbit(transcript.posted_prices[1]) and transcript.posted_prices[1] == 0.0


def test_connect_accepts_only_the_one_wire_path():
    """``wire`` and ``coalesce_writes`` remain only as fixed values: any
    other raises before a connection is opened."""
    for options in ({"wire": 1}, {"wire": 3}, {"coalesce_writes": False}):
        with pytest.raises(ValueError):
            asyncio.run(AsyncQuoteClient.connect(unix_path="/nonexistent.sock", **options))


def test_async_client_rejects_double_address_and_closed_use():
    with pytest.raises(ValueError):
        asyncio.run(AsyncQuoteClient.connect())
    with pytest.raises(ValueError):
        # host without a port must be the documented ValueError, not a
        # TypeError from int(None).
        asyncio.run(AsyncQuoteClient.connect(host="127.0.0.1"))
    with pytest.raises(ValueError):
        QuoteSocketClient(host="127.0.0.1")

    async def _closed_use(tmp_sock):
        client = await AsyncQuoteClient.connect(
            unix_path=tmp_sock, wire=WIRE_V2, coalesce_writes=True
        )
        await client.close()
        with pytest.raises(ServingError):
            client.submit_quote(SessionKey("a", "b"), [1.0])

    # A real socket is needed just to connect before closing.
    service = QuoteService(
        PricerRegistry(lambda _key: (None, None)), config=MicroBatchConfig(max_batch=1)
    )
    with tempfile.TemporaryDirectory() as tmp:
        handle = start_frontend_thread(service, unix_path=os.path.join(tmp, "x.sock"))
        try:
            asyncio.run(_closed_use(handle.address))
        finally:
            handle.stop()
