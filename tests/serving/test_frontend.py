"""The socket front end and its through-the-wire equivalence contract.

The acceptance bar of the serving front end: a closed-loop replay **through
the socket** (binary v2 batch frames, an event-loop drain task, and — with
a sharded backend — a process boundary between the router and the pricer)
produces a transcript exactly equal, bit for bit in all nine columns, to
the offline engine.  v2 carries floats as raw IEEE doubles and the backend
drives the identical propose/update protocol, so not a single bit may move.
"""

import asyncio
import os
import socket
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "golden"))
import golden_specs

from repro.engine import prepare, simulate
from repro.engine.equivalence import assert_bit_exact, transcript_columns
from repro.exceptions import ServingError
from repro.serving import (
    AsyncQuoteClient,
    FrameDecoder,
    MicroBatchConfig,
    PricerRegistry,
    QuoteService,
    QuoteSocketClient,
    SessionKey,
    ShardedRegistry,
    serve_closed_loop_async,
    start_frontend_thread,
)
from repro.serving.wire import encode_frame


def _offline(family):
    model, batch, theta = golden_specs.build_market(family)
    materialized = prepare(model, batch)
    result = simulate(
        model, golden_specs.build_pricer(family, theta), materialized=materialized
    )
    return model, theta, materialized, result


def _immediate_config():
    # max_batch=1: every submit closes the window, so the drain task serves
    # the quote on its next wakeup — the closed-loop per-round protocol.
    return MicroBatchConfig(max_batch=1, max_wait_seconds=0.0)


def _replay(key, materialized, **address):
    async def _run():
        async with await AsyncQuoteClient.connect(**address) as client:
            return await serve_closed_loop_async(client, key, materialized)

    return asyncio.run(_run())


def _exchange(raw, decoder, payload):
    """Send one JSON frame on a raw socket; return the next frame back."""
    raw.sendall(encode_frame(payload))
    frames = []
    while not frames:
        chunk = raw.recv(65536)
        assert chunk, "server closed the connection"
        frames = decoder.feed(chunk)
    assert len(frames) == 1
    return frames[0]


@pytest.mark.parametrize("family", sorted(golden_specs.GOLDEN_SPECS))
def test_closed_loop_through_socket_and_shard_matches_offline(tmp_path, family):
    """One shard behind the asyncio front end on a unix socket: the full
    golden tier must replay bit-identically through the one client, the
    wire and a process boundary."""
    model, theta, materialized, offline = _offline(family)
    key = SessionKey(app="golden", segment=family)
    with ShardedRegistry(
        lambda _key: (model, golden_specs.build_pricer(family, theta)),
        num_shards=1,
        config=_immediate_config(),
    ) as backend:
        handle = start_frontend_thread(
            backend, unix_path=str(tmp_path / "quotes.sock"), drain_interval=0.0005
        )
        try:
            online = _replay(key, materialized, unix_path=handle.address)
        finally:
            handle.stop()
    assert_bit_exact(online.transcript, offline.transcript, family)


def test_closed_loop_through_tcp_socket_with_in_process_service():
    """The front end drives a plain in-process QuoteService over TCP the
    same way (no shard workers) — backend surfaces are interchangeable."""
    family = "ellipsoid-reserve"
    model, theta, materialized, offline = _offline(family)
    key = SessionKey(app="golden", segment=family)
    service = QuoteService(
        PricerRegistry(lambda _key: (model, golden_specs.build_pricer(family, theta))),
        config=_immediate_config(),
    )
    handle = start_frontend_thread(
        service, host="127.0.0.1", port=0, drain_interval=0.0005
    )
    try:
        host, port = handle.address[0], handle.address[1]
        online = _replay(key, materialized.slice(0, 128), host=host, port=port)
    finally:
        handle.stop()
    prefix = {
        name: column[:128] for name, column in transcript_columns(offline.transcript).items()
    }
    assert_bit_exact(online.transcript, prefix, family)
    assert service.stats.quotes_served == 128


def test_protocol_housekeeping_ops(tmp_path):
    family = "ellipsoid-reserve"
    model, theta, materialized, _offline_result = _offline(family)
    service = QuoteService(
        PricerRegistry(lambda _key: (model, golden_specs.build_pricer(family, theta))),
        config=_immediate_config(),
    )
    handle = start_frontend_thread(service, unix_path=str(tmp_path / "ops.sock"))
    try:
        with QuoteSocketClient(unix_path=handle.address) as client:
            client.ping()
            key = SessionKey("golden", family)
            result = client.quote(key, materialized.mapped_features[0], reserve=None)
            client.feedback(key, result["quote_id"], accepted=False)
            stats = client.stats()
            assert stats["quotes_served"] == 1
            assert stats["feedback_applied"] == 1
            assert stats["registry"]["created"] == 1
            # The session store's counters ride the same frame: one
            # resident ellipsoid session holds its state in its live pricer
            # (non-zero resident bytes), no snapshot dir means no segments,
            # and the hydration split is source-exact.
            registry_stats = stats["registry"]
            assert registry_stats["resident_bytes"] > 0
            assert registry_stats["segments"] == 0
            assert registry_stats["segment_bytes"] == 0
            assert registry_stats["clock_rotations"] == 0
            assert registry_stats["clock_hand_steps"] == 0
            assert registry_stats["zero_copy_hydrations"] == 0
            assert registry_stats["legacy_hydrations"] == 0
            assert (
                registry_stats["zero_copy_hydrations"]
                + registry_stats["legacy_hydrations"]
                == registry_stats["hydrations"]
            )
            assert client.flush() == 0  # nothing queued

            # A feedback for an unknown quote comes back as an error.
            with pytest.raises(ServingError):
                client.feedback(key, 999_999, accepted=True)
            # The connection is still usable afterwards.
            client.ping()
    finally:
        handle.stop()


def test_malformed_v2_quotes_fail_alone_through_the_client(tmp_path):
    """A v2 quote the session cannot price (wrong-length, empty or
    non-finite features) fails as its own drain error, naming its lost
    quote id; the connection and the session keep serving."""
    family = "ellipsoid-reserve"
    model, theta, materialized, _offline_result = _offline(family)
    service = QuoteService(
        PricerRegistry(lambda _key: (model, golden_specs.build_pricer(family, theta))),
        config=_immediate_config(),
    )
    handle = start_frontend_thread(service, unix_path=str(tmp_path / "bad.sock"))
    dimension = materialized.mapped_features.shape[1]
    key = SessionKey("golden", family)
    try:
        with QuoteSocketClient(unix_path=handle.address) as client:
            for lost_id, features in enumerate(
                ([1.0, 2.0], [], [float("nan")] * dimension)
            ):
                with pytest.raises(ServingError) as excinfo:
                    client.quote(key, features)
                assert excinfo.value.lost_quote_ids == [lost_id]
                client.ping()
            result = client.quote(key, materialized.mapped_features[0])
            assert result["op"] == "quote_result"
            client.feedback(key, result["quote_id"], accepted=False)
        assert service.stats.quotes_served == 1
        assert service.stats.feedback_applied == 1
    finally:
        handle.stop()


def test_json_quote_and_feedback_frames_get_error_frames(tmp_path):
    """The data plane is v2 only: a JSON ``quote`` or ``feedback`` frame
    (well-formed or not) is an unknown op, answered with an ``error`` frame,
    and the connection stays usable.  Nothing is served for it."""
    family = "ellipsoid-reserve"
    model, theta, materialized, _offline_result = _offline(family)
    service = QuoteService(
        PricerRegistry(lambda _key: (model, golden_specs.build_pricer(family, theta))),
        config=_immediate_config(),
    )
    handle = start_frontend_thread(service, unix_path=str(tmp_path / "json.sock"))
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(10)
    raw.connect(handle.address)
    decoder = FrameDecoder()
    try:
        quote = {
            "op": "quote",
            "app": "golden",
            "segment": family,
            "features": [float(value) for value in materialized.mapped_features[0]],
            "reserve": None,
            "id": 1,
        }
        feedback = {
            "op": "feedback", "app": "golden", "segment": family,
            "quote_id": 0, "accepted": True, "id": 2,
        }
        for payload in (
            quote,
            {"op": "quote", "app": "golden", "id": 3},  # missing fields
            feedback,
            {"op": "feedback", "app": "golden", "quote_id": None, "id": 4},
            {"op": "hello", "wire": 2, "id": 5},  # no negotiation any more
            {"op": "quote_batch", "items": [quote], "id": 6},  # JSON is not v2
            {"op": "no-such-op", "id": 7},
        ):
            frame = _exchange(raw, decoder, payload)
            assert frame["op"] == "error", (payload, frame)
            assert frame["id"] == payload["id"]
            assert "unknown op" in frame["error"]
            assert _exchange(raw, decoder, {"op": "ping", "id": 0})["op"] == "pong"
        assert service.stats.quotes_served == 0
        assert service.stats.feedback_applied == 0
    finally:
        raw.close()
        handle.stop()
