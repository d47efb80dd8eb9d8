"""The socket front end and its through-the-wire equivalence contract.

The acceptance bar of the serving front end: a closed-loop replay **through
the socket** (length-prefixed JSON frames, an event-loop drain task, and —
with a sharded backend — a process boundary between the router and the
pricer) produces a transcript exactly equal, float for float, to the offline
engine.  JSON floats round-trip via shortest ``repr``, the backend drives the
identical propose/update protocol, so not a single bit may move.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "golden"))
import golden_specs

from repro.engine import prepare, simulate
from repro.engine.equivalence import assert_bit_exact, transcript_columns
from repro.exceptions import ServingError
from repro.serving import (
    MicroBatchConfig,
    PricerRegistry,
    QuoteService,
    QuoteSocketClient,
    SessionKey,
    ShardedRegistry,
    serve_closed_loop_socket,
    start_frontend_thread,
)

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


@pytest.mark.parametrize("family", sorted(golden_specs.GOLDEN_SPECS))
def test_closed_loop_through_socket_and_shard_matches_offline(tmp_path, family):
    """One shard behind the asyncio front end on a unix socket: the full
    golden tier must replay bit-identically through wire + process boundary."""
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
            with QuoteSocketClient(unix_path=handle.address) as client:
                online = serve_closed_loop_socket(client, key, materialized)
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
        with QuoteSocketClient(host=host, port=port) as client:
            window = materialized.slice(0, 128)
            online = serve_closed_loop_socket(client, key, window)
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

            # Protocol errors come back as error frames, not hangs.
            with pytest.raises(ServingError):
                client.feedback(key, 999_999, accepted=True)
            client._send({"op": "no-such-op"})
            with pytest.raises(ServingError):
                client._expect("pong")
            # Malformed field *values* (a null quote id) get an error frame
            # too — the connection must not be killed mid-protocol.
            client._send(
                {
                    "op": "feedback",
                    "app": key.app,
                    "segment": key.segment,
                    "quote_id": None,
                    "accepted": True,
                }
            )
            with pytest.raises(ServingError):
                client._expect("feedback_ok")
            # The connection is still usable afterwards.
            client.ping()
    finally:
        handle.stop()


def test_quote_for_unknown_fields_reports_error(tmp_path):
    family = "ellipsoid-reserve"
    model, theta, materialized, _offline_result = _offline(family)
    service = QuoteService(
        PricerRegistry(lambda _key: (model, golden_specs.build_pricer(family, theta))),
        config=_immediate_config(),
    )
    handle = start_frontend_thread(service, unix_path=str(tmp_path / "bad.sock"))
    try:
        with QuoteSocketClient(unix_path=handle.address) as client:
            client._send({"op": "quote", "app": "golden"})  # missing fields
            frame = client.read_frame()
            assert frame["op"] == "error"
            client.ping()  # connection survives a malformed quote
    finally:
        handle.stop()
