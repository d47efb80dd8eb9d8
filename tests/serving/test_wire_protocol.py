"""Property-based tests of the length-prefixed framing and the live wire.

Two layers:

* **sans-IO** (hypothesis over :class:`FrameDecoder` / ``encode_frame``):
  arbitrary JSON control payloads round-trip exactly through encode →
  decode, at *any* chunk boundaries; truncated frames stay buffered without
  output or error; oversized length headers and undecodable bodies raise
  :class:`ServingError` instead of yielding garbage.
* **live socket**: any doubles in a v2 quote's features and reserve (NaN,
  infinities, empty or wrong-length feature vectors) produce a
  ``quote_result`` with finite prices, whose feedback settles, or an
  ``error`` frame — never a hung connection; a
  truncated frame followed by a hang-up leaves the server serving other
  clients; an oversized frame length and an untagged v2 item are each
  answered with a ``protocol`` error frame and a hang-up; and interleaved
  pipelined responses correlate back to their requests exactly once each.

Profiles: CI runs with ``HYPOTHESIS_PROFILE=ci`` (few examples, no
deadline) so the property sweep cannot flake a shared runner on timing.
"""

import os
import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.pricing import make_pricer
from repro.exceptions import ServingError
from repro.serving import (
    FrameDecoder,
    MicroBatchConfig,
    PricerRegistry,
    QuoteService,
    QuoteSocketClient,
    SessionKey,
    start_frontend_thread,
)
from repro.serving.wire import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    V2_HEADER,
    encode_feedback_batch,
    encode_frame,
    encode_quote_batch,
)
from repro.core.models import LinearModel

settings.register_profile("ci", max_examples=25, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("dev", max_examples=100, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=32),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=16,
)
payloads = st.dictionaries(st.text(min_size=1, max_size=12), json_values, max_size=6)


# --------------------------------------------------------------------------- #
# Sans-IO: FrameDecoder round trips
# --------------------------------------------------------------------------- #


@given(payload=payloads)
def test_encode_decode_roundtrip_exact(payload):
    """One frame through encode → decode is the identical payload (JSON
    floats round-trip via shortest repr — this exactness is load-bearing
    for the transcript-equivalence contract)."""
    frames = FrameDecoder().feed(encode_frame(payload))
    assert frames == [payload]


@given(items=st.lists(payloads, min_size=1, max_size=5), data=st.data())
def test_split_points_never_change_the_frames(items, data):
    """A frame stream fed at arbitrary chunk boundaries — mid-header,
    mid-body, many frames at once — decodes to exactly the same sequence."""
    stream = b"".join(encode_frame(item) for item in items)
    decoder = FrameDecoder()
    decoded = []
    position = 0
    while position < len(stream):
        size = data.draw(
            st.integers(min_value=1, max_value=len(stream) - position), label="chunk"
        )
        decoded.extend(decoder.feed(stream[position : position + size]))
        position += size
    assert decoded == items
    assert decoder.buffered == 0


@given(payload=payloads, data=st.data())
def test_truncated_frame_stays_buffered_then_completes(payload, data):
    """A partial frame yields nothing (and raises nothing); feeding the
    remainder completes it exactly — the decoder can never lose sync on a
    slow or bursty peer."""
    frame = encode_frame(payload)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1), label="cut")
    decoder = FrameDecoder()
    assert decoder.feed(frame[:cut]) == []
    assert decoder.buffered == cut
    assert decoder.feed(frame[cut:]) == [payload]
    assert decoder.buffered == 0


@given(length=st.integers(min_value=MAX_FRAME_BYTES + 1, max_value=2**32 - 1))
def test_oversized_length_header_raises(length):
    decoder = FrameDecoder()
    with pytest.raises(ServingError):
        decoder.feed(FRAME_HEADER.pack(length))


@given(garbage=st.binary(min_size=1, max_size=64))
def test_non_json_body_raises_not_hangs(garbage):
    """Any body that is not valid UTF-8 JSON raises ServingError (framing
    is intact, content is not) — it must never be silently dropped."""
    decoder = FrameDecoder()
    frame = FRAME_HEADER.pack(len(garbage)) + garbage
    try:
        frames = decoder.feed(frame)
    except ServingError:
        return
    # Binary blobs that *happen* to be valid JSON (e.g. b"1") must decode.
    assert len(frames) == 1


def test_decoder_handles_empty_feeds_and_zero_length_frames():
    decoder = FrameDecoder()
    assert decoder.feed(b"") == []
    empty_object = encode_frame({})
    assert decoder.feed(empty_object) == [{}]
    # A zero-length body is undecodable JSON, not a hang.
    with pytest.raises(ServingError):
        decoder.feed(FRAME_HEADER.pack(0))


# --------------------------------------------------------------------------- #
# Live socket: malformed input must answer or hang up — never hang
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    """One frontend over a real 4-d ellipsoid pricer for the whole module."""
    theta = np.array([1.1, 0.7, 0.4, 0.9])

    def factory(_key):
        return LinearModel(theta), make_pricer(dimension=4, radius=4.0, epsilon=0.05)

    service = QuoteService(
        PricerRegistry(factory),
        config=MicroBatchConfig(max_batch=1, max_wait_seconds=0.0),
    )
    handle = start_frontend_thread(
        service,
        unix_path=str(tmp_path_factory.mktemp("wire") / "wire.sock"),
        drain_interval=0.0005,
    )
    yield handle
    handle.stop()


doubles = st.floats(allow_nan=True, allow_infinity=True, width=64)


def _connect(address):
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(30)
    raw.connect(address)
    return raw


def _next_frames(raw, decoder):
    frames = []
    while not frames:
        chunk = raw.recv(65536)
        assert chunk, "server closed the connection"
        frames = decoder.feed(chunk)
    return frames


def _answer(raw, decoder, tag):
    """The one reply to request ``tag``: a batch item or an error frame."""
    (frame,) = _next_frames(raw, decoder)
    item = frame["items"][0] if "items" in frame else frame
    assert item["id"] == tag
    return item


@given(features=st.lists(doubles, max_size=8), reserve=st.one_of(st.none(), doubles))
# x^T A x overflows on the radius-4 ball: the pricer prices this at -inf.
@example(features=[0.0, 0.0, 0.0, 2.0418628689554766e154], reserve=None)
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
def test_any_v2_quote_values_answer_or_error(live_server, features, reserve):
    """Whatever doubles land in a v2 quote — NaN, infinities, an empty or
    wrong-length feature vector (the pricer is 4-d), any reserve — the
    server answers with a ``quote_result`` or an ``error`` frame; the
    connection never hangs and is immediately reusable.  A quote it serves
    carries finite prices and its feedback settles."""
    key = {"app": "wire", "segment": "fuzz"}
    raw = _connect(live_server.address)
    decoder = FrameDecoder()
    try:
        raw.sendall(encode_quote_batch(
            [dict(key, features=features, reserve=reserve, id=1)]
        ))
        answer = _answer(raw, decoder, 1)
        assert answer["op"] in ("quote_result", "error")
        if answer["op"] == "quote_result":
            for price in (answer["link_price"], answer["posted_price"]):
                assert price is None or np.isfinite(price)
            # Settle so the session never accumulates pending decisions.
            raw.sendall(encode_feedback_batch(
                [dict(key, quote_id=answer["quote_id"], accepted=False, id=2)]
            ))
            assert _answer(raw, decoder, 2)["op"] == "feedback_ok"
        raw.sendall(encode_frame({"op": "ping", "id": 3}))
        assert _answer(raw, decoder, 3)["op"] == "pong"
    finally:
        raw.close()


def test_untagged_v2_item_gets_protocol_error_then_eof(live_server):
    """Every data-plane item carries a tag: a quote batch whose item lacks
    one is a protocol error, answered like an undecodable body."""
    frame = bytearray(encode_quote_batch(
        [{"app": "w", "segment": "s", "features": [1.0] * 4, "reserve": None, "id": 1}]
    ))
    # The flags byte follows the headers, the one-key table and the key index.
    frame[FRAME_HEADER.size + V2_HEADER.size + 2 + 3 + 3 + 2] &= 0xFE
    raw = _connect(live_server.address)
    try:
        raw.sendall(bytes(frame))
        (error,) = _next_frames(raw, FrameDecoder())
        assert error["op"] == "error"
        assert error["code"] == "protocol"
        assert "tag" in error["error"]
        assert raw.recv(65536) == b""
    finally:
        raw.close()


def test_truncated_frame_then_close_does_not_hang_the_server(live_server):
    """A peer that dies mid-frame must not wedge its handler or the
    frontend: another client connects and quotes immediately after."""
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(live_server.address)
    frame = encode_frame({"op": "ping"})
    raw.sendall(frame[: len(frame) - 3])  # header + partial body
    raw.close()
    deadline = time.monotonic() + 10
    opened = live_server.frontend.stats.connections_opened
    while time.monotonic() < deadline:
        if live_server.frontend.stats.connections_closed >= opened:
            break
        time.sleep(0.01)
    with QuoteSocketClient(unix_path=live_server.address) as healthy:
        healthy.ping()


def test_oversized_frame_length_gets_error_frame_then_eof(live_server):
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(10)
    raw.connect(live_server.address)
    try:
        raw.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        decoder = FrameDecoder()
        frames = []
        while not frames:
            chunk = raw.recv(65536)
            assert chunk, "server closed without an error frame"
            frames.extend(decoder.feed(chunk))
        assert frames[0]["op"] == "error"
        assert frames[0].get("code") == "protocol"
        # The server hangs up after a frame-boundary violation.
        assert raw.recv(65536) == b""
    finally:
        raw.close()


def test_interleaved_pipelined_responses_correlate_exactly_once(live_server):
    """Many interleaved quote/feedback requests on one connection: every
    tag is answered exactly once, no response is lost or duplicated."""
    import asyncio

    from repro.serving import AsyncQuoteClient

    async def _run():
        key = SessionKey("wire", "interleave")
        async with await AsyncQuoteClient.connect(
            unix_path=live_server.address
        ) as client:
            quote_futures = [
                client.submit_quote(key, [0.1 * (i + 1), 0.2, 0.3, 0.4])
                for i in range(20)
            ]
            results = await asyncio.gather(*quote_futures)
            feedback_futures = [
                client.submit_feedback(key, result["quote_id"], accepted=bool(i % 2))
                for i, result in enumerate(results)
            ]
            acks = await asyncio.gather(*feedback_futures)
            return results, acks

    results, acks = asyncio.run(_run())
    assert len({r["quote_id"] for r in results}) == 20
    assert all(a["op"] == "feedback_ok" for a in acks)
