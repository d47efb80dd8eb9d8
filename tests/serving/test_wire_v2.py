"""Property-based and golden tests of the binary columnar wire format v2.

Two layers:

* **sans-IO codec** (hypothesis over the :mod:`repro.serving.wire` batch
  encoders): arbitrary batches of quotes / results / feedback events
  round-trip bit-exactly through encode → decode (floats travel as raw
  IEEE doubles, so equality is ``==``-on-bits, not approximate), at *any*
  chunk boundaries, interleaved freely with JSON control frames on the
  same decoder; truncated, corrupted and untagged v2 bodies raise
  :class:`ServingError` instead of yielding garbage.
* **golden replay**: all 8 golden families replayed closed-loop through
  the v2 socket path are bit-identical to the offline engine in all nine
  columns — through the blocking face of the client on a unix socket, and
  through the async core over TCP loopback against a time-window
  micro-batcher.  The unix-socket replay through the async core lives in
  ``test_async_client.py``, the one through a shard in ``test_frontend.py``.

Profiles: CI runs with ``HYPOTHESIS_PROFILE=ci`` (few examples, no
deadline) so the property sweep cannot flake a shared runner on timing.
"""

import asyncio
import os
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "golden"))
import golden_specs

from repro.engine import prepare, simulate
from repro.engine.equivalence import assert_bit_exact
from repro.engine.streaming import stream_rounds
from repro.engine.transcript import Transcript
from repro.exceptions import ServingError
from repro.serving import (
    WIRE_V2,
    AsyncQuoteClient,
    FrameDecoder,
    MicroBatchConfig,
    PricerRegistry,
    QuoteService,
    QuoteSocketClient,
    SessionKey,
    serve_closed_loop_async,
    start_frontend_thread,
)
from repro.serving.client import settle_frame_into_transcript
from repro.serving.wire import (
    FRAME_HEADER,
    V2_HEADER,
    Batch,
    V2_MAGIC,
    encode_feedback_batch,
    encode_feedback_ok_batch,
    encode_frame,
    encode_quote_batch,
    encode_quote_result_batch,
)

settings.register_profile("ci", max_examples=25, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("dev", max_examples=100, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

keys = st.text(min_size=1, max_size=16)
#: Finite and non-finite doubles alike — v2 carries raw IEEE bits, so NaN
#: and infinities must round-trip too (NaN compared via bit pattern).
doubles = st.floats(allow_nan=True, allow_infinity=True, width=64)
finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)
tags = st.integers(min_value=-(2**62), max_value=2**62)

quote_items = st.builds(
    lambda app, segment, features, reserve, tag: {
        "op": "quote",
        "app": app,
        "segment": segment,
        "features": features,
        "reserve": reserve,
        "id": tag,
    },
    app=keys,
    segment=keys,
    features=st.lists(doubles, min_size=0, max_size=8),
    reserve=st.one_of(st.none(), finite_doubles),
    tag=tags,
)

result_items = st.builds(
    lambda app, segment, quote_id, link, posted, exploratory, skipped, rnd, lat, tag: {
        "op": "quote_result",
        "quote_id": quote_id,
        "app": app,
        "segment": segment,
        "link_price": link,
        "posted_price": posted,
        "exploratory": exploratory,
        "skipped": skipped,
        "round_index": rnd,
        "latency_seconds": lat,
        "id": tag,
    },
    app=keys,
    segment=keys,
    quote_id=st.integers(min_value=0, max_value=2**62),
    link=st.one_of(st.none(), doubles),
    posted=st.one_of(st.none(), doubles),
    exploratory=st.booleans(),
    skipped=st.booleans(),
    rnd=st.integers(min_value=-1, max_value=2**40),
    lat=finite_doubles.map(abs),
    tag=tags,
)

feedback_items = st.builds(
    lambda app, segment, quote_id, accepted, tag: {
        "op": "feedback",
        "app": app,
        "segment": segment,
        "quote_id": quote_id,
        "accepted": accepted,
        "id": tag,
    },
    app=keys,
    segment=keys,
    quote_id=st.integers(min_value=0, max_value=2**62),
    accepted=st.booleans(),
    tag=tags,
)


def _bits(value):
    """A float as its IEEE bit pattern (NaN-safe exact comparison)."""
    if value is None:
        return None
    return struct.pack(">d", float(value))


def _assert_quote_roundtrip(sent, received):
    assert received["op"] == "quote"
    assert received["app"] == sent["app"]
    assert received["segment"] == sent["segment"]
    assert received["id"] == sent["id"]
    assert _bits(received["reserve"]) == _bits(sent["reserve"])
    decoded = np.asarray(received["features"], dtype=np.float64)
    original = np.asarray(sent["features"], dtype=np.float64)
    assert decoded.shape == original.shape
    assert decoded.tobytes() == original.tobytes()  # bit-exact, NaN included


# --------------------------------------------------------------------------- #
# Sans-IO: codec round trips
# --------------------------------------------------------------------------- #


@given(items=st.lists(quote_items, min_size=0, max_size=6))
def test_quote_batch_roundtrip_bit_exact(items):
    frames = FrameDecoder().feed(encode_quote_batch(items))
    assert len(frames) == 1
    assert frames[0]["op"] == "quote_batch"
    assert len(frames[0]["items"]) == len(items)
    for sent, received in zip(items, frames[0]["items"]):
        _assert_quote_roundtrip(sent, received)


@given(items=st.lists(result_items, min_size=0, max_size=6))
def test_quote_result_batch_roundtrip_bit_exact(items):
    frames = FrameDecoder().feed(encode_quote_result_batch(items))
    assert len(frames) == 1
    assert frames[0]["op"] == "quote_result_batch"
    for sent, received in zip(items, frames[0]["items"]):
        assert received["op"] == "quote_result"
        assert received["quote_id"] == sent["quote_id"]
        assert received["app"] == sent["app"]
        assert received["segment"] == sent["segment"]
        assert _bits(received["link_price"]) == _bits(sent["link_price"])
        assert _bits(received["posted_price"]) == _bits(sent["posted_price"])
        assert received["exploratory"] == sent["exploratory"]
        assert received["skipped"] == sent["skipped"]
        assert received["round_index"] == sent["round_index"]
        assert _bits(received["latency_seconds"]) == _bits(sent["latency_seconds"])
        assert received["id"] == sent["id"]


@given(items=st.lists(feedback_items, min_size=0, max_size=6))
def test_feedback_batch_roundtrip_exact(items):
    frames = FrameDecoder().feed(encode_feedback_batch(items))
    assert len(frames) == 1
    assert frames[0]["op"] == "feedback_batch"
    for sent, received in zip(items, frames[0]["items"]):
        assert received["op"] == "feedback"
        assert received["app"] == sent["app"]
        assert received["segment"] == sent["segment"]
        assert received["quote_id"] == sent["quote_id"]
        assert received["accepted"] == sent["accepted"]
        assert received["id"] == sent["id"]


@given(batch_tags=st.lists(st.integers(min_value=-(2**62), max_value=2**62),
                           min_size=0, max_size=16))
def test_feedback_ok_batch_roundtrip(batch_tags):
    frames = FrameDecoder().feed(encode_feedback_ok_batch(batch_tags))
    assert len(frames) == 1
    assert [item["id"] for item in frames[0]["items"]] == batch_tags


@given(
    quote_batches=st.lists(st.lists(quote_items, min_size=1, max_size=3),
                           min_size=1, max_size=3),
    json_payload=st.dictionaries(st.text(max_size=6), st.integers(), max_size=3),
    data=st.data(),
)
def test_mixed_json_and_v2_stream_at_arbitrary_chunk_boundaries(
    quote_batches, json_payload, data
):
    """JSON control frames and v2 batch frames interleaved on one stream
    decode in order at *any* split points — the NUL discriminator never
    misfires, and only the v2 bodies decode as :class:`Batch`."""
    stream = b""
    expected_ops = []
    for batch in quote_batches:
        stream += encode_quote_batch(batch)
        expected_ops.append(("quote_batch", len(batch)))
        stream += encode_frame(json_payload)
        expected_ops.append((None, None))
    decoder = FrameDecoder()
    decoded = []
    position = 0
    while position < len(stream):
        size = data.draw(
            st.integers(min_value=1, max_value=len(stream) - position), label="chunk"
        )
        decoded.extend(decoder.feed(stream[position : position + size]))
        position += size
    assert decoder.buffered == 0
    assert len(decoded) == len(expected_ops)
    for frame, (op, count) in zip(decoded, expected_ops):
        assert isinstance(frame, Batch) == (op is not None)
        if op is None:
            assert frame == json_payload
        else:
            assert frame["op"] == op
            assert len(frame["items"]) == count


@given(items=st.lists(quote_items, min_size=1, max_size=4), data=st.data())
def test_truncated_v2_body_raises_not_garbage(items, data):
    """Any proper prefix of a v2 body (past the length header) either stays
    buffered (frame incomplete) or raises on the completed-but-short frame —
    it never decodes to a wrong batch."""
    frame = encode_quote_batch(items)
    body = frame[FRAME_HEADER.size:]
    cut = data.draw(st.integers(min_value=1, max_value=len(body) - 1), label="cut")
    truncated = FRAME_HEADER.pack(cut) + body[:cut]
    decoder = FrameDecoder()
    try:
        frames = decoder.feed(truncated)
    except ServingError:
        return
    # A cut that lands exactly on a smaller valid encoding cannot exist:
    # the trailing-bytes check makes every strict prefix invalid.
    assert frames == [] or all(f.get("op") != "quote_batch" or
                               len(f["items"]) != len(items) for f in frames)


@given(garbage=st.binary(min_size=0, max_size=64))
def test_nul_prefixed_garbage_raises(garbage):
    """Any NUL-prefixed body that is not a well-formed v2 frame raises
    ServingError — bad magic, bad version, bad opcode, truncation."""
    body = b"\x00" + garbage
    if body.startswith(V2_MAGIC) and len(body) >= V2_HEADER.size:
        _m, version, opcode, _r, _count = V2_HEADER.unpack_from(body)
        if version == WIRE_V2 and opcode in (1, 2, 3, 4):
            return  # potentially well-formed; covered by roundtrip tests
    decoder = FrameDecoder()
    with pytest.raises(ServingError):
        decoder.feed(FRAME_HEADER.pack(len(body)) + body)


def test_trailing_bytes_after_valid_body_raise():
    frame = encode_feedback_ok_batch([1, 2, 3])
    body = frame[FRAME_HEADER.size:] + b"\x00"
    with pytest.raises(ServingError):
        FrameDecoder().feed(FRAME_HEADER.pack(len(body)) + body)


def test_key_index_out_of_range_raises():
    frame = encode_quote_batch(
        [{"app": "a", "segment": "b", "features": [1.0], "reserve": None, "id": 1}]
    )
    body = bytearray(frame[FRAME_HEADER.size:])
    # The key table of this frame is: u16 count=1, then "a" and "b" with u16
    # lengths; the per-item key index follows. Corrupt it to 7.
    offset = V2_HEADER.size + 2 + (2 + 1) + (2 + 1)
    body[offset:offset + 2] = struct.pack(">H", 7)
    with pytest.raises(ServingError):
        FrameDecoder().feed(FRAME_HEADER.pack(len(body)) + bytes(body))


# --------------------------------------------------------------------------- #
# Every data-plane item carries a tag
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "encode, item",
    [
        (encode_quote_batch, {"app": "a", "segment": "b", "features": [1.0], "reserve": None}),
        (encode_feedback_batch, {"app": "a", "segment": "b", "quote_id": 3, "accepted": True}),
        (
            encode_quote_result_batch,
            {
                "quote_id": 3, "app": "a", "segment": "b", "link_price": 1.0,
                "posted_price": 1.0, "exploratory": False, "skipped": False,
                "round_index": 0, "latency_seconds": 0.0,
            },
        ),
    ],
)
def test_untagged_items_neither_encode_nor_decode(encode, item):
    """An item without a tag cannot be encoded; a body whose flags byte
    lacks the tag bit (a peer that skipped the encoder) does not decode."""
    with pytest.raises(ServingError, match="tag"):
        encode([item])
    frame = bytearray(encode([dict(item, id=7)]))
    # One item, one key ("a", "b"): the flags byte follows the header, the
    # key table and the u16 key index.
    offset = FRAME_HEADER.size + V2_HEADER.size + 2 + (2 + 1) + (2 + 1) + 2
    assert frame[offset] & 1
    frame[offset] &= 0xFE
    with pytest.raises(ServingError, match="tag"):
        FrameDecoder().feed(bytes(frame))


# --------------------------------------------------------------------------- #
# Golden replay through the v2 socket path
# --------------------------------------------------------------------------- #


def _offline(family):
    model, batch, theta = golden_specs.build_market(family)
    materialized = prepare(model, batch)
    result = simulate(
        model, golden_specs.build_pricer(family, theta), materialized=materialized
    )
    return model, theta, materialized, result


def _service(family, model, theta, config):
    return QuoteService(
        PricerRegistry(lambda _key: (model, golden_specs.build_pricer(family, theta))),
        config=config,
    )


def _replay_blocking(client, key, materialized):
    """The closed loop of :func:`serve_closed_loop_async`, one blocking
    call per quote and per feedback."""
    transcript = Transcript.for_materialized(materialized)
    for round_ in stream_rounds(materialized):
        result = client.quote(key, round_.features, reserve=round_.reserve)
        sold = settle_frame_into_transcript(
            transcript, round_.index, result, round_.market_value
        )
        client.feedback(key, result["quote_id"], sold)
    transcript.finalize_regrets()
    return transcript


@pytest.mark.parametrize("family", sorted(golden_specs.GOLDEN_SPECS))
def test_golden_families_bit_identical_through_v2_sync_client(tmp_path, family):
    """The blocking face runs the async core on a private event loop; the
    replay through it is bit-identical too."""
    model, theta, materialized, offline = _offline(family)
    key = SessionKey(app="golden", segment=family)
    handle = start_frontend_thread(
        _service(family, model, theta, MicroBatchConfig(max_batch=1, max_wait_seconds=0.0)),
        unix_path=str(tmp_path / "v2sync.sock"),
        drain_interval=0.0005,
    )
    try:
        with QuoteSocketClient(unix_path=handle.address) as client:
            online = _replay_blocking(client, key, materialized)
    finally:
        handle.stop()
    assert_bit_exact(online, offline.transcript, family)


@pytest.mark.parametrize("family", sorted(golden_specs.GOLDEN_SPECS))
def test_golden_families_bit_identical_through_v2_async_client(family):
    """TCP loopback, and a service that drains on its time window
    (``max_wait_seconds``) rather than per request: neither the transport
    nor the drain cadence moves a bit."""
    model, theta, materialized, offline = _offline(family)
    key = SessionKey(app="golden", segment=family)
    handle = start_frontend_thread(
        _service(family, model, theta, MicroBatchConfig(max_batch=8, max_wait_seconds=0.0005)),
        host="127.0.0.1",
        port=0,
        drain_interval=0.0005,
    )

    async def _replay():
        host, port = handle.address[0], handle.address[1]
        async with await AsyncQuoteClient.connect(host=host, port=port) as client:
            return await serve_closed_loop_async(client, key, materialized)

    try:
        online = asyncio.run(_replay())
    finally:
        handle.stop()
    assert_bit_exact(online.transcript, offline.transcript, family)
