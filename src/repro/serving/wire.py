"""Wire protocol of the quote-serving socket layer: framing + codecs.

Every frame on a serving connection is a 4-byte big-endian unsigned length
followed by that many bytes of body.  The first body byte tells the two
body encodings apart: a v2 body starts with NUL (``\\x00``), which can never
begin a JSON text.

* **The data plane is binary v2 batches, in both directions.**  A body
  starts with a fixed ``struct`` header ``(magic, version, opcode, count)``
  and carries a **columnar payload** for a whole batch of quotes, results,
  feedback events or acknowledgements: a key string table, packed
  ``int64`` id arrays, ``float64`` price and feature arrays (``tobytes``,
  raw IEEE doubles, so prices and features cross the wire bit for bit:
  the serving equivalence contract rests on that), and one flags byte per
  item for optional fields.  One frame moves a whole micro-batch window
  across the socket.  Every item carries its request tag (``id``): the
  client correlates replies by tag, never by order, and a body with an
  untagged item is a protocol error, like any other undecodable body.
* **JSON carries only control.**  The ``flush``, ``stats`` and ``ping``
  ops, their replies and ``error`` frames are UTF-8 JSON bodies: they are
  rare, and debuggability wins.

Decoded v2 frames surface as :class:`Batch` dicts (``{"op":
"quote_batch", "items": [...]}``) whose items are ``quote``,
``quote_result``, ``feedback`` or ``feedback_ok`` dicts; a JSON frame
decodes to whatever its text holds, so only a :class:`Batch` is ever taken
for data-plane traffic.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ServingError

#: Frame header: one 4-byte big-endian unsigned length.
FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame (defensive: a corrupt header must not OOM).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: The version byte of every v2 body header.
WIRE_V2 = 2

#: First bytes of every v2 body.  The leading NUL can never start a JSON
#: text, so the two encodings are self-describing on a shared stream.
V2_MAGIC = b"\x00RPW"

#: v2 body header: magic, version byte, opcode byte, reserved, item count.
V2_HEADER = struct.Struct(">4sBBHI")

OP_QUOTE_BATCH = 1
OP_QUOTE_RESULT_BATCH = 2
OP_FEEDBACK_BATCH = 3
OP_FEEDBACK_OK_BATCH = 4

#: Flags byte of one v2 item (meaning depends on the opcode).  Every item
#: sets ``_HAS_TAG``; the bit stays in the format so an untagged item is
#: detected, not misread.
_HAS_TAG = 1 << 0
_HAS_RESERVE = 1 << 1  # quote_batch
_EXPLORATORY = 1 << 1  # quote_result_batch
_SKIPPED = 1 << 2
_HAS_LINK = 1 << 3
_HAS_POSTED = 1 << 4
_ACCEPTED = 1 << 1  # feedback_batch

_U16 = struct.Struct(">H")


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #


def decode_frame_body(body: bytes) -> dict:
    """Decode one frame body: a v2 batch, or a JSON control frame."""
    if body[:1] == b"\x00":
        return decode_v2_body(body)
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServingError("undecodable frame body: %s" % exc)


def encode_frame(payload: dict) -> bytes:
    """One length-prefixed JSON control frame."""
    return _framed(json.dumps(payload, separators=(",", ":")).encode("utf-8"))


def _framed(body: bytes) -> bytes:
    if len(body) > MAX_FRAME_BYTES:
        raise ServingError("frame of %d bytes exceeds the %d-byte bound"
                           % (len(body), MAX_FRAME_BYTES))
    return FRAME_HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental (sans-IO) decoder of the length-prefixed framing.

    Feed it byte chunks as they arrive — at *any* split points, including
    mid-header and mid-body — and it yields the completed frames in order
    (v2 batches and JSON control frames interleaved freely).  A truncated
    frame simply stays buffered until the remaining bytes arrive; an
    oversized length header or an undecodable body raises
    :class:`ServingError` (after which the stream is no longer at a frame
    boundary and the connection must be dropped).  Shared by the server and
    the client, and pinned by the hypothesis round-trip tiers
    (``tests/serving/test_wire_protocol.py``, ``test_wire_v2.py``).

    ``on_frame``, when given, is called with the byte size of every decoded
    frame (the 4-byte length prefix included): the hook the frontend's wire
    counters use.
    """

    def __init__(
        self,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        on_frame: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._buffer = bytearray()
        self._max_frame_bytes = max_frame_bytes
        self._on_frame = on_frame

    @property
    def buffered(self) -> int:
        """Bytes of the (possibly incomplete) next frame held back."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[dict]:
        """Consume a chunk; return every frame it completed (maybe none)."""
        self._buffer.extend(data)
        frames: List[dict] = []
        while len(self._buffer) >= FRAME_HEADER.size:
            (length,) = FRAME_HEADER.unpack_from(self._buffer)
            if length > self._max_frame_bytes:
                raise ServingError("frame length %d exceeds the %d-byte bound"
                                   % (length, self._max_frame_bytes))
            end = FRAME_HEADER.size + length
            if len(self._buffer) < end:
                break
            body = bytes(self._buffer[FRAME_HEADER.size:end])
            del self._buffer[:end]
            frames.append(decode_frame_body(body))
            if self._on_frame is not None:
                self._on_frame(end)
        return frames


# --------------------------------------------------------------------------- #
# v2 encode: columnar batch bodies
# --------------------------------------------------------------------------- #


def _key_table(payloads: Sequence[dict]) -> Tuple[bytes, np.ndarray]:
    """Unique ``(app, segment)`` pairs as a string table + per-item index."""
    table: dict = {}
    indices = np.empty(len(payloads), dtype=">u2")
    for position, payload in enumerate(payloads):
        pair = (str(payload["app"]), str(payload["segment"]))
        index = table.get(pair)
        if index is None:
            index = len(table)
            if index > 0xFFFF:
                raise ServingError("v2 frame exceeds 65536 distinct session keys")
            table[pair] = index
        indices[position] = index
    parts = [_U16.pack(len(table))]
    for app, segment in table:
        for text in (app, segment):
            raw = text.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ServingError("session key component exceeds 65535 bytes")
            parts.append(_U16.pack(len(raw)))
            parts.append(raw)
    return b"".join(parts), indices


def _tag_column(payloads: Sequence[dict], flags: np.ndarray) -> np.ndarray:
    """Per-item request tag (``id``) as int64; every item must carry one."""
    tags = np.empty(len(payloads), dtype=">i8")
    for position, payload in enumerate(payloads):
        tag = payload.get("id")
        if tag is None:
            raise ServingError("v2 item without a request tag")
        tags[position] = int(tag)
    flags |= _HAS_TAG
    return tags


def encode_quote_batch(payloads: Sequence[dict]) -> bytes:
    """A batch of tagged ``quote`` payloads as one v2 frame.

    Features land as raw IEEE float64 (``tobytes``), concatenated flat with
    a per-item length column — sessions with different feature dimensions
    batch together.
    """
    count = len(payloads)
    flags = np.zeros(count, dtype=np.uint8)
    tags = _tag_column(payloads, flags)
    keys, key_index = _key_table(payloads)
    reserves = np.zeros(count, dtype=">f8")
    lengths = np.empty(count, dtype=">u4")
    rows: List[np.ndarray] = []
    for position, payload in enumerate(payloads):
        try:
            features = np.atleast_1d(
                np.asarray(payload["features"], dtype=np.float64)
            ).ravel()
        except (KeyError, TypeError, ValueError) as exc:
            raise ServingError("malformed quote payload: %s" % exc)
        lengths[position] = features.size
        rows.append(features)
        reserve = payload.get("reserve")
        if reserve is not None:
            flags[position] |= _HAS_RESERVE
            reserves[position] = float(reserve)
    flat = np.concatenate(rows) if rows else np.empty(0, dtype=np.float64)
    body = b"".join(
        (
            V2_HEADER.pack(V2_MAGIC, WIRE_V2, OP_QUOTE_BATCH, 0, count),
            keys,
            key_index.tobytes(),
            flags.tobytes(),
            tags.tobytes(),
            reserves.tobytes(),
            lengths.tobytes(),
            flat.astype(">f8").tobytes(),
        )
    )
    return _framed(body)


def encode_quote_result_batch(payloads: Sequence[dict]) -> bytes:
    """A batch of tagged ``quote_result`` payloads as one v2 frame."""
    count = len(payloads)
    flags = np.zeros(count, dtype=np.uint8)
    tags = _tag_column(payloads, flags)
    keys, key_index = _key_table(payloads)
    quote_ids = np.empty(count, dtype=">i8")
    link = np.zeros(count, dtype=">f8")
    posted = np.zeros(count, dtype=">f8")
    rounds = np.empty(count, dtype=">i8")
    latency = np.empty(count, dtype=">f8")
    for position, payload in enumerate(payloads):
        quote_ids[position] = int(payload["quote_id"])
        rounds[position] = int(payload["round_index"])
        latency[position] = float(payload["latency_seconds"])
        if payload.get("exploratory"):
            flags[position] |= _EXPLORATORY
        if payload.get("skipped"):
            flags[position] |= _SKIPPED
        if payload.get("link_price") is not None:
            flags[position] |= _HAS_LINK
            link[position] = float(payload["link_price"])
        if payload.get("posted_price") is not None:
            flags[position] |= _HAS_POSTED
            posted[position] = float(payload["posted_price"])
    body = b"".join(
        (
            V2_HEADER.pack(V2_MAGIC, WIRE_V2, OP_QUOTE_RESULT_BATCH, 0, count),
            keys,
            key_index.tobytes(),
            flags.tobytes(),
            tags.tobytes(),
            quote_ids.tobytes(),
            link.tobytes(),
            posted.tobytes(),
            rounds.tobytes(),
            latency.tobytes(),
        )
    )
    return _framed(body)


def encode_feedback_batch(payloads: Sequence[dict]) -> bytes:
    """A batch of tagged ``feedback`` payloads as one v2 frame."""
    count = len(payloads)
    flags = np.zeros(count, dtype=np.uint8)
    tags = _tag_column(payloads, flags)
    keys, key_index = _key_table(payloads)
    quote_ids = np.empty(count, dtype=">i8")
    for position, payload in enumerate(payloads):
        quote_ids[position] = int(payload["quote_id"])
        if payload.get("accepted"):
            flags[position] |= _ACCEPTED
    body = b"".join(
        (
            V2_HEADER.pack(V2_MAGIC, WIRE_V2, OP_FEEDBACK_BATCH, 0, count),
            keys,
            key_index.tobytes(),
            flags.tobytes(),
            tags.tobytes(),
            quote_ids.tobytes(),
        )
    )
    return _framed(body)


def encode_feedback_ok_batch(tags: Sequence[int]) -> bytes:
    """A batch of ``feedback_ok`` acknowledgements (tags only)."""
    column = np.asarray([int(tag) for tag in tags], dtype=">i8")
    body = V2_HEADER.pack(
        V2_MAGIC, WIRE_V2, OP_FEEDBACK_OK_BATCH, 0, len(column)
    ) + column.tobytes()
    return _framed(body)


# --------------------------------------------------------------------------- #
# v2 decode
# --------------------------------------------------------------------------- #


class Batch(dict):
    """A decoded v2 body: ``{"op": "quote_batch", "items": [...]}``.

    A type of its own, so a JSON control frame that names a batch op is
    never taken for data-plane traffic.
    """


class _Cursor:
    """Bounds-checked reader over one v2 body."""

    def __init__(self, body: bytes) -> None:
        self.body = body
        self.offset = 0

    def take(self, size: int) -> bytes:
        end = self.offset + size
        if size < 0 or end > len(self.body):
            raise ServingError(
                "truncated v2 frame: wanted %d bytes at offset %d of %d"
                % (size, self.offset, len(self.body))
            )
        chunk = self.body[self.offset:end]
        self.offset = end
        return chunk

    def array(self, dtype: str, count: int) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(itemsize * count), dtype=dtype)

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def text(self) -> str:
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServingError("undecodable v2 string: %s" % exc)

    def done(self) -> None:
        if self.offset != len(self.body):
            raise ServingError(
                "v2 frame has %d trailing bytes" % (len(self.body) - self.offset)
            )


def _read_flags(cursor: _Cursor, count: int) -> np.ndarray:
    flags = cursor.array("u1", count)
    if not np.all(flags & _HAS_TAG):
        raise ServingError("v2 item without a request tag")
    return flags


def _read_keys(cursor: _Cursor, count: int) -> Tuple[List[Tuple[str, str]], np.ndarray]:
    table = [(cursor.text(), cursor.text()) for _ in range(cursor.u16())]
    key_index = cursor.array(">u2", count)
    if len(table) and key_index.size and int(key_index.max()) >= len(table):
        raise ServingError("v2 key index out of range")
    if key_index.size and not len(table):
        raise ServingError("v2 frame has items but an empty key table")
    return table, key_index


def decode_v2_body(body: bytes) -> Batch:
    """One v2 binary body → a :class:`Batch` of its ``items``.

    Raises :class:`ServingError` on a bad magic, an unknown version or
    opcode, an untagged item, truncation, or trailing garbage — the stream
    is then no longer trustworthy and the connection must be dropped (same
    contract as an undecodable JSON body).
    """
    if len(body) < V2_HEADER.size:
        raise ServingError("v2 frame shorter than its header")
    magic, version, opcode, _reserved, count = V2_HEADER.unpack_from(body)
    if magic != V2_MAGIC:
        raise ServingError("bad v2 magic %r" % magic)
    if version != WIRE_V2:
        raise ServingError("unsupported wire version %d" % version)
    cursor = _Cursor(body)
    cursor.offset = V2_HEADER.size
    if opcode == OP_QUOTE_BATCH:
        result = _decode_quote_batch(cursor, count)
    elif opcode == OP_QUOTE_RESULT_BATCH:
        result = _decode_quote_result_batch(cursor, count)
    elif opcode == OP_FEEDBACK_BATCH:
        result = _decode_feedback_batch(cursor, count)
    elif opcode == OP_FEEDBACK_OK_BATCH:
        tags = cursor.array(">i8", count)
        result = Batch(
            op="feedback_ok_batch",
            items=[{"op": "feedback_ok", "id": int(tag)} for tag in tags],
        )
    else:
        raise ServingError("unknown v2 opcode %d" % opcode)
    cursor.done()
    return result


def _decode_quote_batch(cursor: _Cursor, count: int) -> dict:
    table, key_index = _read_keys(cursor, count)
    flags = _read_flags(cursor, count)
    tags = cursor.array(">i8", count)
    reserves = cursor.array(">f8", count)
    lengths = cursor.array(">u4", count)
    flat = cursor.array(">f8", int(lengths.sum())).astype("=f8")
    items: List[dict] = []
    offset = 0
    for position in range(count):
        app, segment = table[key_index[position]]
        size = int(lengths[position])
        item = {
            "op": "quote",
            "app": app,
            "segment": segment,
            "features": flat[offset:offset + size],
            "reserve": float(reserves[position])
            if flags[position] & _HAS_RESERVE
            else None,
            "id": int(tags[position]),
        }
        offset += size
        items.append(item)
    return Batch(op="quote_batch", items=items)


def _decode_quote_result_batch(cursor: _Cursor, count: int) -> dict:
    table, key_index = _read_keys(cursor, count)
    flags = _read_flags(cursor, count)
    tags = cursor.array(">i8", count)
    quote_ids = cursor.array(">i8", count)
    link = cursor.array(">f8", count)
    posted = cursor.array(">f8", count)
    rounds = cursor.array(">i8", count)
    latency = cursor.array(">f8", count)
    items = []
    for position in range(count):
        app, segment = table[key_index[position]]
        items.append({
            "op": "quote_result",
            "quote_id": int(quote_ids[position]),
            "app": app,
            "segment": segment,
            "link_price": float(link[position])
            if flags[position] & _HAS_LINK
            else None,
            "posted_price": float(posted[position])
            if flags[position] & _HAS_POSTED
            else None,
            "exploratory": bool(flags[position] & _EXPLORATORY),
            "skipped": bool(flags[position] & _SKIPPED),
            "round_index": int(rounds[position]),
            "latency_seconds": float(latency[position]),
            "id": int(tags[position]),
        })
    return Batch(op="quote_result_batch", items=items)


def _decode_feedback_batch(cursor: _Cursor, count: int) -> dict:
    table, key_index = _read_keys(cursor, count)
    flags = _read_flags(cursor, count)
    tags = cursor.array(">i8", count)
    quote_ids = cursor.array(">i8", count)
    items = []
    for position in range(count):
        app, segment = table[key_index[position]]
        items.append({
            "op": "feedback",
            "app": app,
            "segment": segment,
            "quote_id": int(quote_ids[position]),
            "accepted": bool(flags[position] & _ACCEPTED),
            "id": int(tags[position]),
        })
    return Batch(op="feedback_batch", items=items)
