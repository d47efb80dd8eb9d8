"""Session registry: live pricers, clock-hand eviction, one segment log.

:class:`PricerRegistry` owns every resident pricing session.  The live pricer
is the only in-memory copy of a session's state; the registry adds two
storage pieces around it:

* **clock-hand eviction** — capacity enforcement sweeps a second-chance clock
  over the resident-session ring instead of scanning an LRU list: every
  access sets a session's reference bit, the hand clears bits as it
  advances, and the first unreferenced, unpinned, settled session is the
  victim.  Each eviction is O(1) amortised (every hand step either consumes
  a reference bit set by an access or inspects a slot at most twice per
  sweep), where an ``OrderedDict`` scan is O(resident) per eviction whenever
  cold exempt sessions pile up at the LRU end;
* **the segment log** — persisted sessions append their raw state bytes to
  shared segment files (``segments/seg-NNNNNN.seg``, many sessions per file)
  with a JSONL index journal (``segments/index.jsonl``) mapping session slug
  → file/offset/layout.  Hydration memory-maps the segment and slices the
  state arrays straight out of the page cache — no per-session file open,
  no zlib decompress, no ``.npz`` parse.  The index is append-only (last
  entry per slug wins, tombstones mark sessions that moved away) and a line
  counts once its newline is written: the writer cuts a torn tail a crash
  mid-append left when it opens the log.  Once dead entries outweigh live
  ones, the next persist compacts the log into fresh files under a fresh
  index, so its disk, index lines and mappings stay within a constant
  factor of the live state however long the service runs.

The log is the only snapshot format.  A session moves between logs — shards
of a live fleet, or snapshot trees of the offline resharder — as one
:class:`SegmentRecord` plus its raw bytes, appended verbatim to the target's
log; the source tombstones its record only once the target holds it.
``*.session.npz`` files an earlier version wrote are moved into the log when
a registry opens their directory.

Persisting flattens the pricer's ``state_dict``
(:func:`repro.engine.checkpoint.flatten_state`) straight into a record:
arrays are stored as raw little-endian bytes and the JSON skeleton uses
Python's shortest-round-trip float repr, so the round trip is bit-identical.
"""

from __future__ import annotations

import json
import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import checkpoint as checkpoint_store
from repro.engine.checkpoint import _atomic_write
from repro.exceptions import ServingError
from repro.serving.requests import SessionKey

__all__ = [
    "SESSION_SUFFIX",
    "SEGMENT_DIR",
    "SEGMENT_SUFFIX",
    "SEGMENT_INDEX",
    "DEFAULT_SEGMENT_BYTES",
    "COMPACT_LINES",
    "PricingSession",
    "RegistryStats",
    "SegmentRecord",
    "SegmentLog",
    "SessionFactory",
    "PricerRegistry",
    "list_segment_sessions",
    "read_segment_payload",
    "read_segment_record",
]

#: A factory builds (model, fresh same-config pricer) for one session key.
SessionFactory = Callable[[SessionKey], Tuple[Any, Any]]

#: Suffix of the per-session snapshot files earlier versions wrote; a
#: registry moves them into its segment log when it opens their directory.
SESSION_SUFFIX = ".session.npz"

#: Subdirectory of a snapshot dir holding segment files and their index.
SEGMENT_DIR = "segments"

#: Suffix of segment data files.
SEGMENT_SUFFIX = ".seg"

#: File name of the JSONL index journal inside :data:`SEGMENT_DIR`.
SEGMENT_INDEX = "index.jsonl"

#: Rotate to a fresh segment file once the active one exceeds this.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024

#: The log compacts once its index holds more than ``2 * live records +
#: COMPACT_LINES`` lines, or its segment files more than ``2 * live bytes +
#: one segment``: dead entries then outweigh live ones.
COMPACT_LINES = 1024

#: Record/array alignment inside segment files (cache-line / SIMD friendly,
#: and keeps every float64 column slice naturally aligned for mmap views).
_ALIGN = 64


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass
class PricingSession:
    """One resident pricing session."""

    key: SessionKey
    model: Any
    pricer: Any
    #: Decisions awaiting accept/reject feedback, keyed by quote id.
    pending: Dict[int, Any] = field(default_factory=dict)
    quotes_served: int = 0
    feedback_seen: int = 0
    updates_since_persist: int = 0
    hydrated: bool = False
    #: Pinned sessions are exempt from eviction (and refuse explicit
    #: eviction) — the online rebalancer pins a freshly-attached session
    #: until its parked quotes have been replayed onto it.
    pinned: bool = False

    @property
    def rounds_seen(self) -> int:
        """Rounds the session's pricer has priced (propose calls)."""
        return self.pricer.rounds_seen


@dataclass
class RegistryStats:
    """Lifecycle counters of one registry (reported by the serving bench).

    ``created`` counts sessions built *from scratch* and ``hydrations``
    sessions rebuilt from a snapshot — the two are disjoint (a hydrated
    session is not double-counted as a creation), so
    ``created + hydrations`` (:attr:`opened`) is the number of times a
    session entered residency for the first time since its last eviction.

    Every hydration slices an mmap of the segment log, so
    ``zero_copy_hydrations`` equals ``hydrations``; ``legacy_hydrations``
    stays in the counters for readers of earlier reports and reads 0.  The
    other fields count clock-hand work (``clock_hand_steps`` /
    ``clock_rotations``) and gauge the footprint (``resident_bytes`` of the
    resident pricers' state arrays, ``segments`` / ``segment_bytes`` on
    disk) — the gauges are measured when :attr:`PricerRegistry.stats` is
    read.  Every value is a plain summable number so
    :meth:`ShardedRegistry.stats` can aggregate shards by key.
    """

    created: int = 0
    hydrations: int = 0
    evictions: int = 0
    persists: int = 0
    #: Resident sessions handed off to another shard (drop, no eviction):
    #: the online rebalancer's exit path.  Disjoint from ``evictions``.
    exports: int = 0
    #: Hydrations served as an mmap slice out of a snapshot segment.
    zero_copy_hydrations: int = 0
    #: Always 0: no snapshot format besides the segment log is read.
    legacy_hydrations: int = 0
    #: Individual clock-hand advances during victim selection.
    clock_hand_steps: int = 0
    #: Full wraps of the clock hand around the resident-row ring.
    clock_rotations: int = 0
    #: Bytes of the resident pricers' ``state_arrays`` (gauge, not a counter).
    resident_bytes: int = 0
    #: Segment files on disk (gauge).
    segments: int = 0
    #: Total bytes across segment files (gauge).
    segment_bytes: int = 0

    @property
    def opened(self) -> int:
        """Sessions that entered residency (fresh creations + hydrations)."""
        return self.created + self.hydrations

    def as_dict(self) -> dict:
        return {
            "created": self.created,
            "hydrations": self.hydrations,
            "opened": self.opened,
            "evictions": self.evictions,
            "persists": self.persists,
            "exports": self.exports,
            "zero_copy_hydrations": self.zero_copy_hydrations,
            "legacy_hydrations": self.legacy_hydrations,
            "clock_hand_steps": self.clock_hand_steps,
            "clock_rotations": self.clock_rotations,
            "resident_bytes": self.resident_bytes,
            "segments": self.segments,
            "segment_bytes": self.segment_bytes,
        }


# --------------------------------------------------------------------------- #
# Snapshot segments: shared data files + JSONL index journal
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SegmentRecord:
    """One persisted session inside a segment file (one index-journal line).

    A record that is not placed in a log yet (:func:`_encode_record`) has
    ``file_id`` and ``offset`` of -1.
    """

    slug: str
    app: str
    segment: str
    file_id: int
    offset: int
    length: int
    pricer_type: str
    rounds_done: int
    #: Encoded state skeleton (array leaves replaced by index placeholders).
    skeleton: Any
    #: Per-leaf ``(dtype_str, shape, offset_within_record)``.
    arrays: Tuple[Tuple[str, Tuple[int, ...], int], ...]
    meta: dict

    def key(self) -> SessionKey:
        return SessionKey(self.app, self.segment)

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "slug": self.slug,
                "app": self.app,
                "segment": self.segment,
                "file": self.file_id,
                "offset": self.offset,
                "length": self.length,
                "pricer_type": self.pricer_type,
                "rounds_done": self.rounds_done,
                "skeleton": self.skeleton,
                "arrays": [
                    [dtype, list(shape), off] for dtype, shape, off in self.arrays
                ],
                "meta": self.meta,
            },
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(obj: dict) -> "SegmentRecord":
        return SegmentRecord(
            slug=str(obj["slug"]),
            app=str(obj["app"]),
            segment=str(obj["segment"]),
            file_id=int(obj["file"]),
            offset=int(obj["offset"]),
            length=int(obj["length"]),
            pricer_type=str(obj["pricer_type"]),
            rounds_done=int(obj["rounds_done"]),
            skeleton=obj["skeleton"],
            arrays=tuple(
                (str(dtype), tuple(int(n) for n in shape), int(off))
                for dtype, shape, off in obj["arrays"]
            ),
            meta=dict(obj.get("meta") or {}),
        )


def _encode_record(
    key: SessionKey,
    pricer_type: str,
    rounds_done: int,
    skeleton: Any,
    arrays: Sequence[np.ndarray],
    meta: Optional[dict] = None,
) -> Tuple[SegmentRecord, bytes]:
    """One session's flattened state as an unplaced record plus its bytes.

    Array leaves are laid out back to back at :data:`_ALIGN`-byte offsets;
    :meth:`SegmentLog.append` places the bytes in a log.
    """
    layout: List[Tuple[str, Tuple[int, ...], int]] = []
    cursor = 0
    chunks: List[bytes] = []
    for array in arrays:
        array = np.ascontiguousarray(array)
        aligned = _align(cursor)
        if aligned > cursor:
            chunks.append(b"\0" * (aligned - cursor))
            cursor = aligned
        data = array.tobytes()
        layout.append((array.dtype.str, tuple(array.shape), cursor))
        chunks.append(data)
        cursor += len(data)
    payload = b"".join(chunks)
    record = SegmentRecord(
        slug=key.slug(),
        app=key.app,
        segment=key.segment,
        file_id=-1,
        offset=-1,
        length=len(payload),
        pricer_type=pricer_type,
        rounds_done=int(rounds_done),
        skeleton=skeleton,
        arrays=tuple(layout),
        meta=dict(meta or {}),
    )
    return record, payload


def _segment_name(file_id: int) -> str:
    return "seg-%06d%s" % (file_id, SEGMENT_SUFFIX)


def _read_index(index_path: str) -> Tuple[Dict[str, SegmentRecord], int, int, int]:
    """Replay an index journal: ``(records, lines, committed bytes, file bytes)``.

    The last entry per slug wins and tombstones delete.  A line is committed
    by its newline: bytes after the last newline, or a final line that does
    not parse, are the torn tail of a crash mid-append and fall outside the
    committed length.  Any other malformed line is an error — the journal
    is append-only, so corruption in the middle means the file was damaged,
    not half-written.
    """
    records: Dict[str, SegmentRecord] = {}
    try:
        with open(index_path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return records, 0, 0, 0
    lines = data[: data.rfind(b"\n") + 1].split(b"\n")[:-1]
    count = committed = 0
    for number, line in enumerate(lines):
        if line.strip():
            try:
                obj = json.loads(line)
            except ValueError as exc:
                if not any(later.strip() for later in lines[number + 1 :]):
                    break
                raise ServingError(
                    "corrupt segment index %s at line %d: %s"
                    % (index_path, number + 1, exc)
                ) from exc
            count += 1
            if obj.get("tombstone"):
                records.pop(str(obj["slug"]), None)
            else:
                record = SegmentRecord.from_json(obj)
                records[record.slug] = record
        committed += len(line) + 1
    return records, count, committed, len(data)


class SegmentLog:
    """Append-only segment writer + mmap reader for one snapshot directory.

    Data-before-index ordering makes the journal crash-consistent: record
    bytes are written and flushed to the segment file *before* the index
    line referencing them is appended, so every committed index entry points
    at fully written data and a crash between the two just orphans a few
    bytes at the segment tail.  :meth:`compact` keeps the same order.
    """

    def __init__(
        self, snapshot_dir: str, max_segment_bytes: int = DEFAULT_SEGMENT_BYTES
    ) -> None:
        if max_segment_bytes < _ALIGN:
            raise ValueError(
                "max_segment_bytes must be at least %d, got %d"
                % (_ALIGN, max_segment_bytes)
            )
        self.snapshot_dir = snapshot_dir
        self.directory = os.path.join(snapshot_dir, SEGMENT_DIR)
        os.makedirs(self.directory, exist_ok=True)
        self._max_bytes = int(max_segment_bytes)
        self._index_path = os.path.join(self.directory, SEGMENT_INDEX)
        self._records, self._lines, committed, size = _read_index(self._index_path)
        if size > committed:
            # Cut the torn tail, or the next line would be written onto it.
            with open(self._index_path, "r+b") as handle:
                handle.truncate(committed)
        self._live_bytes = sum(_align(r.length) for r in self._records.values())
        self._maps: Dict[int, np.memmap] = {}
        sizes = {i: os.path.getsize(self._segment_path(i)) for i in self._segment_ids()}
        self._data_bytes = sum(sizes.values())
        self._active_id = max(sizes, default=0)
        self._active_size = sizes.get(self._active_id, 0)
        self._handle = None
        self._index_handle = None

    # -- paths / enumeration ------------------------------------------- #

    def _segment_path(self, file_id: int) -> str:
        return os.path.join(self.directory, _segment_name(file_id))

    def _segment_ids(self) -> List[int]:
        ids = []
        for name in os.listdir(self.directory):
            if name.startswith("seg-") and name.endswith(SEGMENT_SUFFIX):
                try:
                    ids.append(int(name[4 : -len(SEGMENT_SUFFIX)]))
                except ValueError:
                    continue
        return sorted(ids)

    def footprint(self) -> Tuple[int, int]:
        """``(segment files, total bytes)`` on disk, from one listing."""
        ids = self._segment_ids()
        return len(ids), int(sum(os.path.getsize(self._segment_path(i)) for i in ids))

    # -- index --------------------------------------------------------- #

    def lookup(self, slug: str) -> Optional[SegmentRecord]:
        return self._records.get(slug)

    def _append_index_line(self, line: str) -> None:
        if self._index_handle is None:
            self._index_handle = open(self._index_path, "a", encoding="utf-8")
        self._index_handle.write(line + "\n")
        self._index_handle.flush()
        self._lines += 1

    def tombstone(self, slug: str) -> bool:
        """Mark ``slug`` deleted; returns whether a live record existed."""
        record = self._records.get(slug)
        if record is None:
            return False
        self._append_index_line(
            json.dumps({"slug": slug, "tombstone": True}, separators=(",", ":"))
        )
        del self._records[slug]
        self._live_bytes -= _align(record.length)
        return True

    # -- write path ---------------------------------------------------- #

    def append(self, record: SegmentRecord, payload: bytes) -> SegmentRecord:
        """Append ``payload`` verbatim as ``record``'s bytes and index it.

        Only the record's file and offset change; returns the placed record.
        """
        file_id, offset = self._write(payload)
        self._handle.flush()
        placed = replace(record, file_id=file_id, offset=offset)
        self._append_index_line(placed.to_json_line())
        previous = self._records.get(placed.slug)
        if previous is not None:
            self._live_bytes -= _align(previous.length)
        self._records[placed.slug] = placed
        self._live_bytes += _align(placed.length)
        return placed

    def _write(self, payload: bytes) -> Tuple[int, int]:
        """Write ``payload`` at the active file's next aligned offset."""
        if self._active_size and self._active_size + len(payload) > self._max_bytes:
            self._roll()
        if self._handle is None:
            self._handle = open(self._segment_path(self._active_id), "ab")
            self._active_size = self._handle.tell()
        start = _align(self._active_size)
        if start > self._active_size:
            self._handle.write(b"\0" * (start - self._active_size))
        self._handle.write(payload)
        self._data_bytes += start + len(payload) - self._active_size
        self._active_size = start + len(payload)
        return self._active_id, start

    def _roll(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._maps.pop(self._active_id, None)
        self._active_id += 1
        self._active_size = 0

    def compact_if_due(self) -> None:
        """:meth:`compact` once dead entries outweigh live ones.

        Neither :meth:`append` nor :meth:`tombstone` compacts: the registry
        calls this after a persist, so a session move never pays for a
        compaction.
        """
        if (
            self._lines > 2 * len(self._records) + COMPACT_LINES
            or self._data_bytes > 2 * self._live_bytes + self._max_bytes
        ):
            self.compact()

    def compact(self) -> None:
        """Copy the live records into fresh files under a fresh index.

        Each old file is read once, with a file read, so compaction maps no
        pages.  The fresh files and index are written in full before
        ``os.replace`` makes the index current, and the old files are
        deleted after it.  A crash before the rename leaves the old index
        and its files intact; one after it leaves old files that no index
        line names.  The next compaction deletes such files: it deletes
        every file on disk when it starts.
        """
        old_ids = self._segment_ids()
        self._roll()
        placed: Dict[str, SegmentRecord] = {}
        data, data_id = b"", None
        for record in sorted(self._records.values(), key=lambda r: (r.file_id, r.offset)):
            if record.length and record.file_id != data_id:
                with open(self._segment_path(record.file_id), "rb") as handle:
                    data, data_id = handle.read(), record.file_id
            payload = data[record.offset : record.offset + record.length]
            if len(payload) != record.length:
                raise ServingError(
                    "segment %d is shorter than its record of %s claims"
                    % (record.file_id, record.slug)
                )
            file_id, offset = self._write(payload)
            placed[record.slug] = replace(record, file_id=file_id, offset=offset)
        if self._handle is not None:
            self._handle.flush()
        if self._index_handle is not None:
            self._index_handle.close()
            self._index_handle = None
        _atomic_write(
            self._index_path,
            "".join(r.to_json_line() + "\n" for r in placed.values()).encode("utf-8"),
        )
        self._records = placed
        self._lines = len(placed)
        for file_id in old_ids:
            self._maps.pop(file_id, None)
            path = self._segment_path(file_id)
            self._data_bytes -= os.path.getsize(path)
            os.unlink(path)

    # -- read path ----------------------------------------------------- #

    def _mapped(self, file_id: int, needed_end: int) -> np.memmap:
        mapped = self._maps.get(file_id)
        if mapped is None or mapped.shape[0] < needed_end:
            # The active segment grows under us: re-map at the current size.
            # A flushed write is visible to a fresh mmap of the same file.
            self._maps[file_id] = np.memmap(
                self._segment_path(file_id), dtype=np.uint8, mode="r"
            )
            mapped = self._maps[file_id]
        if mapped.shape[0] < needed_end:
            raise ServingError(
                "segment %d is shorter (%d bytes) than its index claims (%d)"
                % (file_id, mapped.shape[0], needed_end)
            )
        return mapped

    def read_arrays(self, record: SegmentRecord) -> List[np.ndarray]:
        """The record's array leaves as read-only views into the mmap."""
        views: List[np.ndarray] = []
        mapped = None
        for dtype_str, shape, rel in record.arrays:
            dtype = np.dtype(dtype_str)
            count = math.prod(shape)
            if count == 0:
                # A zero-element leaf occupies no segment bytes (and a
                # record of only such leaves may sit in an empty file that
                # cannot be mapped at all).
                views.append(np.empty(shape, dtype=dtype))
                continue
            if mapped is None:
                mapped = self._mapped(record.file_id, record.offset + record.length)
            view = np.frombuffer(
                mapped, dtype=dtype, count=count, offset=record.offset + rel
            ).reshape(shape)
            views.append(view)
        return views

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._index_handle is not None:
            self._index_handle.close()
            self._index_handle = None
        self._maps.clear()


def list_segment_sessions(snapshot_dir: str) -> Dict[SessionKey, SegmentRecord]:
    """Live (non-tombstoned) segment-resident sessions of a snapshot dir.

    Reads the index journal without instantiating a registry — the rebalancer
    and the shard-retirement check use this from the router process to see
    sessions that exist only inside another process's segment files.
    """
    records = _read_index(os.path.join(snapshot_dir, SEGMENT_DIR, SEGMENT_INDEX))[0]
    return {record.key(): record for record in records.values()}


def read_segment_payload(snapshot_dir: str, record: SegmentRecord) -> bytes:
    """One record's raw bytes, read from its segment file (no mmap)."""
    if not record.length:
        return b""
    path = os.path.join(snapshot_dir, SEGMENT_DIR, _segment_name(record.file_id))
    with open(path, "rb") as handle:
        handle.seek(record.offset)
        payload = handle.read(record.length)
    if len(payload) < record.length:
        raise ServingError(
            "segment record for %s is truncated (%d of %d bytes)"
            % (record.slug, len(payload), record.length)
        )
    return payload


def read_segment_record(
    snapshot_dir: str, record: SegmentRecord
) -> checkpoint_store.PricerCheckpoint:
    """Materialise one segment record as an in-memory checkpoint (copies)."""
    payload = read_segment_payload(snapshot_dir, record)
    arrays = [
        np.frombuffer(payload, dtype=np.dtype(dtype_str), count=math.prod(shape), offset=rel)
        .reshape(shape)
        .copy()
        for dtype_str, shape, rel in record.arrays
    ]
    return checkpoint_store.PricerCheckpoint(
        pricer_type=record.pricer_type,
        rounds_done=record.rounds_done,
        state=checkpoint_store.unflatten_state(record.skeleton, arrays),
        meta=dict(record.meta),
    )


def _adopt_session_files(log: SegmentLog) -> None:
    """Move the ``*.session.npz`` files of earlier versions into ``log``.

    Each file becomes a segment record and is then deleted.  Where the log
    already holds a record for the session, the copy that has priced more
    rounds wins, and the record wins a tie: earlier versions wrote either
    copy, whichever format they ran in.
    """
    for name in sorted(os.listdir(log.snapshot_dir)):
        if not name.endswith(SESSION_SUFFIX):
            continue
        path = os.path.join(log.snapshot_dir, name)
        checkpoint = checkpoint_store.load_checkpoint(path)
        meta = checkpoint.meta
        if "app" not in meta or "segment" not in meta:
            raise ServingError("%s names no session in its meta" % path)
        key = SessionKey(str(meta["app"]), str(meta["segment"]))
        record = log.lookup(key.slug())
        if record is None or checkpoint.rounds_done > record.rounds_done:
            skeleton, arrays = checkpoint_store.flatten_state(checkpoint.state)
            log.append(
                *_encode_record(
                    key, checkpoint.pricer_type, checkpoint.rounds_done, skeleton, arrays, meta
                )
            )
        os.unlink(path)


# --------------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------------- #


@dataclass
class _ResidentRow:
    """One occupied slot of the resident ring."""

    key: SessionKey
    session: PricingSession
    #: Second-chance bit: set on access, cleared by the passing clock hand.
    referenced: bool = False


def _state_nbytes(pricer: Any) -> int:
    """Bytes of a pricer's state arrays (``0`` without ``state_arrays``)."""
    state_arrays = getattr(pricer, "state_arrays", None)
    if state_arrays is None:
        return 0
    return int(sum(array.nbytes for array in state_arrays()))


class PricerRegistry:
    """Session registry keyed by :class:`SessionKey` with bounded residency.

    A *session* is one live pricer (plus its market value model) serving one
    traffic segment; the pricer holds the session's only in-memory state.
    The registry owns every resident session and gives the serving layer
    three lifecycle guarantees:

    * **hydration** — a session whose record sits in the segment log under
      ``snapshot_dir`` is rebuilt from it: the factory constructs a fresh,
      same-configuration pricer and its ``load_state`` restores the exact
      state, so a restarted service continues pricing bit-identically to an
      uninterrupted one (the same exact-resume contract the offline chunked
      runner is pinned to);
    * **write-behind persistence** — with ``persist_every=N``, a session's
      state is snapshotted after every N-th feedback update (and always on
      eviction and :meth:`flush`), bounding the feedback loss of a crash to
      the last N updates without putting serialisation on the quote hot
      path;
    * **clock-hand eviction** — with ``max_sessions`` set, a cold session is
      persisted and dropped when capacity is exceeded, chosen by a
      second-chance clock sweep (O(1) amortised per eviction).  Sessions
      with in-flight quotes (pending decisions awaiting feedback) are never
      evicted — a decision object cannot be rebuilt from a snapshot.

    Parameters
    ----------
    factory:
        Builds ``(model, pricer)`` for a key.  The pricer must be freshly
        constructed with the session's configuration — hydration loads only
        the mutable state into it (the checkpoint contract).
    snapshot_dir:
        Directory of the session snapshots' segment log.  ``None`` disables
        persistence: evicted sessions lose their state and hydration never
        happens.  Opening a directory moves the ``*.session.npz`` files an
        earlier version wrote there into the log.
    max_sessions:
        Resident-session capacity; ``None`` means unbounded.
    persist_every:
        Write-behind cadence in feedback updates; ``0`` persists only on
        eviction / flush.
    snapshot_format:
        Only ``"segment"`` is accepted: the segment log is the one format.
    segment_max_bytes:
        Rotation threshold for segment files.
    """

    def __init__(
        self,
        factory: SessionFactory,
        snapshot_dir: Optional[str] = None,
        max_sessions: Optional[int] = None,
        persist_every: int = 0,
        snapshot_format: str = "segment",
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be at least 1, got %d" % max_sessions)
        if persist_every < 0:
            raise ValueError("persist_every must be non-negative, got %d" % persist_every)
        if snapshot_format != "segment":
            raise ValueError(
                "snapshot_format must be 'segment', got %r" % (snapshot_format,)
            )
        self._factory = factory
        self._max_sessions = max_sessions
        self._persist_every = persist_every
        #: key → ring slot, insertion-ordered and moved-to-end on access so
        #: ``resident_keys`` still reports LRU → MRU (the clock hand decides
        #: *victims*; this map only preserves the observable recency order).
        self._index: "OrderedDict[SessionKey, int]" = OrderedDict()
        self._ring: List[Optional[_ResidentRow]] = []
        self._ring_free: List[int] = []
        self._hand = 0
        self._segments: Optional[SegmentLog] = None
        if snapshot_dir is not None:
            self._segments = SegmentLog(snapshot_dir, segment_max_bytes)
            _adopt_session_files(self._segments)
        self._stats = RegistryStats()

    @property
    def stats(self) -> RegistryStats:
        """The lifecycle counters, with the footprint gauges measured now."""
        stats = self._stats
        stats.resident_bytes = sum(
            _state_nbytes(row.session.pricer) for row in self._ring if row is not None
        )
        if self._segments is not None:
            stats.segments, stats.segment_bytes = self._segments.footprint()
        return stats

    # ------------------------------------------------------------------ #
    # Lookup / residency
    # ------------------------------------------------------------------ #

    def session(self, key: SessionKey) -> PricingSession:
        """The resident session for ``key``, creating or hydrating it.

        Every access marks the session referenced (its second-chance bit)
        and most-recently-used; creating a new session may clock-evict a
        cold one past ``max_sessions``.
        """
        slot = self._index.get(key)
        if slot is not None:
            self._index.move_to_end(key)
            row = self._ring[slot]
            row.referenced = True
            return row.session
        model, pricer = self._factory(key)
        session = PricingSession(key=key, model=model, pricer=pricer)
        stats = self._stats
        record = (
            self._segments.lookup(key.slug()) if self._segments is not None else None
        )
        if record is None:
            stats.created += 1
        else:
            if record.pricer_type != type(pricer).__name__:
                raise checkpoint_store.CheckpointError(
                    "segment record of session %s was taken from %r, cannot "
                    "restore into %r" % (key, record.pricer_type, type(pricer).__name__)
                )
            views = self._segments.read_arrays(record)
            pricer.load_state(checkpoint_store.unflatten_state(record.skeleton, views))
            session.hydrated = True
            stats.hydrations += 1
            stats.zero_copy_hydrations += 1
        self._admit(session)
        self._enforce_capacity(protect=key)
        return session

    def peek(self, key: SessionKey) -> Optional[PricingSession]:
        """The resident session for ``key`` without touching recency."""
        slot = self._index.get(key)
        return self._ring[slot].session if slot is not None else None

    @property
    def resident_count(self) -> int:
        """Number of sessions currently resident."""
        return len(self._index)

    @property
    def resident_keys(self) -> List[SessionKey]:
        """Resident keys in LRU → MRU order."""
        return list(self._index)

    def __contains__(self, key: SessionKey) -> bool:
        return key in self._index

    def pin(self, key: SessionKey) -> None:
        """Exempt a resident session from eviction until :meth:`unpin`."""
        session = self.peek(key)
        if session is None:
            raise ServingError("cannot pin session %s: not resident" % (key,))
        session.pinned = True

    def unpin(self, key: SessionKey) -> None:
        """Lift a session's eviction exemption (no-op when not resident)."""
        session = self.peek(key)
        if session is not None:
            session.pinned = False

    def _admit(self, session: PricingSession) -> None:
        if self._ring_free:
            slot = self._ring_free.pop()
        else:
            slot = len(self._ring)
            self._ring.append(None)
        self._ring[slot] = _ResidentRow(key=session.key, session=session)
        self._index[session.key] = slot

    def _drop(self, key: SessionKey) -> None:
        slot = self._index.pop(key)
        self._ring[slot] = None
        self._ring_free.append(slot)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def persist(self, session: PricingSession) -> bool:
        """Snapshot one session to disk; returns whether anything was written.

        The log compacts here when it is due: persists come from eviction,
        write-behind and :meth:`flush`, never from a session move.
        """
        if self._segments is None:
            return False
        self._append(session)
        self._segments.compact_if_due()
        return True

    def _append(self, session: PricingSession) -> Tuple[SegmentRecord, bytes]:
        """Append one session's state to the log: ``(placed record, bytes)``."""
        key = session.key
        skeleton, arrays = checkpoint_store.flatten_state(session.pricer.state_dict())
        record, payload = _encode_record(
            key,
            type(session.pricer).__name__,
            session.rounds_seen,
            skeleton,
            arrays,
            meta={"app": key.app, "segment": key.segment},
        )
        placed = self._segments.append(record, payload)
        session.updates_since_persist = 0
        self._stats.persists += 1
        return placed, payload

    def note_feedback(self, session: PricingSession, count: int = 1) -> None:
        """Record ``count`` applied feedback updates (write-behind cadence)."""
        session.feedback_seen += count
        session.updates_since_persist += count
        if 0 < self._persist_every <= session.updates_since_persist:
            self.persist(session)

    def flush(self) -> int:
        """Persist every resident session; returns the number written."""
        written = 0
        for key in list(self._index):
            session = self._ring[self._index[key]].session
            if self.persist(session):
                written += 1
        return written

    def _log(self, action: str, key: SessionKey) -> SegmentLog:
        if self._segments is None:
            raise ServingError(
                "cannot %s session %s without a snapshot_dir" % (action, key)
            )
        return self._segments

    def export_session(self, key: SessionKey) -> Optional[Tuple[SegmentRecord, bytes]]:
        """Hand one session over as ``(record, payload)``, keeping its record.

        The exit of a session move: a resident session must be quiesced (no
        in-flight quotes); it is persisted to the log and its residency
        released without counting an eviction.  A cold session is its log
        record, read back with a file read.  Either way the record stays in
        the log until :meth:`retire_session`, so a move cut short before the
        target holds the session loses nothing.  ``None`` means the registry
        holds nothing for ``key``.
        """
        log = self._log("export", key)
        session = self.peek(key)
        if session is None:
            record = log.lookup(key.slug())
            if record is None:
                return None
            return record, read_segment_payload(log.snapshot_dir, record)
        if session.pending:
            raise ServingError(
                "cannot export session %s with %d in-flight quote(s); quiesce "
                "it first" % (key, len(session.pending))
            )
        moved = self._append(session)
        self._drop(key)
        self._stats.exports += 1
        return moved

    def import_session(self, record: SegmentRecord, payload: bytes) -> None:
        """Take over a session another log exported; it hydrates on access.

        The bytes are appended verbatim (only the record's file and offset
        change) and read back byte for byte before the import counts.
        """
        key = record.key()
        log = self._log("import", key)
        if key in self._index:
            raise ServingError(
                "cannot import session %s over its resident copy" % (key,)
            )
        placed = log.append(record, payload)
        if read_segment_payload(log.snapshot_dir, placed) != payload:
            log.tombstone(record.slug)
            raise ServingError(
                "session %s did not read back byte-identically after its "
                "import" % (key,)
            )

    def retire_session(self, key: SessionKey) -> bool:
        """Tombstone an exported session once another log holds it.

        The last step of a move; returns whether a record was retired.
        """
        return self._log("retire", key).tombstone(key.slug())

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #

    def evict(self, key: SessionKey) -> bool:
        """Persist and drop one session; returns whether it was resident.

        Refuses sessions with in-flight quotes (a decision object cannot be
        rebuilt from a snapshot) and pinned sessions.
        """
        session = self.peek(key)
        if session is None:
            return False
        if session.pending:
            raise ServingError(
                "cannot evict session %s with %d in-flight quote(s); settle "
                "their feedback first" % (key, len(session.pending))
            )
        if session.pinned:
            raise ServingError(
                "cannot evict pinned session %s; unpin it first" % (key,)
            )
        # Persist before dropping: if the snapshot write fails, the session
        # stays resident and the eviction can be retried.
        self.persist(session)
        self._drop(key)
        self._stats.evictions += 1
        return True

    def _enforce_capacity(self, protect: SessionKey) -> None:
        """Clock-evict cold sessions past ``max_sessions``.

        ``protect`` (the just-created session), pinned sessions, and
        sessions with in-flight quotes are never evicted; if the clock
        completes two full rotations without finding a victim every
        candidate is exempt and the registry temporarily exceeds capacity
        rather than losing decisions.
        """
        if self._max_sessions is None:
            return
        while len(self._index) > self._max_sessions:
            victim = self._clock_victim(protect)
            if victim is None:
                return
            self.evict(victim)

    def _clock_victim(self, protect: SessionKey) -> Optional[SessionKey]:
        """Advance the clock hand to the next evictable session.

        Invariants: the hand only moves forward (wrapping), a referenced
        row gets exactly one second chance per sweep (its bit is cleared in
        passing, not the hand reset), and exempt rows (pinned, pending
        feedback, the protected key, free slots) are skipped without
        touching their bits.  Two full rotations without a victim means
        every resident row is exempt or re-referenced faster than the hand
        moves — give up rather than spin.
        """
        ring = self._ring
        if not ring:
            return None
        stats = self._stats
        budget = 2 * len(ring) + 1
        while budget > 0:
            budget -= 1
            if self._hand >= len(ring):
                self._hand = 0
                stats.clock_rotations += 1
            slot = self._hand
            self._hand += 1
            stats.clock_hand_steps += 1
            row = ring[slot]
            if row is None:
                continue
            session = row.session
            if row.key == protect or session.pending or session.pinned:
                continue
            if row.referenced:
                row.referenced = False
                continue
            return row.key
        return None

    def close(self) -> None:
        if self._segments is not None:
            self._segments.close()
