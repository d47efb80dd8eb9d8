"""Session registry: live pricers, clock-hand eviction, mmap snapshot segments.

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
* **mmap snapshot segments** — with ``snapshot_format="segment"``, persisted
  sessions append their raw state bytes to shared segment files
  (``segments/*.seg``, many sessions per file) with a JSONL index sidecar
  mapping session slug → segment/offset/layout.  Hydration then memory-maps
  the segment and slices the state arrays straight out of the page cache —
  no per-session file open, no zlib decompress, no ``.npz`` parse — which is
  what keeps cold-session storms off the filesystem's back.  The index is an
  append-only journal (last entry per slug wins, tombstones mark exports, a
  torn tail line is ignored), so a crash mid-append never corrupts earlier
  records.

The legacy file-per-session ``.session.npz`` format stays fully readable —
and is still the default — because the offline resharder and the live
rebalancer's export path move sessions as individual checkpoint files.  A
segment-format registry hydrates from legacy files it finds (migration), and
:meth:`PricerRegistry.export_session` always writes a legacy file (and
tombstones the segment record) so re-homing stays byte-exact either way.

Both formats round-trip ``state_dict`` bit-identically: persisting flattens
the pricer's ``state_dict`` (:func:`repro.engine.checkpoint.flatten_state`)
straight into the writer, arrays are stored as raw little-endian bytes
(segments) or lossless npz entries (legacy), and the JSON skeleton uses
Python's shortest-round-trip float repr.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import checkpoint as checkpoint_store
from repro.exceptions import ServingError
from repro.serving.requests import SessionKey

__all__ = [
    "SESSION_SUFFIX",
    "SEGMENT_DIR",
    "SEGMENT_SUFFIX",
    "SEGMENT_INDEX",
    "SNAPSHOT_FORMATS",
    "DEFAULT_SEGMENT_BYTES",
    "PricingSession",
    "RegistryStats",
    "SegmentRecord",
    "SegmentLog",
    "SessionFactory",
    "PricerRegistry",
    "list_segment_sessions",
    "read_segment_record",
    "export_segments_to_legacy",
]

#: A factory builds (model, fresh same-config pricer) for one session key.
SessionFactory = Callable[[SessionKey], Tuple[Any, Any]]

#: Suffix of legacy per-session snapshot files.
SESSION_SUFFIX = ".session.npz"

#: Subdirectory of a snapshot dir holding segment files and their index.
SEGMENT_DIR = "segments"

#: Suffix of segment data files.
SEGMENT_SUFFIX = ".seg"

#: File name of the JSONL index journal inside :data:`SEGMENT_DIR`.
SEGMENT_INDEX = "index.jsonl"

#: Supported on-disk snapshot formats.
SNAPSHOT_FORMATS = ("legacy", "segment")

#: Rotate to a fresh segment file once the active one exceeds this.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024

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

    The remaining fields split hydrations by source
    (``zero_copy_hydrations`` from mmap segments vs ``legacy_hydrations``
    from per-session ``.npz`` files), count clock-hand work
    (``clock_hand_steps`` / ``clock_rotations``), and gauge the footprint
    (``resident_bytes`` of the resident pricers' state arrays, ``segments``
    / ``segment_bytes`` on disk) — the gauges are measured when
    :attr:`PricerRegistry.stats` is read.  Every value is a plain summable
    number so :meth:`ShardedRegistry.stats` can aggregate shards by key.
    """

    created: int = 0
    hydrations: int = 0
    evictions: int = 0
    persists: int = 0
    #: Sessions handed off to another shard (persist + drop, no eviction):
    #: the online rebalancer's exit path.  Disjoint from ``evictions``.
    exports: int = 0
    #: Hydrations served as an mmap slice out of a snapshot segment.
    zero_copy_hydrations: int = 0
    #: Hydrations that parsed a legacy ``.session.npz`` file.
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
    """One persisted session inside a segment file (one index-journal line)."""

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


def _parse_index(index_path: str) -> Dict[str, SegmentRecord]:
    """Replay an index journal: last entry per slug wins, tombstones delete.

    A torn tail line (crash mid-append) is ignored; any other malformed line
    is an error — the journal is append-only, so corruption in the middle
    means the file was damaged, not half-written.
    """
    records: Dict[str, SegmentRecord] = {}
    if not os.path.exists(index_path):
        return records
    with open(index_path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    for number, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            if number == len(lines) - 1 or not any(
                later.strip() for later in lines[number + 1 :]
            ):
                break  # torn tail from a crash mid-append
            raise ServingError(
                "corrupt segment index %s at line %d: %s"
                % (index_path, number + 1, exc)
            ) from exc
        if obj.get("tombstone"):
            records.pop(str(obj["slug"]), None)
        else:
            record = SegmentRecord.from_json(obj)
            records[record.slug] = record
    return records


class SegmentLog:
    """Append-only segment writer + mmap reader for one snapshot directory.

    Data-before-index ordering makes the journal crash-consistent: record
    bytes are written and flushed to the segment file *before* the index
    line referencing them is appended, so every replayable index entry
    points at fully written data and a crash between the two just orphans a
    few bytes at the segment tail.
    """

    def __init__(
        self, snapshot_dir: str, max_segment_bytes: int = DEFAULT_SEGMENT_BYTES
    ) -> None:
        if max_segment_bytes < _ALIGN:
            raise ValueError(
                "max_segment_bytes must be at least %d, got %d"
                % (_ALIGN, max_segment_bytes)
            )
        self.directory = os.path.join(snapshot_dir, SEGMENT_DIR)
        os.makedirs(self.directory, exist_ok=True)
        self._max_bytes = int(max_segment_bytes)
        self._index_path = os.path.join(self.directory, SEGMENT_INDEX)
        self._records = _parse_index(self._index_path)
        self._maps: Dict[int, np.memmap] = {}
        existing = self._segment_ids()
        self._active_id = existing[-1] if existing else 0
        self._active_size = (
            os.path.getsize(self._segment_path(self._active_id)) if existing else 0
        )
        self._handle = None
        self._index_handle = None

    # -- paths / enumeration ------------------------------------------- #

    def _segment_path(self, file_id: int) -> str:
        return os.path.join(self.directory, "seg-%06d%s" % (file_id, SEGMENT_SUFFIX))

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

    def records(self) -> Dict[str, SegmentRecord]:
        return dict(self._records)

    def _append_index_line(self, line: str) -> None:
        if self._index_handle is None:
            self._index_handle = open(self._index_path, "a", encoding="utf-8")
        self._index_handle.write(line + "\n")
        self._index_handle.flush()

    def tombstone(self, slug: str) -> bool:
        """Mark ``slug`` deleted; returns whether a live record existed."""
        if slug not in self._records:
            return False
        del self._records[slug]
        self._append_index_line(
            json.dumps({"slug": slug, "tombstone": True}, separators=(",", ":"))
        )
        return True

    # -- write path ---------------------------------------------------- #

    def append(
        self,
        key: SessionKey,
        pricer_type: str,
        rounds_done: int,
        skeleton: Any,
        arrays: Sequence[np.ndarray],
        meta: Optional[dict] = None,
    ) -> SegmentRecord:
        """Append one session's state; returns (and indexes) its record."""
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
        if self._active_size and self._active_size + len(payload) > self._max_bytes:
            self._roll()
        if self._handle is None:
            self._handle = open(self._segment_path(self._active_id), "ab")
            self._active_size = self._handle.tell()
        start = _align(self._active_size)
        if start > self._active_size:
            self._handle.write(b"\0" * (start - self._active_size))
        self._handle.write(payload)
        self._handle.flush()
        self._active_size = start + len(payload)
        record = SegmentRecord(
            slug=key.slug(),
            app=key.app,
            segment=key.segment,
            file_id=self._active_id,
            offset=start,
            length=len(payload),
            pricer_type=pricer_type,
            rounds_done=int(rounds_done),
            skeleton=skeleton,
            arrays=tuple(layout),
            meta=dict(meta or {}),
        )
        self._append_index_line(record.to_json_line())
        self._records[record.slug] = record
        return record

    def _roll(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._maps.pop(self._active_id, None)
        self._active_id += 1
        self._active_size = 0

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
    index_path = os.path.join(snapshot_dir, SEGMENT_DIR, SEGMENT_INDEX)
    records = _parse_index(index_path)
    return {record.key(): record for record in records.values()}


def read_segment_record(
    snapshot_dir: str, record: SegmentRecord
) -> checkpoint_store.PricerCheckpoint:
    """Materialise one segment record as an in-memory checkpoint (copies)."""
    path = os.path.join(
        snapshot_dir, SEGMENT_DIR, "seg-%06d%s" % (record.file_id, SEGMENT_SUFFIX)
    )
    with open(path, "rb") as handle:
        handle.seek(record.offset)
        payload = handle.read(record.length)
    if len(payload) < record.length:
        raise ServingError(
            "segment record for %s is truncated (%d of %d bytes)"
            % (record.slug, len(payload), record.length)
        )
    arrays = []
    for dtype_str, shape, rel in record.arrays:
        dtype = np.dtype(dtype_str)
        count = math.prod(shape)
        arrays.append(
            np.frombuffer(payload, dtype=dtype, count=count, offset=rel)
            .reshape(shape)
            .copy()
        )
    return checkpoint_store.PricerCheckpoint(
        pricer_type=record.pricer_type,
        rounds_done=record.rounds_done,
        state=checkpoint_store.unflatten_state(record.skeleton, arrays),
        meta=dict(record.meta),
    )


def export_segments_to_legacy(snapshot_dir: str) -> int:
    """Rewrite every live segment record as a legacy ``.session.npz`` file.

    The bridge from segment-format snapshot dirs to tools that only speak
    the file-per-session layout (the offline resharder): each record becomes
    an ordinary checkpoint file next to the ``segments/`` directory and is
    tombstoned from the index.  Returns the number of files written.
    """
    sessions = list_segment_sessions(snapshot_dir)
    if not sessions:
        return 0
    log = SegmentLog(snapshot_dir)
    written = 0
    try:
        for key, record in sorted(sessions.items(), key=lambda item: item[1].slug):
            checkpoint = read_segment_record(snapshot_dir, record)
            checkpoint_store.save_state_checkpoint(
                os.path.join(snapshot_dir, "%s%s" % (key.slug(), SESSION_SUFFIX)),
                checkpoint.pricer_type,
                checkpoint.rounds_done,
                checkpoint.state,
                meta=checkpoint.meta,
            )
            log.tombstone(record.slug)
            written += 1
    finally:
        log.close()
    return written


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

    * **hydration** — a session whose snapshot exists under ``snapshot_dir``
      is rebuilt from it: the factory constructs a fresh, same-configuration
      pricer and the checkpoint subsystem (:mod:`repro.engine.checkpoint`)
      restores its exact state, so a restarted service continues pricing
      bit-identically to an uninterrupted one (the same exact-resume
      contract the offline chunked runner is pinned to);
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
        Directory of session snapshots.  ``None`` disables persistence:
        evicted sessions lose their state and hydration never happens.
    max_sessions:
        Resident-session capacity; ``None`` means unbounded.
    persist_every:
        Write-behind cadence in feedback updates; ``0`` persists only on
        eviction / flush.
    snapshot_format:
        ``"legacy"`` writes file-per-session ``.session.npz`` (the default,
        and what the offline resharder consumes); ``"segment"`` appends to
        shared mmap segment files.  Both formats are always *readable* —
        hydration prefers a live segment record, then falls back to a
        legacy file (the migration path).
    segment_max_bytes:
        Rotation threshold for segment files.
    """

    def __init__(
        self,
        factory: SessionFactory,
        snapshot_dir: Optional[str] = None,
        max_sessions: Optional[int] = None,
        persist_every: int = 0,
        snapshot_format: str = "legacy",
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be at least 1, got %d" % max_sessions)
        if persist_every < 0:
            raise ValueError("persist_every must be non-negative, got %d" % persist_every)
        if snapshot_format not in SNAPSHOT_FORMATS:
            raise ValueError(
                "snapshot_format must be one of %r, got %r"
                % (SNAPSHOT_FORMATS, snapshot_format)
            )
        self._factory = factory
        self._snapshot_dir = snapshot_dir
        self._max_sessions = max_sessions
        self._persist_every = persist_every
        self.snapshot_format = snapshot_format
        #: key → ring slot, insertion-ordered and moved-to-end on access so
        #: ``resident_keys`` still reports LRU → MRU (the clock hand decides
        #: *victims*; this map only preserves the observable recency order).
        self._index: "OrderedDict[SessionKey, int]" = OrderedDict()
        self._ring: List[Optional[_ResidentRow]] = []
        self._ring_free: List[int] = []
        self._hand = 0
        self._segments: Optional[SegmentLog] = None
        if snapshot_dir is not None and snapshot_format == "segment":
            self._segments = SegmentLog(snapshot_dir, segment_max_bytes)
        self._stats = RegistryStats()
        #: Wall-clock seconds of each hydration (bench introspection: the
        #: Zipf sweep reads storm percentiles from here).
        self.hydration_seconds: List[float] = []

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
        if record is not None and record.pricer_type == type(pricer).__name__:
            started = time.perf_counter()
            views = self._segments.read_arrays(record)
            pricer.load_state(checkpoint_store.unflatten_state(record.skeleton, views))
            session.hydrated = True
            stats.hydrations += 1
            stats.zero_copy_hydrations += 1
            self.hydration_seconds.append(time.perf_counter() - started)
        else:
            path = self.snapshot_path(key)
            if path is not None and os.path.exists(path):
                started = time.perf_counter()
                checkpoint_store.restore_pricer(
                    pricer, checkpoint_store.load_checkpoint(path)
                )
                session.hydrated = True
                stats.hydrations += 1
                stats.legacy_hydrations += 1
                self.hydration_seconds.append(time.perf_counter() - started)
            else:
                stats.created += 1
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

    def snapshot_path(self, key: SessionKey) -> Optional[str]:
        """The *legacy* snapshot file for ``key`` (``None`` = persistence off).

        Segment-format registries still use this path for exports and
        migration reads — it is the interchange location, not the write
        target.
        """
        if self._snapshot_dir is None:
            return None
        return os.path.join(self._snapshot_dir, "%s%s" % (key.slug(), SESSION_SUFFIX))

    def persist(self, session: PricingSession) -> bool:
        """Snapshot one session to disk; returns whether anything was written."""
        if self._snapshot_dir is None:
            return False
        state = session.pricer.state_dict()
        meta = {"app": session.key.app, "segment": session.key.segment}
        path = self.snapshot_path(session.key)
        if self._segments is not None:
            skeleton, arrays = checkpoint_store.flatten_state(state)
            self._segments.append(
                session.key,
                type(session.pricer).__name__,
                session.rounds_seen,
                skeleton,
                arrays,
                meta=meta,
            )
            # The segment record is now authoritative; a legacy file left
            # over from migration (or a byte-exact re-home) is stale and
            # would only confuse the stranded-snapshot checks.
            if os.path.exists(path):
                os.unlink(path)
        else:
            checkpoint_store.save_state_checkpoint(
                path,
                type(session.pricer).__name__,
                session.rounds_seen,
                state,
                meta=meta,
            )
        session.updates_since_persist = 0
        self._stats.persists += 1
        return True

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

    def export_session(self, key: SessionKey) -> str:
        """Persist one quiesced session as a legacy file and drop it.

        The shard-handoff exit of the online rebalancer: the state is
        written to the session's *legacy* snapshot file regardless of the
        registry's format (the router moves sessions as individual
        checkpoint files), any segment record is tombstoned so the stale
        copy can never shadow the handoff, and residency is released
        without counting an eviction.
        """
        session = self.peek(key)
        if session is None:
            raise ServingError("cannot export session %s: not resident" % (key,))
        if session.pending:
            raise ServingError(
                "cannot export session %s with %d in-flight quote(s); quiesce "
                "it first" % (key, len(session.pending))
            )
        path = self.snapshot_path(key)
        if path is None:
            raise ServingError(
                "cannot export session %s without a snapshot_dir" % (key,)
            )
        checkpoint_store.save_state_checkpoint(
            path,
            type(session.pricer).__name__,
            session.rounds_seen,
            session.pricer.state_dict(),
            meta={"app": key.app, "segment": key.segment},
        )
        self._stats.persists += 1
        if self._segments is not None:
            self._segments.tombstone(key.slug())
        self._drop(key)
        self._stats.exports += 1
        return path

    def materialize_legacy(self, key: SessionKey) -> Optional[str]:
        """Ensure a *cold* session exists as a legacy file; returns its path.

        Resolution order mirrors hydration: a live segment record is
        rewritten as a ``.session.npz`` (and tombstoned); otherwise an
        existing legacy file is returned as-is; ``None`` means the registry
        holds nothing for ``key``.  The sharded router's export op uses
        this to re-home sessions that were persisted to segments and then
        evicted.
        """
        path = self.snapshot_path(key)
        if path is None:
            return None
        if key in self._index:
            raise ServingError(
                "session %s is resident; use export_session" % (key,)
            )
        record = (
            self._segments.lookup(key.slug()) if self._segments is not None else None
        )
        if record is not None:
            checkpoint = read_segment_record(self._snapshot_dir, record)
            checkpoint_store.save_state_checkpoint(
                path,
                checkpoint.pricer_type,
                checkpoint.rounds_done,
                checkpoint.state,
                meta=checkpoint.meta,
            )
            self._segments.tombstone(key.slug())
            return path
        if os.path.exists(path):
            return path
        return None

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
