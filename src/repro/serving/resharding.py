"""Snapshot migration between shard counts.

The key→shard map of :class:`~repro.serving.sharding.ShardedRegistry` is a
pure function of the session key *and the shard count*
(:func:`~repro.serving.sharding.shard_of_key`), so changing the worker
count invalidates every per-shard snapshot directory: a session persisted
under ``shard-01`` of a 2-shard service may hash to ``shard-02`` of a
3-shard one, and a restarted service would silently re-create it from
scratch instead of hydrating its state.

This module is the offline migration tool that closes that gap.  A
*reshard* walks the source layout (``<dir>/shard-00``, ``shard-01``, ...),
reads every session's segment record from each shard's index (the record
names its ``app``/``segment``), and writes the tree under the **target**
shard count: each record's bytes are appended verbatim to the segment log
of the directory its key hashes to under M shards — only the record's file
and offset change.  Because placement is the only thing that changes, a
service restarted on the migrated tree hydrates every session
**bit-identically**: the golden resharding tier
(``tests/serving/test_resharding.py``) replays half a horizon on N shards,
migrates, resumes on M shards, and pins the stitched transcript against the
offline engine for every golden pricer family.

It stays a tool of its own rather than
:func:`~repro.serving.rebalance.rebalance_live` on an idle fleet: it needs
no session factory and never writes its source tree.  For the second
reason it refuses a source tree that still holds ``.session.npz`` files of
an earlier version — moving those into a log writes the directory, which a
registry does when it opens it.

Verification levels:

* **record-exact** (always, unless disabled): every target record carries
  its source record's pricer type, rounds, skeleton, array layout and meta,
  and its bytes equal the source's byte for byte;
* **hydration** (with a ``factory``): a scratch registry imports each
  target record and hydrates it zero-copy from its log, as a restarted
  shard does; the hydrated ``state_dict()`` must equal the source state
  exactly, before and after a persist → evict → hydrate round trip.

``scripts/reshard.py`` wraps this as a CLI.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.engine.equivalence import state_equal
from repro.exceptions import ReshardingError
from repro.serving.requests import SessionKey
from repro.serving.sharding import shard_of_key
from repro.serving.store import (
    SESSION_SUFFIX,
    PricerRegistry,
    SegmentLog,
    SegmentRecord,
    list_segment_sessions,
    read_segment_payload,
    read_segment_record,
)

__all__ = [
    "SessionMove",
    "ReshardReport",
    "shard_dir",
    "discover_shard_dirs",
    "plan_reshard",
    "reshard_snapshots",
    "verify_reshard",
]

_SHARD_DIR_RE = re.compile(r"^shard-(\d+)$")


@dataclass(frozen=True)
class SessionMove:
    """One session's migration: where it was, where its key hashes to now."""

    key: SessionKey
    source_shard: int
    target_shard: int
    #: Shard directories of the source and the target tree.
    source_dir: str
    target_dir: str
    #: The session's record in the source shard's log.
    record: SegmentRecord

    @property
    def relocated(self) -> bool:
        """Whether the session changed shards (not just directories)."""
        return self.source_shard != self.target_shard


@dataclass
class ReshardReport:
    """The outcome of one migration (JSON-serialisable via :meth:`as_dict`)."""

    source_dir: str
    target_dir: str
    source_shards: int
    target_shards: int
    moves: List[SessionMove] = field(default_factory=list)
    verified: bool = False
    hydration_verified: bool = False

    @property
    def sessions(self) -> int:
        return len(self.moves)

    @property
    def relocated(self) -> int:
        """Sessions whose owning shard actually changed."""
        return sum(1 for move in self.moves if move.relocated)

    def target_histogram(self) -> Dict[int, int]:
        """Sessions per target shard (load-balance sanity check)."""
        histogram = {shard: 0 for shard in range(self.target_shards)}
        for move in self.moves:
            histogram[move.target_shard] += 1
        return histogram

    def as_dict(self) -> dict:
        return {
            "source_dir": self.source_dir,
            "target_dir": self.target_dir,
            "source_shards": self.source_shards,
            "target_shards": self.target_shards,
            "sessions": self.sessions,
            "relocated": self.relocated,
            "verified": self.verified,
            "hydration_verified": self.hydration_verified,
            "target_histogram": {
                str(shard): count for shard, count in self.target_histogram().items()
            },
            "moves": [
                {
                    "app": move.key.app,
                    "segment": move.key.segment,
                    "source_shard": move.source_shard,
                    "target_shard": move.target_shard,
                }
                for move in self.moves
            ],
        }


def shard_dir(root: str, shard: int) -> str:
    """The canonical per-shard snapshot directory path."""
    return os.path.join(root, "shard-%02d" % shard)


def discover_shard_dirs(snapshot_dir: str) -> Dict[int, str]:
    """Map shard index → directory for every ``shard-NN`` under ``snapshot_dir``."""
    if not os.path.isdir(snapshot_dir):
        raise ReshardingError("snapshot directory %r does not exist" % snapshot_dir)
    found: Dict[int, str] = {}
    for name in sorted(os.listdir(snapshot_dir)):
        match = _SHARD_DIR_RE.match(name)
        path = os.path.join(snapshot_dir, name)
        if match and os.path.isdir(path):
            index = int(match.group(1))
            if index in found:
                # "shard-1" next to "shard-01": silently shadowing one of
                # them would drop its sessions from the migration.
                raise ReshardingError(
                    "shard index %d appears twice (%s and %s)"
                    % (index, found[index], path)
                )
            found[index] = path
    if not found:
        raise ReshardingError(
            "no shard-NN directories under %r — not a sharded snapshot tree"
            % snapshot_dir
        )
    return found


def plan_reshard(
    source_dir: str,
    target_dir: str,
    target_shards: int,
    source_shards: Optional[int] = None,
) -> ReshardReport:
    """Read the source tree and compute every session's move (no writes).

    ``source_shards`` defaults to the highest shard directory index + 1;
    pass it explicitly when trailing shards never persisted a session.  The
    plan validates that every session actually sits on the shard its key
    hashes to under the source count — a mismatch means the declared count
    is wrong (or the tree is corrupt), and migrating under a wrong count
    would scatter sessions to shards that will never look for them.
    """
    if target_shards < 1:
        raise ReshardingError("target_shards must be at least 1, got %d" % target_shards)
    dirs = discover_shard_dirs(source_dir)
    inferred = max(dirs) + 1
    if source_shards is None:
        source_shards = inferred
    elif source_shards < inferred:
        raise ReshardingError(
            "declared source_shards=%d but found directory shard-%02d"
            % (source_shards, max(dirs))
        )
    report = ReshardReport(
        source_dir=source_dir,
        target_dir=target_dir,
        source_shards=source_shards,
        target_shards=target_shards,
    )
    seen: Dict[SessionKey, int] = {}
    for shard_index in sorted(dirs):
        directory = dirs[shard_index]
        old_files = [name for name in os.listdir(directory) if name.endswith(SESSION_SUFFIX)]
        if old_files:
            raise ReshardingError(
                "%s holds %d %s file(s) of an earlier version; start the "
                "service on the tree once (a registry moves them into its "
                "segment log when it opens) and migrate again"
                % (directory, len(old_files), SESSION_SUFFIX)
            )
        records = list_segment_sessions(directory)
        for key, record in sorted(records.items(), key=lambda item: item[1].slug):
            expected = shard_of_key(key, source_shards)
            if expected != shard_index:
                raise ReshardingError(
                    "session %s found on shard %d but hashes to shard %d under "
                    "%d source shards — wrong declared shard count?"
                    % (key, shard_index, expected, source_shards)
                )
            if key in seen:
                raise ReshardingError(
                    "session %s appears twice (shard-%02d and shard-%02d)"
                    % (key, seen[key], shard_index)
                )
            seen[key] = shard_index
            target = shard_of_key(key, target_shards)
            report.moves.append(
                SessionMove(
                    key=key,
                    source_shard=shard_index,
                    target_shard=target,
                    source_dir=directory,
                    target_dir=shard_dir(target_dir, target),
                    record=record,
                )
            )
    return report


def reshard_snapshots(
    source_dir: str,
    target_dir: str,
    target_shards: int,
    source_shards: Optional[int] = None,
    verify: bool = True,
    factory=None,
) -> ReshardReport:
    """Migrate a per-shard snapshot tree from N to M shards.

    Writes a complete target tree under ``target_dir`` (every
    ``shard-00 .. shard-(M-1)`` directory is created, so a restarted
    :class:`ShardedRegistry` finds its full layout) and appends each
    session's record bytes verbatim to the segment log of the directory its
    key hashes to under ``target_shards``.  The whole tree is staged in a
    hidden sibling directory and promoted into place with a single rename
    once every append succeeded, so a mid-copy failure (disk full, a
    corrupt source segment) leaves **no half-written target tree** behind —
    the staging directory is removed on raise and ``target_dir`` is
    untouched.  The source tree is never modified either, so a failed or
    interrupted migration cannot strand the running layout.

    With ``verify=True`` every migrated record is compared byte for byte
    against its source; passing a ``factory`` (the same
    ``key -> (model, pricer)`` callable the registry uses) additionally
    exercises the full hydration path.  Returns the :class:`ReshardReport`.
    """
    source_real = os.path.realpath(source_dir)
    target_real = os.path.realpath(target_dir)
    if source_real == target_real:
        raise ReshardingError(
            "in-place migration is not supported: target must differ from source "
            "(migrate to a sibling directory, then point the service at it)"
        )
    if os.path.isdir(target_dir) and os.listdir(target_dir):
        # Stale files from an earlier (or differently-sharded) migration
        # would survive in a tree the verification pass then blesses — and
        # a restarted registry could hydrate a session that no longer
        # exists in the source.
        raise ReshardingError(
            "target directory %r is not empty; refusing to mix migrations "
            "(remove it or pick a fresh directory)" % target_dir
        )
    report = plan_reshard(
        source_dir, target_dir, target_shards, source_shards=source_shards
    )
    parent = os.path.dirname(os.path.abspath(target_dir)) or "."
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".reshard-staging-", dir=parent)
    try:
        logs = [SegmentLog(shard_dir(staging, shard)) for shard in range(target_shards)]
        try:
            for move in report.moves:
                logs[move.target_shard].append(
                    move.record, read_segment_payload(move.source_dir, move.record)
                )
        finally:
            for log in logs:
                log.close()
        if os.path.isdir(target_dir):
            # Verified empty above; rename() needs the slot free.
            os.rmdir(target_dir)
        os.rename(staging, target_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if verify:
        verify_reshard(report, factory=factory)
    return report


def verify_reshard(report: ReshardReport, factory=None) -> ReshardReport:
    """Prove the migrated tree equals the source, session by session.

    Record-exact always: the target record equals the source record but for
    its file and offset, and its bytes equal the source's.  With
    ``factory``, each migrated session is additionally *hydrated* in a
    scratch registry (see :func:`_verify_hydration`), whose directory is
    removed on success and on every exception path.  Raises
    :class:`ReshardingError` on the first divergence.
    """
    targets: Dict[str, Dict[SessionKey, SegmentRecord]] = {}
    for move in report.moves:
        if move.target_dir not in targets:
            targets[move.target_dir] = list_segment_sessions(move.target_dir)
        target = targets[move.target_dir].get(move.key)
        if target is None:
            raise ReshardingError(
                "migrated session %s is missing from %s" % (move.key, move.target_dir)
            )
        source = move.record
        moved_back = replace(target, file_id=source.file_id, offset=source.offset)
        if moved_back.to_json_line() != source.to_json_line():
            raise ReshardingError(
                "migrated session %s changed its record" % (move.key,)
            )
        if read_segment_payload(move.target_dir, target) != read_segment_payload(
            move.source_dir, source
        ):
            raise ReshardingError(
                "migrated session %s diverged from its source bytes" % (move.key,)
            )
        if factory is not None:
            _verify_hydration(move, target, factory)
    report.verified = True
    report.hydration_verified = factory is not None
    return report


def _verify_hydration(move: SessionMove, target: SegmentRecord, factory) -> None:
    """Hydrate one migrated session the way a restarted service does.

    A scratch registry imports the target record and hydrates it from its
    log, zero-copy; the state must equal the source state exactly.  It is
    then persisted, evicted and hydrated once more, and must still equal
    it.  The scratch directory is removed in a ``finally``, so success and
    every exception path (a divergence, a factory error, a corrupt record)
    leave nothing behind.
    """
    source_state = read_segment_record(move.source_dir, move.record).state
    scratch = tempfile.mkdtemp(prefix=".reshard-verify-")
    try:
        registry = PricerRegistry(factory, snapshot_dir=scratch)
        try:
            registry.import_session(target, read_segment_payload(move.target_dir, target))
            for step in ("hydrated from the migrated record", "re-persisted and hydrated"):
                state = registry.session(move.key).pricer.state_dict()
                if not state_equal(state, source_state):
                    raise ReshardingError(
                        "session %s %s does not reproduce the source state exactly"
                        % (move.key, step)
                    )
                registry.evict(move.key)
        finally:
            registry.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
