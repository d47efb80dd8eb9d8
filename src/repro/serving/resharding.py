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
recovers every session's identity from its checkpoint metadata (the
``app``/``segment`` the registry stamps on each snapshot), and rewrites the
tree under the **target** shard count — copying each ``.session.npz``
byte-for-byte (the checkpoint format carries no shard information) into the
directory its key hashes to under M shards.  Because placement is the only
thing that changes, a service restarted on the migrated tree hydrates every
session **bit-identically**: the golden resharding tier
(``tests/serving/test_resharding.py``) replays half a horizon on N shards,
migrates, resumes on M shards, and pins the stitched transcript against the
offline engine for every golden pricer family.

Verification levels:

* **checkpoint-exact** (always, unless disabled): source and target
  checkpoints are reloaded and compared — pricer type, rounds done, and
  every state array bit-for-bit (``tobytes`` equality, so even NaN
  payloads must match);
* **hydration** (with a ``factory``): a fresh pricer is built for each
  migrated key, the target checkpoint is restored into it, and its
  re-extracted ``state_dict()`` must equal the source state exactly — the
  full restart path, not just the file copy.

``scripts/reshard.py`` wraps this as a CLI.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine import checkpoint as checkpoint_store
from repro.engine.checkpoint import _atomic_write
from repro.engine.equivalence import state_equal
from repro.exceptions import ReshardingError
from repro.serving.store import SESSION_SUFFIX
from repro.serving.requests import SessionKey
from repro.serving.sharding import shard_of_key

__all__ = [
    "SESSION_SUFFIX",
    "SessionMove",
    "ReshardReport",
    "shard_dir",
    "discover_shard_dirs",
    "checkpoint_session_key",
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
    source_path: str
    target_path: str

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


def checkpoint_session_key(checkpoint) -> SessionKey:
    """Recover the session identity the registry stamped on a snapshot."""
    app = checkpoint.meta.get("app")
    segment = checkpoint.meta.get("segment")
    if app is None or segment is None:
        raise ReshardingError(
            "snapshot carries no session identity (meta app/segment missing); "
            "it was not written by a PricerRegistry"
        )
    return SessionKey(app=str(app), segment=str(segment))


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
    # The offline resharder moves sessions as individual ``.session.npz``
    # files; a tree with live segment-resident sessions (the columnar
    # store's ``snapshot_format="segment"``) would silently lose them.
    from repro.serving.store import list_segment_sessions

    for directory in dirs.values():
        stranded = list_segment_sessions(directory)
        if stranded:
            raise ReshardingError(
                "%s holds %d segment-resident session(s); offline resharding "
                "operates on legacy files — run "
                "repro.serving.store.export_segments_to_legacy on each shard "
                "directory first, or migrate live with rebalance_live"
                % (directory, len(stranded))
            )
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
    seen: Dict[SessionKey, str] = {}
    for shard_index in sorted(dirs):
        directory = dirs[shard_index]
        for name in sorted(os.listdir(directory)):
            if not name.endswith(SESSION_SUFFIX):
                continue
            source_path = os.path.join(directory, name)
            checkpoint = checkpoint_store.load_checkpoint(source_path)
            key = checkpoint_session_key(checkpoint)
            expected = shard_of_key(key, source_shards)
            if expected != shard_index:
                raise ReshardingError(
                    "session %s found on shard %d but hashes to shard %d under "
                    "%d source shards — wrong declared shard count?"
                    % (key, shard_index, expected, source_shards)
                )
            if key in seen:
                raise ReshardingError(
                    "session %s appears twice (%s and %s)" % (key, seen[key], source_path)
                )
            seen[key] = source_path
            target = shard_of_key(key, target_shards)
            report.moves.append(
                SessionMove(
                    key=key,
                    source_shard=shard_index,
                    target_shard=target,
                    source_path=source_path,
                    target_path=os.path.join(shard_dir(target_dir, target), name),
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
    :class:`ShardedRegistry` finds its full layout) and copies each session
    snapshot — byte-for-byte, atomically — into the directory its key
    hashes to under ``target_shards``.  The whole tree is staged in a
    hidden sibling directory and promoted into place with a single rename
    once every copy succeeded, so a mid-copy failure (disk full, a
    corrupt source file) leaves **no half-written target tree** behind —
    the staging directory is removed on raise and ``target_dir`` is
    untouched.  The source tree is never modified either, so a failed or
    interrupted migration cannot strand the running layout.

    With ``verify=True`` every migrated checkpoint is reloaded and compared
    bit-exactly against its source; passing a ``factory`` (the same
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
        for shard in range(target_shards):
            os.makedirs(shard_dir(staging, shard), exist_ok=True)
        for move in report.moves:
            staged_path = os.path.join(
                staging, os.path.relpath(move.target_path, target_dir)
            )
            with open(move.source_path, "rb") as handle:
                _atomic_write(staged_path, handle.read())
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

    Checkpoint-exact always; with ``factory``, each migrated session is
    additionally *hydrated* — a fresh pricer restored from the target file
    must re-extract a ``state_dict()`` bit-identical to the source state,
    and the re-extracted state must survive a save/load round trip (the
    exact path a later re-persist of the hydrated session takes).  The
    round trip runs in a scratch directory that is removed on success and
    on every exception path, so verification never leaves temporary
    hydration state behind in (or next to) the migrated tree.  Raises
    :class:`ReshardingError` on the first divergence.
    """
    for move in report.moves:
        source = checkpoint_store.load_checkpoint(move.source_path)
        target = checkpoint_store.load_checkpoint(move.target_path)
        if source.pricer_type != target.pricer_type:
            raise ReshardingError(
                "migrated session %s changed pricer type (%r -> %r)"
                % (move.key, source.pricer_type, target.pricer_type)
            )
        if source.rounds_done != target.rounds_done:
            raise ReshardingError(
                "migrated session %s changed rounds_done (%d -> %d)"
                % (move.key, source.rounds_done, target.rounds_done)
            )
        if not state_equal(source.state, target.state):
            raise ReshardingError(
                "migrated session %s diverged from its source checkpoint" % (move.key,)
            )
        if factory is not None:
            _verify_hydration(move, source, target, factory)
    report.verified = True
    report.hydration_verified = factory is not None
    return report


def _verify_hydration(move: SessionMove, source, target, factory) -> None:
    """Hydrate one migrated session and round-trip its re-extracted state.

    All temporary state (the scratch checkpoint of the hydrated pricer)
    lives in a private directory that is removed in a ``finally`` — success
    and every exception path (a divergence, a factory error, a corrupt
    checkpoint) leave nothing behind.
    """
    _model, pricer = factory(move.key)
    checkpoint_store.restore_pricer(pricer, target)
    scratch = tempfile.mkdtemp(prefix=".reshard-verify-")
    try:
        if not state_equal(pricer.state_dict(), source.state):
            raise ReshardingError(
                "session %s hydrated from the migrated snapshot does not "
                "reproduce the source state exactly" % (move.key,)
            )
        scratch_path = os.path.join(scratch, "hydrated" + SESSION_SUFFIX)
        checkpoint_store.save_checkpoint(
            scratch_path,
            pricer,
            rounds_done=target.rounds_done,
            meta=dict(target.meta),
        )
        reread = checkpoint_store.load_checkpoint(scratch_path)
        if not state_equal(reread.state, source.state):
            raise ReshardingError(
                "session %s does not survive a hydrate → re-persist round "
                "trip bit-identically" % (move.key,)
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
