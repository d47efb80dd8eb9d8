"""Online N→M resharding: migrate live shards without stopping the service.

:mod:`repro.serving.resharding` moves snapshot trees **offline** — the
service is stopped, the tree is rewritten, the service restarts on the new
layout.  This module closes the remaining gap: :class:`LiveRebalancer`
re-homes sessions **under traffic**, one at a time, through
:meth:`~repro.serving.sharding.ShardedRegistry.rehome_session`'s
per-session quiesce (park new admissions, drain, export the session's
segment record, append its bytes verbatim to the target shard's log and
read them back, retire the source's record, re-attach on the target,
replay the parked quotes) — every
session *not* currently moving keeps serving throughout, and the whole
migration is verifiable by the same bit-exactness contract as the offline
path.

The migration protocol for scaling N → M shards:

1. **scale out** — spawn workers until ``max(N, M)`` are live; the hash
   placement still uses the old divisor, so new sessions keep landing on
   the old layout (no split-brain while moving);
2. **sweep** — plan every session (resident *and* cold segment records)
   whose current shard differs from its hash placement under ``M``, and
   re-home each; re-plan and repeat until a sweep finds nothing, which
   also catches sessions created mid-migration on the old placement;
3. **commit** — collapse the per-key routing overrides into the new hash
   divisor (:meth:`~repro.serving.sharding.ShardedRegistry.commit_routing`
   validates every override equals its hash placement, so nothing can be
   stranded);
4. **scale in** — when M < N, retire the now-empty trailing workers (each
   removal re-checks the shard really holds nothing).

Admissions of *brand-new* session keys race the sweeps by nature: a key
first seen mid-migration lands on the old placement and is caught by the
next sweep.  The residual window — a key admitted *between* the final empty
sweep and the commit — is closed by taking the router's admission lock
(:meth:`~repro.serving.sharding.ShardedRegistry.routing_freeze`) around the
final plan + commit: while the rebalancer verifies the plan is empty and
collapses the routing table, no new session can be admitted, so nothing can
slip onto the old placement unmoved.  Admissions block for the duration of
one planning pass (no quotes are lost — they queue on the lock).

``scripts/rebalance.py`` wraps this as a CLI and
``tests/serving/test_rebalance.py`` pins the bit-exactness bar: all golden
families replayed through a live 2→3 migration under socket traffic equal
the offline engine exactly, with zero lost quote ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import RebalanceError, ReshardingError
from repro.serving.requests import SessionKey
from repro.serving.resharding import discover_shard_dirs
from repro.serving.sharding import MAX_SHARDS, ShardedRegistry, shard_of_key
from repro.serving.store import list_segment_sessions

__all__ = [
    "SessionRebalance",
    "RebalanceReport",
    "LiveRebalancer",
    "rebalance_live",
]

#: A sweep that keeps finding work this many times is livelocked (sessions
#: are being created on the old placement faster than they can be moved).
MAX_SWEEPS = 32


@dataclass(frozen=True)
class SessionRebalance:
    """One session's completed live move."""

    key: SessionKey
    source: int
    target: int
    #: Whether the session was resident (hot) on the source when moved.
    resident: bool
    #: Whether the target worker re-hydrated it from the moved record.
    hydrated: bool
    #: Whether a segment record crossed shards (the session had state).
    file_moved: bool
    #: Admissions parked during the move and replayed on the target.
    parked_replayed: int
    quiesce_seconds: float

    def as_dict(self) -> dict:
        return {
            "app": self.key.app,
            "segment": self.key.segment,
            "source": self.source,
            "target": self.target,
            "resident": self.resident,
            "hydrated": self.hydrated,
            "file_moved": self.file_moved,
            "parked_replayed": self.parked_replayed,
            "quiesce_seconds": self.quiesce_seconds,
        }


@dataclass
class RebalanceReport:
    """The outcome of one live migration (JSON-serialisable)."""

    source_shards: int
    target_shards: int
    moves: List[SessionRebalance] = field(default_factory=list)
    sweeps: int = 0
    routing_version: int = 0
    #: The registry's ``rebalance`` stats block at completion (parked /
    #: replayed quote counts, quiesce-time percentiles) — the same block the
    #: frontend stats frame carries, exported here for CI artifacts.
    stats: dict = field(default_factory=dict)

    @property
    def sessions(self) -> int:
        return len(self.moves)

    @property
    def relocated(self) -> int:
        """Moves that actually changed shards (all of them, by planning)."""
        return sum(1 for move in self.moves if move.source != move.target)

    def as_dict(self) -> dict:
        return {
            "source_shards": self.source_shards,
            "target_shards": self.target_shards,
            "sessions": self.sessions,
            "relocated": self.relocated,
            "sweeps": self.sweeps,
            "routing_version": self.routing_version,
            "stats": self.stats,
            "moves": [move.as_dict() for move in self.moves],
        }


class LiveRebalancer:
    """Drive a full N→M migration of a live :class:`ShardedRegistry`.

    Parameters
    ----------
    sharded:
        The live registry (its ``snapshot_dir`` must be set — session state
        moves between the shards' segment logs).
    target_shards:
        The desired shard count (1 ≤ M ≤ :data:`MAX_SHARDS`).
    quiesce_timeout / poll_interval:
        Forwarded to every
        :meth:`~repro.serving.sharding.ShardedRegistry.rehome_session` call.
    after_move:
        Optional hook ``(move_count, SessionRebalance) -> None`` invoked
        after each completed move — the chaos tier uses it to kill a shard
        worker mid-migration.
    before_commit:
        Optional hook invoked with the routing freeze held, after the final
        plan came back empty and immediately before ``commit_routing`` —
        the regression tier uses it to race concurrent admissions into the
        commit window and assert they block until the new routing is live.
    """

    def __init__(
        self,
        sharded: ShardedRegistry,
        target_shards: int,
        quiesce_timeout: float = 30.0,
        poll_interval: float = 0.002,
        after_move: Optional[Callable[[int, SessionRebalance], None]] = None,
        before_commit: Optional[Callable[[], None]] = None,
    ) -> None:
        if not 1 <= target_shards <= MAX_SHARDS:
            raise RebalanceError(
                "target_shards must be in [1, %d], got %d"
                % (MAX_SHARDS, target_shards)
            )
        if sharded.snapshot_root is None:
            raise RebalanceError(
                "online rebalance requires the registry to have a snapshot_dir"
            )
        self.sharded = sharded
        self.target_shards = target_shards
        self.quiesce_timeout = quiesce_timeout
        self.poll_interval = poll_interval
        self.after_move = after_move
        self.before_commit = before_commit

    # ------------------------------------------------------------------ #

    def known_keys(self) -> List[SessionKey]:
        """Every session the service knows: resident plus cold records.

        Cold sessions (persisted then evicted, or never touched since a
        restart) exist only as segment records — a migration that moved
        only resident sessions would strand them on directories the new
        placement never reads.
        """
        keys: Dict[SessionKey, None] = {}
        for shard_keys in self.sharded.resident_keys_by_shard().values():
            for key in shard_keys:
                keys.setdefault(key, None)
        try:
            dirs = discover_shard_dirs(self.sharded.snapshot_root)
        except ReshardingError:
            # No shard-NN directories yet: nothing has ever persisted.
            dirs = {}
        for directory in dirs.values():
            for key in list_segment_sessions(directory):
                keys.setdefault(key, None)
        return list(keys)

    def plan(self) -> List[Tuple[SessionKey, int, int]]:
        """``(key, current_shard, desired_shard)`` for every relocating key."""
        moves: List[Tuple[SessionKey, int, int]] = []
        for key in self.known_keys():
            current = self.sharded.shard_of(key)
            desired = shard_of_key(key, self.target_shards)
            if current != desired:
                moves.append((key, current, desired))
        moves.sort(key=lambda item: item[0].slug())
        return moves

    def run(self) -> RebalanceReport:
        """Execute the full scale-out → sweep → commit → scale-in protocol."""
        sharded = self.sharded
        report = RebalanceReport(
            source_shards=sharded.num_shards, target_shards=self.target_shards
        )
        while sharded.num_shards < self.target_shards:
            sharded.add_shard()
        while True:
            # The final (empty) plan and the commit happen atomically under
            # the router's admission lock: a brand-new session key admitted
            # concurrently either lands *before* the planning pass (and is
            # planned and moved by this sweep) or blocks on the lock until
            # the new hash placement is committed — the residual
            # between-sweep-and-commit stranding window no longer exists.
            # A non-empty plan releases the lock before moving anything:
            # rehome_session must interleave with live traffic.
            with sharded.routing_freeze():
                plan = self.plan()
                if not plan:
                    if self.before_commit is not None:
                        self.before_commit()
                    report.routing_version = sharded.commit_routing(
                        self.target_shards
                    )
                    break
            report.sweeps += 1
            if report.sweeps > MAX_SWEEPS:
                raise RebalanceError(
                    "migration did not converge after %d sweeps: sessions are "
                    "being created on the old placement faster than they can "
                    "be moved (gate new-key admissions and retry)" % MAX_SWEEPS
                )
            for key, source, desired in plan:
                result = sharded.rehome_session(
                    key,
                    desired,
                    quiesce_timeout=self.quiesce_timeout,
                    poll_interval=self.poll_interval,
                )
                if not result["moved"]:
                    continue
                move = SessionRebalance(
                    key=key,
                    source=result["source"],
                    target=result["target"],
                    resident=result["resident"],
                    hydrated=result["hydrated"],
                    file_moved=result["file_moved"],
                    parked_replayed=result["parked_replayed"],
                    quiesce_seconds=result["quiesce_seconds"],
                )
                report.moves.append(move)
                if self.after_move is not None:
                    self.after_move(len(report.moves), move)
        while sharded.num_shards > self.target_shards:
            sharded.remove_trailing_shard()
        report.stats = sharded.rebalance_stats.as_dict()
        return report


def rebalance_live(
    sharded: ShardedRegistry, target_shards: int, **kwargs
) -> RebalanceReport:
    """Migrate a live registry to ``target_shards`` (convenience wrapper)."""
    return LiveRebalancer(sharded, target_shards, **kwargs).run()
