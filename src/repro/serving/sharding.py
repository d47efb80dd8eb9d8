"""Cross-process session sharding for the quote-serving subsystem.

:class:`ShardedRegistry` is a router in front of *N* worker processes, each
owning one :class:`~repro.serving.store.PricerRegistry` plus one
:class:`~repro.serving.service.QuoteService`.  Session keys are placed on
shards through a **versioned routing table**: the default placement is a
stable (process-independent) SHA-1 hash of the key, and per-key overrides
re-home individual sessions while a live reshard is in flight — a session's
entire lifetime (creation, every quote, every feedback event, its snapshot
record) lives on exactly one worker at a time:

* **quote/feedback dispatch** travels over ``multiprocessing`` pipes, batched
  per shard (one message per touched shard per call, never one per request);
* **quote ids are globalised** by the router with a fixed stride
  (``global = local * ID_STRIDE + shard``) so ids stay stable while the
  worker count changes underneath them; ids handed out for quotes *parked*
  during a migration use the reserved :data:`PARKED_SLOT` lane and are
  aliased to the real id once replayed on the target shard;
* **per-shard snapshot dirs** (``<snapshot_dir>/shard-<i>``) give every
  worker its own segment log — a session rehydrates bit-identically on
  restart;
* **failure accounting crosses the process boundary**: a worker-side drain
  failure arrives as the same structured :class:`~repro.exceptions.
  ServingError` (lost / requeued quote ids, translated to global ids) the
  in-process service raises, and a shard worker dying mid-command surfaces
  its complete in-flight quote set as lost exactly once — subsequent polls
  return normally instead of re-raising forever.

**Online rebalancing.**  :meth:`ShardedRegistry.rehome_session` migrates one
session between shards *under traffic*: new admissions for the moving key
are parked (their ids issued immediately, so frontend waiter maps stay
correct), the source shard drains the session's queued quotes, the router
waits for its in-flight feedback to settle (per-session quiesce — every
other session keeps serving), the source exports its segment record, the
router relays record and bytes over the pipes to the target, which appends
them verbatim to its own log and reads them back, the source then retires
its record, the routing table gains an override, the session is
re-attached (pinned) on the target, and the parked quotes are replayed in
order.  :mod:`repro.serving.rebalance` drives whole N→M migrations over
this primitive.  Because each session is pinned to one worker at a time
and the per-session protocol (quote → feedback → next quote) is preserved
by per-shard FIFO pipes and ordered parked replay, a closed-loop replay
through a migration is **bit-identical** to the in-process service and to
the offline engine (pinned by ``tests/serving/``).

The default start method is ``fork`` (factories may close over live models
and numpy arrays, shared copy-on-write); pass ``start_method="spawn"`` with
a picklable factory on platforms without fork.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import multiprocessing

from repro.exceptions import RebalanceError, ServingError
from repro.serving.requests import FeedbackEvent, QuoteRequest, QuoteResponse, SessionKey
from repro.serving.store import PricerRegistry, list_segment_sessions
from repro.serving.service import MicroBatchConfig, QuoteService
from repro.utils.metrics import LatencySummary

#: Fixed stride of the global quote-id space: ``global = local * ID_STRIDE +
#: shard``.  A constant (rather than the live shard count) keeps every
#: already-issued id valid while workers are added or removed mid-flight.
ID_STRIDE = 4096

#: Reserved shard lane for quote ids issued while their session is moving
#: between shards — the id is handed out immediately (waiter maps key on it)
#: and aliased to the real target-shard id once the parked quote is replayed.
PARKED_SLOT = ID_STRIDE - 1

#: Maximum live worker count (the parked lane is reserved).
MAX_SHARDS = ID_STRIDE - 1


def shard_of_key(key: SessionKey, num_shards: int) -> int:
    """The stable default shard index of one session key.

    Derived from a SHA-1 digest of ``(app, segment)`` — not Python's salted
    ``hash()`` — so every process (router, workers, a restarted service)
    agrees on the placement.
    """
    raw = ("%s\x00%s" % (key.app, key.segment)).encode("utf-8")
    digest = hashlib.sha1(raw).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


@dataclass
class RoutingTable:
    """Versioned key→shard map: hash placement plus per-key overrides.

    ``hash_shards`` is the divisor of the default SHA-1 placement;
    ``overrides`` re-home individual keys while a migration is in flight.
    Every mutation bumps ``version``, so stats consumers can observe
    routing changes.  :meth:`commit` retires the overrides into a new hash
    divisor once a full N→M migration has moved every relocating session.
    """

    hash_shards: int
    overrides: Dict[SessionKey, int] = field(default_factory=dict)
    version: int = 0

    def shard_of(self, key: SessionKey) -> int:
        override = self.overrides.get(key)
        if override is not None:
            return override
        return shard_of_key(key, self.hash_shards)

    def set_override(self, key: SessionKey, shard: int) -> None:
        self.overrides[key] = shard
        self.version += 1

    def commit(self, hash_shards: int) -> None:
        """Adopt a new hash divisor, validating every override agrees.

        A key whose override does not match its hash placement under the
        new divisor would be stranded (looked up on the wrong shard after a
        restart) — the commit refuses instead of silently dropping it.
        """
        for key, shard in self.overrides.items():
            expected = shard_of_key(key, hash_shards)
            if shard != expected:
                raise RebalanceError(
                    "cannot commit routing at %d shards: session %s sits on "
                    "shard %d but hashes to shard %d — move it first"
                    % (hash_shards, key, shard, expected),
                    key=key,
                )
        self.overrides.clear()
        self.hash_shards = hash_shards
        self.version += 1


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #


def _shard_worker_main(
    conn,
    shard_index: int,
    factory,
    config,
    snapshot_dir,
    max_sessions,
    persist_every,
    first_quote_id: int = 0,
) -> None:
    """One shard's request loop: a registry + service behind a pipe.

    Commands are ``(op, payload)`` tuples; every command gets exactly one
    ``("ok", result)`` or ``("error", exception)`` reply, so the parent can
    pipeline sends across shards and collect replies in order.
    ``first_quote_id`` seeds the service's id counter — a respawned worker
    starts past its dead predecessor's highest issued id, so stale feedback
    for a lost quote can never settle a fresh one by id collision.
    """
    registry = PricerRegistry(
        factory,
        snapshot_dir=snapshot_dir,
        max_sessions=max_sessions,
        persist_every=persist_every,
    )
    service = QuoteService(registry, config=config, first_quote_id=first_quote_id)
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if op == "submit":
                result = service.submit_many(payload)
            elif op == "poll":
                result = service.poll()
            elif op == "flush":
                result = service.flush()
            elif op == "quote":
                result = service.quote(payload)
            elif op == "feedback":
                service.feedback_batch(payload)
                result = len(payload)
            elif op == "feedback_many":
                result = service.feedback_many(payload)
            elif op == "replay":
                result = _replay_closed_loop_window(service, payload)
            elif op == "session_info":
                session = registry.peek(payload)
                result = {
                    "resident": session is not None,
                    "pending": len(session.pending) if session is not None else 0,
                    "queued": service.queued_for(payload),
                    "rounds_seen": session.rounds_seen if session is not None else None,
                    "pinned": session.pinned if session is not None else False,
                }
            elif op == "export_session":
                resident = registry.peek(payload) is not None
                moved = registry.export_session(payload)
                result = None
                if moved is not None:
                    result = {"resident": resident, "record": moved[0], "payload": moved[1]}
            elif op == "import_session":
                registry.import_session(payload["record"], payload["payload"])
                result = True
            elif op == "retire_session":
                result = registry.retire_session(payload)
            elif op == "attach_session":
                key = payload["key"]
                session = registry.session(key)
                if payload.get("pin"):
                    registry.pin(key)
                result = {
                    "hydrated": session.hydrated,
                    "rounds_seen": session.rounds_seen,
                }
            elif op == "pin":
                registry.pin(payload)
                result = True
            elif op == "unpin":
                registry.unpin(payload)
                result = True
            elif op == "resident_keys":
                result = list(registry.resident_keys)
            elif op == "stats":
                result = {
                    "shard": shard_index,
                    "quotes_served": service.stats.quotes_served,
                    "drains": service.stats.drains,
                    "batched_proposals": service.stats.batched_proposals,
                    "feedback_applied": service.stats.feedback_applied,
                    "latency_samples": list(service.stats.latency.samples_seconds),
                    "registry": registry.stats.as_dict(),
                    "sessions_resident": registry.resident_count,
                }
            elif op == "persist":
                result = registry.flush()
            elif op == "stop":
                conn.send(("ok", None))
                break
            else:
                raise ServingError("unknown shard command %r" % (op,))
        except Exception as exc:  # noqa: BLE001 — every failure must cross the pipe
            try:
                conn.send(("error", exc))
            except Exception:
                conn.send(("error", ServingError(repr(exc))))
            continue
        conn.send(("ok", result))
    conn.close()


def _replay_closed_loop_window(service: QuoteService, pairs) -> int:
    """Serve a window of ``(request, market_value)`` pairs closed-loop.

    The shard-local half of the replay bench: one synchronous quote per
    request, the sale settled against the realised market value with the
    engine's scalar comparison, feedback applied before the next request of
    the same session (pairs arrive in round order per session, so the
    per-session protocol is exactly the offline engine's).
    """
    served = 0
    for request, market_value in pairs:
        response = service.quote(request)
        service.feedback(
            FeedbackEvent(
                key=request.key,
                quote_id=response.quote_id,
                accepted=response.sold_at(market_value),
            )
        )
        served += 1
    return served


# --------------------------------------------------------------------------- #
# Router side
# --------------------------------------------------------------------------- #


@dataclass
class _ShardHandle:
    """Parent-side view of one worker: its process, pipe, and queue depth.

    ``outstanding`` holds the *internal* global ids of router-submitted
    quotes that have not produced a response yet — an exact set, not a
    counter, so drain failures (whose lost ids may include quotes the
    router never submitted, e.g. a worker-side synchronous quote) cannot
    skew the accounting.  ``local_floor`` tracks one past the highest local
    id the worker is known to have issued; a respawned worker is seeded
    from it.  ``dead`` marks a worker whose pipe broke — its in-flight
    quotes were reported lost once, and no further commands are sent.
    """

    index: int
    process: Any
    conn: Any
    snapshot_dir: Optional[str] = None
    outstanding: set = field(default_factory=set)
    local_floor: int = 0
    dead: bool = False


@dataclass
class _MovingSession:
    """Router-side state of one in-flight session migration."""

    key: SessionKey
    source: int
    target: int
    #: ``(public_id, request)`` pairs admitted while the session moves —
    #: replayed in order on the target shard once it owns the session.
    parked: List[Tuple[int, QuoteRequest]] = field(default_factory=list)
    started: float = 0.0


@dataclass
class RebalanceStats:
    """Counters of the online-migration machinery (stats ``rebalance`` block)."""

    sessions_moved: int = 0
    files_moved: int = 0
    moves_failed: int = 0
    parked_quotes: int = 0
    peak_parked: int = 0
    replayed_quotes: int = 0
    quiesce_seconds: List[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "sessions_moved": self.sessions_moved,
            "files_moved": self.files_moved,
            "moves_failed": self.moves_failed,
            "parked_quotes": self.parked_quotes,
            "peak_parked": self.peak_parked,
            "replayed_quotes": self.replayed_quotes,
            "quiesce": LatencySummary.from_seconds(self.quiesce_seconds).as_dict(),
        }



class ShardedRegistry:
    """Hash-sharded quote service: N worker processes behind one router.

    Mirrors the :class:`~repro.serving.service.QuoteService` surface
    (``submit`` / ``poll`` / ``flush`` / ``quote`` / ``feedback`` /
    ``feedback_batch``) so the socket front end and the load generator drive
    either interchangeably.  All public methods are thread-safe (one router
    lock), so a rebalancer thread can migrate sessions while frontend
    threads keep serving.

    Parameters
    ----------
    factory:
        Session factory, as for :class:`PricerRegistry`.  With the default
        ``fork`` start method it may close over live objects; with
        ``spawn`` it must be picklable.
    num_shards:
        Worker process count (≥ 1).
    config:
        Micro-batch window applied inside every worker's service.
    snapshot_dir:
        Parent directory of the per-shard snapshot dirs
        (``shard-00``, ``shard-01``, ...); ``None`` disables persistence
        (and online rebalancing, which moves sessions between the shards'
        segment logs).
    max_sessions / persist_every:
        Per-shard registry knobs (capacity is per worker).
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` when
        available.
    """

    def __init__(
        self,
        factory,
        num_shards: int,
        config: Optional[MicroBatchConfig] = None,
        snapshot_dir: Optional[str] = None,
        max_sessions: Optional[int] = None,
        persist_every: int = 0,
        start_method: Optional[str] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1, got %d" % num_shards)
        if num_shards > MAX_SHARDS:
            raise ValueError(
                "num_shards must be at most %d, got %d" % (MAX_SHARDS, num_shards)
            )
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._context = multiprocessing.get_context(start_method)
        self._factory = factory
        self._config = config
        self._snapshot_root = snapshot_dir
        self._max_sessions = max_sessions
        self._persist_every = persist_every
        self.num_shards = num_shards
        self._closed = False
        self._lock = threading.RLock()
        #: Signalled whenever a session migration completes or aborts.
        self._moved = threading.Condition(self._lock)
        #: Responses collected while another shard's drain failed — returned
        #: by the next poll/flush so a partial failure never drops quotes.
        self._outbox: List[QuoteResponse] = []
        self._routing = RoutingTable(hash_shards=num_shards)
        self._moving: Dict[SessionKey, _MovingSession] = {}
        #: Parked-quote id aliases, live only between a parked quote's replay
        #: and its feedback settling: internal target-shard id → public
        #: parked-lane id, and the reverse map for feedback routing.
        self._aliases: Dict[int, int] = {}
        self._alias_back: Dict[int, int] = {}
        self._next_parked_seq = 0
        #: Quote ids written off outside a poll (``respawn_shard``, a failed
        #: parked-quote replay).  The next poll/flush raises them as a
        #: structured ServingError so a concurrent serving loop — e.g. the
        #: socket frontend's drain task — fails the right waiters instead of
        #: leaving them hanging forever.
        self._written_off: List[int] = []
        self.rebalance_stats = RebalanceStats()
        self._shards: List[_ShardHandle] = []
        for index in range(num_shards):
            self._shards.append(self._spawn_shard(index))

    @property
    def snapshot_root(self) -> Optional[str]:
        """Parent directory of the per-shard snapshot dirs (``None`` = off)."""
        return self._snapshot_root

    def _spawn_shard(self, index: int, first_quote_id: int = 0) -> _ShardHandle:
        shard_dir = None
        if self._snapshot_root is not None:
            shard_dir = os.path.join(self._snapshot_root, "shard-%02d" % index)
            os.makedirs(shard_dir, exist_ok=True)
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                index,
                self._factory,
                self._config,
                shard_dir,
                self._max_sessions,
                self._persist_every,
                first_quote_id,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _ShardHandle(
            index=index,
            process=process,
            conn=parent_conn,
            snapshot_dir=shard_dir,
            local_floor=first_quote_id,
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def shard_of(self, key: SessionKey) -> int:
        """The shard index currently owning ``key``'s session."""
        with self._lock:
            return self._routing.shard_of(key)

    @property
    def routing_version(self) -> int:
        """The routing table's mutation counter."""
        with self._lock:
            return self._routing.version

    def _globalize(self, shard: int, local_id: int) -> int:
        return local_id * ID_STRIDE + shard

    def _localize(self, key: SessionKey, public_id: int) -> Tuple[int, int]:
        internal = self._alias_back.get(public_id, public_id)
        shard = internal % ID_STRIDE
        if shard == PARKED_SLOT:
            raise ServingError(
                "quote id %d of session %s is parked mid-rebalance; its "
                "response has not been issued yet" % (public_id, key)
            )
        expected = self._routing.shard_of(key)
        if shard != expected or shard >= len(self._shards):
            raise ServingError(
                "quote id %d does not belong to session %s (shard %d)"
                % (public_id, key, expected)
            )
        return shard, internal // ID_STRIDE

    def _translate_response(self, handle: _ShardHandle, response: QuoteResponse) -> QuoteResponse:
        local_id = response.quote_id
        if local_id + 1 > handle.local_floor:
            handle.local_floor = local_id + 1
        internal = self._globalize(handle.index, local_id)
        handle.outstanding.discard(internal)
        # A replayed parked quote answers under its original public id; the
        # alias stays until the quote's feedback settles (or it is lost).
        response.quote_id = self._aliases.get(internal, internal)
        return response

    def _lost_public(self, handle: _ShardHandle, local_id: int) -> int:
        """Translate one lost worker-local id, repairing the accounting."""
        internal = self._globalize(handle.index, local_id)
        handle.outstanding.discard(internal)
        public = self._aliases.pop(internal, internal)
        self._alias_back.pop(public, None)
        return public

    def _translate_error(self, handle: _ShardHandle, exc: Exception) -> Exception:
        if isinstance(exc, ServingError):
            exc.lost_quote_ids = [
                self._lost_public(handle, local) for local in exc.lost_quote_ids
            ]
            requeued = []
            for local in exc.requeued_quote_ids:
                internal = self._globalize(handle.index, local)
                requeued.append(self._aliases.get(internal, internal))
            exc.requeued_quote_ids = requeued
            if exc.response is not None:
                self._translate_response(handle, exc.response)
        return exc

    def _settle_alias(self, public_id: int) -> None:
        """Drop a replayed parked quote's alias once its feedback settled."""
        internal = self._alias_back.pop(public_id, None)
        if internal is not None:
            self._aliases.pop(internal, None)

    # ------------------------------------------------------------------ #
    # Pipe plumbing
    # ------------------------------------------------------------------ #

    def _shard_down(self, handle: _ShardHandle, message: str) -> ServingError:
        """Mark a worker dead; its whole in-flight set is lost exactly once."""
        handle.dead = True
        lost_internal = sorted(handle.outstanding)
        handle.outstanding.clear()
        lost_public = []
        for internal in lost_internal:
            public = self._aliases.pop(internal, internal)
            self._alias_back.pop(public, None)
            lost_public.append(public)
        if lost_public:
            message += "; %d in-flight quote(s) lost" % len(lost_public)
        return ServingError(message, lost_quote_ids=lost_public)

    def _send(self, handle: _ShardHandle, op: str, payload) -> None:
        if self._closed:
            raise ServingError("sharded registry is closed")
        if handle.dead:
            raise ServingError(
                "shard %d worker is dead; respawn_shard(%d) to recover"
                % (handle.index, handle.index)
            )
        try:
            handle.conn.send((op, payload))
        except (BrokenPipeError, OSError) as exc:
            raise self._shard_down(
                handle, "shard %d worker is gone: %s" % (handle.index, exc)
            )

    def _recv(self, handle: _ShardHandle):
        try:
            status, payload = handle.conn.recv()
        except (EOFError, OSError):
            raise self._shard_down(
                handle, "shard %d worker died mid-command" % handle.index
            )
        if status == "error":
            if isinstance(payload, Exception):
                raise self._translate_error(handle, payload)
            raise ServingError("shard %d failed: %r" % (handle.index, payload))
        return payload

    def _roundtrip(self, handle: _ShardHandle, op: str, payload=None):
        self._send(handle, op, payload)
        return self._recv(handle)

    def _gather(self, requests: Sequence[Tuple[_ShardHandle, str, Any]]) -> List:
        """Send every command first, then collect replies — shards overlap.

        A send failure on one shard (its worker died) must not abort the
        loop: later shards still get their commands, and replies from every
        successfully-sent shard are collected before the first error is
        raised — otherwise uncollected replies would desync that shard's
        pipe for every subsequent command.
        """
        send_errors: Dict[int, Exception] = {}
        for handle, op, payload in requests:
            try:
                self._send(handle, op, payload)
            except Exception as exc:
                send_errors[handle.index] = exc
        results = []
        first_error: Optional[Exception] = None
        for handle, _op, _payload in requests:
            exc = send_errors.get(handle.index)
            if exc is None:
                try:
                    results.append(self._recv(handle))
                    continue
                except Exception as recv_exc:  # keep draining the other pipes
                    exc = recv_exc
            results.append(None)
            if first_error is None:
                first_error = exc
        if first_error is not None:
            raise first_error
        return results

    # ------------------------------------------------------------------ #
    # Quote path
    # ------------------------------------------------------------------ #

    def submit(self, request: QuoteRequest) -> int:
        """Enqueue one request on its key's shard; returns the global id."""
        return self.submit_many([request])[0]

    def _park(self, moving: _MovingSession, request: QuoteRequest) -> int:
        """Park one admission for a moving session; returns its public id."""
        public = self._next_parked_seq * ID_STRIDE + PARKED_SLOT
        self._next_parked_seq += 1
        moving.parked.append((public, request))
        self.rebalance_stats.parked_quotes += 1
        parked_now = sum(len(entry.parked) for entry in self._moving.values())
        if parked_now > self.rebalance_stats.peak_parked:
            self.rebalance_stats.peak_parked = parked_now
        return public

    def submit_many(self, requests: Sequence[QuoteRequest]) -> List[int]:
        """Enqueue a batch, one pipe message per touched shard.

        Returns the global quote ids in input order; per-shard arrival order
        equals input order, so micro-batch grouping inside a worker behaves
        exactly as if the requests had been submitted directly.  Requests
        for a session that is mid-migration are parked — their ids are
        issued immediately (from the reserved parked lane) and the requests
        replayed in order on the target shard, so no quote is ever lost to
        a move.
        """
        requests = list(requests)
        with self._lock:
            ids: List[Optional[int]] = [None] * len(requests)
            by_shard: Dict[int, List[int]] = {}
            for position, request in enumerate(requests):
                moving = self._moving.get(request.key)
                if moving is not None:
                    ids[position] = self._park(moving, request)
                    continue
                by_shard.setdefault(self._routing.shard_of(request.key), []).append(
                    position
                )
            send_errors: Dict[int, Exception] = {}
            for shard, positions in by_shard.items():
                try:
                    self._send(
                        self._shards[shard], "submit", [requests[p] for p in positions]
                    )
                except Exception as exc:
                    send_errors[shard] = exc
            # Collect per shard so a dead shard cannot corrupt the
            # queue-depth accounting of the healthy ones: requests a healthy
            # shard *did* enqueue stay visible to poll()/flush() even when
            # the call raises.
            first_error: Optional[Exception] = None
            for shard, positions in by_shard.items():
                handle = self._shards[shard]
                exc = send_errors.get(shard)
                local_ids = None
                if exc is None:
                    try:
                        local_ids = self._recv(handle)
                    except Exception as recv_exc:
                        exc = recv_exc
                if exc is not None:
                    if first_error is None:
                        first_error = exc
                    continue
                for position, local_id in zip(positions, local_ids):
                    if local_id + 1 > handle.local_floor:
                        handle.local_floor = local_id + 1
                    internal = self._globalize(shard, local_id)
                    ids[position] = internal
                    handle.outstanding.add(internal)
            if first_error is not None:
                # Healthy shards *did* enqueue their requests, so the caller
                # must not treat the whole batch as failed: the per-position
                # id list (None = never enqueued) rides on the error, letting
                # a serving loop keep waiting for the quotes that will in
                # fact be served.
                first_error.submitted_quote_ids = ids
                raise first_error
            return ids

    def _collect(self, op: str, candidates: List[_ShardHandle]) -> List[QuoteResponse]:
        if self._written_off:
            # Losses recorded outside a poll (worker respawn, failed parked
            # replay) surface here exactly once; the outbox is untouched, so
            # healthy responses still come back on the next call.
            lost, self._written_off = self._written_off, []
            raise ServingError(
                "%d in-flight quote(s) were lost to a worker replacement"
                % len(lost),
                lost_quote_ids=lost,
            )
        responses, self._outbox = self._outbox, []
        if not candidates:
            return responses
        send_errors: Dict[int, Exception] = {}
        for handle in candidates:
            try:
                self._send(handle, op, None)
            except Exception as exc:
                send_errors[handle.index] = exc
        first_error: Optional[Exception] = None
        for handle in candidates:
            exc = send_errors.get(handle.index)
            shard_responses = None
            if exc is None:
                try:
                    shard_responses = self._recv(handle)
                except Exception as recv_exc:  # keep draining the other pipes
                    exc = recv_exc
            if exc is not None:
                if first_error is None:
                    first_error = exc
                continue
            for response in shard_responses:
                responses.append(self._translate_response(handle, response))
        if first_error is not None:
            # Healthy shards' responses survive the failing shard's error:
            # they are parked and returned by the next poll/flush.
            self._outbox = responses
            raise first_error
        return responses

    def poll(self) -> List[QuoteResponse]:
        """Poll every shard with queued work; returns ready responses."""
        with self._lock:
            return self._collect(
                "poll", [h for h in self._shards if h.outstanding and not h.dead]
            )

    def flush(self) -> List[QuoteResponse]:
        """Drain every shard with queued work unconditionally."""
        with self._lock:
            return self._collect(
                "flush", [h for h in self._shards if h.outstanding and not h.dead]
            )

    def quote(self, request: QuoteRequest) -> QuoteResponse:
        """Synchronous single-quote path on the owning shard.

        Waits (bounded) for an in-flight migration of the key to finish —
        the synchronous contract cannot park.
        """
        with self._lock:
            deadline = time.monotonic() + 30.0
            while request.key in self._moving:
                if self._closed:
                    raise ServingError("sharded registry is closed")
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._moved.wait(timeout=remaining):
                    raise RebalanceError(
                        "timed out waiting for session %s to finish moving"
                        % (request.key,),
                        key=request.key,
                    )
            handle = self._shards[self._routing.shard_of(request.key)]
            response = self._roundtrip(handle, "quote", request)
            return self._translate_response(handle, response)

    # ------------------------------------------------------------------ #
    # Feedback path
    # ------------------------------------------------------------------ #

    def feedback(self, event: FeedbackEvent) -> None:
        """Apply one outcome on its key's shard."""
        self.feedback_batch([event])

    def feedback_batch(self, events: Iterable[FeedbackEvent]) -> None:
        """Apply a window of outcomes, one pipe message per touched shard.

        Every event's global quote id is validated against its key's owning
        shard before dispatch — a mistyped key cannot settle another
        session's quote on the wrong worker.  Within one shard the
        service's all-or-nothing group validation applies; across shards
        the batch is applied per shard (no cross-process transaction), so a
        failing shard leaves the other shards' outcomes applied — the
        raised error names the failing session.
        """
        with self._lock:
            by_shard: Dict[int, List[FeedbackEvent]] = {}
            settled: List[int] = []
            for event in events:
                shard, local_id = self._localize(event.key, event.quote_id)
                by_shard.setdefault(shard, []).append(
                    FeedbackEvent(key=event.key, quote_id=local_id, accepted=event.accepted)
                )
                settled.append(event.quote_id)
            if not by_shard:
                return
            self._gather(
                [
                    (self._shards[shard], "feedback", group)
                    for shard, group in by_shard.items()
                ]
            )
            for public in settled:
                self._settle_alias(public)

    def feedback_many(self, events: Iterable[FeedbackEvent]) -> List[Optional[Exception]]:
        """Apply a mixed window of outcomes with **per-event** results.

        The cross-process twin of :meth:`QuoteService.feedback_many`: events
        are routed to their keys' shards (one pipe message per touched
        shard, shards overlapped send-all-then-collect) and each shard
        returns per-event outcomes, re-aligned here with the input order.
        An event whose global quote id does not belong to its key's shard
        gets its :class:`ServingError` as the outcome without crossing any
        pipe; a dead shard fails only its own events — outcomes routed to
        later healthy shards are still collected and returned.
        """
        events = list(events)
        with self._lock:
            outcomes: List[Optional[Exception]] = [None] * len(events)
            by_shard: Dict[int, List[int]] = {}
            local_events: Dict[int, List[FeedbackEvent]] = {}
            for index, event in enumerate(events):
                try:
                    shard, local_id = self._localize(event.key, event.quote_id)
                except ServingError as exc:
                    outcomes[index] = exc
                    continue
                by_shard.setdefault(shard, []).append(index)
                local_events.setdefault(shard, []).append(
                    FeedbackEvent(key=event.key, quote_id=local_id, accepted=event.accepted)
                )
            if not by_shard:
                return outcomes
            shards = list(by_shard)
            send_errors: Dict[int, Exception] = {}
            for shard in shards:
                try:
                    self._send(self._shards[shard], "feedback_many", local_events[shard])
                except Exception as exc:
                    send_errors[shard] = exc
            for shard in shards:
                handle = self._shards[shard]
                exc = send_errors.get(shard)
                shard_outcomes = None
                if exc is None:
                    try:
                        shard_outcomes = self._recv(handle)
                    except Exception as recv_exc:  # keep draining the other pipes
                        exc = recv_exc
                if exc is not None:
                    for index in by_shard[shard]:
                        outcomes[index] = exc
                    continue
                for index, outcome in zip(by_shard[shard], shard_outcomes):
                    if isinstance(outcome, Exception):
                        outcomes[index] = self._translate_error(handle, outcome)
                    else:
                        self._settle_alias(events[index].quote_id)
            return outcomes

    # ------------------------------------------------------------------ #
    # Online rebalancing
    # ------------------------------------------------------------------ #

    def rehome_session(
        self,
        key: SessionKey,
        target_shard: int,
        quiesce_timeout: float = 30.0,
        poll_interval: float = 0.002,
    ) -> dict:
        """Migrate one session to ``target_shard`` while traffic continues.

        The per-session quiesce state machine (every other session keeps
        serving throughout):

        1. **park** — the key is marked moving; new admissions are parked
           with ids from the reserved lane instead of dispatched;
        2. **drain** — the source shard serves whatever of the session is
           still queued in its micro-batch window (responses surface
           through the shared outbox on the next poll), then the router
           waits for the session's in-flight feedback to settle (bounded by
           ``quiesce_timeout``; the router lock is released between probes,
           so feedback traffic can drain the session);
        3. **export** — the source worker persists the quiesced session
           and hands it over as its segment record plus raw bytes; the
           target appends the bytes verbatim to its own log and reads them
           back byte for byte, and only then does the source tombstone its
           record (a move cut short before that leaves the session cold on
           the source);
        4. **re-home** — the routing table gains an override for the key,
           the target worker re-attaches (hydrates) a session that was
           resident, pinned, and the parked admissions are replayed in
           order — their parked ids are aliased to the real target-shard
           ids, so earlier-issued ids stay valid for feedback;
        5. **resume** — the session is unpinned and waiters are notified.

        On failure the move is rolled back: parked quotes are re-dispatched
        to the shard that currently owns the key, and anything that could
        not be re-dispatched is reported in the raised
        :class:`RebalanceError`'s ``lost_quote_ids``.  Returns a dict of
        move facts (source/target, parked replay count, quiesce seconds).
        """
        with self._lock:
            if self._closed:
                raise ServingError("sharded registry is closed")
            if self._snapshot_root is None:
                raise RebalanceError(
                    "online rebalance requires a snapshot_dir (session state "
                    "moves between the shards' segment logs)",
                    key=key,
                )
            if not 0 <= target_shard < len(self._shards):
                raise RebalanceError(
                    "target shard %d does not exist (%d shards)"
                    % (target_shard, len(self._shards)),
                    key=key,
                )
            if key in self._moving:
                raise RebalanceError("session %s is already moving" % (key,), key=key)
            source = self._routing.shard_of(key)
            if source == target_shard:
                return {
                    "moved": False,
                    "source": source,
                    "target": target_shard,
                    "resident": False,
                    "hydrated": False,
                    "file_moved": False,
                    "parked_replayed": 0,
                    "quiesce_seconds": 0.0,
                }
            source_handle = self._shards[source]
            target_handle = self._shards[target_shard]
            if source_handle.dead or target_handle.dead:
                raise RebalanceError(
                    "cannot move session %s: shard %d is dead (respawn it first)"
                    % (key, source if source_handle.dead else target_shard),
                    key=key,
                )
            entry = _MovingSession(
                key=key, source=source, target=target_shard, started=time.perf_counter()
            )
            self._moving[key] = entry
        try:
            quiesce_seconds = self._quiesce(entry, source_handle, quiesce_timeout, poll_interval)
            with self._lock:
                moved = self._roundtrip(source_handle, "export_session", key)
                if moved is not None:
                    # The source keeps its record until the target holds
                    # the session: a move cut short before the retire
                    # leaves it cold on the source, never lost.
                    self._roundtrip(target_handle, "import_session", moved)
                    self._roundtrip(source_handle, "retire_session", key)
                self._routing.set_override(key, target_shard)
                attach = None
                if moved is not None and moved["resident"]:
                    attach = self._roundtrip(
                        target_handle, "attach_session", {"key": key, "pin": True}
                    )
                replayed = len(entry.parked)
                if entry.parked:
                    try:
                        self._replay_parked(entry.parked, target_handle)
                    except Exception as exc:
                        # The session itself moved, but its parked quotes
                        # could not be re-dispatched: they are lost, and the
                        # error accounts for every one of them.
                        self._finish_move(key, target_handle, pinned=bool(attach))
                        self.rebalance_stats.moves_failed += 1
                        lost_parked = [public for public, _request in entry.parked]
                        self._written_off.extend(lost_parked)
                        raise RebalanceError(
                            "moved session %s to shard %d but failed to replay "
                            "%d parked quote(s): %s" % (key, target_shard, replayed, exc),
                            key=key,
                            lost_quote_ids=lost_parked,
                        ) from exc
                self._finish_move(key, target_handle, pinned=bool(attach))
                self.rebalance_stats.sessions_moved += 1
                if moved is not None:
                    self.rebalance_stats.files_moved += 1
                self.rebalance_stats.quiesce_seconds.append(quiesce_seconds)
                return {
                    "moved": True,
                    "source": source,
                    "target": target_shard,
                    "resident": moved is not None and moved["resident"],
                    "hydrated": bool(attach and attach["hydrated"]),
                    "file_moved": moved is not None,
                    "parked_replayed": replayed,
                    "quiesce_seconds": quiesce_seconds,
                }
        except BaseException as exc:
            with self._lock:
                stale = self._moving.pop(key, None)
                lost: List[int] = []
                if stale is not None:
                    self.rebalance_stats.moves_failed += 1
                    if stale.parked:
                        # Re-dispatch the parked admissions to whatever shard
                        # currently owns the key (the override was only set
                        # on the success path, so this is the source unless
                        # the failure struck mid-re-home).
                        owner = self._shards[self._routing.shard_of(key)]
                        try:
                            self._replay_parked(stale.parked, owner)
                        except Exception:
                            lost = [public for public, _request in stale.parked]
                            self._written_off.extend(lost)
                self._moved.notify_all()
            if isinstance(exc, RebalanceError):
                exc.lost_quote_ids.extend(lost)
                raise
            raise RebalanceError(
                "failed to move session %s to shard %d: %s" % (key, target_shard, exc),
                key=key,
                lost_quote_ids=lost,
            ) from exc

    def _quiesce(
        self,
        entry: _MovingSession,
        source_handle: _ShardHandle,
        quiesce_timeout: float,
        poll_interval: float,
    ) -> float:
        """Wait until nothing of the moving session is queued or in flight."""
        deadline = time.monotonic() + quiesce_timeout
        while True:
            with self._lock:
                info = self._roundtrip(source_handle, "session_info", entry.key)
                if info["queued"]:
                    # Serve the session's (and everyone else's) queued
                    # quotes now; the responses surface via the next poll.
                    for response in self._roundtrip(source_handle, "flush"):
                        self._outbox.append(
                            self._translate_response(source_handle, response)
                        )
                    info = self._roundtrip(source_handle, "session_info", entry.key)
                if info["pending"] == 0 and info["queued"] == 0:
                    return time.perf_counter() - entry.started
            if time.monotonic() >= deadline:
                raise RebalanceError(
                    "quiesce of session %s timed out after %.1fs "
                    "(%d in-flight quote(s) awaiting feedback, %d queued)"
                    % (entry.key, quiesce_timeout, info["pending"], info["queued"]),
                    key=entry.key,
                )
            time.sleep(poll_interval)

    def _replay_parked(
        self, parked: List[Tuple[int, QuoteRequest]], handle: _ShardHandle
    ) -> None:
        """Re-dispatch parked admissions in order, aliasing their ids."""
        local_ids = self._roundtrip(
            handle, "submit", [request for _public, request in parked]
        )
        for (public, _request), local_id in zip(parked, local_ids):
            if local_id + 1 > handle.local_floor:
                handle.local_floor = local_id + 1
            internal = self._globalize(handle.index, local_id)
            handle.outstanding.add(internal)
            self._aliases[internal] = public
            self._alias_back[public] = internal
        self.rebalance_stats.replayed_quotes += len(parked)

    def _finish_move(
        self, key: SessionKey, target_handle: _ShardHandle, pinned: bool
    ) -> None:
        self._moving.pop(key, None)
        if pinned:
            try:
                self._roundtrip(target_handle, "unpin", key)
            except ServingError:
                pass
        self._moved.notify_all()

    # ------------------------------------------------------------------ #
    # Shard lifecycle (scale out / respawn / scale in)
    # ------------------------------------------------------------------ #

    def add_shard(self) -> int:
        """Spawn one more worker; returns its shard index.

        The hash placement is unchanged until :meth:`commit_routing` — new
        sessions keep landing on the old divisor, and the new shard only
        receives sessions explicitly re-homed onto it.
        """
        with self._lock:
            if self._closed:
                raise ServingError("sharded registry is closed")
            index = len(self._shards)
            if index >= MAX_SHARDS:
                raise RebalanceError("cannot exceed %d shards" % MAX_SHARDS)
            self._shards.append(self._spawn_shard(index))
            self.num_shards = len(self._shards)
            return index

    def respawn_shard(self, index: int) -> List[int]:
        """Replace one (dead or live) worker with a fresh process.

        Returns the public ids of any quotes still in flight on the old
        worker — they are lost (reported here instead of raising, since the
        caller is already handling the failure).  The same ids are also
        raised, once, by the next ``poll()``/``flush()``: a serving loop
        polling concurrently (the socket frontend's drain task) must learn
        of the loss too, or its waiters hang forever.  The fresh worker re-seeds
        its quote-id counter past the predecessor's highest issued id and
        lazily re-hydrates sessions from the shard's write-behind
        snapshots, so recovered sessions continue bit-identically from
        their last persisted state.
        """
        with self._lock:
            if self._closed:
                raise ServingError("sharded registry is closed")
            old = self._shards[index]
            lost_internal = sorted(old.outstanding)
            old.outstanding.clear()
            lost_public: List[int] = []
            for internal in lost_internal:
                public = self._aliases.pop(internal, internal)
                self._alias_back.pop(public, None)
                lost_public.append(public)
            # A serving loop polling concurrently (the socket frontend) must
            # learn about the loss too, or its waiters hang forever.
            self._written_off.extend(lost_public)
            try:
                old.conn.close()
            except OSError:
                pass
            self._reap(old.process, timeout=1.0)
            self._shards[index] = self._spawn_shard(
                index, first_quote_id=old.local_floor
            )
            return lost_public

    def remove_trailing_shard(self) -> int:
        """Retire the highest-index worker; returns the new shard count.

        Refuses while anything still depends on the shard: in-flight
        quotes, resident sessions, segment records, routing overrides, or an
        active migration.  (After a full scale-in migration all of these
        are gone by construction.)
        """
        with self._lock:
            if self._closed:
                raise ServingError("sharded registry is closed")
            if len(self._shards) == 1:
                raise RebalanceError("cannot remove the last shard")
            if self._moving:
                raise RebalanceError(
                    "cannot remove a shard while %d session move(s) are in flight"
                    % len(self._moving)
                )
            handle = self._shards[-1]
            if handle.outstanding:
                raise RebalanceError(
                    "shard %d still has %d in-flight quote(s)"
                    % (handle.index, len(handle.outstanding))
                )
            if any(shard == handle.index for shard in self._routing.overrides.values()):
                raise RebalanceError(
                    "shard %d is still a routing override target" % handle.index
                )
            if not handle.dead:
                info = self._roundtrip(handle, "stats", None)
                if info["sessions_resident"]:
                    raise RebalanceError(
                        "shard %d still has %d resident session(s)"
                        % (handle.index, info["sessions_resident"])
                    )
            if handle.snapshot_dir is not None:
                # A cold session lives only in this shard's segment log.
                segment_resident = list_segment_sessions(handle.snapshot_dir)
                if segment_resident:
                    raise RebalanceError(
                        "shard %d still holds %d segment-resident session(s)"
                        % (handle.index, len(segment_resident))
                    )
            self._stop_handle(handle, timeout=5.0)
            self._shards.pop()
            self.num_shards = len(self._shards)
            return self.num_shards

    def routing_freeze(self):
        """The router lock as a context manager: no admissions while held.

        ``submit_many`` / ``quote`` and every routing mutation serialise on
        this lock, so holding it closes the race between a migration's final
        empty sweep and :meth:`commit_routing` — a brand-new session key
        cannot be admitted (and land on the old hash placement) in between.
        The lock is reentrant: the holder may still plan, re-home, and
        commit from the same thread.
        """
        return self._lock

    def commit_routing(self, hash_shards: Optional[int] = None) -> int:
        """Retire per-key overrides into a new hash divisor; returns version.

        Call after a full migration has re-homed every relocating session:
        each override must already equal its key's hash placement under the
        new divisor, so the table collapses back to the pure hash (a
        restarted service with ``num_shards=hash_shards`` finds every
        snapshot where it looks).
        """
        with self._lock:
            if hash_shards is None:
                hash_shards = len(self._shards)
            if not 1 <= hash_shards <= len(self._shards):
                raise RebalanceError(
                    "cannot commit routing at %d shards with %d workers"
                    % (hash_shards, len(self._shards))
                )
            self._routing.commit(hash_shards)
            return self._routing.version

    def resident_keys_by_shard(self) -> Dict[int, List[SessionKey]]:
        """Resident session keys per live shard (rebalance planning input)."""
        with self._lock:
            alive = [h for h in self._shards if not h.dead]
            results = self._gather([(h, "resident_keys", None) for h in alive])
            return {h.index: list(r) for h, r in zip(alive, results)}

    # ------------------------------------------------------------------ #
    # Replay driver (the sharded load-generator path)
    # ------------------------------------------------------------------ #

    def replay_closed_loop(
        self,
        pairs: Iterable[Tuple[QuoteRequest, float]],
        window: int = 256,
    ) -> int:
        """Replay ``(request, market_value)`` pairs closed-loop across shards.

        Pairs are queued per session preserving order, and each dispatch
        round routes every session's next window chunk to the shard that
        *currently* owns it (so a live migration mid-replay re-routes the
        remainder instead of serving it on a stale shard); the shard-local
        loops run in parallel (send-all-then-collect) while per-session
        semantics stay exactly closed-loop (quote, settle, feedback, next
        round).  Sessions that are mid-move simply wait their turn.
        Returns the number of quotes served.
        """
        if window < 1:
            raise ValueError("window must be positive, got %d" % window)
        key_queues: "OrderedDict[SessionKey, deque]" = OrderedDict()
        for request, market_value in pairs:
            key_queues.setdefault(request.key, deque()).append((request, market_value))
        served = 0
        while any(key_queues.values()):
            dispatched = False
            with self._lock:
                chunks: Dict[int, List[Tuple[QuoteRequest, float]]] = {}
                for key, queue in key_queues.items():
                    if not queue or key in self._moving:
                        continue
                    chunk = chunks.setdefault(self._routing.shard_of(key), [])
                    while queue and len(chunk) < window:
                        chunk.append(queue.popleft())
                if chunks:
                    served += sum(
                        self._gather(
                            [
                                (self._shards[shard], "replay", chunk)
                                for shard, chunk in chunks.items()
                            ]
                        )
                    )
                    dispatched = True
            if not dispatched:
                # Everything left is mid-move: wait for a migration to end.
                with self._moved:
                    self._moved.wait(timeout=0.05)
        return served

    # ------------------------------------------------------------------ #
    # Stats / persistence / lifecycle
    # ------------------------------------------------------------------ #

    def shard_stats(self) -> List[dict]:
        """Raw per-shard counters (service + registry + latency samples)."""
        with self._lock:
            alive = [h for h in self._shards if not h.dead]
            if not alive:
                raise ServingError("no live shard workers")
            return self._gather([(handle, "stats", None) for handle in alive])

    def stats(self) -> dict:
        """Aggregated counters across shards, with a merged latency summary.

        Includes a ``rebalance`` block (sessions moved, parked/replayed
        quote counts, quiesce-time percentiles) and a ``routing`` block
        (table version, hash divisor, live overrides) — both flow through
        the socket frontend's stats frame.
        """
        with self._lock:
            per_shard = self.shard_stats()
            samples: List[float] = []
            for entry in per_shard:
                samples.extend(entry.pop("latency_samples"))
            aggregate = {
                "shards": self.num_shards,
                "quotes_served": sum(e["quotes_served"] for e in per_shard),
                "drains": sum(e["drains"] for e in per_shard),
                "batched_proposals": sum(e["batched_proposals"] for e in per_shard),
                "feedback_applied": sum(e["feedback_applied"] for e in per_shard),
                "sessions_resident": sum(e["sessions_resident"] for e in per_shard),
                "registry": {
                    name: sum(e["registry"][name] for e in per_shard)
                    for name in per_shard[0]["registry"]
                },
                "latency": LatencySummary.from_seconds(samples).as_dict(),
                "rebalance": self.rebalance_stats.as_dict(),
                "routing": {
                    "version": self._routing.version,
                    "hash_shards": self._routing.hash_shards,
                    "overrides": len(self._routing.overrides),
                    "moving": len(self._moving),
                },
                "per_shard": per_shard,
            }
            return aggregate

    def persist_all(self) -> int:
        """Snapshot every resident session on every live shard."""
        with self._lock:
            alive = [h for h in self._shards if not h.dead]
            return sum(self._gather([(handle, "persist", None) for handle in alive]))

    def _reap(self, process, timeout: float) -> None:
        """join → terminate → kill escalation; never hangs past ~3×timeout."""
        process.join(timeout)
        if process.is_alive():
            process.terminate()
            process.join(timeout)
        if process.is_alive():
            process.kill()
            process.join(timeout)

    def _stop_handle(self, handle: _ShardHandle, timeout: float) -> None:
        try:
            handle.conn.send(("stop", None))
        except (BrokenPipeError, OSError):
            pass
        try:
            if handle.conn.poll(timeout):
                handle.conn.recv()
        except (EOFError, OSError):
            pass
        try:
            handle.conn.close()
        except OSError:
            pass
        self._reap(handle.process, timeout)

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker (idempotent); guaranteed to reap stragglers.

        The escalation ladder per worker is bounded: cooperative stop →
        ``join(timeout)`` → ``terminate()`` (SIGTERM) → ``kill()``
        (SIGKILL, cannot be ignored) — a worker wedged in a blocking pipe
        read or an infinite pricer call cannot leak past close.  The
        router lock is acquired with the same bound, so a thread stuck
        inside a wedged worker's roundtrip cannot make close hang either
        (killing the worker unwedges it).  ``_closed`` is latched first:
        repeated calls return immediately even if an earlier close raised.
        """
        if self._closed:
            return
        self._closed = True
        acquired = self._lock.acquire(timeout=timeout)
        try:
            for handle in self._shards:
                try:
                    handle.conn.send(("stop", None))
                except (BrokenPipeError, OSError):
                    pass
            for handle in self._shards:
                try:
                    if handle.conn.poll(timeout):
                        handle.conn.recv()
                except (EOFError, OSError):
                    pass
                try:
                    handle.conn.close()
                except OSError:
                    pass
                self._reap(handle.process, timeout)
        finally:
            if acquired:
                self._lock.release()

    def __enter__(self) -> "ShardedRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
