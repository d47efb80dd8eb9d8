"""Online live resharding: bit-exactness under traffic, chaos recovery.

The tentpole bar: all golden pricer families replay **bit-identically**
through a mid-stream 2→3 shard migration under live socket traffic, with
zero lost quotes proven by exact quote-id accounting.  Plus: migrations
move cold (snapshot-only) sessions as well as resident ones, a shard worker
SIGKILLed mid-migration recovers bit-exactly from its write-behind
snapshots, and a pipelined v2-wire client submitting to a session *while it
moves shards* sees order-preserving results with the waiter bound intact.
"""

import asyncio
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "golden"))
import golden_specs

from repro.exceptions import RebalanceError, ServingError
from repro.engine import prepare, simulate, stream_rounds
from repro.serving import (
    AsyncQuoteClient,
    FeedbackEvent,
    LiveRebalancer,
    MicroBatchConfig,
    QuoteRequest,
    SessionKey,
    ShardedRegistry,
    frame_sold_at,
    list_segment_sessions,
    rebalance_live,
    shard_of_key,
    start_frontend_thread,
)

FAMILIES = sorted(golden_specs.GOLDEN_SPECS)
FAMILY = "ellipsoid-reserve"


def _family_workloads():
    """(model, materialized, theta) per golden family."""
    return {
        family: (lambda m, b, t: (m, prepare(m, b), t))(*golden_specs.build_market(family))
        for family in FAMILIES
    }


def _single_market():
    model, batch, theta = golden_specs.build_market(FAMILY)
    return model, prepare(model, batch), theta


def _drive_sync(sharded, key, materialized, start, stop, posted, retries=0):
    """Closed-loop sync rounds [start, stop) with optional retry-on-kill.

    A retried quote re-proposes from the session's write-behind snapshot, so
    the transcript stays bit-identical (pinned by the chaos test below).
    """
    for round_ in stream_rounds(materialized.slice(start, stop)):
        for attempt in range(retries + 1):
            try:
                response = sharded.quote(
                    QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
                )
                sold = bool(
                    response.posted and response.posted_price <= round_.market_value
                )
                sharded.feedback(
                    FeedbackEvent(key=key, quote_id=response.quote_id, accepted=sold)
                )
                break
            except ServingError:
                if attempt == retries:
                    raise
                time.sleep(0.05)
        posted.append(np.nan if response.posted_price is None else response.posted_price)


# --------------------------------------------------------------------------- #
# The tentpole: golden families through a live 2→3 migration over the socket
# --------------------------------------------------------------------------- #


def test_golden_families_bit_exact_through_live_migration_over_socket(tmp_path):
    """Every golden family serves as one session; a 2→3 migration runs
    mid-stream while pipelined v2-wire traffic keeps flowing.  Each family's
    posted-price transcript must equal the offline engine's bit-for-bit,
    every submitted quote id must resolve exactly once (zero lost), and the
    routing table must end committed at 3 hash shards with no overrides."""
    workloads = _family_workloads()
    rounds = 32
    offline = {
        family: simulate(
            model, golden_specs.build_pricer(family, theta), materialized=materialized
        )
        for family, (model, materialized, theta) in workloads.items()
    }
    keys = {family: SessionKey(app="golden", segment=family) for family in FAMILIES}

    def factory(key):
        model, _materialized, theta = workloads[key.segment]
        return model, golden_specs.build_pricer(key.segment, theta)

    sharded = ShardedRegistry(
        factory,
        num_shards=2,
        config=MicroBatchConfig(max_batch=4 * len(FAMILIES), max_wait_seconds=0.002),
        snapshot_dir=str(tmp_path),
        persist_every=1,
    )
    handle = start_frontend_thread(
        sharded, unix_path=str(tmp_path / "quotes.sock"), drain_interval=0.0005
    )
    migration_result = {}

    def migrate():
        try:
            migration_result["report"] = rebalance_live(sharded, 3)
        except Exception as exc:  # pragma: no cover - surfaced by the assert below
            migration_result["error"] = exc

    migration = threading.Thread(target=migrate)
    rows = {
        family: list(stream_rounds(workloads[family][1].slice(0, rounds)))
        for family in FAMILIES
    }

    async def drive():
        client = await AsyncQuoteClient.connect(unix_path=handle.address)
        posted = {family: [] for family in FAMILIES}
        seen_ids = set()
        try:
            for index in range(rounds):
                if index == rounds // 2:
                    migration.start()
                futures = [
                    (family, rows[family][index],
                     client.submit_quote(
                         keys[family],
                         rows[family][index].features,
                         rows[family][index].reserve,
                     ))
                    for family in FAMILIES
                ]
                feedbacks = []
                for family, row, future in futures:
                    result = await future
                    assert result["quote_id"] not in seen_ids, "duplicate quote id"
                    seen_ids.add(result["quote_id"])
                    posted[family].append(
                        np.nan
                        if result.get("posted_price") is None
                        else result["posted_price"]
                    )
                    feedbacks.append(
                        client.submit_feedback(
                            keys[family],
                            result["quote_id"],
                            frame_sold_at(result, row.market_value),
                        )
                    )
                for feedback in feedbacks:
                    await feedback
        finally:
            await client.close()
        return posted, seen_ids

    try:
        posted, seen_ids = asyncio.run(drive())
        migration.join(timeout=60.0)
        assert not migration.is_alive(), "migration did not finish"
        assert "error" not in migration_result, migration_result.get("error")
        stats = sharded.stats()
        final_shards = {family: sharded.shard_of(keys[family]) for family in FAMILIES}
    finally:
        handle.stop()
        sharded.close()

    # Exact quote-id accounting: every submitted quote resolved exactly once.
    assert len(seen_ids) == rounds * len(FAMILIES)
    report = migration_result["report"]
    assert report.relocated > 0, "migration moved nothing — not a live test"
    assert stats["routing"] == {
        "version": stats["routing"]["version"],
        "hash_shards": 3,
        "overrides": 0,
        "moving": 0,
    }
    assert stats["rebalance"]["sessions_moved"] == report.sessions
    assert stats["rebalance"]["moves_failed"] == 0
    for family in FAMILIES:
        assert np.array_equal(
            np.array(posted[family]),
            offline[family].transcript.posted_prices[:rounds],
            equal_nan=True,
        ), "family %s diverged through the live migration" % family
    # Every session ends on the shard its key hashes to under 3 shards.
    for family in FAMILIES:
        assert final_shards[family] == shard_of_key(keys[family], 3)


# --------------------------------------------------------------------------- #
# Structural: resident + cold sessions, placement, report
# --------------------------------------------------------------------------- #


def test_rebalance_moves_cold_and_resident_sessions(tmp_path):
    """Cold sessions (segment record only, nothing resident) must migrate
    alongside hot ones — and continue bit-identically when touched after
    the migration."""
    model, materialized, theta = _single_market()
    offline = simulate(
        model, golden_specs.build_pricer(FAMILY, theta), materialized=materialized
    )
    factory = lambda key: (model, golden_specs.build_pricer(FAMILY, theta))
    cold_key = SessionKey("app", "cold")
    hot_keys = [SessionKey("app", "hot-%d" % index) for index in range(4)]
    posted_cold = []

    # Era 1: create the cold session's snapshot, then shut down.
    with ShardedRegistry(
        factory, num_shards=2, snapshot_dir=str(tmp_path), persist_every=1
    ) as sharded:
        _drive_sync(sharded, cold_key, materialized, 0, 10, posted_cold)

    # Era 2: fresh service, cold session untouched; hot sessions live.
    with ShardedRegistry(
        factory, num_shards=2, snapshot_dir=str(tmp_path), persist_every=1
    ) as sharded:
        for key in hot_keys:
            _drive_sync(sharded, key, materialized, 0, 6, [])
        report = rebalance_live(sharded, 3)
        moved_keys = {move.key for move in report.moves}
        expected = {
            key
            for key in [cold_key] + hot_keys
            if shard_of_key(key, 2) != shard_of_key(key, 3)
        }
        assert moved_keys == expected
        by_key = {move.key: move for move in report.moves}
        if cold_key in by_key:
            assert not by_key[cold_key].resident and by_key[cold_key].file_moved
        for key in hot_keys:
            if key in by_key:
                assert by_key[key].resident
        # Same-shard rehome is a recorded no-op.
        unmoved = next(
            (k for k in [cold_key] + hot_keys if shard_of_key(k, 2) == shard_of_key(k, 3)),
            None,
        )
        if unmoved is not None:
            assert sharded.rehome_session(unmoved, sharded.shard_of(unmoved))["moved"] is False
        # The cold session resumes bit-identically on its new shard.
        _drive_sync(sharded, cold_key, materialized, 10, 20, posted_cold)
        assert sharded.num_shards == 3
    assert np.array_equal(
        np.array(posted_cold), offline.transcript.posted_prices[:20], equal_nan=True
    )


def test_rebalance_requires_snapshot_dir():
    model, _materialized, theta = _single_market()
    factory = lambda key: (model, golden_specs.build_pricer(FAMILY, theta))
    with ShardedRegistry(factory, num_shards=2) as sharded:
        with pytest.raises(RebalanceError, match="snapshot_dir"):
            LiveRebalancer(sharded, 3)
        with pytest.raises(RebalanceError, match="snapshot_dir"):
            sharded.rehome_session(SessionKey("app", "s"), 1)


def test_commit_refuses_stranded_overrides(tmp_path):
    """commit_routing must reject a divisor under which an override would be
    stranded — the override can only clear when it matches the hash."""
    model, materialized, theta = _single_market()
    factory = lambda key: (model, golden_specs.build_pricer(FAMILY, theta))
    with ShardedRegistry(
        factory, num_shards=2, snapshot_dir=str(tmp_path), persist_every=1
    ) as sharded:
        key = SessionKey("app", "strand")
        _drive_sync(sharded, key, materialized, 0, 3, [])
        sharded.add_shard()
        wrong = next(
            shard
            for shard in range(3)
            if shard != sharded.shard_of(key) and shard != shard_of_key(key, 3)
        )
        sharded.rehome_session(key, wrong)
        with pytest.raises(RebalanceError, match="hashes to"):
            sharded.commit_routing(3)


def test_move_cut_short_before_import_keeps_the_session_on_its_source(
    tmp_path, monkeypatch
):
    """A target that fails the import leaves the session's record in the
    source's log: the move fails, the session stays routed to its source,
    hydrates there and continues bit-identically."""
    model, materialized, theta = _single_market()
    offline = simulate(
        model, golden_specs.build_pricer(FAMILY, theta), materialized=materialized
    )
    factory = lambda key: (model, golden_specs.build_pricer(FAMILY, theta))
    key = SessionKey("app", "cut-short")
    posted = []
    real_roundtrip = ShardedRegistry._roundtrip

    def refuse_import(self, handle, op, payload=None):
        if op == "import_session":
            raise ServingError("target refused the import (injected)")
        return real_roundtrip(self, handle, op, payload)

    with ShardedRegistry(
        factory, num_shards=2, snapshot_dir=str(tmp_path), persist_every=1
    ) as sharded:
        _drive_sync(sharded, key, materialized, 0, 8, posted)
        source = sharded.shard_of(key)
        monkeypatch.setattr(ShardedRegistry, "_roundtrip", refuse_import)
        with pytest.raises(RebalanceError, match="injected"):
            sharded.rehome_session(key, 1 - source)
        monkeypatch.setattr(ShardedRegistry, "_roundtrip", real_roundtrip)
        assert sharded.shard_of(key) == source
        source_dir = os.path.join(str(tmp_path), "shard-%02d" % source)
        target_dir = os.path.join(str(tmp_path), "shard-%02d" % (1 - source))
        assert key in list_segment_sessions(source_dir)
        assert key not in list_segment_sessions(target_dir)
        _drive_sync(sharded, key, materialized, 8, 16, posted)
        assert sharded.stats()["registry"]["hydrations"] == 1
    assert np.array_equal(
        np.array(posted), offline.transcript.posted_prices[:16], equal_nan=True
    )


# --------------------------------------------------------------------------- #
# Segment logs through a live migration and back
# --------------------------------------------------------------------------- #


def test_segment_format_live_migration_bit_exact(tmp_path):
    """A sharded service whose stores snapshot into segment logs must
    migrate 2→3 (and back down 3→2) with every session — resident and
    cold-in-segment — continuing bit-identically, scale-in included (the
    trailing shard can only retire once its segment index is empty)."""
    model, materialized, theta = _single_market()
    offline = simulate(
        model, golden_specs.build_pricer(FAMILY, theta), materialized=materialized
    )
    factory = lambda key: (model, golden_specs.build_pricer(FAMILY, theta))
    # One cold session guaranteed to relocate under the new divisor (its
    # record travels to the target's log) and one guaranteed to stay put
    # (its segment record survives the migration and must hydrate zero-copy).
    cold_move = next(
        key
        for index in range(1000)
        for key in [SessionKey("app", "cold-move-%d" % index)]
        if shard_of_key(key, 2) != shard_of_key(key, 3)
    )
    cold_stay = next(
        key
        for index in range(1000)
        for key in [SessionKey("app", "cold-stay-%d" % index)]
        if shard_of_key(key, 2) == shard_of_key(key, 3)
    )
    hot_keys = [SessionKey("app", "hot-seg-%d" % index) for index in range(4)]
    posted = {key: [] for key in [cold_move, cold_stay] + hot_keys}

    # Era 1: the cold sessions exist only as segment records afterwards.
    with ShardedRegistry(
        factory,
        num_shards=2,
        snapshot_dir=str(tmp_path),
        persist_every=1,
    ) as sharded:
        _drive_sync(sharded, cold_move, materialized, 0, 10, posted[cold_move])
        _drive_sync(sharded, cold_stay, materialized, 0, 10, posted[cold_stay])

    with ShardedRegistry(
        factory,
        num_shards=2,
        snapshot_dir=str(tmp_path),
        persist_every=1,
    ) as sharded:
        for key in hot_keys:
            _drive_sync(sharded, key, materialized, 0, 6, posted[key])
        report = rebalance_live(sharded, 3)
        expected_moves = {
            key
            for key in [cold_move] + hot_keys
            if shard_of_key(key, 2) != shard_of_key(key, 3)
        }
        assert {move.key for move in report.moves} == expected_moves
        assert cold_stay not in {move.key for move in report.moves}
        assert sharded.num_shards == 3
        # Hot sessions continue, the cold ones resume — all bit-exact.
        # cold_stay hydrates straight off its untouched segment record.
        for key in hot_keys:
            _drive_sync(sharded, key, materialized, 6, 12, posted[key])
        _drive_sync(sharded, cold_move, materialized, 10, 12, posted[cold_move])
        _drive_sync(sharded, cold_stay, materialized, 10, 12, posted[cold_stay])
        # Scale back in: every session leaves shard 2 as an exported record,
        # tombstoned there, so the retirement check passes.
        report_down = rebalance_live(sharded, 2)
        assert sharded.num_shards == 2
        assert {move.key for move in report_down.moves} == expected_moves
        for key in hot_keys:
            _drive_sync(sharded, key, materialized, 12, 16, posted[key])
        _drive_sync(sharded, cold_move, materialized, 12, 16, posted[cold_move])
        _drive_sync(sharded, cold_stay, materialized, 12, 16, posted[cold_stay])
        stats = sharded.stats()
        assert stats["routing"]["hash_shards"] == 2
        assert stats["registry"]["zero_copy_hydrations"] > 0
    for key, prices in posted.items():
        assert np.array_equal(
            np.array(prices),
            offline.transcript.posted_prices[: len(prices)],
            equal_nan=True,
        ), "session %s diverged through the segment-format migration" % (key,)


# --------------------------------------------------------------------------- #
# The commit-window race: new keys must not strand on the old placement
# --------------------------------------------------------------------------- #


def test_commit_window_blocks_new_admissions_until_routing_is_live(tmp_path):
    """Regression for the residual rebalance race: a brand-new session key
    admitted *between* the final empty sweep and commit_routing used to land
    on the old hash placement, stranded and unserved by the new divisor.
    The commit now runs under the routing freeze, so the racing admission
    must block until the new placement is live and land on its 3-shard
    home — serving bit-identically."""
    model, materialized, theta = _single_market()
    offline = simulate(
        model, golden_specs.build_pricer(FAMILY, theta), materialized=materialized
    )
    factory = lambda key: (model, golden_specs.build_pricer(FAMILY, theta))
    racer = next(
        key
        for index in range(1000)
        for key in [SessionKey("app", "racer-%d" % index)]
        if shard_of_key(key, 2) != shard_of_key(key, 3)
    )
    posted = []
    entered = threading.Event()
    admitted = threading.Event()

    with ShardedRegistry(
        factory, num_shards=2, snapshot_dir=str(tmp_path), persist_every=1
    ) as sharded:
        for index in range(3):
            _drive_sync(
                sharded, SessionKey("app", "seed-%d" % index), materialized, 0, 4, []
            )

        def admit():
            entered.set()
            _drive_sync(sharded, racer, materialized, 0, 8, posted)
            admitted.set()

        racer_thread = threading.Thread(target=admit)

        def before_commit():
            # Invoked with the freeze held, after the final empty plan and
            # immediately before commit: race the admission in right here.
            racer_thread.start()
            assert entered.wait(5.0)
            time.sleep(0.25)
            # The admission is parked on the router lock — were the window
            # still open, the quote would have been served on the 2-shard
            # placement by now.
            assert not admitted.is_set(), "admission slipped into the commit window"

        rebalance_live(sharded, 3, before_commit=before_commit)
        racer_thread.join(timeout=30.0)
        assert not racer_thread.is_alive()
        assert admitted.is_set()
        # The racer was admitted under the *new* routing: no override, no
        # stranding, straight onto its 3-shard hash home.
        assert sharded.shard_of(racer) == shard_of_key(racer, 3)
        stats = sharded.stats()
        assert stats["routing"]["hash_shards"] == 3
        assert stats["routing"]["overrides"] == 0
    assert np.array_equal(
        np.array(posted), offline.transcript.posted_prices[:8], equal_nan=True
    )


# --------------------------------------------------------------------------- #
# Chaos: SIGKILL a shard worker mid-migration
# --------------------------------------------------------------------------- #


def test_chaos_kill_mid_migration_recovers_bit_exactly(tmp_path):
    """A shard worker SIGKILLed right after receiving a migrated session
    (and respawned) must recover every session bit-exactly from write-behind
    snapshots while the migration completes and traffic continues."""
    model, materialized, theta = _single_market()
    offline = simulate(
        model, golden_specs.build_pricer(FAMILY, theta), materialized=materialized
    )
    factory = lambda key: (model, golden_specs.build_pricer(FAMILY, theta))
    keys = [SessionKey("chaos", "seg-%d" % index) for index in range(5)]
    sharded = ShardedRegistry(
        factory, num_shards=2, snapshot_dir=str(tmp_path), persist_every=1
    )
    chaos_log = []

    def chaos_hook(count, move):
        if count == 1:
            victim = move.target
            process = sharded._shards[victim].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(5.0)
            lost = sharded.respawn_shard(victim)
            chaos_log.append((victim, lost))

    rebalancer = LiveRebalancer(sharded, 3, after_move=chaos_hook)
    migration_result = {}

    def migrate():
        try:
            migration_result["report"] = rebalancer.run()
        except Exception as exc:
            migration_result["error"] = exc

    posted = {key: [] for key in keys}
    with sharded:
        for key in keys:
            _drive_sync(sharded, key, materialized, 0, 8, posted[key])
        migration = threading.Thread(target=migrate)
        migration.start()
        # Traffic continues during the migration and the kill; quotes that
        # land on the dying shard are retried and must re-propose the exact
        # same prices from the write-behind snapshots.
        for key in keys:
            _drive_sync(sharded, key, materialized, 8, 20, posted[key], retries=80)
        migration.join(timeout=60.0)
        assert not migration.is_alive()
        assert "error" not in migration_result, migration_result.get("error")
        assert chaos_log, "the chaos hook never fired"
        for key in keys:
            _drive_sync(sharded, key, materialized, 20, 28, posted[key], retries=80)
        stats = sharded.stats()
        assert stats["routing"]["hash_shards"] == 3
    for key in keys:
        assert np.array_equal(
            np.array(posted[key]),
            offline.transcript.posted_prices[:28],
            equal_nan=True,
        ), "session %s diverged through the chaos migration" % (key,)


# --------------------------------------------------------------------------- #
# Pipelined v2 client submitting to a session while it moves (S4)
# --------------------------------------------------------------------------- #


def test_pipelined_v2_client_during_move_is_order_preserving(tmp_path):
    """A coalescing v2-wire client keeps a burst of pipelined quotes in
    flight against a session while it is rehomed: every quote resolves,
    results arrive order-preserving (strictly consecutive round indexes in
    submission order), and the frontend's waiter bound stays exact."""
    model, materialized, theta = _single_market()
    factory = lambda key: (model, golden_specs.build_pricer(FAMILY, theta))
    key = SessionKey("app", "pipelined")
    max_waiters = 64
    sharded = ShardedRegistry(
        factory,
        num_shards=2,
        config=MicroBatchConfig(max_batch=8, max_wait_seconds=0.001),
        snapshot_dir=str(tmp_path),
        persist_every=1,
    )
    handle = start_frontend_thread(
        sharded,
        unix_path=str(tmp_path / "quotes.sock"),
        drain_interval=0.0005,
        max_waiters=max_waiters,
    )
    mover_result = {}

    def mover():
        try:
            sharded.add_shard()
            target = next(
                shard for shard in range(3) if shard != sharded.shard_of(key)
            )
            mover_result["move"] = sharded.rehome_session(key, target)
        except Exception as exc:
            mover_result["error"] = exc

    rows = list(stream_rounds(materialized.slice(0, 24)))
    move_thread = threading.Thread(target=mover)

    async def drive():
        client = await AsyncQuoteClient.connect(unix_path=handle.address)
        results = []
        try:
            for burst_start in range(0, len(rows), 4):
                if burst_start == 8:
                    move_thread.start()
                burst = rows[burst_start : burst_start + 4]
                futures = [
                    client.submit_quote(key, row.features, row.reserve) for row in burst
                ]
                resolved = [await future for future in futures]
                for row, result in zip(burst, resolved):
                    await client.submit_feedback(
                        key, result["quote_id"], frame_sold_at(result, row.market_value)
                    )
                results.extend(resolved)
            stats_frame = await client.stats()
        finally:
            await client.close()
        return results, stats_frame

    try:
        results, stats_frame = asyncio.run(drive())
        move_thread.join(timeout=30.0)
        assert not move_thread.is_alive()
        assert "error" not in mover_result, mover_result.get("error")
        assert mover_result["move"]["moved"] is True
    finally:
        handle.stop()
        sharded.close()

    # Order-preserving: the session saw its quotes in submission order,
    # straight through the move (round indexes strictly consecutive).
    assert [result["round_index"] for result in results] == list(range(len(rows)))
    assert len({result["quote_id"] for result in results}) == len(rows)
    assert stats_frame["frontend"]["peak_waiters"] <= max_waiters
    # The stats frame carries the rebalance block for observability.
    assert stats_frame["rebalance"]["sessions_moved"] == 1
