"""Shard-worker lifecycle: wedged close, dead-shard accounting, respawn.

Regression tier for the shard-lifecycle bugfix sweep:

* ``close(timeout=...)`` must never hang or leak a worker — even one wedged
  in an infinite pricer call with SIGTERM ignored (the escalation ladder
  must reach SIGKILL), and repeated ``close()`` is a no-op;
* a shard worker dying mid-batch must fail **only its own** events: the
  complete set of its in-flight quote ids is reported lost exactly once,
  responses and outcomes routed to healthy shards are still returned, and
  subsequent polls return normally instead of re-raising forever;
* ``respawn_shard`` brings a killed worker back: its sessions re-hydrate
  from their write-behind snapshots bit-identically;
* ``remove_trailing_shard`` refuses a shard that still holds a session,
  cold in its segment log or resident.
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

from repro.core.baselines import FixedPricePricer
from repro.engine import prepare, simulate, stream_rounds
from repro.exceptions import RebalanceError, ServingError
from repro.serving import (
    AsyncQuoteClient,
    FeedbackEvent,
    MicroBatchConfig,
    QuoteRequest,
    SessionKey,
    ShardedRegistry,
    shard_of_key,
    start_frontend_thread,
)

FAMILY = "ellipsoid-reserve"


def _market():
    model, batch, theta = golden_specs.build_market(FAMILY)
    return model, prepare(model, batch), theta


def _sharded(model, theta, num_shards=2, **kwargs):
    return ShardedRegistry(
        lambda key: (model, golden_specs.build_pricer(FAMILY, theta)),
        num_shards=num_shards,
        **kwargs,
    )


def _keys_on_distinct_shards(num_shards, count):
    keys, seen = [], set()
    index = 0
    while len(keys) < count:
        key = SessionKey("app", "segment-%d" % index)
        shard = shard_of_key(key, num_shards)
        if shard not in seen:
            seen.add(shard)
            keys.append(key)
        index += 1
    return keys


def _kill_shard(sharded, shard):
    process = sharded._shards[shard].process
    os.kill(process.pid, signal.SIGKILL)
    process.join(5.0)


# --------------------------------------------------------------------------- #
# close() on a wedged worker
# --------------------------------------------------------------------------- #


class _WedgedPricer(FixedPricePricer):
    """Ignores SIGTERM and never returns from propose — the worst worker."""

    def propose(self, features, reserve=None):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(3600.0)


def _wedge_factory(key):
    # Runs inside the worker: make terminate() (SIGTERM) ineffective so only
    # the kill() rung of the escalation ladder can reap the process.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    return None, _WedgedPricer(price=1.0)


def test_close_escalates_to_kill_on_wedged_worker():
    """A worker stuck in an infinite propose with SIGTERM ignored must not
    make close() hang (the router thread blocks in the pipe read holding the
    router lock) or leak the process."""
    sharded = ShardedRegistry(_wedge_factory, num_shards=1)
    key = SessionKey("wedge", "s0")

    def _wedged_quote():
        try:
            sharded.quote(QuoteRequest(key=key, features=np.zeros(3), reserve=None))
        except ServingError:
            pass  # the kill surfaces as a dead-shard error — expected

    thread = threading.Thread(target=_wedged_quote, daemon=True)
    thread.start()
    time.sleep(0.5)  # let the worker enter the infinite propose
    processes = [handle.process for handle in sharded._shards]
    start = time.monotonic()
    sharded.close(timeout=0.3)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "close() hung for %.1fs on a wedged worker" % elapsed
    for process in processes:
        process.join(5.0)
        assert not process.is_alive(), "close() leaked a wedged worker"
    # Idempotent: a second (and third) close is a prompt no-op.
    start = time.monotonic()
    sharded.close()
    sharded.close(timeout=0.1)
    assert time.monotonic() - start < 1.0
    thread.join(5.0)


def test_close_is_idempotent_on_healthy_workers():
    model, _materialized, theta = _market()
    sharded = _sharded(model, theta, num_shards=2)
    sharded.close()
    sharded.close()
    for handle in sharded._shards:
        assert not handle.process.is_alive()


# --------------------------------------------------------------------------- #
# Dead shard mid-batch: partial-failure accounting
# --------------------------------------------------------------------------- #


def test_dead_shard_reports_complete_lost_ids_once_and_spares_others():
    """Killing a worker with quotes in flight loses exactly its quotes (all
    of them, reported once); healthy shards' responses are parked on the
    error and surface on the next poll, which then returns normally."""
    model, materialized, theta = _market()
    keys = _keys_on_distinct_shards(3, 3)
    round_ = next(iter(stream_rounds(materialized.slice(0, 1))))
    config = MicroBatchConfig(max_batch=64, max_wait_seconds=60.0)
    with _sharded(model, theta, num_shards=3, config=config) as sharded:
        ids = {
            key: [
                sharded.submit(
                    QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
                )
                for _ in range(2)
            ]
            for key in keys
        }
        victim = keys[1]
        victim_shard = sharded.shard_of(victim)
        _kill_shard(sharded, victim_shard)
        with pytest.raises(ServingError) as excinfo:
            sharded.flush()
        assert sorted(excinfo.value.lost_quote_ids) == sorted(ids[victim])
        responses = sharded.poll()
        assert {response.quote_id for response in responses} == {
            quote_id for key in keys if key != victim for quote_id in ids[key]
        }
        # The dead shard poisons nothing: polling is clean from here on.
        assert sharded.poll() == []
        assert all(not handle.outstanding for handle in sharded._shards)
        # And the dead shard refuses new work with actionable advice.
        with pytest.raises(ServingError, match="respawn_shard"):
            sharded.submit(
                QuoteRequest(key=victim, features=round_.features, reserve=round_.reserve)
            )


def test_feedback_many_returns_outcomes_for_shards_after_the_dead_one():
    """feedback_many across three shards with the middle one killed: the
    dead shard's events carry the error, every healthy shard's outcomes are
    still returned, aligned with the input order."""
    model, materialized, theta = _market()
    keys = _keys_on_distinct_shards(3, 3)
    round_ = next(iter(stream_rounds(materialized.slice(0, 1))))
    with _sharded(model, theta, num_shards=3) as sharded:
        responses = {}
        for key in keys:
            sharded.submit(
                QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
            )
            (response,) = [r for r in sharded.flush() if r.key == key]
            responses[key] = response
        victim = keys[1]
        _kill_shard(sharded, sharded.shard_of(victim))
        events = [
            FeedbackEvent(
                key=key,
                quote_id=responses[key].quote_id,
                accepted=bool(
                    responses[key].posted
                    and responses[key].posted_price <= round_.market_value
                ),
            )
            for key in keys
        ]
        outcomes = sharded.feedback_many(events)
        assert len(outcomes) == 3
        assert outcomes[0] is None
        assert isinstance(outcomes[1], ServingError)
        assert outcomes[2] is None


def test_submit_many_keeps_healthy_shard_accounting_when_one_is_dead():
    """submit_many spanning a dead shard raises, but the healthy shards'
    requests were enqueued and their responses drain normally."""
    model, materialized, theta = _market()
    keys = _keys_on_distinct_shards(3, 3)
    round_ = next(iter(stream_rounds(materialized.slice(0, 1))))
    with _sharded(model, theta, num_shards=3) as sharded:
        victim = keys[1]
        _kill_shard(sharded, sharded.shard_of(victim))
        requests = [
            QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
            for key in keys
        ]
        with pytest.raises(ServingError):
            sharded.submit_many(requests)
        responses = sharded.flush()
        assert {response.key for response in responses} == {keys[0], keys[2]}


def test_respawn_write_off_surfaces_on_the_next_poll():
    """Quotes written off by a direct ``respawn_shard`` (no poll touched the
    dead pipe first) must surface as a structured error on the next poll —
    a concurrently-polling serving loop (the socket frontend's drain task)
    would otherwise leave their waiters hanging forever."""
    model, materialized, theta = _market()
    keys = _keys_on_distinct_shards(2, 2)
    round_ = next(iter(stream_rounds(materialized.slice(0, 1))))
    config = MicroBatchConfig(max_batch=64, max_wait_seconds=60.0)
    with _sharded(model, theta, num_shards=2, config=config) as sharded:
        ids = [
            sharded.submit(
                QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
            )
            for key in keys
        ]
        victim_shard = sharded.shard_of(keys[0])
        _kill_shard(sharded, victim_shard)
        lost = sharded.respawn_shard(victim_shard)
        assert lost == [ids[0]]
        with pytest.raises(ServingError) as excinfo:
            sharded.poll()
        assert excinfo.value.lost_quote_ids == [ids[0]]
        # Reported once: the healthy shard's response still drains normally.
        responses = sharded.flush()
        assert [response.quote_id for response in responses] == [ids[1]]


def test_partial_submit_failure_spares_healthy_quotes_through_the_socket(tmp_path):
    """A coalesced quote batch spanning a dead shard fails only the dead
    shard's quotes: the healthy quotes were enqueued backend-side, so their
    futures must resolve with real results — failing them would strand
    their (served, never-fed-back) decisions pending forever, wedging any
    later quiesce of those sessions."""
    model, materialized, theta = _market()
    keys = _keys_on_distinct_shards(3, 3)
    round_ = next(iter(stream_rounds(materialized.slice(0, 1))))
    address = os.path.join(str(tmp_path), "quotes.sock")
    with _sharded(model, theta, num_shards=3) as sharded:
        victim = keys[1]
        _kill_shard(sharded, sharded.shard_of(victim))
        handle = start_frontend_thread(sharded, unix_path=address, drain_interval=0.001)
        try:
            async def burst():
                client = await AsyncQuoteClient.connect(unix_path=address)
                try:
                    # Submits of one tick leave as one coalesced quote batch.
                    futures = [
                        client.submit_quote(key, round_.features, round_.reserve)
                        for key in keys
                    ]
                    results = await asyncio.gather(*futures, return_exceptions=True)
                    for key, result in zip(keys, results):
                        if isinstance(result, Exception):
                            continue
                        await client.submit_feedback(
                            key, result["quote_id"], accepted=True
                        )
                    return results
                finally:
                    await client.close()

            results = asyncio.run(burst())
        finally:
            handle.stop()
        assert isinstance(results[1], ServingError)
        for index in (0, 2):
            assert not isinstance(results[index], Exception), results[index]
            assert results[index]["posted_price"] is not None
        # Feedback settled, so nothing is left pending on the healthy shards
        # (a stranded decision would wedge any later quiesce of the session).
        for index in (0, 2):
            shard = sharded.shard_of(keys[index])
            info = sharded._roundtrip(
                sharded._shards[shard], "session_info", keys[index]
            )
            assert info["pending"] == 0


def test_respawn_shard_rehydrates_bit_identically(tmp_path):
    """Kill a worker between rounds and respawn it: the session continues
    from its write-behind snapshot bit-identically to the offline engine."""
    model, materialized, theta = _market()
    offline = simulate(
        model, golden_specs.build_pricer(FAMILY, theta), materialized=materialized
    )
    key = SessionKey("app", "respawn")
    posted = []
    with _sharded(
        model, theta, num_shards=2, snapshot_dir=str(tmp_path), persist_every=1
    ) as sharded:
        def drive(start, stop):
            for round_ in stream_rounds(materialized.slice(start, stop)):
                response = sharded.quote(
                    QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
                )
                sold = bool(
                    response.posted and response.posted_price <= round_.market_value
                )
                sharded.feedback(
                    FeedbackEvent(key=key, quote_id=response.quote_id, accepted=sold)
                )
                posted.append(
                    np.nan if response.posted_price is None else response.posted_price
                )

        drive(0, 12)
        shard = sharded.shard_of(key)
        _kill_shard(sharded, shard)
        lost = sharded.respawn_shard(shard)
        assert lost == []  # nothing was in flight between rounds
        drive(12, 24)
        stats = sharded.stats()
        assert stats["registry"]["hydrations"] >= 1
    assert np.array_equal(
        np.array(posted), offline.transcript.posted_prices[:24], equal_nan=True
    )


# --------------------------------------------------------------------------- #
# Scale-in guard
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "resident, refusal",
    [(False, "segment-resident session"), (True, "resident session")],
    ids=["cold", "resident"],
)
def test_remove_trailing_shard_refuses_a_shard_holding_a_session(
    tmp_path, resident, refusal
):
    """Retiring the trailing shard while a session lives there — only in its
    segment log after a restart, or resident and never persisted — would
    strand the session; the guard refuses, and the session continues
    bit-identically on that shard."""
    model, materialized, theta = _market()
    offline = simulate(
        model, golden_specs.build_pricer(FAMILY, theta), materialized=materialized
    )
    key = next(
        key
        for index in range(1000)
        for key in [SessionKey("app", "scale-in-%d" % index)]
        if shard_of_key(key, 3) == 2
    )
    posted = []

    def drive(sharded, start, stop):
        for round_ in stream_rounds(materialized.slice(start, stop)):
            response = sharded.quote(
                QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
            )
            sold = bool(response.posted and response.posted_price <= round_.market_value)
            sharded.feedback(
                FeedbackEvent(key=key, quote_id=response.quote_id, accepted=sold)
            )
            posted.append(np.nan if response.posted_price is None else response.posted_price)

    def refuse_then_continue(sharded, hydrations):
        with pytest.raises(RebalanceError, match=refusal):
            sharded.remove_trailing_shard()
        assert sharded.num_shards == 3
        drive(sharded, 4, 8)
        assert sharded.stats()["registry"]["hydrations"] == hydrations

    with _sharded(
        model,
        theta,
        num_shards=3,
        snapshot_dir=str(tmp_path),
        persist_every=0 if resident else 1,
    ) as sharded:
        drive(sharded, 0, 4)
        if resident:
            refuse_then_continue(sharded, hydrations=0)
    if not resident:
        # After a restart the session lives only in shard 2's segment log.
        with _sharded(model, theta, num_shards=3, snapshot_dir=str(tmp_path)) as sharded:
            refuse_then_continue(sharded, hydrations=1)
    assert np.array_equal(
        np.array(posted), offline.transcript.posted_prices[:8], equal_nan=True
    )
