"""Cross-process session sharding: routing, dispatch, and exactness.

The sharded service must behave like N independent in-process services glued
by a deterministic key→shard map: per-session protocol order preserved,
quote ids globally unique, failure accounting intact across the pipe, and a
closed-loop replay bit-identical to the offline engine for sessions living
on different workers.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "golden"))
import golden_specs

from repro.engine import prepare, simulate, stream_rounds
from repro.exceptions import ServingError
from repro.serving import (
    FeedbackEvent,
    MicroBatchConfig,
    QuoteRequest,
    SessionKey,
    ShardedRegistry,
    list_segment_sessions,
    shard_of_key,
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
    """Session keys guaranteed to cover ``count`` distinct shards."""
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


def test_shard_of_key_is_stable_and_covers_shards():
    key = SessionKey("app", "segment")
    assert shard_of_key(key, 4) == shard_of_key(SessionKey("app", "segment"), 4)
    assert 0 <= shard_of_key(key, 4) < 4
    shards = {shard_of_key(SessionKey("app", "s%d" % i), 4) for i in range(64)}
    assert shards == {0, 1, 2, 3}


def test_pickled_serving_error_keeps_accounting_fields():
    import pickle

    error = ServingError(
        "boom",
        key=SessionKey("app", "s"),
        lost_quote_ids=[3, 5],
        requeued_quote_ids=[7],
    )
    clone = pickle.loads(pickle.dumps(error))
    assert str(clone) == "boom"
    assert clone.key == SessionKey("app", "s")
    assert clone.lost_quote_ids == [3, 5]
    assert clone.requeued_quote_ids == [7]


def test_submit_flush_feedback_roundtrip_across_shards():
    model, materialized, theta = _market()
    with _sharded(model, theta, num_shards=2) as sharded:
        keys = _keys_on_distinct_shards(2, 2)
        assert sharded.shard_of(keys[0]) != sharded.shard_of(keys[1])
        round_ = next(iter(stream_rounds(materialized, 0, 1)))

        ids = sharded.submit_many(
            [
                QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
                for key in keys
            ]
        )
        assert len(set(ids)) == 2  # globally unique across shards
        responses = sharded.flush()
        assert sorted(r.quote_id for r in responses) == sorted(ids)
        by_id = {r.quote_id: r for r in responses}
        events = [
            FeedbackEvent(
                key=by_id[quote_id].key,
                quote_id=quote_id,
                accepted=bool(
                    by_id[quote_id].posted
                    and by_id[quote_id].posted_price <= round_.market_value
                ),
            )
            for quote_id in ids
        ]
        sharded.feedback_batch(events)
        stats = sharded.stats()
        assert stats["quotes_served"] == 2
        assert stats["feedback_applied"] == 2
        assert stats["sessions_resident"] == 2
        assert stats["latency"]["count"] == 2


def test_feedback_with_mismatched_quote_id_is_rejected_before_dispatch():
    model, materialized, theta = _market()
    with _sharded(model, theta, num_shards=2) as sharded:
        keys = _keys_on_distinct_shards(2, 2)
        round_ = next(iter(stream_rounds(materialized, 0, 1)))
        quote_id = sharded.submit(
            QuoteRequest(key=keys[0], features=round_.features, reserve=round_.reserve)
        )
        sharded.flush()
        # keys[1] lives on the other shard: its ids can never equal quote_id
        # modulo the shard count.
        with pytest.raises(ServingError):
            sharded.feedback(
                FeedbackEvent(key=keys[1], quote_id=quote_id, accepted=True)
            )
        # The legitimate settlement still works.
        sharded.feedback(FeedbackEvent(key=keys[0], quote_id=quote_id, accepted=False))


def test_closed_loop_replay_across_shards_matches_offline_engine():
    """Two sessions on two different worker processes, replayed closed-loop
    via the batched replay dispatch — both transcripts must equal the
    offline engine's run of the same market."""
    model, materialized, theta = _market()
    offline = simulate(
        model, golden_specs.build_pricer(FAMILY, theta), materialized=materialized
    )
    rounds = 96
    window = materialized.slice(0, rounds)
    with _sharded(model, theta, num_shards=2) as sharded:
        keys = _keys_on_distinct_shards(2, 2)
        pairs = []
        for round_ in stream_rounds(window):
            for key in keys:
                pairs.append(
                    (
                        QuoteRequest(
                            key=key, features=round_.features, reserve=round_.reserve
                        ),
                        round_.market_value,
                    )
                )
        served = sharded.replay_closed_loop(pairs, window=16)
        assert served == rounds * len(keys)
        stats = sharded.stats()
        assert stats["quotes_served"] == rounds * len(keys)
        # Each worker priced its session exactly like the offline loop: the
        # per-shard latency sample counts add up and every quote settled.
        assert stats["feedback_applied"] == rounds * len(keys)

    # Offline comparison through the synchronous quote path on a fresh
    # sharded service (responses carry the prices to compare).
    with _sharded(model, theta, num_shards=2) as sharded:
        key = _keys_on_distinct_shards(2, 2)[1]
        posted = np.full(rounds, np.nan)
        sold_column = np.zeros(rounds, dtype=bool)
        for round_ in stream_rounds(window):
            response = sharded.quote(
                QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
            )
            if response.posted:
                sold = response.posted_price <= round_.market_value
                posted[round_.index] = response.posted_price
                sold_column[round_.index] = sold
            else:
                sold = False
            sharded.feedback(
                FeedbackEvent(key=key, quote_id=response.quote_id, accepted=sold)
            )
        assert np.array_equal(
            posted, offline.transcript.posted_prices[:rounds], equal_nan=True
        )
        assert np.array_equal(sold_column, offline.transcript.sold[:rounds])


def test_per_shard_snapshot_dirs_hydrate_bit_identically(tmp_path):
    """Persist on one sharded service, restart, continue — the stitched
    replay equals the uninterrupted offline transcript, and the session's
    record lives in its shard's segment log."""
    model, materialized, theta = _market()
    offline = simulate(
        model, golden_specs.build_pricer(FAMILY, theta), materialized=materialized
    )
    rounds, split = 96, 40
    key = _keys_on_distinct_shards(2, 2)[0]
    shard = shard_of_key(key, 2)

    def _drive(sharded, start, stop):
        posted = []
        for round_ in stream_rounds(materialized.slice(start, stop)):
            response = sharded.quote(
                QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
            )
            sold = bool(response.posted and response.posted_price <= round_.market_value)
            sharded.feedback(
                FeedbackEvent(key=key, quote_id=response.quote_id, accepted=sold)
            )
            posted.append(np.nan if response.posted_price is None else response.posted_price)
        return posted

    with _sharded(model, theta, num_shards=2, snapshot_dir=str(tmp_path)) as sharded:
        first = _drive(sharded, 0, split)
        assert sharded.persist_all() == 1
    assert key in list_segment_sessions(str(tmp_path / ("shard-%02d" % shard)))

    with _sharded(model, theta, num_shards=2, snapshot_dir=str(tmp_path)) as sharded:
        second = _drive(sharded, split, rounds)
        stats = sharded.stats()
        assert stats["registry"]["hydrations"] == 1
        assert stats["registry"]["created"] == 0

    stitched = np.array(first + second)
    assert np.array_equal(
        stitched, offline.transcript.posted_prices[:rounds], equal_nan=True
    )


def test_worker_drain_failure_carries_global_ids_and_spares_other_shards():
    """A failing session on one shard must not lose the other shard's
    responses, and the error's quote ids must be global."""

    class FailingPricer:
        supports_batch_propose = False
        rounds_seen = 0

        def propose(self, features, reserve=None):
            raise RuntimeError("shard-side pricer failure")

    model, materialized, theta = _market()

    def factory(key):
        if key.segment.startswith("bad"):
            return model, FailingPricer()
        return model, golden_specs.build_pricer(FAMILY, theta)

    with ShardedRegistry(
        factory,
        num_shards=2,
        config=MicroBatchConfig(max_batch=64, max_wait_seconds=0.0),
    ) as sharded:
        good_key = SessionKey("app", "good")
        bad_index = 0
        while True:
            bad_key = SessionKey("app", "bad-%d" % bad_index)
            if sharded.shard_of(bad_key) != sharded.shard_of(good_key):
                break
            bad_index += 1
        round_ = next(iter(stream_rounds(materialized, 0, 1)))
        good_id, bad_id = sharded.submit_many(
            [
                QuoteRequest(key=good_key, features=round_.features, reserve=round_.reserve),
                QuoteRequest(key=bad_key, features=round_.features, reserve=round_.reserve),
            ]
        )
        with pytest.raises(ServingError) as excinfo:
            sharded.flush()
        assert excinfo.value.lost_quote_ids == [bad_id]
        # The healthy shard's response was parked, not dropped.
        responses = sharded.poll()
        assert [r.quote_id for r in responses] == [good_id]
        # Lost and served quotes are both gone from the queue-depth
        # accounting: no shard is polled for them ever again.
        assert all(not handle.outstanding for handle in sharded._shards)
        assert sharded.poll() == []
        sharded.feedback(
            FeedbackEvent(key=good_key, quote_id=good_id, accepted=False)
        )


def test_sharded_registry_validates_configuration():
    model, materialized, theta = _market()
    with pytest.raises(ValueError):
        ShardedRegistry(lambda key: (model, None), num_shards=0)
