"""PricerRegistry lifecycle: hydration, write-behind cadence, LRU eviction."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "golden"))
import golden_specs

from repro.engine import prepare, simulate
from repro.serving import (
    FeedbackEvent,
    PricerRegistry,
    QuoteRequest,
    QuoteService,
    SessionKey,
    list_segment_sessions,
)

FAMILY = "ellipsoid-reserve"


def _market():
    model, batch, theta = golden_specs.build_market(FAMILY)
    return model, prepare(model, batch), theta


def _factory(model, theta):
    return lambda key: (model, golden_specs.build_pricer(FAMILY, theta))


def _drive(service, key, materialized, start, stop):
    """Serve rounds [start, stop) closed-loop for one session."""
    from repro.engine import stream_rounds

    for round_ in stream_rounds(materialized, start, stop):
        response = service.quote(
            QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
        )
        sold = response.posted and response.posted_price <= round_.market_value
        service.feedback(FeedbackEvent(key=key, quote_id=response.quote_id, accepted=sold))


def test_sessions_are_created_once_and_touched_on_access():
    model, materialized, theta = _market()
    registry = PricerRegistry(_factory(model, theta))
    key_a, key_b = SessionKey("app", "a"), SessionKey("app", "b")
    session_a = registry.session(key_a)
    registry.session(key_b)
    assert registry.resident_count == 2
    assert registry.stats.created == 2
    assert registry.session(key_a) is session_a
    assert registry.stats.created == 2
    # key_a is now most-recently-used
    assert registry.resident_keys == [key_b, key_a]


def test_write_behind_cadence_persists_every_nth_update(tmp_path):
    model, materialized, theta = _market()
    registry = PricerRegistry(
        _factory(model, theta), snapshot_dir=str(tmp_path), persist_every=5
    )
    service = QuoteService(registry)
    key = SessionKey("app", "cadence")

    _drive(service, key, materialized, 0, 4)
    assert key not in list_segment_sessions(str(tmp_path))  # below the cadence
    _drive(service, key, materialized, 4, 12)
    # Persisted at updates 5 and 10; the snapshot trails the live session by
    # at most persist_every updates.
    assert list_segment_sessions(str(tmp_path))[key].rounds_done == 10
    assert registry.stats.persists == 2

    registry.flush()
    assert list_segment_sessions(str(tmp_path))[key].rounds_done == 12


def test_lru_eviction_persists_and_rehydrates_exactly(tmp_path):
    """max_sessions=1 with two alternating sessions: every access thrashes
    through persist → evict → hydrate, and both transcripts must still be
    bit-identical to uninterrupted offline runs."""
    model, materialized, theta = _market()
    registry = PricerRegistry(
        _factory(model, theta), snapshot_dir=str(tmp_path), max_sessions=1
    )
    service = QuoteService(registry)
    keys = [SessionKey("app", "alpha"), SessionKey("app", "beta")]

    rounds = 48
    from repro.engine import stream_rounds

    transcripts = {key: {"prices": [], "sold": []} for key in keys}
    for round_ in stream_rounds(materialized, 0, rounds):
        for key in keys:
            response = service.quote(
                QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
            )
            sold = response.posted and response.posted_price <= round_.market_value
            service.feedback(
                FeedbackEvent(key=key, quote_id=response.quote_id, accepted=sold)
            )
            transcripts[key]["prices"].append(
                np.nan if response.posted_price is None else response.posted_price
            )
            transcripts[key]["sold"].append(bool(sold))

    assert registry.resident_count == 1
    assert registry.stats.evictions > 0
    assert registry.stats.hydrations > 0

    # Both sessions saw the same market and must match the offline run.
    offline = simulate(
        model,
        golden_specs.build_pricer(FAMILY, theta),
        materialized=materialized.slice(0, rounds),
    )
    for key in keys:
        assert np.array_equal(
            np.array(transcripts[key]["prices"]),
            offline.transcript.posted_prices,
            equal_nan=True,
        )
        assert np.array_equal(
            np.array(transcripts[key]["sold"]), offline.transcript.sold
        )


def test_sessions_with_pending_quotes_are_not_evicted(tmp_path):
    model, materialized, theta = _market()
    registry = PricerRegistry(
        _factory(model, theta), snapshot_dir=str(tmp_path), max_sessions=1
    )
    service = QuoteService(registry)
    key_a, key_b = SessionKey("app", "a"), SessionKey("app", "b")

    # Leave an unsettled quote on session a.
    from repro.engine import stream_rounds

    round_ = next(iter(stream_rounds(materialized, 0, 1)))
    service.quote(QuoteRequest(key=key_a, features=round_.features, reserve=round_.reserve))
    assert registry.peek(key_a).pending

    # Creating session b exceeds capacity, but a's in-flight decision
    # protects it: the registry temporarily runs over budget.
    registry.session(key_b)
    assert registry.resident_count == 2
    assert registry.stats.evictions == 0


def test_eviction_without_snapshot_dir_drops_state():
    model, materialized, theta = _market()
    registry = PricerRegistry(_factory(model, theta), max_sessions=1)
    key_a, key_b = SessionKey("app", "a"), SessionKey("app", "b")
    registry.session(key_a)
    registry.session(key_b)
    assert registry.resident_count == 1
    assert key_a not in registry
    assert registry.stats.evictions == 1
    assert registry.stats.persists == 0


def test_explicit_evict_refuses_sessions_with_pending_quotes(tmp_path):
    from repro.exceptions import ServingError

    model, materialized, theta = _market()
    registry = PricerRegistry(_factory(model, theta), snapshot_dir=str(tmp_path))
    service = QuoteService(registry)
    key = SessionKey("app", "inflight")

    from repro.engine import stream_rounds

    round_ = next(iter(stream_rounds(materialized, 0, 1)))
    response = service.quote(
        QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
    )
    with pytest.raises(ServingError):
        registry.evict(key)
    assert key in registry  # still resident, decision preserved

    service.feedback(FeedbackEvent(key=key, quote_id=response.quote_id, accepted=False))
    assert registry.evict(key)
    assert key not in registry


def test_hydrations_are_not_double_counted_as_creations(tmp_path):
    """`created` counts fresh sessions only; a session rebuilt from a
    snapshot counts as a hydration, and `opened` is their disjoint sum."""
    model, materialized, theta = _market()
    registry = PricerRegistry(_factory(model, theta), snapshot_dir=str(tmp_path))
    service = QuoteService(registry)
    key = SessionKey("app", "stats")

    _drive(service, key, materialized, 0, 4)
    assert registry.stats.created == 1
    assert registry.stats.hydrations == 0
    registry.flush()
    assert registry.evict(key)

    # Re-entry hydrates from the snapshot: no new creation is counted.
    registry.session(key)
    assert registry.stats.created == 1
    assert registry.stats.hydrations == 1
    assert registry.stats.opened == 2
    as_dict = registry.stats.as_dict()
    assert as_dict["created"] == 1
    assert as_dict["hydrations"] == 1
    assert as_dict["opened"] == 2


def test_registry_validates_configuration():
    model, materialized, theta = _market()
    with pytest.raises(ValueError):
        PricerRegistry(_factory(model, theta), max_sessions=0)
    with pytest.raises(ValueError):
        PricerRegistry(_factory(model, theta), persist_every=-1)
    with pytest.raises(ValueError, match="segment"):
        PricerRegistry(_factory(model, theta), snapshot_format="legacy")
