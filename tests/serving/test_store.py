"""The session store: golden round-trips in both snapshot formats, legacy →
segment migration, clock-hand eviction, and the resident footprint.

The acceptance bar of the store refactor: every golden family's state must
survive persist → evict → hydrate **bit-identically** whether the snapshot
lives in a per-session ``.session.npz`` file or an mmap segment record, a
directory holding both formats at once must read correctly (the migration
story), and the clock hand must pick the same victims the old LRU scan did
for plain access patterns while honouring the pinned/pending exemptions.
"""

import gc
import os
import sys
import tracemalloc

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "golden"))
import golden_specs

from repro.apps.common import ALGORITHM_VERSIONS, build_pricer_for_version
from repro.apps.noisy_linear_query import (
    NoisyLinearQueryConfig,
    build_noisy_query_environment,
)
from repro.core.knowledge import PolytopeKnowledge
from repro.engine import load_checkpoint, prepare, simulate, state_equal, stream_rounds
from repro.serving import (
    FeedbackEvent,
    PricerRegistry,
    QuoteRequest,
    QuoteService,
    SessionKey,
    export_segments_to_legacy,
    list_segment_sessions,
)
from repro.serving.store import SEGMENT_DIR, SEGMENT_INDEX, SESSION_SUFFIX

ALL_FAMILIES = sorted(golden_specs.GOLDEN_SPECS)


def _market(family):
    model, batch, theta = golden_specs.build_market(family)
    return model, prepare(model, batch), theta


def _factory(family, model, theta):
    return lambda key: (model, golden_specs.build_pricer(family, theta))


def _drive(service, key, materialized, start, stop):
    """Serve rounds [start, stop) closed-loop for one session."""
    for round_ in stream_rounds(materialized, start, stop):
        response = service.quote(
            QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
        )
        sold = response.posted and response.posted_price <= round_.market_value
        service.feedback(
            FeedbackEvent(key=key, quote_id=response.quote_id, accepted=sold)
        )


# --------------------------------------------------------------------------- #
# Golden round-trips: both formats, all families, bit-identical
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("snapshot_format", ["legacy", "segment"])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_golden_roundtrip_bit_identical(tmp_path, family, snapshot_format):
    model, materialized, theta = _market(family)
    registry = PricerRegistry(
        _factory(family, model, theta),
        snapshot_dir=str(tmp_path),
        snapshot_format=snapshot_format,
    )
    service = QuoteService(registry)
    key = SessionKey("golden", family)
    _drive(service, key, materialized, 0, 24)

    before = registry.session(key).pricer.state_dict()
    registry.flush()
    assert registry.evict(key)
    assert key not in registry

    session = registry.session(key)
    assert session.hydrated
    assert state_equal(session.pricer.state_dict(), before)

    # Hydration source accounting is exact per format.
    if snapshot_format == "segment":
        assert registry.stats.zero_copy_hydrations == 1
        assert registry.stats.legacy_hydrations == 0
        assert registry.stats.segments >= 1
        assert registry.stats.segment_bytes >= 0
    else:
        assert registry.stats.zero_copy_hydrations == 0
        assert registry.stats.legacy_hydrations == 1
        assert registry.stats.segments == 0
    assert (
        registry.stats.zero_copy_hydrations + registry.stats.legacy_hydrations
        == registry.stats.hydrations
    )
    registry.close()


def test_segment_thrashing_transcript_matches_offline(tmp_path):
    """max_sessions=1 with two alternating sessions in *segment* format:
    every access thrashes through persist → evict → zero-copy hydrate, and
    both transcripts must still equal an uninterrupted offline run exactly."""
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    registry = PricerRegistry(
        _factory(family, model, theta),
        snapshot_dir=str(tmp_path),
        max_sessions=1,
        snapshot_format="segment",
    )
    service = QuoteService(registry)
    keys = [SessionKey("app", "alpha"), SessionKey("app", "beta")]

    rounds = 48
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

    assert registry.stats.evictions > 0
    assert registry.stats.zero_copy_hydrations > 0
    assert registry.stats.legacy_hydrations == 0
    # No per-session files: all snapshot traffic went through segments.
    assert not [
        name for name in os.listdir(str(tmp_path)) if name.endswith(SESSION_SUFFIX)
    ]

    offline = simulate(
        model,
        golden_specs.build_pricer(family, theta),
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
    registry.close()


# --------------------------------------------------------------------------- #
# Migration: legacy files and segment records coexisting in one directory
# --------------------------------------------------------------------------- #


def test_legacy_to_segment_migration_and_mixed_directory(tmp_path):
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    key_old = SessionKey("app", "from-legacy")
    key_new = SessionKey("app", "segment-native")

    # Era 1: a legacy-format store persists key_old the old way.
    legacy = PricerRegistry(
        _factory(family, model, theta), snapshot_dir=str(tmp_path)
    )
    service = QuoteService(legacy)
    _drive(service, key_old, materialized, 0, 16)
    expected_old = legacy.session(key_old).pricer.state_dict()
    legacy.flush()
    legacy_path = legacy.snapshot_path(key_old)
    assert os.path.exists(legacy_path)
    legacy.close()

    # Era 2: the same directory reopened in segment format.  key_old
    # hydrates from its legacy file; key_new is born straight into segments.
    store = PricerRegistry(
        _factory(family, model, theta),
        snapshot_dir=str(tmp_path),
        snapshot_format="segment",
    )
    service = QuoteService(store)
    session_old = store.session(key_old)
    assert session_old.hydrated
    assert store.stats.legacy_hydrations == 1
    assert state_equal(session_old.pricer.state_dict(), expected_old)

    _drive(service, key_new, materialized, 0, 16)
    expected_new = store.session(key_new).pricer.state_dict()
    store.flush()

    # Persisting through the segment store retires the stale legacy file —
    # the segment record is now the one authoritative copy.
    assert not os.path.exists(legacy_path)
    resident = set(list_segment_sessions(str(tmp_path)))
    assert resident == {key_old, key_new}

    assert store.evict(key_old) and store.evict(key_new)
    rehydrated_old = store.session(key_old)
    rehydrated_new = store.session(key_new)
    assert store.stats.zero_copy_hydrations == 2
    assert state_equal(rehydrated_old.pricer.state_dict(), expected_old)
    assert state_equal(rehydrated_new.pricer.state_dict(), expected_new)
    store.close()


def test_export_segments_to_legacy_bridges_offline_resharder(tmp_path):
    family = "sgd"
    model, materialized, theta = _market(family)
    keys = [SessionKey("app", "a"), SessionKey("app", "b")]
    expected = {}

    store = PricerRegistry(
        _factory(family, model, theta),
        snapshot_dir=str(tmp_path),
        snapshot_format="segment",
    )
    service = QuoteService(store)
    for key in keys:
        _drive(service, key, materialized, 0, 12)
        expected[key] = store.session(key).pricer.state_dict()
    store.flush()
    store.close()

    assert export_segments_to_legacy(str(tmp_path)) == 2
    assert list_segment_sessions(str(tmp_path)) == {}

    # The exported files are ordinary checkpoints a legacy store hydrates.
    legacy = PricerRegistry(
        _factory(family, model, theta), snapshot_dir=str(tmp_path)
    )
    for key in keys:
        session = legacy.session(key)
        assert session.hydrated
        assert state_equal(session.pricer.state_dict(), expected[key])
    assert legacy.stats.legacy_hydrations == 2


def test_export_session_tombstones_segment_record(tmp_path):
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    key = SessionKey("app", "moving")
    store = PricerRegistry(
        _factory(family, model, theta),
        snapshot_dir=str(tmp_path),
        snapshot_format="segment",
    )
    service = QuoteService(store)
    _drive(service, key, materialized, 0, 8)
    expected = store.session(key).pricer.state_dict()
    store.flush()
    assert key in list_segment_sessions(str(tmp_path))

    path = store.export_session(key)
    assert os.path.exists(path)
    assert key not in store
    assert key not in list_segment_sessions(str(tmp_path))
    assert store.stats.exports == 1
    assert store.stats.evictions == 0
    assert state_equal(load_checkpoint(path).state, expected)
    store.close()


def test_materialize_legacy_rewrites_cold_segment_record(tmp_path):
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    key = SessionKey("app", "cold")
    store = PricerRegistry(
        _factory(family, model, theta),
        snapshot_dir=str(tmp_path),
        snapshot_format="segment",
    )
    service = QuoteService(store)
    _drive(service, key, materialized, 0, 8)
    expected = store.session(key).pricer.state_dict()
    store.flush()
    assert store.evict(key)

    path = store.materialize_legacy(key)
    assert path is not None and os.path.exists(path)
    assert key not in list_segment_sessions(str(tmp_path))
    assert state_equal(load_checkpoint(path).state, expected)

    # Hydration now comes from the rewritten file.
    session = store.session(key)
    assert session.hydrated
    assert store.stats.legacy_hydrations == 1
    assert state_equal(session.pricer.state_dict(), expected)
    store.close()


# --------------------------------------------------------------------------- #
# Segment log mechanics
# --------------------------------------------------------------------------- #


def test_segment_files_rotate_at_max_bytes(tmp_path):
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    store = PricerRegistry(
        _factory(family, model, theta),
        snapshot_dir=str(tmp_path),
        snapshot_format="segment",
        segment_max_bytes=64,  # the minimum: every append rolls to a fresh segment
    )
    service = QuoteService(store)
    keys = [SessionKey("app", "s%d" % i) for i in range(3)]
    for key in keys:
        _drive(service, key, materialized, 0, 4)
    store.flush()
    assert store.stats.segments >= 2
    segment_dir = os.path.join(str(tmp_path), SEGMENT_DIR)
    assert len([n for n in os.listdir(segment_dir) if n.endswith(".seg")]) >= 2
    assert store.stats.segment_bytes > 0
    assert set(list_segment_sessions(str(tmp_path))) == set(keys)
    store.close()


def test_torn_index_tail_is_tolerated(tmp_path):
    """A crash mid-append leaves a partial final index line; replay must
    keep every complete record and drop only the torn tail."""
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    key = SessionKey("app", "survivor")
    store = PricerRegistry(
        _factory(family, model, theta),
        snapshot_dir=str(tmp_path),
        snapshot_format="segment",
    )
    service = QuoteService(store)
    _drive(service, key, materialized, 0, 12)
    expected = store.session(key).pricer.state_dict()
    store.flush()
    store.close()

    index_path = os.path.join(str(tmp_path), SEGMENT_DIR, SEGMENT_INDEX)
    with open(index_path, "ab") as handle:
        handle.write(b'{"slug": "torn-mid-wri')  # no trailing newline

    reopened = PricerRegistry(
        _factory(family, model, theta),
        snapshot_dir=str(tmp_path),
        snapshot_format="segment",
    )
    session = reopened.session(key)
    assert session.hydrated
    assert reopened.stats.zero_copy_hydrations == 1
    assert state_equal(session.pricer.state_dict(), expected)
    reopened.close()


# --------------------------------------------------------------------------- #
# Clock-hand eviction
# --------------------------------------------------------------------------- #


def test_clock_hand_gives_recently_touched_sessions_a_second_chance():
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    registry = PricerRegistry(_factory(family, model, theta), max_sessions=2)
    key_a, key_b, key_c = (SessionKey("app", name) for name in "abc")
    registry.session(key_a)
    registry.session(key_b)
    registry.session(key_a)  # sets a's reference bit
    registry.session(key_c)  # over capacity: the hand clears a, evicts b
    assert key_a in registry
    assert key_b not in registry
    assert key_c in registry
    assert registry.stats.evictions == 1
    assert registry.stats.clock_hand_steps >= 2


def test_clock_skips_pinned_sessions(tmp_path):
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    registry = PricerRegistry(
        _factory(family, model, theta), snapshot_dir=str(tmp_path), max_sessions=1
    )
    key_a, key_b = SessionKey("app", "a"), SessionKey("app", "b")
    registry.session(key_a)
    registry.pin(key_a)
    registry.session(key_b)
    # Both the pinned session and the just-created one are exempt: the
    # store runs over budget rather than dropping either.
    assert registry.resident_count == 2
    assert registry.stats.evictions == 0
    registry.unpin(key_a)
    registry.session(SessionKey("app", "c"))
    assert registry.stats.evictions >= 1
    assert registry.resident_count <= 2


# --------------------------------------------------------------------------- #
# The resident footprint: one copy of each session's state
# --------------------------------------------------------------------------- #


def _state_bytes(pricer):
    return sum(array.nbytes for array in pricer.state_arrays())


def test_resident_bytes_gauge_tracks_residency():
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    registry = PricerRegistry(_factory(family, model, theta), max_sessions=4)
    keys = [SessionKey("app", "r%d" % i) for i in range(4)]
    for key in keys:
        registry.session(key)
    session_bytes = _state_bytes(registry.peek(keys[0]).pricer)
    assert session_bytes > 0
    assert registry.stats.resident_bytes == 4 * session_bytes

    for key in keys:
        assert registry.evict(key)
    assert registry.stats.resident_bytes == 0

    for key in keys:
        registry.session(key)
    assert registry.stats.resident_bytes == 4 * session_bytes


def test_resident_bytes_follows_a_growing_state_layout():
    """Polytope knowledge gains constraint rows as it learns: the gauge is
    measured when read, so it follows the live state's layout."""
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    dimension = theta.shape[0]

    def factory(key):
        pricer = golden_specs.build_pricer(family, theta)
        pricer.knowledge = PolytopeKnowledge.from_radius(
            dimension, 2.0 * np.sqrt(dimension)
        )
        return model, pricer

    registry = PricerRegistry(factory)
    service = QuoteService(registry)
    key = SessionKey("app", "grower")
    _drive(service, key, materialized, 0, 2)
    before = registry.stats.resident_bytes
    _drive(service, key, materialized, 2, 6)
    after = registry.stats.resident_bytes
    assert after > before
    assert after == _state_bytes(registry.peek(key).pricer)


def test_each_resident_session_holds_one_copy_of_its_state():
    """Admission keeps no in-memory copy of a session's state besides the
    pricer's own: each of 1,024 resident fig4 sessions (n = 20) traces
    under twice its state-array bytes, which a second copy alone would
    reach."""
    environment = build_noisy_query_environment(
        NoisyLinearQueryConfig(dimension=20, rounds=64, owner_count=40, seed=7)
    )
    version = list(ALGORITHM_VERSIONS)[0]
    registry = PricerRegistry(
        lambda key: (environment.model, build_pricer_for_version(environment, version))
    )
    keys = [SessionKey("fig4", "s%04d" % index) for index in range(1024)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key in keys:
            registry.session(key)
        gc.collect()
        traced_per_session = (tracemalloc.get_traced_memory()[0] - before) / len(keys)
    finally:
        tracemalloc.stop()
    state_bytes = registry.stats.resident_bytes / len(keys)
    assert state_bytes == 3360  # center (20,) + shape (20, 20), float64
    assert traced_per_session < 2 * state_bytes, (
        "%.0f traced bytes per resident session, %.2fx its %d state bytes"
        % (traced_per_session, traced_per_session / state_bytes, state_bytes)
    )
