"""The session store: golden round-trips through the segment log, files of
earlier versions moved in at open, the move primitive, the bounded log,
clock-hand eviction, and the resident footprint.

The acceptance bar of the store: every golden family's state must survive
persist → evict → hydrate **bit-identically** through a segment record, a
session must move between logs as one record plus its bytes, the log must
stay within a constant factor of its live records however long it churns
(crash-safe compaction included), and the clock hand must pick the same
victims the old LRU scan did for plain access patterns while honouring the
pinned/pending exemptions.
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
from repro.engine import prepare, simulate, state_equal, stream_rounds
from repro.engine.checkpoint import CheckpointError, save_state_checkpoint
from repro.serving import (
    FeedbackEvent,
    PricerRegistry,
    QuoteRequest,
    QuoteService,
    SegmentLog,
    SessionKey,
    list_segment_sessions,
)
from repro.serving import store as store_module
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


def _write_session_file(directory, key, pricer):
    """A ``.session.npz`` as earlier versions of the registry wrote one."""
    save_state_checkpoint(
        os.path.join(directory, key.slug() + SESSION_SUFFIX),
        type(pricer).__name__,
        pricer.rounds_seen,
        pricer.state_dict(),
        meta={"app": key.app, "segment": key.segment},
    )


# --------------------------------------------------------------------------- #
# Golden round-trips: all families, both origins, bit-identical
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("origin", ["legacy", "segment"])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_golden_roundtrip_bit_identical(tmp_path, family, origin):
    """Every family hydrates bit-identically from the log, whether the log
    persisted the state itself (``segment``) or took it over at open from a
    ``.session.npz`` file of an earlier version (``legacy``)."""
    model, materialized, theta = _market(family)
    key = SessionKey("golden", family)
    if origin == "legacy":
        writer = PricerRegistry(_factory(family, model, theta))
        _drive(QuoteService(writer), key, materialized, 0, 24)
        before = writer.session(key).pricer.state_dict()
        _write_session_file(str(tmp_path), key, writer.session(key).pricer)
        writer.close()
        registry = PricerRegistry(
            _factory(family, model, theta), snapshot_dir=str(tmp_path)
        )
        assert not [
            name for name in os.listdir(str(tmp_path)) if name.endswith(SESSION_SUFFIX)
        ]
        assert set(list_segment_sessions(str(tmp_path))) == {key}
    else:
        registry = PricerRegistry(
            _factory(family, model, theta), snapshot_dir=str(tmp_path)
        )
        _drive(QuoteService(registry), key, materialized, 0, 24)
        before = registry.session(key).pricer.state_dict()
        registry.flush()
        assert registry.evict(key)
    assert key not in registry

    session = registry.session(key)
    assert session.hydrated
    assert state_equal(session.pricer.state_dict(), before)

    # Hydration source accounting is exact.
    assert registry.stats.zero_copy_hydrations == 1
    assert registry.stats.legacy_hydrations == 0
    assert registry.stats.segments >= 1
    assert registry.stats.segment_bytes >= 0
    assert (
        registry.stats.zero_copy_hydrations + registry.stats.legacy_hydrations
        == registry.stats.hydrations
    )
    registry.close()


def test_segment_thrashing_transcript_matches_offline(tmp_path):
    """max_sessions=1 with two alternating sessions: every access thrashes
    through persist → evict → zero-copy hydrate, and both transcripts must
    still equal an uninterrupted offline run exactly."""
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    registry = PricerRegistry(
        _factory(family, model, theta),
        snapshot_dir=str(tmp_path),
        max_sessions=1,
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
# Files of earlier versions, and the move primitive
# --------------------------------------------------------------------------- #


def test_session_files_of_earlier_versions_move_into_the_log_at_open(tmp_path):
    """Opening a directory turns each ``.session.npz`` into a segment record
    and deletes the file; where the log holds a record too, the copy that
    has priced more rounds wins, whichever of the two it is."""
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    key_old = SessionKey("app", "from-file")
    key_record_newer = SessionKey("app", "record-newer")
    key_file_newer = SessionKey("app", "file-newer")

    store = PricerRegistry(_factory(family, model, theta), snapshot_dir=str(tmp_path))
    service = QuoteService(store)
    _drive(service, key_record_newer, materialized, 0, 16)
    _drive(service, key_file_newer, materialized, 0, 4)
    expected = {key_record_newer: store.session(key_record_newer).pricer.state_dict()}
    store.flush()
    store.close()

    # Files of an earlier version: key_old's only copy, an older state of
    # key_record_newer, and a newer state of key_file_newer than its record.
    writer = PricerRegistry(_factory(family, model, theta))
    for key, stop in ((key_old, 12), (key_record_newer, 4), (key_file_newer, 16)):
        _drive(QuoteService(writer), key, materialized, 0, stop)
        _write_session_file(str(tmp_path), key, writer.session(key).pricer)
    expected[key_old] = writer.session(key_old).pricer.state_dict()
    expected[key_file_newer] = writer.session(key_file_newer).pricer.state_dict()

    store = PricerRegistry(_factory(family, model, theta), snapshot_dir=str(tmp_path))
    assert not [n for n in os.listdir(str(tmp_path)) if n.endswith(SESSION_SUFFIX)]
    assert set(list_segment_sessions(str(tmp_path))) == set(expected)
    for key, state in expected.items():
        session = store.session(key)
        assert session.hydrated
        assert state_equal(session.pricer.state_dict(), state)
    assert store.stats.zero_copy_hydrations == 3
    assert store.stats.legacy_hydrations == 0
    store.close()


def test_export_import_moves_resident_and_cold_sessions(tmp_path):
    """A session leaves one log as ``(record, payload)`` — resident or cold —
    and enters another verbatim, hydrating there bit-identically.  The
    source keeps its record until the move retires it, so a move cut short
    after the export leaves the session hydrating on a restarted source."""
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    source_dir, target_dir = str(tmp_path / "source"), str(tmp_path / "target")
    source = PricerRegistry(_factory(family, model, theta), snapshot_dir=source_dir)
    target = PricerRegistry(_factory(family, model, theta), snapshot_dir=target_dir)
    service = QuoteService(source)
    hot, cold = SessionKey("app", "hot"), SessionKey("app", "cold")
    expected = {}
    for key in (hot, cold):
        _drive(service, key, materialized, 0, 8)
        expected[key] = source.session(key).pricer.state_dict()
    assert source.evict(cold)
    assert source.export_session(SessionKey("app", "unknown")) is None

    for key in (hot, cold):
        record, payload = source.export_session(key)
        assert record.key() == key and len(payload) == record.length
        assert key not in source
        assert list_segment_sessions(source_dir)[key] == record
        restarted = PricerRegistry(_factory(family, model, theta), snapshot_dir=source_dir)
        assert restarted.session(key).hydrated
        assert state_equal(restarted.session(key).pricer.state_dict(), expected[key])
        restarted.close()
        target.import_session(record, payload)
        placed = list_segment_sessions(target_dir)[key]
        assert (placed.pricer_type, placed.rounds_done) == (
            record.pricer_type,
            record.rounds_done,
        )
        assert source.retire_session(key)
        assert key not in list_segment_sessions(source_dir)
        session = target.session(key)
        assert session.hydrated
        assert state_equal(session.pricer.state_dict(), expected[key])
    assert source.stats.exports == 1
    assert source.stats.evictions == 1
    assert source.session(cold).hydrated is False
    source.close()
    target.close()


def test_record_of_another_pricer_type_raises(tmp_path):
    """A record persisted by another pricer family must not silently turn
    into a fresh session that the next persist overwrites."""
    model, materialized, theta = _market("ellipsoid-reserve")
    key = SessionKey("app", "typed")
    store = PricerRegistry(
        _factory("ellipsoid-reserve", model, theta), snapshot_dir=str(tmp_path)
    )
    _drive(QuoteService(store), key, materialized, 0, 6)
    store.flush()
    store.close()

    sgd_model, _materialized, sgd_theta = _market("sgd")
    reopened = PricerRegistry(
        _factory("sgd", sgd_model, sgd_theta), snapshot_dir=str(tmp_path)
    )
    with pytest.raises(CheckpointError, match="EllipsoidPricer"):
        reopened.session(key)
    assert key not in reopened
    assert reopened.stats.created == 0
    assert list_segment_sessions(str(tmp_path))[key].pricer_type == "EllipsoidPricer"
    reopened.close()


# --------------------------------------------------------------------------- #
# Segment log mechanics
# --------------------------------------------------------------------------- #


def test_segment_files_rotate_at_max_bytes(tmp_path):
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    store = PricerRegistry(
        _factory(family, model, theta),
        snapshot_dir=str(tmp_path),
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
    keep every complete record and drop only the torn tail, and records
    appended after the reopen must not land on the torn line."""
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    key = SessionKey("app", "survivor")
    store = PricerRegistry(_factory(family, model, theta), snapshot_dir=str(tmp_path))
    service = QuoteService(store)
    _drive(service, key, materialized, 0, 12)
    expected = store.session(key).pricer.state_dict()
    store.flush()
    store.close()

    index_path = os.path.join(str(tmp_path), SEGMENT_DIR, SEGMENT_INDEX)
    with open(index_path, "ab") as handle:
        handle.write(b'{"slug": "torn-mid-wri')  # no trailing newline

    reopened = PricerRegistry(_factory(family, model, theta), snapshot_dir=str(tmp_path))
    session = reopened.session(key)
    assert session.hydrated
    assert reopened.stats.zero_copy_hydrations == 1
    assert state_equal(session.pricer.state_dict(), expected)

    expected = {key: expected}
    service = QuoteService(reopened)
    for later in (SessionKey("app", "after-1"), SessionKey("app", "after-2")):
        _drive(service, later, materialized, 0, 6)
        expected[later] = reopened.session(later).pricer.state_dict()
    reopened.flush()
    reopened.close()

    again = PricerRegistry(_factory(family, model, theta), snapshot_dir=str(tmp_path))
    assert set(list_segment_sessions(str(tmp_path))) == set(expected)
    for each, state in expected.items():
        session = again.session(each)
        assert session.hydrated
        assert state_equal(session.pricer.state_dict(), state)
    again.close()


# --------------------------------------------------------------------------- #
# The bounded log: compaction
# --------------------------------------------------------------------------- #


def _segment_files(directory):
    return sorted(
        name
        for name in os.listdir(os.path.join(directory, SEGMENT_DIR))
        if name.endswith(".seg")
    )


@pytest.mark.parametrize("family", ["ellipsoid-reserve", "one-dim"])
def test_segment_log_stays_bounded_under_churn(tmp_path, monkeypatch, family):
    """Three sessions thrash persist → evict → hydrate through 1 KB segments
    until the log has appended over 10x its live records: after every round
    its segment bytes, index lines and mappings stay within a constant
    factor of the live records, the transcripts equal the offline engine's,
    and every session hydrates bit-identically from a reopened log."""
    monkeypatch.setattr(store_module, "COMPACT_LINES", 16)
    segment_bytes = 1024
    model, materialized, theta = _market(family)
    directory = str(tmp_path)
    registry = PricerRegistry(
        _factory(family, model, theta),
        snapshot_dir=directory,
        max_sessions=1,
        segment_max_bytes=segment_bytes,
    )
    service = QuoteService(registry)
    keys = [SessionKey("app", "churn-%d" % index) for index in range(3)]
    rounds = 40
    posted = {key: [] for key in keys}
    expected = {}
    index_path = os.path.join(directory, SEGMENT_DIR, SEGMENT_INDEX)
    for round_ in stream_rounds(materialized, 0, rounds):
        for key in keys:
            response = service.quote(
                QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
            )
            sold = response.posted and response.posted_price <= round_.market_value
            service.feedback(
                FeedbackEvent(key=key, quote_id=response.quote_id, accepted=sold)
            )
            posted[key].append(
                np.nan if response.posted_price is None else response.posted_price
            )
            expected[key] = registry.peek(key).pricer.state_dict()
        live = list_segment_sessions(directory)
        live_bytes = sum(-(-record.length // 64) * 64 for record in live.values())
        with open(index_path, "rb") as handle:
            lines = handle.read().count(b"\n")
        assert registry.stats.segment_bytes <= 2 * live_bytes + segment_bytes
        assert lines <= 2 * len(live) + 16
        assert len(registry._segments._maps) <= len(_segment_files(directory))
    assert registry.stats.persists >= 10 * len(keys)

    offline = simulate(
        model,
        golden_specs.build_pricer(family, theta),
        materialized=materialized.slice(0, rounds),
    )
    for key in keys:
        assert np.array_equal(
            np.array(posted[key]), offline.transcript.posted_prices, equal_nan=True
        )
    registry.flush()
    registry.close()

    reopened = PricerRegistry(_factory(family, model, theta), snapshot_dir=directory)
    for key in keys:
        session = reopened.session(key)
        assert session.hydrated
        assert state_equal(session.pricer.state_dict(), expected[key])
    reopened.close()


@pytest.mark.parametrize("crash", ["before-rename", "after-rename"])
def test_compaction_cut_short_loses_no_record(tmp_path, monkeypatch, crash):
    """A compaction cut short before its index rename, or between the
    rename and the unlinks, leaves every record hydrating on reopen, and
    the next compaction deletes the files it left behind."""
    family = "ellipsoid-reserve"
    model, materialized, theta = _market(family)
    directory = str(tmp_path)
    registry = PricerRegistry(_factory(family, model, theta), snapshot_dir=directory)
    service = QuoteService(registry)
    keys = [SessionKey("app", "crash-%d" % index) for index in range(3)]
    expected = {}
    for stop in (4, 8, 12):  # three persists per session: dead records to drop
        for key in keys:
            _drive(service, key, materialized, stop - 4, stop)
            expected[key] = registry.session(key).pricer.state_dict()
        registry.flush()
    registry.close()

    real_write = store_module._atomic_write

    def cut_short(path, data):
        if crash == "after-rename":
            real_write(path, data)
        raise OSError("crash (injected)")

    monkeypatch.setattr(store_module, "_atomic_write", cut_short)
    log = SegmentLog(directory)
    with pytest.raises(OSError, match="injected"):
        log.compact()
    log.close()
    monkeypatch.setattr(store_module, "_atomic_write", real_write)
    assert len(_segment_files(directory)) == 2  # the old file and the fresh one

    reopened = PricerRegistry(_factory(family, model, theta), snapshot_dir=directory)
    for key in keys:
        session = reopened.session(key)
        assert session.hydrated
        assert state_equal(session.pricer.state_dict(), expected[key])
    reopened.close()

    log = SegmentLog(directory)
    log.compact()
    log.close()
    live = list_segment_sessions(directory)
    assert set(live) == set(keys)
    assert _segment_files(directory) == sorted(
        {"seg-%06d.seg" % record.file_id for record in live.values()}
    )


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


def test_hydration_churn_leaves_the_heap_flat(tmp_path):
    """An evict → hydrate round trip keeps nothing per hydration: a
    ``max_sessions=1`` registry alternates two fig4 sessions through 2,000
    round trips, and the traced heap grows by a bounded amount (about 18 KB
    of log and compaction state) rather than by a record per hydration
    (about 84 KB more, when each hydration appended its wall time to a
    list)."""
    environment = build_noisy_query_environment(
        NoisyLinearQueryConfig(dimension=20, rounds=64, owner_count=40, seed=7)
    )
    version = list(ALGORITHM_VERSIONS)[0]
    registry = PricerRegistry(
        lambda key: (environment.model, build_pricer_for_version(environment, version)),
        snapshot_dir=str(tmp_path),
        max_sessions=1,
    )
    keys = [SessionKey("churn", "a"), SessionKey("churn", "b")]
    for index in range(64):
        registry.session(keys[index % 2])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(2000):
            registry.session(keys[index % 2])
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert registry.stats.hydrations >= 2000
    registry.close()
    assert grown < 48_000, "the heap grew %d bytes over 2,000 hydrations" % grown
