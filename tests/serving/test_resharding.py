"""Snapshot migration between shard counts: layout, exactness, resume.

The golden-family bar: replay **half a horizon on 2 shards**, persist,
migrate the snapshot tree to **3 shards**, resume on the migrated tree, and
the stitched transcript must be bit-identical to the uninterrupted offline
engine — for every golden pricer family.  Plus structural tests: sessions
land in the segment log of the directory their key hashes to under the new
count, wrong declared source counts and trees still holding files of an
earlier version are rejected, verification catches corruption, and the CLI
drives the same path.
"""

import importlib.util
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "golden"))
import golden_specs

from repro.engine import prepare, simulate, stream_rounds
from repro.exceptions import ReshardingError
from repro.serving import (
    FeedbackEvent,
    QuoteRequest,
    SessionKey,
    ShardedRegistry,
    list_segment_sessions,
    plan_reshard,
    reshard_snapshots,
    shard_of_key,
)
from repro.serving.resharding import discover_shard_dirs, shard_dir
from repro.serving.store import SEGMENT_DIR, SESSION_SUFFIX

FAMILY = "ellipsoid-reserve"


def _drive(sharded, key, materialized, start, stop):
    """Closed-loop sync replay of rounds [start, stop); returns posted/sold."""
    posted, sold_column = [], []
    for round_ in stream_rounds(materialized.slice(start, stop)):
        response = sharded.quote(
            QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
        )
        sold = bool(response.posted and response.posted_price <= round_.market_value)
        sharded.feedback(
            FeedbackEvent(key=key, quote_id=response.quote_id, accepted=sold)
        )
        posted.append(np.nan if response.posted_price is None else response.posted_price)
        sold_column.append(sold)
    return posted, sold_column


@pytest.mark.parametrize("family", sorted(golden_specs.GOLDEN_SPECS))
def test_reshard_mid_horizon_matches_offline(tmp_path, family):
    """2 shards → migrate → 3 shards, bit-identical for every golden family."""
    model, batch, theta = golden_specs.build_market(family)
    materialized = prepare(model, batch)
    offline = simulate(
        model, golden_specs.build_pricer(family, theta), materialized=materialized
    )
    rounds = golden_specs.GOLDEN_ROUNDS
    split = rounds // 2
    key = SessionKey("golden", family)

    def factory(_key):
        return model, golden_specs.build_pricer(family, theta)

    source = tmp_path / "n2"
    target = tmp_path / "n3"
    with ShardedRegistry(factory, num_shards=2, snapshot_dir=str(source)) as sharded:
        first_posted, first_sold = _drive(sharded, key, materialized, 0, split)
        assert sharded.persist_all() == 1

    # Migrate with full hydration verification (fresh pricer restored from
    # the migrated record must re-extract the exact source state).
    report = reshard_snapshots(
        str(source), str(target), target_shards=3, factory=factory
    )
    assert report.sessions == 1
    assert report.verified and report.hydration_verified
    move = report.moves[0]
    assert move.key == key
    assert move.source_shard == shard_of_key(key, 2)
    assert move.target_shard == shard_of_key(key, 3)
    assert move.key in list_segment_sessions(move.target_dir)

    with ShardedRegistry(factory, num_shards=3, snapshot_dir=str(target)) as sharded:
        second_posted, second_sold = _drive(sharded, key, materialized, split, rounds)
        stats = sharded.stats()
        assert stats["registry"]["hydrations"] == 1
        assert stats["registry"]["created"] == 0

    stitched_posted = np.array(first_posted + second_posted)
    stitched_sold = np.array(first_sold + second_sold)
    assert np.array_equal(
        stitched_posted, offline.transcript.posted_prices[:rounds], equal_nan=True
    ), "%s: posted prices diverged across the reshard" % family
    assert np.array_equal(stitched_sold, offline.transcript.sold[:rounds]), (
        "%s: sales diverged across the reshard" % family
    )


def _populated_tree(tmp_path, keys, num_shards=2):
    """A snapshot tree with one persisted session per key."""
    model, batch, theta = golden_specs.build_market(FAMILY)
    materialized = prepare(model, batch)

    def factory(_key):
        return model, golden_specs.build_pricer(FAMILY, theta)

    source = tmp_path / ("n%d" % num_shards)
    with ShardedRegistry(
        factory, num_shards=num_shards, snapshot_dir=str(source)
    ) as sharded:
        for key in keys:
            _drive(sharded, key, materialized, 0, 4)
        sharded.persist_all()
    return source, factory


def test_reshard_layout_places_every_session_on_its_hash(tmp_path):
    keys = [SessionKey("app", "segment-%d" % index) for index in range(12)]
    source, factory = _populated_tree(tmp_path, keys, num_shards=2)
    target = tmp_path / "n5"
    report = reshard_snapshots(str(source), str(target), target_shards=5)
    assert report.sessions == 12
    assert report.verified and not report.hydration_verified
    # Every target shard dir exists (a restarted registry finds its layout),
    # and every record sits exactly where its key hashes under 5 shards.
    for shard in range(5):
        assert os.path.isdir(shard_dir(str(target), shard))
    placed = 0
    for shard, directory in discover_shard_dirs(str(target)).items():
        for key in list_segment_sessions(directory):
            assert shard_of_key(key, 5) == shard
            placed += 1
    assert placed == 12
    for move in report.moves:
        assert move.target_shard == shard_of_key(move.key, 5)
        assert move.target_dir == shard_dir(str(target), move.target_shard)
    assert report.relocated == sum(
        1 for key in keys if shard_of_key(key, 2) != shard_of_key(key, 5)
    )
    histogram = report.target_histogram()
    assert sum(histogram.values()) == 12
    assert report.as_dict()["sessions"] == 12


def test_reshard_rejects_wrong_declared_source_count(tmp_path):
    keys = [SessionKey("app", "segment-%d" % index) for index in range(8)]
    # Guarantee at least one key disagrees between 2- and 3-shard placement.
    assert any(shard_of_key(key, 2) != shard_of_key(key, 3) for key in keys)
    source, _factory = _populated_tree(tmp_path, keys, num_shards=2)
    with pytest.raises(ReshardingError, match="wrong declared shard count"):
        plan_reshard(str(source), str(tmp_path / "out"), target_shards=4, source_shards=3)


def test_reshard_refuses_in_place_and_missing_trees(tmp_path):
    keys = [SessionKey("app", "s")]
    source, _factory = _populated_tree(tmp_path, keys, num_shards=2)
    with pytest.raises(ReshardingError, match="in-place"):
        reshard_snapshots(str(source), str(source), target_shards=3)
    with pytest.raises(ReshardingError, match="does not exist"):
        plan_reshard(str(tmp_path / "nope"), str(tmp_path / "out"), target_shards=3)
    with pytest.raises(ReshardingError, match="not a sharded snapshot tree"):
        empty = tmp_path / "empty"
        empty.mkdir()
        plan_reshard(str(empty), str(tmp_path / "out"), target_shards=3)
    # A non-empty target would let stale files from an earlier migration
    # survive verification — refused outright.
    dirty = tmp_path / "dirty"
    dirty.mkdir()
    (dirty / "leftover.txt").write_text("stale")
    with pytest.raises(ReshardingError, match="not empty"):
        reshard_snapshots(str(source), str(dirty), target_shards=3)
    # Ambiguous layouts ("shard-1" next to "shard-01") would silently
    # shadow one directory's sessions — rejected instead.
    ambiguous = tmp_path / "ambiguous"
    (ambiguous / "shard-1").mkdir(parents=True)
    (ambiguous / "shard-01").mkdir()
    with pytest.raises(ReshardingError, match="appears twice"):
        discover_shard_dirs(str(ambiguous))
    # A .session.npz of an earlier version would have to be moved into the
    # source's log first, and the resharder never writes its source.
    (source / "shard-00" / ("old" + SESSION_SUFFIX)).write_bytes(b"")
    with pytest.raises(ReshardingError, match="earlier version"):
        plan_reshard(str(source), str(tmp_path / "out"), target_shards=3)


def test_verification_catches_corrupted_migration(tmp_path):
    keys = [SessionKey("app", "s")]
    source, _factory = _populated_tree(tmp_path, keys, num_shards=2)
    target = tmp_path / "out"
    report = reshard_snapshots(str(source), str(target), target_shards=3, verify=False)
    # Flip one byte of the migrated record, then verify: the divergence
    # must be caught.
    move = report.moves[0]
    record = list_segment_sessions(move.target_dir)[move.key]
    path = os.path.join(move.target_dir, SEGMENT_DIR, "seg-%06d.seg" % record.file_id)
    with open(path, "r+b") as handle:
        handle.seek(record.offset)
        byte = handle.read(1)
        handle.seek(record.offset)
        handle.write(bytes([byte[0] ^ 0xFF]))
    from repro.serving import verify_reshard

    with pytest.raises(ReshardingError, match="diverged"):
        verify_reshard(report)


def test_reshard_cli_end_to_end(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "reshard_cli",
        os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", "..", "scripts", "reshard.py"
        ),
    )
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)

    keys = [SessionKey("app", "segment-%d" % index) for index in range(6)]
    source, _factory = _populated_tree(tmp_path, keys, num_shards=2)
    target = tmp_path / "cli-out"
    report_path = tmp_path / "report.json"
    code = cli.main(
        [
            "--source", str(source),
            "--target", str(target),
            "--to-shards", "4",
            "--report", str(report_path),
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "migrated 6 session(s) from 2 to 4 shard(s)" in output
    assert "verified" in output
    import json

    report = json.loads(report_path.read_text())
    assert report["sessions"] == 6
    assert report["verified"] is True
    # Wrong source count exits non-zero with a diagnostic.
    code = cli.main(
        [
            "--source", str(source),
            "--target", str(tmp_path / "cli-bad"),
            "--to-shards", "4",
            "--from-shards", "7",
        ]
    )
    assert code == 1


def test_mid_copy_failure_leaves_no_half_written_target_tree(tmp_path, monkeypatch):
    """An injected copy failure mid-migration must leave the target slot
    untouched (no partial tree a restarted registry could hydrate from) and
    clean up its staging directory."""
    import repro.serving.resharding as resharding_module

    keys = [SessionKey("app", "segment-%d" % index) for index in range(6)]
    source, _factory = _populated_tree(tmp_path, keys, num_shards=2)
    target = tmp_path / "out"

    real_read = resharding_module.read_segment_payload
    calls = {"count": 0}

    def failing_read(directory, record):
        calls["count"] += 1
        if calls["count"] == 3:
            raise OSError("I/O error (injected)")
        return real_read(directory, record)

    monkeypatch.setattr(resharding_module, "read_segment_payload", failing_read)
    with pytest.raises(OSError, match="injected"):
        reshard_snapshots(str(source), str(target), target_shards=3)
    assert calls["count"] == 3
    # No half-written target: the slot does not exist at all.
    assert not os.path.exists(target)
    # No staging leftovers next to it either.
    leftovers = [
        name for name in os.listdir(tmp_path) if name.startswith(".reshard-staging-")
    ]
    assert leftovers == []
    # The same migration succeeds cleanly afterwards.
    monkeypatch.setattr(resharding_module, "read_segment_payload", real_read)
    report = reshard_snapshots(str(source), str(target), target_shards=3)
    assert report.verified and report.sessions == 6


def test_hydration_verify_cleans_up_scratch_state(tmp_path, monkeypatch):
    """verify_reshard(factory=...) must leave no temporary hydration state
    behind — on success and when the factory (or the comparison) raises."""
    import glob
    import repro.serving.resharding as resharding_module
    from repro.serving import verify_reshard

    scratch_dirs = []
    real_mkdtemp = resharding_module.tempfile.mkdtemp

    def tracking_mkdtemp(*args, **kwargs):
        path = real_mkdtemp(*args, **kwargs)
        if kwargs.get("prefix", "").startswith(".reshard-verify-") or (
            args and str(args[-1]).startswith(".reshard-verify-")
        ):
            scratch_dirs.append(path)
        return path

    monkeypatch.setattr(resharding_module.tempfile, "mkdtemp", tracking_mkdtemp)

    keys = [SessionKey("app", "segment-%d" % index) for index in range(3)]
    source, factory = _populated_tree(tmp_path, keys, num_shards=2)
    target = tmp_path / "out"
    report = reshard_snapshots(str(source), str(target), target_shards=3, factory=factory)
    assert report.hydration_verified
    assert scratch_dirs, "hydration verification never created scratch state"
    for path in scratch_dirs:
        assert not os.path.exists(path), "scratch state leaked on success"

    # Failure path: a factory that raises mid-verification.
    scratch_dirs.clear()
    calls = {"count": 0}

    def exploding_factory(key):
        calls["count"] += 1
        if calls["count"] == 2:
            raise RuntimeError("factory exploded (injected)")
        return factory(key)

    with pytest.raises(RuntimeError, match="injected"):
        verify_reshard(report, factory=exploding_factory)
    for path in scratch_dirs:
        assert not os.path.exists(path), "scratch state leaked on the error path"
