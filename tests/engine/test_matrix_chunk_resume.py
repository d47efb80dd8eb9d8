"""Mid-cell crash resume: RunMatrix(checkpoint_dir=...) × shard_rounds.

Cell-level resume (result files) existed before; these tests pin the
chunk-level wiring: when a sharded sweep crashes mid-cell, the completed
chunk boundaries survive as ``*.chunk.npz`` pricer checkpoints and a re-run
resumes *inside* the interrupted cell — re-executing only the rounds after
the last persisted boundary — while producing a transcript bit-identical to
an uninterrupted run.
"""

import glob
import os

import numpy as np
import pytest

from repro.core.base import PostedPriceMechanism, PricingDecision
from repro.core.models import LinearModel
from repro.engine import (
    ArrivalBatch,
    MarketScenario,
    RunCellError,
    RunMatrix,
    assert_bit_exact,
    prepare,
    run_batch_chunked,
    simulate,
)

ROUNDS = 64
CHUNK = 16


class CountingPricer(PostedPriceMechanism):
    """A deterministic, state-dependent pricer with an injectable crash.

    The posted price depends on both the round counter and the accept count,
    so a resume that lost either would diverge visibly.  ``log`` (shared via
    the factory closure) records every propose call, which is how the tests
    count re-executed rounds; ``fail_at`` raises on the N-th propose call
    across the whole process — the simulated crash.
    """

    name = "counting"

    def __init__(self, log, fail_at=None):
        super().__init__()
        self.log = log
        self.fail_at = fail_at
        self.accepts = 0

    def propose(self, features, reserve=None):
        self.log.append(self._round_index)
        if self.fail_at is not None and len(self.log) >= self.fail_at:
            raise RuntimeError("injected crash at propose call %d" % len(self.log))
        price = 0.5 + 0.01 * self.accepts + 0.001 * self._round_index
        return PricingDecision(
            features=np.atleast_1d(np.asarray(features, dtype=float)),
            reserve=reserve,
            lower_bound=float("-inf"),
            upper_bound=float("inf"),
            price=price,
            exploratory=False,
            skipped=False,
            round_index=self._next_round(),
        )

    def update(self, decision, accepted):
        if accepted:
            self.accepts += 1

    def _extra_state(self):
        return {"accepts": int(self.accepts)}

    def _load_extra_state(self, state):
        self.accepts = int(state["accepts"])


def _market():
    rng = np.random.default_rng(99)
    theta = rng.random(4) + 0.1
    features = rng.random((ROUNDS, 4)) + 0.05
    features /= np.linalg.norm(features, axis=1, keepdims=True)
    reserves = 0.4 * np.array([float(row @ theta) for row in features])
    noise = np.zeros(ROUNDS)
    model = LinearModel(theta)
    batch = ArrivalBatch(features=features, reserve_values=reserves, noise=noise)
    return model, batch


def _matrix(model, batch, log, fail_at=None):
    matrix = RunMatrix()
    matrix.add_scenario("m", MarketScenario(name="m", model=model, batch=batch))
    matrix.add_pricer("counting", lambda scenario: CountingPricer(log, fail_at=fail_at))
    matrix.add_cross()
    return matrix


def _expected(model, batch):
    result = simulate(model, CountingPricer(log=[]), materialized=prepare(model, batch))
    return result.transcript


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_crashed_sharded_sweep_resumes_mid_cell(tmp_path, executor):
    model, batch = _market()
    checkpoint_dir = str(tmp_path)

    crash_log = []
    with pytest.raises(RunCellError):
        _matrix(model, batch, crash_log, fail_at=41).run(
            executor=executor, shard_rounds=CHUNK, checkpoint_dir=checkpoint_dir
        )
    # Chunks [0,16) and [16,32) completed and were persisted before the
    # crash inside [32,48).
    chunk_files = glob.glob(os.path.join(checkpoint_dir, "*.chunk.npz"))
    assert len(chunk_files) == 1
    assert not glob.glob(os.path.join(checkpoint_dir, "*.result.npz"))

    resume_log = []
    grid = _matrix(model, batch, resume_log).run(
        executor=executor, shard_rounds=CHUNK, checkpoint_dir=checkpoint_dir
    )
    # Only the rounds after the last persisted boundary re-ran.
    assert len(resume_log) == ROUNDS - 2 * CHUNK
    assert resume_log[0] == 2 * CHUNK
    assert_bit_exact(grid.get("m", "counting").transcript, _expected(model, batch))
    # The finished cell superseded its chunk file with a result file.
    assert not glob.glob(os.path.join(checkpoint_dir, "*.chunk.npz"))
    assert glob.glob(os.path.join(checkpoint_dir, "*.result.npz"))


def test_completed_sweep_leaves_no_chunk_files(tmp_path):
    model, batch = _market()
    log = []
    grid = _matrix(model, batch, log).run(
        executor="serial", shard_rounds=CHUNK, checkpoint_dir=str(tmp_path)
    )
    assert len(log) == ROUNDS
    assert not glob.glob(os.path.join(str(tmp_path), "*.chunk.npz"))
    assert_bit_exact(grid.get("m", "counting").transcript, _expected(model, batch))


def test_foreign_chunk_file_is_ignored(tmp_path):
    """A chunk file from a different market must not poison the cell."""
    model, batch = _market()
    # Plant a checkpoint taken against a *different* market at the exact
    # path the matrix will look at.
    from repro.engine.runmatrix import RunCell, _cell_chunk_path

    other_rng = np.random.default_rng(7)
    other_features = other_rng.random((ROUNDS, 4)) + 0.05
    other_batch = ArrivalBatch(
        features=other_features,
        reserve_values=np.full(ROUNDS, 0.3),
        noise=np.zeros(ROUNDS),
    )
    planted_path = _cell_chunk_path(str(tmp_path), RunCell(scenario="m", pricer="counting"))
    run_batch_chunked(
        model,
        CountingPricer(log=[]),
        materialized=prepare(model, other_batch),
        chunk_size=CHUNK,
        checkpoint_path=planted_path,
    )
    assert os.path.exists(planted_path)

    log = []
    grid = _matrix(model, batch, log).run(
        executor="serial", shard_rounds=CHUNK, checkpoint_dir=str(tmp_path)
    )
    # The foreign file was detected via the market fingerprint and the cell
    # ran from round zero.
    assert len(log) == ROUNDS
    assert_bit_exact(grid.get("m", "counting").transcript, _expected(model, batch))


def test_sharded_resume_matches_serial_resume_format(tmp_path):
    """A chunk file written by the sharded executor resumes a serial run."""
    model, batch = _market()
    crash_log = []
    with pytest.raises(RunCellError):
        _matrix(model, batch, crash_log, fail_at=41).run(
            executor="thread", shard_rounds=CHUNK, checkpoint_dir=str(tmp_path)
        )
    chunk_files = glob.glob(os.path.join(str(tmp_path), "*.chunk.npz"))
    assert len(chunk_files) == 1
    # Resume the interrupted cell straight through run_batch_chunked.
    log = []
    result = run_batch_chunked(
        model,
        CountingPricer(log),
        materialized=prepare(model, batch),
        chunk_size=CHUNK,
        checkpoint_path=chunk_files[0],
        resume=True,
    )
    assert len(log) == ROUNDS - 2 * CHUNK
    assert_bit_exact(result.transcript, _expected(model, batch))
