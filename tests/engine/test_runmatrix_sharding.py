"""Run-matrix within-cell sharding, resume-after-crash, and failure identity."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.baselines import RiskAversePricer
from repro.core.models import LinearModel
from repro.core.pricing import make_pricer
from repro.engine import (
    ArrivalBatch,
    MarketScenario,
    RunCellError,
    RunMatrix,
    assert_bit_exact,
)
from repro.engine.records import QueryArrival

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _scenario(seed, rounds=240, dimension=3, name=None):
    rng = np.random.default_rng(seed)
    theta = np.abs(rng.standard_normal(dimension))
    theta *= np.sqrt(2 * dimension) / np.linalg.norm(theta)
    model = LinearModel(theta)
    arrivals = []
    for _ in range(rounds):
        features = np.abs(rng.standard_normal(dimension))
        features /= np.linalg.norm(features)
        arrivals.append(
            QueryArrival(
                features=features, reserve_value=0.6 * float(features @ theta), noise=0.0
            )
        )
    return MarketScenario(
        name=name or ("seed=%d" % seed),
        model=model,
        batch=ArrivalBatch.from_arrivals(arrivals),
        context={"seed": seed},
    )


def _ellipsoid_factory(scenario):
    dimension = scenario.batch.raw_dimension
    return make_pricer(dimension=dimension, radius=2.0 * np.sqrt(dimension), epsilon=0.05)


class _FailingFactory:
    """Picklable factory that always raises (must survive the fork pipe)."""

    def __call__(self, scenario):
        raise ValueError("injected cell failure")


class _CountingFactory:
    """Factory that records how many times it was invoked."""

    def __init__(self):
        self.calls = 0

    def __call__(self, scenario):
        self.calls += 1
        return _ellipsoid_factory(scenario)


def _build_matrix(rounds=240):
    matrix = RunMatrix()
    matrix.add_scenario("A", lambda: _scenario(1, rounds=rounds, name="A"))
    matrix.add_scenario("B", lambda: _scenario(2, rounds=rounds, name="B"))
    matrix.add_pricer("ellipsoid", _ellipsoid_factory)
    matrix.add_pricer("risk-averse", lambda scenario: RiskAversePricer())
    matrix.add_cross()
    return matrix


def _assert_grids_equal(expected, actual):
    for cell, result in expected:
        other = actual.get(cell.scenario, cell.pricer)
        assert_bit_exact(other.transcript, result.transcript, repr(cell))


class TestSharding:
    def test_serial_sharded_matches_unsharded(self):
        baseline = _build_matrix().run(executor="serial")
        for shard_rounds in (1, 37, 120, 240, 1000):
            sharded = _build_matrix().run(executor="serial", shard_rounds=shard_rounds)
            _assert_grids_equal(baseline, sharded)

    def test_thread_sharded_matches_serial(self):
        baseline = _build_matrix().run(executor="serial")
        sharded = _build_matrix().run(executor="thread", shard_rounds=64, max_workers=2)
        _assert_grids_equal(baseline, sharded)

    @pytest.mark.skipif(not HAS_FORK, reason="process executor requires fork")
    def test_process_sharded_matches_serial(self):
        baseline = _build_matrix().run(executor="serial")
        sharded = _build_matrix().run(executor="process", shard_rounds=64, max_workers=2)
        _assert_grids_equal(baseline, sharded)

    @pytest.mark.skipif(not HAS_FORK, reason="process executor requires fork")
    def test_single_huge_cell_pipelines_across_workers(self):
        # One cell, many chunks: every chunk after the first resumes from the
        # previous chunk's serialised snapshot on whichever worker is free.
        matrix = RunMatrix()
        matrix.add_scenario("big", lambda: _scenario(5, rounds=400, name="big"))
        matrix.add_pricer("ellipsoid", _ellipsoid_factory)
        matrix.add_cross()
        sharded = matrix.run(executor="process", shard_rounds=50, max_workers=2)

        reference = RunMatrix()
        reference.add_scenario("big", lambda: _scenario(5, rounds=400, name="big"))
        reference.add_pricer("ellipsoid", _ellipsoid_factory)
        reference.add_cross()
        _assert_grids_equal(reference.run(executor="serial"), sharded)

    def test_invalid_shard_rounds_rejected(self):
        with pytest.raises(ValueError, match="shard_rounds"):
            _build_matrix().run(executor="serial", shard_rounds=0)

    def test_track_latency_disables_sharding(self):
        # Latency runs must stay one sequential loop per cell; sharding is
        # silently dropped and the latency column is fully populated.
        grid = _build_matrix(rounds=60).run(
            executor="serial", track_latency=True, shard_rounds=10
        )
        result = grid.get("A", "ellipsoid")
        assert result.latency.count == 60


class TestCheckpointDirResume:
    def test_completed_cells_are_loaded_not_rerun(self, tmp_path):
        checkpoint_dir = str(tmp_path / "grid")
        baseline = _build_matrix().run(executor="serial", checkpoint_dir=checkpoint_dir)
        assert len(os.listdir(checkpoint_dir)) == 4

        rerun_matrix = RunMatrix()
        rerun_matrix.add_scenario("A", lambda: _scenario(1, name="A"))
        rerun_matrix.add_scenario("B", lambda: _scenario(2, name="B"))
        counting = _CountingFactory()
        rerun_matrix.add_pricer("ellipsoid", counting)
        rerun_matrix.add_pricer("risk-averse", lambda scenario: RiskAversePricer())
        rerun_matrix.add_cross()
        rerun = rerun_matrix.run(executor="serial", checkpoint_dir=checkpoint_dir)
        assert counting.calls == 0
        _assert_grids_equal(baseline, rerun)

    def test_partial_sweep_resumes_missing_cells_only(self, tmp_path):
        checkpoint_dir = str(tmp_path / "grid")
        # First pass: fail on the second scenario — the first scenario's
        # cells are persisted before the crash.
        crashing = RunMatrix()
        crashing.add_scenario("A", lambda: _scenario(1, name="A"))
        crashing.add_scenario("B", lambda: _scenario(2, name="B"))
        crashing.add_pricer("ellipsoid", _ellipsoid_factory)
        crashing.add_pricer("bad", _FailingFactory())
        crashing.add_cell("A", "ellipsoid")
        crashing.add_cell("B", "bad")
        with pytest.raises(RunCellError):
            crashing.run(executor="serial", checkpoint_dir=checkpoint_dir)
        assert len(os.listdir(checkpoint_dir)) == 1

        # Second pass with the failure fixed: only the missing cell runs.
        counting = _CountingFactory()
        fixed = RunMatrix()
        fixed.add_scenario("A", lambda: _scenario(1, name="A"))
        fixed.add_scenario("B", lambda: _scenario(2, name="B"))
        fixed.add_pricer("ellipsoid", counting)
        fixed.add_pricer("bad", _ellipsoid_factory)  # "fixed" implementation
        fixed.add_cell("A", "ellipsoid")
        fixed.add_cell("B", "bad")
        grid = fixed.run(executor="serial", checkpoint_dir=checkpoint_dir)
        assert counting.calls == 0  # cell A loaded from disk
        assert len(grid) == 2
        assert grid.get("B", "bad").rounds == 240

    def test_checkpoint_tag_isolates_workloads(self, tmp_path):
        # Same scenario/pricer keys, different workload parameters: without a
        # tag the second sweep would silently reuse the first sweep's cached
        # results; with distinct tags both run and both stay cached.
        checkpoint_dir = str(tmp_path / "grid")
        short = _build_matrix(rounds=60).run(
            executor="serial", checkpoint_dir=checkpoint_dir, checkpoint_tag="T=60"
        )
        long = _build_matrix(rounds=240).run(
            executor="serial", checkpoint_dir=checkpoint_dir, checkpoint_tag="T=240"
        )
        assert long.get("A", "ellipsoid").rounds == 240
        assert short.get("A", "ellipsoid").rounds == 60
        assert len(os.listdir(checkpoint_dir)) == 8
        # Re-running either workload still resolves to its own cached cells.
        again = _build_matrix(rounds=60).run(
            executor="serial", checkpoint_dir=checkpoint_dir, checkpoint_tag="T=60"
        )
        assert again.get("A", "ellipsoid").rounds == 60
        _assert_grids_equal(short, again)

    def test_sharded_run_persists_results_too(self, tmp_path):
        checkpoint_dir = str(tmp_path / "grid")
        baseline = _build_matrix().run(
            executor="serial", shard_rounds=64, checkpoint_dir=checkpoint_dir
        )
        assert len(os.listdir(checkpoint_dir)) == 4
        rerun = _build_matrix().run(executor="serial", checkpoint_dir=checkpoint_dir)
        _assert_grids_equal(baseline, rerun)


class TestFailureIdentity:
    def _matrix_with_bad_cell(self):
        matrix = _build_matrix()
        matrix.add_pricer("bad", _FailingFactory())
        matrix.add_cell("B", "bad")
        return matrix

    def test_serial_failure_names_the_cell(self):
        with pytest.raises(RunCellError) as excinfo:
            self._matrix_with_bad_cell().run(executor="serial")
        error = excinfo.value
        assert error.scenario == "B"
        assert error.pricer == "bad"
        assert "scenario='B'" in str(error)
        assert "pricer='bad'" in str(error)
        assert "injected cell failure" in str(error)
        assert isinstance(error.__cause__, ValueError)

    def test_thread_failure_names_the_cell(self):
        with pytest.raises(RunCellError) as excinfo:
            self._matrix_with_bad_cell().run(executor="thread", max_workers=2)
        assert (excinfo.value.scenario, excinfo.value.pricer) == ("B", "bad")

    @pytest.mark.skipif(not HAS_FORK, reason="process executor requires fork")
    def test_process_failure_names_the_cell(self):
        # The identity must survive the pool's pickle round-trip.
        with pytest.raises(RunCellError) as excinfo:
            self._matrix_with_bad_cell().run(executor="process", max_workers=2)
        assert (excinfo.value.scenario, excinfo.value.pricer) == ("B", "bad")
        assert "injected cell failure" in str(excinfo.value)

    @pytest.mark.skipif(not HAS_FORK, reason="process executor requires fork")
    def test_sharded_process_failure_names_cell_and_chunk(self):
        with pytest.raises(RunCellError) as excinfo:
            self._matrix_with_bad_cell().run(
                executor="process", shard_rounds=64, max_workers=2
            )
        assert (excinfo.value.scenario, excinfo.value.pricer) == ("B", "bad")
        assert "chunk [0, 64)" in str(excinfo.value)

    def test_seed_sweep_failure_identifies_seed(self):
        matrix = RunMatrix()
        matrix.add_scenario_sweep(
            "market", lambda seed: _scenario(seed, rounds=40), seeds=(1, 2, 3)
        )
        def flaky(scenario):
            if scenario.context == {"seed": 2}:
                raise RuntimeError("seed 2 exploded")
            return RiskAversePricer()

        matrix.add_pricer("flaky", flaky)
        matrix.add_cross()
        with pytest.raises(RunCellError) as excinfo:
            matrix.run(executor="serial")
        assert excinfo.value.scenario == "market/seed=2"
        assert "seed 2 exploded" in str(excinfo.value)
