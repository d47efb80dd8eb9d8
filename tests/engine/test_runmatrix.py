"""Tests for the (pricer × seed × scenario) run-matrix executor."""

import multiprocessing

import numpy as np
import pytest

from repro.core.baselines import RiskAversePricer
from repro.core.models import LinearModel
from repro.core.pricing import make_pricer
from repro.core.simulation import MarketSimulator, QueryArrival
from repro.engine import ArrivalBatch, MarketScenario, RunMatrix, assert_bit_exact


def _scenario(seed, rounds=200, dimension=3, name=None):
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


def _risk_averse_factory(scenario):
    return RiskAversePricer()


def _build_matrix():
    matrix = RunMatrix()
    matrix.add_scenario("A", lambda: _scenario(1, name="A"))
    matrix.add_scenario("B", lambda: _scenario(2, name="B"))
    matrix.add_pricer("ellipsoid", _ellipsoid_factory)
    matrix.add_pricer("risk-averse", _risk_averse_factory)
    matrix.add_cross()
    return matrix


def _expected_cell(seed):
    scenario = _scenario(seed)
    pricer = _ellipsoid_factory(scenario)
    return MarketSimulator(scenario.model, pricer).run(scenario.batch)


class TestDeclaration:
    def test_cells_and_validation(self):
        matrix = _build_matrix()
        assert len(matrix.cells) == 4
        with pytest.raises(ValueError, match="unknown scenario"):
            matrix.add_cell("missing", "ellipsoid")
        with pytest.raises(ValueError, match="unknown pricer"):
            matrix.add_cell("A", "missing")
        with pytest.raises(ValueError, match="already registered"):
            matrix.add_scenario("A", lambda: _scenario(1))

    def test_scenario_sweep_registers_one_scenario_per_seed(self):
        matrix = RunMatrix()
        keys = matrix.add_scenario_sweep("market", _scenario, seeds=(1, 2, 3))
        assert keys == ["market/seed=1", "market/seed=2", "market/seed=3"]
        matrix.add_pricer("risk-averse", _risk_averse_factory)
        matrix.add_cross()
        grid = matrix.run(executor="serial")
        assert len(grid) == 3

    def test_unknown_executor_rejected(self):
        matrix = _build_matrix()
        with pytest.raises(ValueError, match="executor"):
            matrix.run(executor="gpu")


class TestExecution:
    def test_serial_matches_direct_simulation(self):
        grid = _build_matrix().run(executor="serial")
        expected = _expected_cell(1)
        got = grid.get("A", "ellipsoid")
        assert_bit_exact(got.transcript, expected.transcript)
        assert got.pricer_name == "ellipsoid"

    def test_thread_matches_serial(self):
        serial = _build_matrix().run(executor="serial")
        threaded = _build_matrix().run(executor="thread", max_workers=2)
        for cell, result in serial:
            other = threaded.get(cell.scenario, cell.pricer)
            assert_bit_exact(other.transcript, result.transcript, repr(cell))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="process executor requires fork",
    )
    def test_process_matches_serial(self):
        serial = _build_matrix().run(executor="serial")
        processed = _build_matrix().run(executor="process", max_workers=2)
        for cell, result in serial:
            other = processed.get(cell.scenario, cell.pricer)
            assert_bit_exact(other.transcript, result.transcript, repr(cell))

    def test_by_scenario_and_by_pricer_views(self):
        grid = _build_matrix().run(executor="serial")
        by_scenario = grid.by_scenario("A")
        assert set(by_scenario) == {"ellipsoid", "risk-averse"}
        by_pricer = grid.by_pricer("ellipsoid")
        assert set(by_pricer) == {"A", "B"}

    def test_built_scenarios_exposed_for_metadata(self):
        matrix = _build_matrix()
        matrix.run(executor="serial")
        assert matrix.built_scenarios["A"].context == {"seed": 1}

    def test_scenarios_share_materialization_across_cells(self):
        # Both pricers of one scenario must replay the identical market.
        grid = _build_matrix().run(executor="serial")
        a_ell = grid.get("A", "ellipsoid").transcript.market_values
        a_risk = grid.get("A", "risk-averse").transcript.market_values
        assert np.array_equal(a_ell, a_risk)

    def test_empty_matrix_runs(self):
        assert len(RunMatrix().run()) == 0

    def test_auto_resolves_serial_for_small_workloads(self):
        matrix = _build_matrix()
        grid = matrix.run(executor="auto")
        assert len(grid) == 4

    def test_run_versions_tolerates_duplicate_version_names(self):
        # Listing the baseline explicitly *and* requesting include_risk_averse
        # must not blow up on duplicate pricer registration.
        from repro.apps.common import RISK_AVERSE, run_versions
        from repro.apps.noisy_linear_query import (
            NoisyLinearQueryConfig,
            build_noisy_query_environment,
        )

        environment = build_noisy_query_environment(
            NoisyLinearQueryConfig(dimension=3, rounds=30, owner_count=40, seed=1)
        )
        results = run_versions(
            environment,
            versions=("pure version", RISK_AVERSE),
            include_risk_averse=True,
            executor="serial",
        )
        assert set(results) == {"pure version", RISK_AVERSE}

    def test_scaling_sweep_keeps_duplicate_points(self):
        from repro.experiments.regret_scaling import run_horizon_scaling

        results = run_horizon_scaling(
            horizons=(40, 40, 80), dimension=3, owner_count=40, seed=1, executor="serial"
        )
        assert [r.rounds for r in results] == [40, 40, 80]
        # Identical sweep points replay the identical seeded market.
        assert results[0].cumulative_regret == results[1].cumulative_regret

    def test_missing_noise_scenario_rejected(self):
        arrivals = [QueryArrival(features=np.array([1.0]), noise=None)]
        with pytest.raises(ValueError, match="undrawn noise"):
            MarketScenario(
                name="bad",
                model=LinearModel([1.0]),
                batch=ArrivalBatch.from_arrivals(arrivals),
            )
