"""Equivalence suite: the columnar engine vs the sequential reference loop.

The acceptance contract of the engine refactor is that batched transcripts are
*element-wise identical* (exact float equality on seeded runs) to the legacy
sequential loop for every pricer built by ``make_pricer`` — all four ellipsoid
algorithm versions, the one-dimensional pricer, the polytope-knowledge
reference, the conservative-cuts ablation — plus every baseline and the SGD
learner, across the linear and non-linear market value models.
"""

import numpy as np
import pytest

from repro.core.baselines import (
    ConstantMarkupPricer,
    FixedPricePricer,
    OraclePricer,
    RiskAversePricer,
)
from repro.core.models import (
    KernelizedModel,
    LinearModel,
    LogisticModel,
    LogLinearModel,
)
from repro.core.noise import GaussianNoise
from repro.core.pricing import make_pricer
from repro.core.sgd_pricer import SGDContextualPricer
from repro.core.simulation import MarketSimulator, QueryArrival, compare_pricers
from repro.engine import assert_bit_exact, simulate_reference


def assert_transcripts_identical(engine_result, reference_result):
    """Bit-exact equality of every transcript column and the regret curve."""
    assert_bit_exact(engine_result.transcript, reference_result.transcript)
    assert np.array_equal(
        engine_result.cumulative_regret_curve(), reference_result.cumulative_regret_curve()
    )


def _linear_arrivals(dimension, rounds, seed, with_reserve=True, noise_sigma=0.005):
    rng = np.random.default_rng(seed)
    theta = np.abs(rng.standard_normal(dimension))
    theta *= np.sqrt(2 * dimension) / np.linalg.norm(theta)
    model = LinearModel(theta)
    arrivals = []
    for _ in range(rounds):
        features = np.abs(rng.standard_normal(dimension))
        features /= np.linalg.norm(features)
        reserve = 0.6 * float(features @ theta) if with_reserve else None
        noise = float(rng.normal(0.0, noise_sigma)) if noise_sigma else 0.0
        arrivals.append(QueryArrival(features=features, reserve_value=reserve, noise=noise))
    return model, arrivals


def _run_both(model, pricer_factory, arrivals, track_latency=False):
    engine = MarketSimulator(model, pricer_factory(), track_latency=track_latency).run(arrivals)
    reference = simulate_reference(
        model, pricer_factory(), arrivals, track_latency=track_latency
    )
    return engine, reference


ELLIPSOID_VARIANTS = [
    pytest.param(True, 0.0, id="with reserve price"),
    pytest.param(False, 0.0, id="pure version"),
    pytest.param(True, 0.01, id="with reserve price and uncertainty"),
    pytest.param(False, 0.01, id="with uncertainty"),
]


class TestMakePricerVersions:
    @pytest.mark.parametrize("dimension", [1, 6], ids=["n=1", "n=6"])
    @pytest.mark.parametrize("use_reserve,delta", ELLIPSOID_VARIANTS)
    def test_all_versions_identical(self, dimension, use_reserve, delta):
        model, arrivals = _linear_arrivals(dimension, 600, seed=dimension)
        radius = 2.0 * np.sqrt(dimension)
        epsilon = max(dimension**2 / 600, 4 * dimension * delta, 1e-6)
        factory = lambda: make_pricer(
            dimension=dimension,
            radius=radius,
            epsilon=epsilon,
            delta=delta,
            use_reserve=use_reserve,
        )
        engine, reference = _run_both(model, factory, arrivals)
        assert_transcripts_identical(engine, reference)

    def test_polytope_knowledge_identical(self):
        model, arrivals = _linear_arrivals(4, 80, seed=2)
        factory = lambda: make_pricer(
            dimension=4, radius=4.0, epsilon=0.05, knowledge="polytope"
        )
        engine, reference = _run_both(model, factory, arrivals)
        assert_transcripts_identical(engine, reference)

    def test_conservative_cuts_ablation_identical(self):
        model, arrivals = _linear_arrivals(6, 600, seed=3)
        factory = lambda: make_pricer(
            dimension=6, radius=2.0 * np.sqrt(6), epsilon=0.06, allow_conservative_cuts=True
        )
        engine, reference = _run_both(model, factory, arrivals)
        assert_transcripts_identical(engine, reference)

    def test_pricer_counters_match_sequential_loop(self):
        model, arrivals = _linear_arrivals(6, 600, seed=4)
        build = lambda: make_pricer(dimension=6, radius=2.0 * np.sqrt(6), epsilon=0.06)
        engine_pricer, reference_pricer = build(), build()
        MarketSimulator(model, engine_pricer).run(arrivals)
        simulate_reference(model, reference_pricer, arrivals)
        assert engine_pricer.rounds_seen == reference_pricer.rounds_seen
        assert engine_pricer.exploratory_rounds == reference_pricer.exploratory_rounds
        assert engine_pricer.conservative_rounds == reference_pricer.conservative_rounds
        assert engine_pricer.skipped_rounds == reference_pricer.skipped_rounds
        assert engine_pricer.cuts_applied == reference_pricer.cuts_applied
        assert np.array_equal(
            engine_pricer.knowledge.ellipsoid.center,
            reference_pricer.knowledge.ellipsoid.center,
        )
        assert np.array_equal(
            engine_pricer.knowledge.ellipsoid.shape,
            reference_pricer.knowledge.ellipsoid.shape,
        )


class TestBaselinesAndSGD:
    def test_stateless_baselines_identical(self):
        model, arrivals = _linear_arrivals(5, 400, seed=5)
        theta = model.theta
        factories = [
            RiskAversePricer,
            lambda: FixedPricePricer(1.1),
            lambda: ConstantMarkupPricer(1.5),
            lambda: OraclePricer(lambda x: float(x @ theta)),
        ]
        for factory in factories:
            engine, reference = _run_both(model, factory, arrivals)
            assert_transcripts_identical(engine, reference)

    def test_oracle_skip_rounds_identical(self):
        # Reserves occasionally above the market value force oracle skips.
        rng = np.random.default_rng(11)
        model = LinearModel(np.array([1.0, 1.0]))
        arrivals = [
            QueryArrival(
                features=rng.uniform(0.1, 1.0, size=2),
                reserve_value=float(rng.uniform(0.5, 2.5)),
                noise=0.0,
            )
            for _ in range(200)
        ]
        theta = model.theta
        factory = lambda: OraclePricer(lambda x: float(x @ theta))
        engine, reference = _run_both(model, factory, arrivals)
        assert engine.transcript.skipped.any()
        assert_transcripts_identical(engine, reference)

    @pytest.mark.parametrize("use_reserve", [True, False], ids=["reserve", "no-reserve"])
    def test_sgd_identical(self, use_reserve):
        model, arrivals = _linear_arrivals(5, 500, seed=6)
        factory = lambda: SGDContextualPricer(
            dimension=5, radius=2.0 * np.sqrt(5), use_reserve=use_reserve
        )
        engine, reference = _run_both(model, factory, arrivals)
        assert_transcripts_identical(engine, reference)

    def test_sgd_estimate_matches_sequential_loop(self):
        model, arrivals = _linear_arrivals(5, 500, seed=7)
        engine_pricer = SGDContextualPricer(dimension=5, radius=2.0 * np.sqrt(5))
        reference_pricer = SGDContextualPricer(dimension=5, radius=2.0 * np.sqrt(5))
        MarketSimulator(model, engine_pricer).run(arrivals)
        simulate_reference(model, reference_pricer, arrivals)
        assert np.array_equal(engine_pricer.estimate, reference_pricer.estimate)
        assert engine_pricer.rounds_seen == reference_pricer.rounds_seen


class TestNonLinearModels:
    def _uniform_arrivals(self, rounds, dimension, seed):
        rng = np.random.default_rng(seed)
        return [
            QueryArrival(
                features=rng.uniform(0.2, 1.0, size=dimension), reserve_value=None, noise=0.0
            )
            for _ in range(rounds)
        ]

    def test_log_linear_identical(self):
        model = LogLinearModel(np.array([0.6, 0.3, 0.1]))
        arrivals = self._uniform_arrivals(400, 3, seed=8)
        factory = lambda: make_pricer(dimension=3, radius=2.0, epsilon=0.02, use_reserve=False)
        engine, reference = _run_both(model, factory, arrivals)
        assert_transcripts_identical(engine, reference)

    def test_logistic_identical(self):
        model = LogisticModel(np.array([0.6, 0.3, 0.1]))
        arrivals = self._uniform_arrivals(400, 3, seed=9)
        factory = lambda: make_pricer(dimension=3, radius=2.0, epsilon=0.02, use_reserve=False)
        engine, reference = _run_both(model, factory, arrivals)
        assert_transcripts_identical(engine, reference)

    def test_kernelized_identical(self):
        rng = np.random.default_rng(10)
        anchors = rng.standard_normal((6, 3))
        model = KernelizedModel(np.abs(rng.standard_normal(6)), anchors, bandwidth=1.2)
        arrivals = self._uniform_arrivals(300, 3, seed=10)
        factory = lambda: make_pricer(dimension=6, radius=3.0, epsilon=0.05, use_reserve=False)
        engine, reference = _run_both(model, factory, arrivals)
        assert_transcripts_identical(engine, reference)

    def test_kernelized_feature_map_batch_matches_rows(self):
        rng = np.random.default_rng(13)
        anchors = rng.standard_normal((4, 3))
        model = KernelizedModel(np.ones(4), anchors, bandwidth=0.9)
        raw = rng.standard_normal((64, 3))
        batched = model.feature_map_batch(raw)
        rowwise = np.vstack([model.feature_map(row) for row in raw])
        assert np.array_equal(batched, rowwise)


class TestLatencyAndNoisePaths:
    def test_latency_path_transcript_identical(self):
        # track_latency forces the sequential engine strategy; decisions and
        # prices must be unaffected, and the latency is measured once and
        # reused (column == tracker samples).
        model, arrivals = _linear_arrivals(5, 120, seed=12)
        factory = lambda: make_pricer(dimension=5, radius=2.0 * np.sqrt(5), epsilon=0.05)
        engine, reference = _run_both(model, factory, arrivals, track_latency=True)
        assert engine.latency.count == len(arrivals)
        assert np.array_equal(
            np.array(engine.latency.samples_seconds), engine.transcript.latency_seconds
        )
        assert_transcripts_identical(engine, reference)

    def test_compare_pricers_shares_one_noise_realization(self):
        # Regression for the shared-RNG bug: arrivals without pre-drawn noise
        # must face the *same* realization for every pricer (the Fig. 4
        # same-market protocol), not consume the mutable rng independently.
        rng = np.random.default_rng(14)
        model = LinearModel(np.array([1.0, 2.0]))
        arrivals = [
            QueryArrival(
                features=rng.uniform(0.1, 1.0, size=2),
                reserve_value=0.3,
                noise=None,
            )
            for _ in range(50)
        ]
        results = compare_pricers(
            model,
            [RiskAversePricer(), FixedPricePricer(0.8), RiskAversePricer()],
            arrivals,
            noise=GaussianNoise(0.5),
            rng=99,
        )
        values = [result.transcript.market_values for result in results]
        assert np.array_equal(values[0], values[1])
        assert np.array_equal(values[0], values[2])
        # The noise is genuinely random (not silently zeroed).
        deterministic = [model.value(a.features) for a in arrivals]
        assert not np.allclose(values[0], deterministic)

    def test_engine_is_default_and_reference_available(self):
        model, arrivals = _linear_arrivals(5, 100, seed=15)
        simulator = MarketSimulator(model, make_pricer(dimension=5, radius=4.0, epsilon=0.05))
        result = simulator.run(arrivals)
        reference = MarketSimulator(
            model, make_pricer(dimension=5, radius=4.0, epsilon=0.05)
        ).run_reference(arrivals)
        assert_transcripts_identical(result, reference)
