"""Equality tier for the market builds.

The apps build their markets as columns: the fig4 market in blocks of
``BLOCK_ROUNDS`` rounds, the accommodation and impression markets straight
from their feature matrices.  Each build must equal, bit for bit, the
per-round row construction it replaced, which is kept here as the reference.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.accommodation import AccommodationConfig, build_accommodation_environment
from repro.apps.common import scale_to_norm
from repro.apps.impression import ImpressionConfig, build_impression_environment
from repro.apps.noisy_linear_query import (
    BLOCK_ROUNDS,
    NoisyLinearQueryConfig,
    build_noisy_query_environment,
)
from repro.core.noise import NoNoise, sigma_for_buffer
from repro.core.pricing import make_pricer
from repro.datasets.ad_clicks import generate_ad_clicks
from repro.datasets.listings import generate_listings
from repro.datasets.synthetic_ratings import generate_ratings
from repro.engine import ArrivalBatch, QueryArrival
from repro.learning.encoding import ListingFeaturizer
from repro.learning.ftrl import FTRLProximal
from repro.learning.hashing import HashingVectorizer
from repro.learning.linear_regression import LinearRegression, train_test_split
from repro.market.broker import DataBroker
from repro.market.features import CompensationFeatureExtractor
from repro.market.owners import OwnerPopulation
from repro.market.queries import NoisyLinearQuery
from repro.utils.rng import spawn_rngs

#: The fig4 market shape (Section V-A) the perf benchmark builds.
FIG4 = dict(dimension=20, owner_count=200, delta=0.01)


def reference_noisy_query_build(config):
    """The per-round build loop, one query at a time, as it ran before the
    block build: generate, leak, compensate, extract, reserve; then the θ*
    calibration and one scalar noise draw per round."""
    rng_owners, rng_theta, rng_queries, rng_noise = spawn_rngs(config.seed, 4)
    ratings = generate_ratings(
        user_count=config.owner_count,
        item_count=max(50, config.owner_count // 4),
        seed=rng_owners,
    )
    owners = OwnerPopulation.from_records(ratings.owner_records("mean_rating"), seed=rng_owners)
    base_rates = np.array([owner.contract.base_rate for owner in owners])
    sensitivities = np.array([owner.contract.sensitivity for owner in owners])
    raw_theta = np.abs(rng_theta.standard_normal(config.dimension))
    theta = scale_to_norm(raw_theta, config.theta_norm_factor * np.sqrt(config.dimension))

    queries, feature_rows, reserves = [], [], []
    for _ in range(config.rounds):
        # QueryGenerator.generate: weight style, weights, noise exponent.
        if ("normal", "uniform")[int(rng_queries.integers(0, 2))] == "normal":
            weights = rng_queries.standard_normal(len(owners))
        else:
            weights = rng_queries.uniform(-1.0, 1.0, size=len(owners))
        noise_scale = 10.0 ** int(rng_queries.integers(-4, 5))
        queries.append((weights, noise_scale))
        # LeakageQuantifier.leakages (cap 10) and the tanh compensations.
        leakages = np.minimum(np.abs(weights) * np.ones_like(weights) / float(noise_scale), 10.0)
        compensations = base_rates * np.tanh(sensitivities * leakages)
        # CompensationFeatureExtractor.extract: sorted partitions, unit norm.
        ordered = np.sort(compensations)[::-1]
        if config.dimension >= ordered.shape[0]:
            aggregated = np.zeros(config.dimension)
            aggregated[: ordered.shape[0]] = ordered
        else:
            boundaries = np.linspace(0, ordered.shape[0], config.dimension + 1).astype(int)
            aggregated = np.add.reduceat(ordered, boundaries[:-1]).astype(float)
        peak = float(np.max(aggregated))
        if peak > 0.0:
            scaled = aggregated / peak
            features = scaled / float(np.linalg.norm(scaled))
        else:
            features = aggregated
        feature_rows.append(features)
        reserves.append(float(np.sum(features)))

    ratios = [
        float(row @ theta) / reserve if reserve > 0 else np.inf
        for row, reserve in zip(feature_rows, reserves)
    ]
    median_ratio = float(np.median(ratios))
    if np.isfinite(median_ratio) and median_ratio < 1.15:
        theta = theta * (1.15 / max(median_ratio, 1e-9))
    sigma = sigma_for_buffer(config.delta, config.rounds)
    noise = [float(rng_noise.normal(0.0, sigma)) if sigma > 0 else 0.0 for _ in feature_rows]
    return SimpleNamespace(
        owners=owners,
        queries=queries,
        features=np.array(feature_rows),
        reserves=np.array(reserves),
        noise=np.array(noise),
        theta=theta,
    )


def assert_same_market(environment, reference):
    batch = environment.arrival_batch()
    assert np.array_equal(batch.features, reference.features)
    assert np.array_equal(batch.reserve_values, reference.reserves)
    assert np.array_equal(batch.noise, reference.noise)
    assert np.array_equal(environment.model.theta, reference.theta)


def build_both(**fields):
    config = NoisyLinearQueryConfig(**fields)
    return build_noisy_query_environment(config), reference_noisy_query_build(config)


class TestNoisyQueryBuild:
    @pytest.mark.parametrize("seed", range(20))
    def test_block_build_equals_the_loop(self, seed):
        environment, reference = build_both(rounds=2_000, seed=seed, **FIG4)
        assert_same_market(environment, reference)

        # DataBroker prices one query at a time: a one-row call equals the
        # row of the block build, on both sides of a block boundary.
        dimension = FIG4["dimension"]
        pricer = make_pricer(dimension=dimension, radius=1.0, epsilon=0.1)
        broker = DataBroker(reference.owners, pricer, CompensationFeatureExtractor(dimension))
        for row in (0, BLOCK_ROUNDS - 1, BLOCK_ROUNDS, 1_999):
            weights, noise_scale = reference.queries[row]
            _, extraction, reserve = broker.prepare_query(
                NoisyLinearQuery(weights=weights, noise_scale=noise_scale)
            )
            assert np.array_equal(extraction.features, reference.features[row])
            assert reserve == reference.reserves[row]

    def test_paper_horizon(self):
        environment, reference = build_both(rounds=20_000, seed=21, **FIG4)
        assert_same_market(environment, reference)

    def test_one_round_draws_no_noise(self):
        environment, reference = build_both(rounds=1, seed=3, **FIG4)
        assert_same_market(environment, reference)
        assert environment.arrival_batch().noise.tolist() == [0.0]

    @pytest.mark.parametrize("rounds", [BLOCK_ROUNDS - 1, BLOCK_ROUNDS + 1])
    def test_block_boundaries(self, rounds):
        environment, reference = build_both(rounds=rounds, seed=4, **FIG4)
        assert_same_market(environment, reference)

    def test_more_features_than_owners_pads_with_zeros(self):
        environment, reference = build_both(
            rounds=300, seed=5, dimension=24, owner_count=16, delta=0.01
        )
        assert_same_market(environment, reference)
        assert np.all(environment.arrival_batch().features[:, 16:] == 0.0)

    def test_build_peak_memory_is_bounded_by_the_block(self):
        """Whole-horizon temporaries would take 32 MB each at this size; the
        block build's traced peak stays well under the loop's 20 MB."""
        config = NoisyLinearQueryConfig(rounds=20_000, seed=6, **FIG4)
        tracemalloc.start()
        try:
            build_noisy_query_environment(config).arrival_batch()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def row_batch(features, reserves):
    """The batch the apps used to build: one QueryArrival per row, stacked."""
    arrivals = [
        QueryArrival(features=row, reserve_value=reserve, noise=0.0)
        for row, reserve in zip(features, reserves)
    ]
    return ArrivalBatch.from_arrivals(arrivals).with_noise(NoNoise())


def assert_same_batch(batch, expected):
    assert batch.features.flags["C_CONTIGUOUS"]
    assert np.array_equal(batch.features, expected.features)
    assert np.array_equal(batch.reserve_values, expected.reserve_values, equal_nan=True)
    assert np.array_equal(batch.noise, expected.noise)


class TestAccommodationBuild:
    @pytest.mark.parametrize("ratio", [None, 0.6])
    @pytest.mark.parametrize("seed", range(3))
    def test_columns_equal_the_row_construction(self, seed, ratio):
        config = AccommodationConfig(listing_count=300, reserve_log_ratio=ratio, seed=seed)
        rng_data, rng_split, _ = spawn_rngs(seed, 3)
        dataset = generate_listings(count=config.listing_count, seed=rng_data)
        features = ListingFeaturizer(target_dimension=config.dimension).fit_transform(dataset)
        train_x, _, train_y, _ = train_test_split(
            features, dataset.log_prices(), test_fraction=config.test_fraction, seed=rng_split
        )
        regression = LinearRegression(fit_intercept=False, ridge=1e-6).fit(train_x, train_y)
        theta = regression.weight_vector(include_intercept=False)
        reserves = [
            None if ratio is None else float(np.exp(ratio * float(row @ theta))) for row in features
        ]

        environment = build_accommodation_environment(config)
        assert np.array_equal(environment.model.theta, theta)
        assert_same_batch(environment.arrival_batch(), row_batch(features, reserves))


class TestImpressionBuild:
    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_columns_equal_the_row_construction(self, seed, dense):
        config = ImpressionConfig(
            impression_count=300, training_count=500, dimension=64, dense=dense, seed=seed
        )
        rng_train, rng_online = spawn_rngs(seed, 2)
        vectorizer = HashingVectorizer(dimension=config.dimension, binary=True)
        training_log = generate_ad_clicks(count=config.training_count, seed=rng_train)
        train_matrix = vectorizer.transform([imp.tokens() for imp in training_log])
        split = int(0.8 * config.training_count)
        ftrl = FTRLProximal(dimension=config.dimension, l1=config.l1)
        ftrl.fit(train_matrix[:split], training_log.labels()[:split])
        online_log = generate_ad_clicks(count=config.impression_count, seed=rng_online)
        online_matrix = vectorizer.transform([imp.tokens() for imp in online_log])
        support = np.nonzero(ftrl.weights)[0]
        if dense:
            assert support.size >= 2
            online_matrix = online_matrix[:, support]

        environment = build_impression_environment(config)
        assert environment.dimension == online_matrix.shape[1]
        expected = row_batch(online_matrix, [None] * config.impression_count)
        assert_same_batch(environment.arrival_batch(), expected)


class TestArrivalRows:
    def test_rows_are_built_from_the_batch_on_access(self):
        environment, _ = build_both(rounds=50, seed=7, dimension=4, owner_count=30, delta=0.01)
        batch, rows = environment.arrival_batch(), environment.arrivals
        assert len(rows) == 50
        assert [row.reserve_value for row in rows[10:13]] == batch.reserve_values[10:13].tolist()
        assert np.array_equal(rows[-1].features, batch.features[-1])
        assert rows[3].noise == batch.noise[3]
        with pytest.raises(IndexError):
            rows[50]
        assert sum(1 for _ in rows) == 50
