"""Dataset-loader streaming determinism.

The dataset loaders must be strictly deterministic: the same seed must
produce the same record sequence on every call, and iterating one dataset
object twice must stream identical records in identical order.  These tests
pin that contract for all four generators.
"""

import numpy as np

from repro.datasets import (
    generate_ad_clicks,
    generate_listings,
    generate_loans,
    generate_ratings,
)

SEED = 1234
COUNT = 200


def test_loans_same_seed_same_sequence():
    first = generate_loans(count=COUNT, seed=SEED)
    second = generate_loans(count=COUNT, seed=SEED)
    assert np.array_equal(first.feature_matrix(), second.feature_matrix())
    assert np.array_equal(first.interest_rates(), second.interest_rates())
    assert not np.array_equal(
        first.feature_matrix(), generate_loans(count=COUNT, seed=SEED + 1).feature_matrix()
    )


def test_listings_same_seed_same_sequence():
    first = generate_listings(count=COUNT, seed=SEED)
    second = generate_listings(count=COUNT, seed=SEED)
    assert np.array_equal(first.log_prices(), second.log_prices())
    for listing_a, listing_b in zip(first, second):
        assert listing_a.categorical_values() == listing_b.categorical_values()
        assert listing_a.numeric_values() == listing_b.numeric_values()
        assert listing_a.amenity_values() == listing_b.amenity_values()


def test_ad_clicks_same_seed_same_sequence():
    first = generate_ad_clicks(count=COUNT, seed=SEED)
    second = generate_ad_clicks(count=COUNT, seed=SEED)
    assert np.array_equal(first.labels(), second.labels())
    for impression_a, impression_b in zip(first, second):
        assert impression_a.tokens() == impression_b.tokens()


def test_ratings_same_seed_same_sequence():
    first = generate_ratings(user_count=40, item_count=30, seed=SEED)
    second = generate_ratings(user_count=40, item_count=30, seed=SEED)
    assert np.array_equal(first.user_ids, second.user_ids)
    assert np.array_equal(first.item_ids, second.item_ids)
    assert np.array_equal(first.ratings, second.ratings)


def test_iterating_one_dataset_twice_streams_identical_arrivals():
    """A caller may iterate a loader's output repeatedly; two passes over the
    same dataset object must yield the same arrivals in the same order."""
    loans = generate_loans(count=COUNT, seed=SEED)
    first_pass = [application.feature_vector() for application in loans]
    second_pass = [application.feature_vector() for application in loans]
    assert len(first_pass) == COUNT
    for vector_a, vector_b in zip(first_pass, second_pass):
        assert np.array_equal(vector_a, vector_b)

    clicks = generate_ad_clicks(count=COUNT, seed=SEED)
    assert [i.tokens() for i in clicks] == [i.tokens() for i in clicks]
