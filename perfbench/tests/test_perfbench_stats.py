import numpy as np
import pytest

from perfbench.stats import TooFewSamples, nearest_rank
from perfbench.tracer import percentile_us


def test_nearest_rank_returns_an_observed_sample():
    assert nearest_rank([4, 1, 3, 2], 50, min_beyond=0) == 2
    assert nearest_rank([4, 1, 3, 2], 100, min_beyond=0) == 4
    assert nearest_rank([4, 1, 3, 2], 1, min_beyond=0) == 1
    samples = np.arange(1, 101)
    assert nearest_rank(samples, 90) == 90  # rank 90, ten samples beyond


def test_nearest_rank_refuses_a_percentile_with_fewer_than_ten_beyond():
    with pytest.raises(TooFewSamples):
        nearest_rank(np.arange(100), 91)  # rank 91 leaves nine beyond
    with pytest.raises(TooFewSamples):
        nearest_rank(np.arange(500), 99)
    assert nearest_rank(np.arange(1000), 99) == 989
    with pytest.raises(TooFewSamples):
        nearest_rank([], 50, min_beyond=0)


def test_nearest_rank_rejects_bad_percentiles():
    for bad in (0, -1, 101):
        with pytest.raises(ValueError):
            nearest_rank([1.0, 2.0], bad, min_beyond=0)


def test_span_median_needs_one_sample_but_the_tail_needs_ten_beyond():
    assert percentile_us(np.array([2e-6]), 50) == pytest.approx(2.0)
    assert percentile_us(np.full(50, 1e-6), 99) == 0.0
