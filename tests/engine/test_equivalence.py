"""The bit-exact comparators: ``assert_bit_exact`` and ``state_equal``."""

import re

import numpy as np
import pytest

from repro.core.models import LinearModel
from repro.core.pricing import make_pricer
from repro.core.simulation import QueryArrival
from repro.engine import ArrivalBatch, simulate
from repro.engine.equivalence import (
    TRANSCRIPT_COLUMNS,
    assert_bit_exact,
    state_equal,
    transcript_columns,
)

#: The boolean flag columns; every other transcript column is float.
FLAG_COLUMNS = ("sold", "skipped", "exploratory")
FLOAT_COLUMNS = tuple(name for name in TRANSCRIPT_COLUMNS if name not in FLAG_COLUMNS)


def _scenario(seed=5, rounds=160, dimension=4):
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
                features=features,
                reserve_value=0.6 * float(features @ theta),
                noise=0.0,
            )
        )
    return model, ArrivalBatch.from_arrivals(arrivals)


def _pricer(dimension=4):
    return make_pricer(
        dimension=dimension, radius=2.0 * np.sqrt(dimension), epsilon=0.05
    )


def _columns(rounds=40):
    """Owned copies of every column of a short ellipsoid-pricer transcript."""
    model, batch = _scenario(rounds=rounds)
    transcript = simulate(model, _pricer(), batch).transcript
    return {name: np.array(column) for name, column in transcript_columns(transcript).items()}


def _with(columns, name, index, value):
    """``columns`` with ``columns[name][index]`` replaced by ``value``."""
    changed = dict(columns)
    changed[name] = columns[name].copy()
    changed[name][index] = value
    return changed


def _differs(name, count, first):
    return re.escape("transcript[%s]: %d elements differ (first at %d)" % (name, count, first))


class TestTranscriptComparators:
    def test_bit_exact_on_identical_runs(self):
        model, batch = _scenario()
        first = simulate(model, _pricer(), batch)
        second = simulate(model, _pricer(), batch)
        assert_bit_exact(first.transcript, second.transcript)

    def test_bit_exact_flags_single_ulp(self):
        model, batch = _scenario()
        result = simulate(model, _pricer(), batch)
        columns = {
            name: np.array(getattr(result.transcript, name))
            for name in ("link_prices", "sold")
        }
        perturbed = dict(columns)
        perturbed["link_prices"] = columns["link_prices"].copy()
        index = int(np.flatnonzero(np.isfinite(perturbed["link_prices"]))[0])
        perturbed["link_prices"][index] = np.nextafter(
            perturbed["link_prices"][index], np.inf
        )
        with pytest.raises(AssertionError, match="bit-exact contract violated"):
            assert_bit_exact(perturbed, columns)

    def test_bit_exact_flags_signed_zero(self):
        with pytest.raises(AssertionError, match="bit-exact contract violated"):
            assert_bit_exact(
                {"regrets": np.array([0.0, 1.0])}, {"regrets": np.array([-0.0, 1.0])}
            )

    def test_bit_exact_requires_the_same_columns(self):
        model, batch = _scenario(rounds=8)
        result = simulate(model, _pricer(), batch)
        partial = {"sold": np.array(result.transcript.sold)}
        with pytest.raises(AssertionError, match="columns"):
            assert_bit_exact(partial, result.transcript)


class TestEveryColumnIsCompared:
    def test_column_set_and_dtypes(self):
        columns = _columns()
        assert tuple(columns) == TRANSCRIPT_COLUMNS
        for name in TRANSCRIPT_COLUMNS:
            assert columns[name].dtype.kind == ("b" if name in FLAG_COLUMNS else "f"), name

    @pytest.mark.parametrize("name", TRANSCRIPT_COLUMNS)
    def test_one_changed_element_is_caught(self, name):
        columns = _columns()
        index = 3
        if name in FLAG_COLUMNS:
            value = not columns[name][index]
        else:
            value = np.nextafter(columns[name][index], np.inf)
        with pytest.raises(AssertionError, match=_differs(name, 1, index)):
            assert_bit_exact(_with(columns, name, index, value), columns)

    @pytest.mark.parametrize("name", FLOAT_COLUMNS)
    def test_signed_zero_is_caught(self, name):
        columns = _with(_columns(), name, 7, 0.0)
        assert_bit_exact(_with(columns, name, 7, 0.0), columns)
        with pytest.raises(AssertionError, match=_differs(name, 1, 7)):
            assert_bit_exact(_with(columns, name, 7, -0.0), columns)

    @pytest.mark.parametrize("name", FLOAT_COLUMNS)
    def test_nan_must_sit_at_the_same_rounds(self, name):
        original = _columns()
        columns = _with(original, name, 5, np.nan)
        assert_bit_exact(_with(columns, name, 5, np.nan), columns)
        moved = _with(_with(original, name, 6, np.nan), name, 5, original[name][5])
        with pytest.raises(AssertionError, match=_differs(name, 2, 5)):
            assert_bit_exact(moved, columns)
        with pytest.raises(AssertionError, match=_differs(name, 1, 5)):
            assert_bit_exact(original, columns)


#: Pairs that hold the same numbers but not the same state: ``state_equal``
#: compares types, dtypes, shapes and raw bytes, not values alone.
STRUCTURAL_MISMATCHES = {
    "dtype": (np.zeros(3), np.zeros(3, dtype=np.float32)),
    "shape": (np.arange(6.0), np.arange(6.0).reshape(2, 3)),
    "nan-payload": (
        np.array([np.nan]),
        np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64),
    ),
    "array-vs-list": (np.array([1.0, 2.0]), [1.0, 2.0]),
    "missing-key": ({"a": 1, "b": 2}, {"a": 1}),
    "list-length": ([1, 2], [1, 2, 3]),
    "bool-vs-int": (True, 1),
    "int-vs-float": (1, 1.0),
    "nested-ulp": (
        {"knowledge": {"arrays": [np.array([1.0])]}},
        {"knowledge": {"arrays": [np.array([np.nextafter(1.0, 2.0)])]}},
    ),
}


class TestStateComparator:
    @pytest.mark.parametrize("case", sorted(STRUCTURAL_MISMATCHES))
    def test_structural_mismatch_is_unequal(self, case):
        left, right = STRUCTURAL_MISMATCHES[case]
        assert state_equal(left, left)
        assert state_equal(right, right)
        assert not state_equal(left, right)
        assert not state_equal(right, left)

    def test_counter_mismatch_is_unequal(self):
        state = _pricer().state_dict()
        assert state_equal(_pricer().state_dict(), state)
        bumped = _pricer().state_dict()
        bumped["cuts_applied"] += 1
        assert not state_equal(bumped, state)

    def test_single_ulp_in_geometry_is_unequal(self):
        model, batch = _scenario(rounds=40)
        pricer = _pricer()
        simulate(model, pricer, batch)
        state = pricer.state_dict()
        moved = pricer.state_dict()
        center = moved["knowledge"]["center"]
        center[0] = np.nextafter(center[0], np.inf)
        assert not state_equal(moved, state)

    def test_signed_zero_is_unequal(self):
        assert not state_equal(np.array([0.0]), np.array([-0.0]))
        assert not state_equal({"x": 0.0}, {"x": -0.0})
        assert state_equal({"x": float("nan")}, {"x": float("nan")})
