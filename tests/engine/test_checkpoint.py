"""Checkpoint/restore subsystem tests.

Pins the chunked-execution exactness contract:

* ``state_dict → save → load → load_state`` into a *fresh* pricer, then
  continuing the horizon, must be element-wise identical to the
  uninterrupted run — property-tested over random seeds, horizons, and
  split points for every pricer family and both knowledge-set types (plus
  the polytope reference);
* :func:`repro.engine.run_batch_chunked` must be bit-identical to
  :func:`repro.engine.simulate` for ``chunk_size ∈ {1, 7, T/2, T}``
  (the PR's acceptance criterion);
* the serialisation layer round-trips nested state without pickling and
  rejects foreign or future-versioned artifacts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import PostedPriceMechanism, PricingDecision
from repro.core.baselines import (
    ConstantMarkupPricer,
    FixedPricePricer,
    OraclePricer,
    RiskAversePricer,
)
from repro.core.models import LinearModel
from repro.core.pricing import make_pricer
from repro.core.sgd_pricer import SGDContextualPricer
from repro.engine import (
    CheckpointError,
    assert_bit_exact,
    run_batch_chunked,
    simulate,
)
from repro.engine.arrivals import ArrivalBatch
from repro.engine.checkpoint import (
    deserialize_state,
    load_checkpoint,
    load_result,
    restore_pricer,
    save_checkpoint,
    save_result,
    serialize_state,
)
from repro.engine.runner import prepare


def _market(seed, dimension, rounds):
    rng = np.random.default_rng(seed)
    theta = rng.random(dimension) + 0.1
    theta *= np.sqrt(2.0 * dimension) / np.linalg.norm(theta)
    features = rng.random((rounds, dimension)) + 0.05
    features /= np.linalg.norm(features, axis=1, keepdims=True)
    reserves = 0.6 * np.array([float(row @ theta) for row in features])
    noise = 0.01 * (rng.random(rounds) - 0.5)
    model = LinearModel(theta)
    batch = ArrivalBatch(features=features, reserve_values=reserves, noise=noise)
    return model, prepare(model, batch), theta


def _families(theta, dimension):
    radius = 2.0 * np.sqrt(dimension)
    families = {
        "sgd": lambda: SGDContextualPricer(dimension=dimension, radius=radius),
        "risk-averse": lambda: RiskAversePricer(),
        "fixed-price": lambda: FixedPricePricer(1.1),
        "constant-markup": lambda: ConstantMarkupPricer(1.4),
        "oracle": lambda: OraclePricer(lambda x: float(x @ theta)),
    }
    if dimension == 1:
        families["one-dim"] = lambda: make_pricer(dimension=1, radius=2.0, epsilon=0.01)
    else:
        families["ellipsoid"] = lambda: make_pricer(
            dimension=dimension, radius=radius, epsilon=0.05
        )
        families["ellipsoid-uncertainty-pure"] = lambda: make_pricer(
            dimension=dimension, radius=radius, epsilon=0.2, delta=0.01, use_reserve=False
        )
    return families


def _run_split(model, materialized, factory, split, tmp_path):
    """Run [0, split), checkpoint to disk, restore into a fresh pricer, finish."""
    first = factory()
    head = simulate(model, first, materialized=materialized.slice(0, split))
    path = str(tmp_path / "state.npz")
    save_checkpoint(path, first, split)
    fresh = restore_pricer(factory(), load_checkpoint(path))
    tail = simulate(model, fresh, materialized=materialized.slice(split, materialized.rounds))
    return head, tail


class TestSaveLoadContinueProperty:
    """save → load → continue == uninterrupted, for random (seed, T, split)."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rounds=st.integers(16, 96),
        split_fraction=st.floats(0.0, 1.0),
        dimension=st.sampled_from([1, 4]),
    )
    def test_all_families(self, seed, rounds, split_fraction, dimension, tmp_path_factory):
        split = int(round(split_fraction * rounds))
        model, materialized, theta = _market(seed, dimension, rounds)
        tmp_path = tmp_path_factory.mktemp("ckpt")
        for name, factory in _families(theta, dimension).items():
            base = simulate(model, factory(), materialized=materialized)
            head, tail = _run_split(model, materialized, factory, split, tmp_path)
            for column in ("link_prices", "posted_prices", "regrets"):
                combined = np.concatenate(
                    [getattr(head.transcript, column), getattr(tail.transcript, column)]
                )
                assert np.array_equal(
                    getattr(base.transcript, column), combined, equal_nan=True
                ), "%s @ split %d: %s diverged" % (name, split, column)
            combined_sold = np.concatenate([head.transcript.sold, tail.transcript.sold])
            assert np.array_equal(base.transcript.sold, combined_sold), name

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rounds=st.integers(16, 96),
        chunk_size=st.integers(1, 128),
        dimension=st.sampled_from([1, 4]),
    )
    def test_chunked_equals_unchunked(self, seed, rounds, chunk_size, dimension):
        model, materialized, theta = _market(seed, dimension, rounds)
        for name, factory in _families(theta, dimension).items():
            base = simulate(model, factory(), materialized=materialized)
            chunked = run_batch_chunked(
                model, factory(), materialized=materialized, chunk_size=chunk_size
            )
            assert_bit_exact(
                base.transcript, chunked.transcript, "%s chunk=%d" % (name, chunk_size)
            )

    def test_end_state_identical_after_restore_and_continue(self):
        # Not just the transcript: the pricer's own state (knowledge set,
        # counters) must match the uninterrupted run's end state.
        model, materialized, theta = _market(7, 4, 80)
        factory = lambda: make_pricer(dimension=4, radius=4.0, epsilon=0.05)
        uninterrupted = factory()
        simulate(model, uninterrupted, materialized=materialized)
        first = factory()
        simulate(model, first, materialized=materialized.slice(0, 37))
        fresh = factory()
        fresh.load_state(deserialize_state(serialize_state(first.state_dict())))
        simulate(model, fresh, materialized=materialized.slice(37, 80))
        assert fresh.rounds_seen == uninterrupted.rounds_seen
        assert fresh.cuts_applied == uninterrupted.cuts_applied
        assert fresh.exploratory_rounds == uninterrupted.exploratory_rounds
        assert np.array_equal(
            fresh.knowledge.ellipsoid.center, uninterrupted.knowledge.ellipsoid.center
        )
        assert np.array_equal(
            fresh.knowledge.ellipsoid.shape, uninterrupted.knowledge.ellipsoid.shape
        )


class TestAcceptanceChunkSizes:
    """The PR acceptance criterion: chunk_size ∈ {1, 7, T/2, T}, every family."""

    ROUNDS = 64

    @pytest.mark.parametrize("chunk_size", [1, 7, 32, 64])
    @pytest.mark.parametrize("dimension", [1, 4], ids=["n=1", "n=4"])
    def test_families(self, dimension, chunk_size):
        model, materialized, theta = _market(11, dimension, self.ROUNDS)
        for name, factory in _families(theta, dimension).items():
            base = simulate(model, factory(), materialized=materialized)
            chunked = run_batch_chunked(
                model, factory(), materialized=materialized, chunk_size=chunk_size
            )
            assert_bit_exact(
                base.transcript, chunked.transcript, "%s chunk=%d" % (name, chunk_size)
            )

    @pytest.mark.parametrize("chunk_size", [1, 7, 16, 32])
    def test_polytope_knowledge(self, chunk_size):
        model, materialized, theta = _market(13, 3, 32)
        factory = lambda: make_pricer(
            dimension=3, radius=3.0, epsilon=0.05, knowledge="polytope"
        )
        base = simulate(model, factory(), materialized=materialized)
        chunked = run_batch_chunked(
            model, factory(), materialized=materialized, chunk_size=chunk_size
        )
        assert_bit_exact(
            base.transcript, chunked.transcript, "polytope chunk=%d" % chunk_size
        )


class TestChunkedResumeGuards:
    def test_resume_continues_interrupted_run(self, tmp_path):
        model, materialized, theta = _market(23, 4, 120)
        factory = lambda: make_pricer(dimension=4, radius=4.0, epsilon=0.05)
        base = simulate(model, factory(), materialized=materialized)
        path = str(tmp_path / "run.npz")
        # "Crash" after 80 rounds: run the prefix chunked with checkpoints...
        run_batch_chunked(
            model, factory(), materialized=materialized.slice(0, 80),
            chunk_size=40, checkpoint_path=str(tmp_path / "prefix.npz"),
        )
        # ...then resume the full horizon from its own checkpoint trail.
        run_batch_chunked(
            model, factory(), materialized=materialized,
            chunk_size=40, checkpoint_path=path,
        )
        resumed = run_batch_chunked(
            model, factory(), materialized=materialized,
            chunk_size=40, checkpoint_path=path, resume=True,
        )
        assert_bit_exact(base.transcript, resumed.transcript, "resume")

    def test_resume_rejects_checkpoint_from_different_market(self, tmp_path):
        from repro.engine import CheckpointError as EngineCheckpointError

        factory = lambda: make_pricer(dimension=4, radius=4.0, epsilon=0.05)
        model_a, materialized_a, _ = _market(29, 4, 60)
        model_b, materialized_b, _ = _market(31, 4, 60)
        path = str(tmp_path / "a.npz")
        run_batch_chunked(
            model_a, factory(), materialized=materialized_a,
            chunk_size=20, checkpoint_path=path,
        )
        with pytest.raises(EngineCheckpointError, match="different market"):
            run_batch_chunked(
                model_b, factory(), materialized=materialized_b,
                chunk_size=20, checkpoint_path=path, resume=True,
            )

    def test_checkpoint_every_amortizes_writes_without_changing_results(self, tmp_path):
        model, materialized, theta = _market(37, 4, 100)
        factory = lambda: make_pricer(dimension=4, radius=4.0, epsilon=0.05)
        base = simulate(model, factory(), materialized=materialized)
        path = str(tmp_path / "sparse.npz")
        sparse = run_batch_chunked(
            model, factory(), materialized=materialized,
            chunk_size=10, checkpoint_path=path, checkpoint_every=4,
        )
        assert_bit_exact(base.transcript, sparse.transcript, "checkpoint_every=4")
        # The final boundary is always persisted, so a completed run's
        # checkpoint covers the whole horizon regardless of the stride.
        assert load_checkpoint(path).rounds_done == 100

    def test_invalid_checkpoint_every_rejected(self):
        model, materialized, theta = _market(41, 4, 20)
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_batch_chunked(
                model,
                make_pricer(dimension=4, radius=4.0, epsilon=0.05),
                materialized=materialized,
                chunk_size=10,
                checkpoint_every=0,
            )


class _RandomizedPricer(PostedPriceMechanism):
    """Test pricer drawing from an internal RNG every round (RNG-position pin)."""

    name = "randomized"

    def __init__(self, seed=0):
        super().__init__()
        self.rng = np.random.default_rng(seed)

    def propose(self, features, reserve=None):
        price = float(self.rng.random()) * float(np.sum(features))
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
        pass


class TestRngPosition:
    def test_rng_position_round_trips(self):
        model, materialized, _theta = _market(17, 3, 60)
        base = simulate(model, _RandomizedPricer(seed=5), materialized=materialized)
        chunked = run_batch_chunked(
            model, _RandomizedPricer(seed=5), materialized=materialized, chunk_size=9
        )
        assert_bit_exact(base.transcript, chunked.transcript, "randomized chunk=9")

    def test_rng_state_in_snapshot(self):
        pricer = _RandomizedPricer(seed=5)
        pricer.rng.random(17)
        state = pricer.state_dict()
        assert "rng_state" in state
        fresh = _RandomizedPricer(seed=999)
        fresh.load_state(deserialize_state(serialize_state(state)))
        assert fresh.rng.random() == np.random.default_rng(5).random(18)[-1]


class TestSerializationLayer:
    def test_nested_state_round_trip(self):
        state = {
            "round_index": 12,
            "flag": True,
            "nothing": None,
            "label": "x",
            "nested": {"array": np.arange(6, dtype=float).reshape(2, 3), "pi": 3.5},
            "listed": [np.array([True, False]), {"inner": np.array([1.0])}],
        }
        restored = deserialize_state(serialize_state(state))
        assert restored["round_index"] == 12
        assert restored["flag"] is True
        assert restored["nothing"] is None
        assert np.array_equal(restored["nested"]["array"], state["nested"]["array"])
        assert restored["nested"]["array"].dtype == np.float64
        assert np.array_equal(restored["listed"][0], np.array([True, False]))
        assert np.array_equal(restored["listed"][1]["inner"], np.array([1.0]))

    def test_rejects_unserializable_values(self):
        with pytest.raises(CheckpointError, match="not checkpointable"):
            serialize_state({"bad": object()})

    def test_rejects_foreign_bytes(self):
        with pytest.raises(CheckpointError):
            deserialize_state(b"definitely not an npz archive")

    def test_rejects_future_version(self):
        from repro.engine import checkpoint as checkpoint_module

        blob = checkpoint_module._pack(
            {"magic": checkpoint_module.MAGIC, "version": 99, "kind": "state",
             "array_count": 0, "state": {}},
            [],
        )
        with pytest.raises(CheckpointError, match="version"):
            deserialize_state(blob)

    def test_rejects_bad_magic(self):
        from repro.engine import checkpoint as checkpoint_module

        blob = checkpoint_module._pack(
            {"magic": "something-else", "version": 1, "kind": "state",
             "array_count": 0, "state": {}},
            [],
        )
        with pytest.raises(CheckpointError, match="magic"):
            deserialize_state(blob)

    def test_restore_rejects_wrong_pricer_type(self, tmp_path):
        path = str(tmp_path / "c.npz")
        save_checkpoint(path, make_pricer(dimension=3, radius=2.0, epsilon=0.1), 5)
        with pytest.raises(CheckpointError, match="cannot restore"):
            restore_pricer(RiskAversePricer(), load_checkpoint(path))

    def test_checkpoint_meta_round_trips_arrays(self, tmp_path):
        path = str(tmp_path / "c.npz")
        columns = {"link_prices": np.array([1.0, np.nan, 2.0])}
        save_checkpoint(
            path, make_pricer(dimension=3, radius=2.0, epsilon=0.1), 3,
            meta={"columns": columns},
        )
        loaded = load_checkpoint(path)
        assert loaded.rounds_done == 3
        assert loaded.pricer_type == "EllipsoidPricer"
        assert np.array_equal(
            loaded.meta["columns"]["link_prices"], columns["link_prices"], equal_nan=True
        )

    def test_result_round_trip(self, tmp_path):
        model, materialized, theta = _market(19, 3, 40)
        result = simulate(
            model,
            make_pricer(dimension=3, radius=3.0, epsilon=0.05),
            materialized=materialized,
            pricer_name="cell-pricer",
        )
        path = str(tmp_path / "r.npz")
        save_result(path, result)
        loaded = load_result(path)
        assert loaded.pricer_name == "cell-pricer"
        assert loaded.rounds == 40
        assert_bit_exact(result.transcript, loaded.transcript, "result round-trip")
        assert np.array_equal(
            result.transcript.market_values, loaded.transcript.market_values
        )
        assert result.cumulative_regret == loaded.cumulative_regret


class TestKnowledgeStateDicts:
    def test_interval_round_trip(self):
        from repro.core.knowledge import IntervalKnowledge

        knowledge = IntervalKnowledge(-1.5, 2.5)
        knowledge.cut(1.0, 2.0, keep="leq")
        fresh = IntervalKnowledge(-9.0, 9.0)
        fresh.load_state(knowledge.state_dict())
        assert fresh.lower == knowledge.lower
        assert fresh.upper == knowledge.upper

    def test_kind_mismatch_rejected(self):
        from repro.core.knowledge import EllipsoidKnowledge, IntervalKnowledge

        interval = IntervalKnowledge(0.0, 1.0)
        ellipsoid = EllipsoidKnowledge.from_radius(3, 2.0)
        with pytest.raises(ValueError, match="cannot load"):
            interval.load_state(ellipsoid.state_dict())
        with pytest.raises(ValueError, match="cannot load"):
            ellipsoid.load_state(interval.state_dict())

    def test_polytope_round_trip_preserves_lp_results(self):
        from repro.core.knowledge import PolytopeKnowledge

        rng = np.random.default_rng(3)
        knowledge = PolytopeKnowledge.from_radius(3, 2.0)
        for _ in range(5):
            direction = rng.random(3)
            knowledge.cut(direction, float(rng.random() + 0.5), keep="leq")
        fresh = PolytopeKnowledge.from_radius(3, 2.0)
        fresh.load_state(knowledge.state_dict())
        probe = rng.random(3)
        assert fresh.value_bounds(probe) == knowledge.value_bounds(probe)
        assert fresh.constraint_count == knowledge.constraint_count
