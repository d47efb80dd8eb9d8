"""Equality tier of the ellipsoid pricer's block path.

``EllipsoidPricer.run_batch`` prices the rounds between two applied cuts as
array passes.  Every case here runs one market through :func:`simulate` (the
block path) and through :func:`simulate_reference` (``propose``/``update``
round by round) and requires, bit for bit — signed zeros included — every
transcript column, the pricer's final center and shape, and all of its
counters.  Each case also asserts the premise it exists for (skips happen,
cuts are no-ops, the tail is cut-free, ...), so a market that drifts away
from its edge fails loudly instead of passing vacuously.
"""

import numpy as np
import pytest

from repro.core.ellipsoid import Ellipsoid
from repro.core.models import LinearModel, LogisticModel, LogLinearModel
from repro.core.pricing import EllipsoidPricer, PricerConfig
from repro.engine import (
    ArrivalBatch,
    assert_bit_exact,
    run_batch_chunked,
    simulate,
    simulate_reference,
    state_equal,
)

BLOCK_MAX = EllipsoidPricer._BLOCK_MAX


def _market(model_type, dimension, rounds, seed, reserve_ratio=0.6, noise_sigma=0.005):
    """Unit-norm positive features, reserves at a ratio of the link value."""
    rng = np.random.default_rng(seed)
    theta = np.abs(rng.standard_normal(dimension))
    theta *= 0.8 / np.linalg.norm(theta)
    model = model_type(theta)
    features = np.abs(rng.standard_normal((rounds, dimension)))
    features /= np.linalg.norm(features, axis=1)[:, None]
    reserves = np.array([model.link(reserve_ratio * float(row @ theta)) for row in features])
    noise = rng.normal(0.0, noise_sigma, rounds)
    return model, ArrivalBatch(features, reserves, noise)


def _pricer(dimension, epsilon=0.05, delta=0.0, **options):
    config = PricerConfig(dimension=dimension, radius=2.0, epsilon=epsilon, delta=delta, **options)
    return lambda: EllipsoidPricer(config)


def _compare(model, build, batch, **simulate_options):
    """Run both paths and require identical transcripts, state and counters."""
    block_pricer, reference_pricer = build(), build()
    if "chunk_size" in simulate_options:
        block = run_batch_chunked(model, block_pricer, arrivals=batch, **simulate_options)
    else:
        block = simulate(model, block_pricer, arrivals=batch, **simulate_options)
    reference = simulate_reference(model, reference_pricer, batch.to_arrivals())
    assert_bit_exact(block.transcript, reference.transcript, "block path")
    assert state_equal(block_pricer.state_dict(), reference_pricer.state_dict())
    return reference_pricer, reference.transcript


@pytest.mark.parametrize("use_reserve", [True, False], ids=["reserve", "no-reserve"])
@pytest.mark.parametrize("delta", [0.0, 0.01], ids=["delta=0", "delta=0.01"])
def test_versions_over_a_horizon_past_twice_the_block_cap(use_reserve, delta, monkeypatch):
    """Long enough for capped blocks: after the last cut the block size
    doubles from twice the rows between the last two cuts to the cap, and
    the walk ends in two cut-free blocks at the cap and a partial last
    block."""
    block_sizes = []
    support_intervals = Ellipsoid.support_intervals

    def recording(ellipsoid, features):
        block_sizes.append(len(features))
        return support_intervals(ellipsoid, features)

    monkeypatch.setattr(Ellipsoid, "support_intervals", recording)
    model, batch = _market(LinearModel, 3, 4 * BLOCK_MAX + 1500, seed=11)
    epsilon = 0.05 + 4 * 3 * delta
    pricer, _ = _compare(
        model, _pricer(3, epsilon=epsilon, delta=delta, use_reserve=use_reserve), batch
    )
    assert pricer.cuts_applied > 10
    assert block_sizes[-3:-1] == [BLOCK_MAX, BLOCK_MAX]
    assert 0 < block_sizes[-1] < BLOCK_MAX


def test_a_cut_on_every_round_prices_few_rows_past_each_cut(monkeypatch):
    """The pure version with a tiny epsilon explores and cuts on every round.
    The block after a cut is twice the rows since the previous cut, so the
    rows priced past the cuts and thrown away stay in proportion to the rows
    kept instead of costing a long block of gemvs per cut."""
    rows_priced = []
    support_intervals = Ellipsoid.support_intervals

    def recording(ellipsoid, features):
        rows_priced.append(len(features))
        return support_intervals(ellipsoid, features)

    monkeypatch.setattr(Ellipsoid, "support_intervals", recording)
    model, batch = _market(LinearModel, 6, 500, seed=19)
    pricer, _ = _compare(model, _pricer(6, epsilon=1e-9, use_reserve=False), batch)
    assert pricer.cuts_applied == pricer.exploratory_rounds == 500
    assert sum(rows_priced) <= 2 * 500


def test_every_round_cuts_at_n_1024():
    """Fig. 5(c)'s regime: the pure version explores and cuts on every round
    of a logistic market at n = 1024, so each round goes through the
    in-place Löwner–John update on a 1024 x 1024 shape."""
    model, batch = _market(LogisticModel, 1024, 100, seed=22)
    pricer, _ = _compare(model, _pricer(1024, epsilon=1e-9, use_reserve=False), batch)
    assert pricer.cuts_applied == pricer.exploratory_rounds == 100


def test_rounds_skip_when_the_reserve_is_above_the_upper_bound():
    model, batch = _market(LinearModel, 4, 3000, seed=12)
    reserves = batch.reserve_values.copy()
    reserves[::5] *= 4.0 / 0.6  # mostly above even the initial ball's upper bound
    batch = ArrivalBatch(batch.features, reserves, batch.noise)
    pricer, _ = _compare(model, _pricer(4, epsilon=0.2, delta=0.01), batch)
    assert pricer.skipped_rounds > 500
    assert pricer.exploratory_rounds > 0 and pricer.conservative_rounds > 0


def test_no_op_cuts_inside_blocks():
    """High reserves are rejected at prices far above the midpoint: the cut
    position falls below -1/n and the ellipsoid stays as it is."""
    model, batch = _market(LinearModel, 5, 3000, seed=13, reserve_ratio=0.98, noise_sigma=0.05)
    pricer, _ = _compare(model, _pricer(5, delta=0.01), batch)
    assert pricer.cuts_applied > 0
    assert pricer.exploratory_rounds - pricer.cuts_applied > 50


@pytest.mark.parametrize("reserve", [0.0, -0.0], ids=["+0.0", "-0.0"])
def test_reserve_ties_the_midpoint_with_signed_zeros(reserve):
    """The center stays at the origin (every cut is a no-op: δ dwarfs the
    support width), so every midpoint is +0.0 and ties a ±0.0 reserve.
    Python's ``max(-0.0, 0.0)`` keeps ``-0.0``; ``np.maximum`` does not."""
    rounds = 500
    model, batch = _market(LinearModel, 3, rounds, seed=14)
    batch = ArrivalBatch(batch.features, np.full(rounds, reserve), batch.noise)
    build = _pricer(3, epsilon=1e-3, delta=1.5)
    pricer, transcript = _compare(model, build, batch)
    assert pricer.cuts_applied == 0
    assert pricer.exploratory_rounds == rounds
    assert np.array_equal(np.signbit(transcript.link_prices), np.full(rounds, np.signbit(reserve)))


def test_conservative_cuts_ablation():
    model, batch = _market(LinearModel, 4, 3000, seed=15, reserve_ratio=0.98, noise_sigma=0.02)
    pricer, _ = _compare(model, _pricer(4, allow_conservative_cuts=True), batch)
    # More applied cuts than exploratory rounds: conservative rounds cut too.
    assert pricer.cuts_applied > pricer.exploratory_rounds + 100


@pytest.mark.parametrize("use_reserve", [True, False], ids=["reserve", "no-reserve"])
@pytest.mark.parametrize("allow_conservative_cuts", [False, True])
def test_zero_and_denormal_feature_rows(use_reserve, allow_conservative_cuts):
    """Zero rows (gain 0) and denormal rows (gain underflows to a denormal)
    have zero width: they price conservatively and are never cut on."""
    model, batch = _market(LinearModel, 4, 1200, seed=16)
    features = batch.features.copy()
    features[::37] = 0.0
    features[11::41] = 1e-158
    batch = ArrivalBatch(features, batch.reserve_values, batch.noise)
    build = _pricer(
        4, use_reserve=use_reserve, allow_conservative_cuts=allow_conservative_cuts
    )
    pricer, transcript = _compare(model, build, batch)
    assert not np.any(transcript.exploratory[::37]) and not np.any(transcript.exploratory[11::41])
    assert pricer.cuts_applied > 0


@pytest.mark.parametrize("model_type", [LogLinearModel, LogisticModel])
def test_non_identity_links(model_type):
    """Non-identity links post through the scalar ``link``, and reserves
    come back through the scalar ``link_inverse``."""
    model, batch = _market(model_type, 3, 2000, seed=17, reserve_ratio=0.9)
    pricer, _ = _compare(model, _pricer(3, delta=0.01), batch)
    assert pricer.cuts_applied > 0 and pricer.conservative_rounds > 0


def test_two_dimensions():
    model, batch = _market(LinearModel, 2, 3000, seed=18)
    pricer, _ = _compare(model, _pricer(2, epsilon=0.01, delta=0.01), batch)
    assert pricer.cuts_applied > 0


@pytest.mark.parametrize("chunk_size,rounds", [(1, 300), (7, 1500), (4097, 5000)])
def test_chunked_runs(chunk_size, rounds):
    """Chunk boundaries restart the walk from a restored snapshot."""
    model, batch = _market(LinearModel, 4, rounds, seed=19)
    pricer, _ = _compare(model, _pricer(4, delta=0.01), batch, chunk_size=chunk_size)
    assert pricer.cuts_applied > 0


def test_fortran_ordered_features():
    """Per-row products round by stride; a Fortran-ordered market must price
    like the reference loop's contiguous rows."""
    model, batch = _market(LinearModel, 20, 2000, seed=20)
    fortran = ArrivalBatch(np.asfortranarray(batch.features), batch.reserve_values, batch.noise)
    assert fortran.features.flags.f_contiguous and not fortran.features.flags.c_contiguous
    pricer, _ = _compare(model, _pricer(20, epsilon=0.2, delta=0.01), fortran)
    assert pricer.cuts_applied > 0


@pytest.mark.parametrize("reserve", [np.inf, -np.inf], ids=["+inf", "-inf"])
def test_an_infinite_reserve_raises_like_the_reference_loop(reserve):
    """NaN means "no reserve", but ``propose`` rejects an infinite one: the
    block path must raise the same error rather than price the round."""
    model, batch = _market(LinearModel, 3, 4, seed=21)
    batch = ArrivalBatch(batch.features, np.array([0.1, reserve, 0.1, 0.1]), batch.noise)
    build = _pricer(3)
    with pytest.raises(ValueError) as block:
        simulate(model, build(), arrivals=batch)
    with pytest.raises(ValueError) as reference:
        simulate_reference(model, build(), batch.to_arrivals())
    assert str(block.value) == str(reference.value) == "reserve must be finite, got %r" % reserve
    # Without the reserve constraint the reserve is never read.
    _compare(model, _pricer(3, use_reserve=False), batch)


def test_an_overflowing_support_width_raises_like_the_reference_loop():
    """``x^T A x`` overflows to inf (a 1e150 ball, features of norm ~1e5), so
    the midpoint is NaN, the round prices at -inf and its cut's offset is
    not finite.  The block path cuts without the per-cut vector checks but
    keeps the offset check: it raises ``update``'s error, message included."""
    rng = np.random.default_rng(23)
    batch = ArrivalBatch(1e5 * np.abs(rng.standard_normal((4, 3))), np.full(4, np.nan), np.zeros(4))
    model = LinearModel(np.full(3, 0.3))
    config = PricerConfig(dimension=3, radius=1e150, epsilon=0.05, use_reserve=False)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as block:
            simulate(model, EllipsoidPricer(config), arrivals=batch)
        with pytest.raises(ValueError) as reference:
            simulate_reference(model, EllipsoidPricer(config), batch.to_arrivals())
    assert str(block.value) == str(reference.value) == "offset must be finite, got -inf"
