"""Golden-transcript regression tier.

The exactness contract used to be enforced only *pairwise* (engine vs the
in-process reference loop); if both drifted together, nothing would notice.
This tier pins the contract with committed artifacts: seeded T=512
transcripts per pricer family under ``tests/golden/``, replayed here with
**exact float equality** through

* the columnar engine (:func:`repro.engine.simulate`),
* the sequential reference loop (:func:`repro.engine.simulate_reference`),
* the chunked runner (:func:`repro.engine.run_batch_chunked`) at several
  chunk sizes — a chunk boundary must never move a single bit.

Regenerate fixtures with ``scripts/make_golden_transcripts.py`` only for
deliberate algorithm changes.
"""

import os

import numpy as np
import pytest

import golden_specs

from repro.engine import assert_bit_exact, run_batch_chunked, simulate, simulate_reference

FAMILIES = sorted(golden_specs.GOLDEN_SPECS)

#: Chunk sizes exercised against the committed transcripts (T = 512).
GOLDEN_CHUNK_SIZES = (7, 256, 512)


def _load(family):
    path = golden_specs.fixture_path(family)
    assert os.path.exists(path), (
        "golden fixture %s missing; run scripts/make_golden_transcripts.py" % path
    )
    return np.load(path)


def _assert_matches_golden(transcript, data, context):
    expected = {name: data["expected_%s" % name] for name in golden_specs.GOLDEN_COLUMNS}
    assert_bit_exact(transcript, expected, context)


class TestGoldenTranscripts:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_engine_replay_is_exact(self, family):
        data = _load(family)
        model, batch, theta = golden_specs.market_from_fixture(data)
        pricer = golden_specs.build_pricer(family, theta)
        result = simulate(model, pricer, arrivals=batch)
        assert result.rounds == golden_specs.GOLDEN_ROUNDS
        _assert_matches_golden(result.transcript, data, "%s/engine" % family)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_reference_loop_replay_is_exact(self, family):
        data = _load(family)
        model, batch, theta = golden_specs.market_from_fixture(data)
        pricer = golden_specs.build_pricer(family, theta)
        result = simulate_reference(model, pricer, batch.to_arrivals())
        _assert_matches_golden(result.transcript, data, "%s/reference" % family)

    @pytest.mark.parametrize("chunk_size", GOLDEN_CHUNK_SIZES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_chunked_replay_is_exact(self, family, chunk_size):
        data = _load(family)
        model, batch, theta = golden_specs.market_from_fixture(data)
        pricer = golden_specs.build_pricer(family, theta)
        result = run_batch_chunked(model, pricer, arrivals=batch, chunk_size=chunk_size)
        _assert_matches_golden(
            result.transcript, data, "%s/chunked[%d]" % (family, chunk_size)
        )

    def test_fixtures_are_committed_for_every_family(self):
        for family in FAMILIES:
            assert os.path.exists(golden_specs.fixture_path(family))

    def test_golden_markets_are_nontrivial(self):
        # Guards against a silently degenerate fixture (no sales, or a
        # learning pricer whose accept/reject feedback never varies) that
        # would make the equality assertions vacuous.  The risk-averse and
        # constant-markup baselines legitimately sell every round (they post
        # at or near the reserve, which sits below the market value).
        for family in FAMILIES:
            data = _load(family)
            sold = int(np.count_nonzero(data["expected_sold"]))
            assert sold > 0, family
            if family in ("ellipsoid-reserve", "ellipsoid-uncertainty", "one-dim", "sgd"):
                assert 0 < sold < data["expected_sold"].shape[0], family
