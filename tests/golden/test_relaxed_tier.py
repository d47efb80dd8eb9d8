"""Relaxed-tier replay of the golden families through the batched backend.

The admission test for a fast math backend (see
:mod:`repro.engine.equivalence`): ``backend="batched"`` must reproduce every
committed golden family within the relaxed-tier tolerances — zero decision
flips on these fixtures, prices/regrets within policy rtol, final knowledge
geometry within policy rtol, cut counters exactly equal — while the default
path on the same process stays byte-identical to the fixture (the relaxed
tier is opt-in, never ambient).
"""

import os

import numpy as np
import pytest

import golden_specs

from repro.engine import simulate
from repro.engine.equivalence import (
    assert_bit_exact,
    assert_regret_curves_close,
    assert_states_close,
    assert_transcripts_close,
    decision_flips,
)

FAMILIES = sorted(golden_specs.GOLDEN_SPECS)

RELAXED = ["batched"]


def _load(family):
    path = golden_specs.fixture_path(family)
    assert os.path.exists(path), (
        "golden fixture %s missing; run scripts/make_golden_transcripts.py" % path
    )
    return np.load(path)


def _golden_columns(data):
    return {
        name: data["expected_%s" % name] for name in golden_specs.GOLDEN_COLUMNS
    }


@pytest.mark.parametrize("backend", RELAXED)
@pytest.mark.parametrize("family", FAMILIES)
class TestRelaxedReplay:
    def test_batched_backend_within_relaxed_policy(self, family, backend):
        data = _load(family)
        model, batch, theta = golden_specs.market_from_fixture(data)
        pricer = golden_specs.build_pricer(family, theta)
        result = simulate(model, pricer, arrivals=batch, backend=backend)
        golden = _golden_columns(data)
        assert decision_flips(result.transcript, golden) == 0, (
            "%s/%s: batched replay flipped decisions on the golden market"
            % (family, backend)
        )
        assert_transcripts_close(
            result.transcript, golden, label="%s/%s" % (family, backend)
        )
        assert_regret_curves_close(
            np.nan_to_num(np.asarray(result.transcript.regrets), nan=0.0),
            np.nan_to_num(np.asarray(golden["regrets"], dtype=float), nan=0.0),
            label="%s/%s regret curve" % (family, backend),
        )

    def test_final_state_matches_reference(self, family, backend):
        data = _load(family)
        model, batch, theta = golden_specs.market_from_fixture(data)
        reference_pricer = golden_specs.build_pricer(family, theta)
        batched_pricer = golden_specs.build_pricer(family, theta)
        simulate(model, reference_pricer, arrivals=batch)
        simulate(model, batched_pricer, arrivals=batch, backend=backend)
        if not hasattr(reference_pricer, "state_dict"):
            pytest.skip("family %s has no checkpointable state" % family)
        assert_states_close(
            batched_pricer.state_dict(),
            reference_pricer.state_dict(),
            label="%s/%s state" % (family, backend),
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_default_path_still_bit_exact(family):
    """The bit-exact tier is unaffected by the relaxed machinery existing."""
    data = _load(family)
    model, batch, theta = golden_specs.market_from_fixture(data)
    pricer = golden_specs.build_pricer(family, theta)
    result = simulate(model, pricer, arrivals=batch)
    columns = {
        name: getattr(result.transcript, name)
        for name in golden_specs.GOLDEN_COLUMNS
    }
    assert_bit_exact(columns, _golden_columns(data), label=family)
