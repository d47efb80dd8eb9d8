"""Final pricer state after each golden replay, pinned to the reference loop.

The transcript tier (``test_golden_transcripts.py``) pins what every path
*posts*; this tier pins what every path *leaves behind*.  After replaying a
committed golden market, the pricer's ``state_dict`` — round counter,
bookkeeping counters, knowledge set or learner estimate — must equal the
sequential reference loop's byte for byte (:func:`repro.engine.state_equal`)
through

* the columnar engine (:func:`repro.engine.simulate`),
* the chunked runner (:func:`repro.engine.run_batch_chunked`), which pushes
  the state through a serialise/deserialise round trip at every chunk
  boundary,
* a closed-loop serving session (:func:`repro.serving.serve_closed_loop`).

A counter the engine forgets to advance, or a field a checkpoint drops, can
leave every posted price intact for one horizon and still corrupt a resumed
session; these cases catch it at the horizon's end.
"""

import os

import numpy as np
import pytest

import golden_specs

from repro.engine import (
    prepare,
    run_batch_chunked,
    simulate,
    simulate_reference,
    state_equal,
)
from repro.serving import PricerRegistry, QuoteService, SessionKey, serve_closed_loop

FAMILIES = sorted(golden_specs.GOLDEN_SPECS)

#: Chunk sizes exercised against the reference state (T = 512), the same as
#: the transcript tier's.
GOLDEN_CHUNK_SIZES = (7, 256, 512)


def _load(family):
    path = golden_specs.fixture_path(family)
    assert os.path.exists(path), (
        "golden fixture %s missing; run scripts/make_golden_transcripts.py" % path
    )
    return np.load(path)


def _reference_state(family, model, batch, theta):
    pricer = golden_specs.build_pricer(family, theta)
    simulate_reference(model, pricer, batch.to_arrivals())
    state = pricer.state_dict()
    assert state["round_index"] == golden_specs.GOLDEN_ROUNDS
    return state


@pytest.mark.parametrize("family", FAMILIES)
def test_engine_final_state_matches_reference_loop(family):
    model, batch, theta = golden_specs.market_from_fixture(_load(family))
    pricer = golden_specs.build_pricer(family, theta)
    simulate(model, pricer, arrivals=batch)
    assert state_equal(pricer.state_dict(), _reference_state(family, model, batch, theta))


@pytest.mark.parametrize("chunk_size", GOLDEN_CHUNK_SIZES)
@pytest.mark.parametrize("family", FAMILIES)
def test_chunked_final_state_matches_reference_loop(family, chunk_size):
    model, batch, theta = golden_specs.market_from_fixture(_load(family))
    pricer = golden_specs.build_pricer(family, theta)
    run_batch_chunked(model, pricer, arrivals=batch, chunk_size=chunk_size)
    assert state_equal(pricer.state_dict(), _reference_state(family, model, batch, theta))


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_loop_session_state_matches_reference_loop(family):
    model, batch, theta = golden_specs.market_from_fixture(_load(family))
    key = SessionKey(app="golden", segment=family)
    service = QuoteService(
        PricerRegistry(lambda _key: (model, golden_specs.build_pricer(family, theta)))
    )
    serve_closed_loop(service, key, prepare(model, batch))
    session = service.registry.peek(key)
    assert session is not None
    assert state_equal(
        session.pricer.state_dict(), _reference_state(family, model, batch, theta)
    )
