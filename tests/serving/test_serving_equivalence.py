"""The serving transcript-equivalence contract.

A closed-loop serving session replaying a seeded arrival stream must produce
a transcript **exactly equal (float-for-float)** to the offline engine's
``run_batch``/``simulate`` result — for every golden pricer family.  This is
the serving extension of the engine exactness contract: the same market,
streamed as quote requests with per-round feedback, must not move a single
bit anywhere in the transcript.

Also pinned here: a session split across two service lifetimes (persist →
hydrate from the checkpoint snapshot) stitches to the identical transcript,
so checkpoint-backed sessions are exact, not approximate.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "golden"))
import golden_specs

from repro.engine import prepare, simulate
from repro.engine.equivalence import TRANSCRIPT_COLUMNS, assert_bit_exact
from repro.serving import PricerRegistry, QuoteService, SessionKey, serve_closed_loop

def _serving_setup(family, model, theta):
    key = SessionKey(app="golden", segment=family)
    registry = PricerRegistry(
        lambda _key: (model, golden_specs.build_pricer(family, theta))
    )
    return key, QuoteService(registry)


@pytest.mark.parametrize("family", sorted(golden_specs.GOLDEN_SPECS))
def test_closed_loop_session_matches_offline_engine(family):
    model, batch, theta = golden_specs.build_market(family)
    materialized = prepare(model, batch)
    offline = simulate(
        model, golden_specs.build_pricer(family, theta), materialized=materialized
    )
    key, service = _serving_setup(family, model, theta)
    online = serve_closed_loop(service, key, materialized)
    assert_bit_exact(online.transcript, offline.transcript, family)
    assert service.stats.quotes_served == materialized.rounds
    assert service.stats.feedback_applied == materialized.rounds
    session = service.registry.peek(key)
    assert session is not None
    assert not session.pending  # every quote settled
    assert session.rounds_seen == materialized.rounds


@pytest.mark.parametrize("family", ["ellipsoid-reserve", "sgd", "one-dim"])
def test_hydrated_session_continues_bit_identically(tmp_path, family):
    """persist at round k, restart the service, serve [k, T) — exact stitch."""
    model, batch, theta = golden_specs.build_market(family)
    materialized = prepare(model, batch)
    offline = simulate(
        model, golden_specs.build_pricer(family, theta), materialized=materialized
    )
    split = materialized.rounds // 3

    key = SessionKey(app="golden", segment=family)
    factory = lambda _key: (model, golden_specs.build_pricer(family, theta))

    first_registry = PricerRegistry(factory, snapshot_dir=str(tmp_path))
    first = serve_closed_loop(
        QuoteService(first_registry), key, materialized.slice(0, split)
    )
    assert first_registry.flush() == 1

    second_registry = PricerRegistry(factory, snapshot_dir=str(tmp_path))
    second_service = QuoteService(second_registry)
    second = serve_closed_loop(
        second_service, key, materialized.slice(split, materialized.rounds)
    )
    session = second_registry.peek(key)
    assert session.hydrated
    assert second_registry.stats.hydrations == 1

    stitched = {
        name: np.concatenate(
            [getattr(first.transcript, name), getattr(second.transcript, name)]
        )
        for name in TRANSCRIPT_COLUMNS
    }
    assert_bit_exact(stitched, offline.transcript, family)
