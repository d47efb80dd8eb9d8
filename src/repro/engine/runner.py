"""Columnar simulation runner.

:func:`simulate` drives one posted price mechanism through a batch of arrivals
and returns a transcript-backed result.  Three execution strategies are
dispatched in order:

1. **Vectorised** — pricers that set ``supports_batch_propose`` (the stateless
   baselines) decide the whole horizon in one ``propose_batch`` call; sales
   and feedback are then computed as array operations.
2. **Pricer fast path** — learning pricers whose ``run_batch`` hook returns
   ``True``: the ellipsoid pricer prices the rounds between two knowledge
   cuts as array passes, the one-dimensional and SGD pricers run a lean
   loop; both with the exact arithmetic of propose/update.
3. **Loop fallback** — any other pricer is driven through the classic
   propose/update object protocol, identical to the legacy sequential
   simulator, writing straight into transcript columns.

All three strategies consume the same :class:`~repro.engine.arrivals.
MaterializedArrivals`, so the environment (feature map, link values, noise,
reserve translation) is computed once per market no matter how many pricers
replay it.  Latency tracking always uses the loop fallback: per-round
wall-clock only makes sense around real ``propose``/``update`` calls.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Optional

import numpy as np

from repro.core.noise import NoNoise
from repro.engine.arrivals import MaterializedArrivals, as_batch, materialize
from repro.engine.results import SimulationResult
from repro.engine.transcript import Transcript
from repro.utils.rng import RngLike
from repro.utils.timing import OnlineLatencyTracker


def prepare(model, arrivals, noise=None, rng: RngLike = None) -> MaterializedArrivals:
    """Resolve noise and apply the model to an arrival sequence or batch.

    Missing per-round noise is pre-drawn here — *before* any pricer runs — so
    every pricer simulated over the returned materialisation faces the same
    realization of the market.
    """
    batch = as_batch(arrivals)
    noise_model = noise if noise is not None else NoNoise()
    batch = batch.with_noise(noise_model, rng)
    return materialize(model, batch)


def simulate(
    model,
    pricer,
    arrivals=None,
    noise=None,
    rng: RngLike = None,
    track_latency: bool = False,
    materialized: Optional[MaterializedArrivals] = None,
    pricer_name: Optional[str] = None,
) -> SimulationResult:
    """Simulate one pricer over a batch of arrivals (columnar engine).

    Parameters
    ----------
    model / pricer:
        The market value model and the posted price mechanism under test.
    arrivals:
        Arrival sequence or :class:`ArrivalBatch`; ignored when
        ``materialized`` is supplied.
    noise / rng:
        Noise model and random source used to pre-draw missing per-round noise.
    track_latency:
        Record per-round wall-clock time spent inside the pricer (forces the
        sequential loop fallback, since batched paths have no per-round
        boundary to time).
    materialized:
        Pre-computed :class:`MaterializedArrivals`, shared across pricers by
        :func:`repro.core.simulation.compare_pricers` and the run-matrix
        executor.
    """
    if materialized is None:
        if arrivals is None:
            raise ValueError("either arrivals or materialized must be provided")
        materialized = prepare(model, arrivals, noise=noise, rng=rng)
    transcript = Transcript.for_materialized(materialized)
    latency = OnlineLatencyTracker()

    if track_latency:
        _run_loop(model, pricer, materialized, transcript, latency=latency)
    else:
        _dispatch(model, pricer, materialized, transcript)

    transcript.finalize_regrets()
    return SimulationResult(
        pricer_name=pricer_name or getattr(pricer, "name", type(pricer).__name__),
        transcript=transcript,
        latency=latency,
    )


def run_batch_chunked(
    model,
    pricer,
    arrivals=None,
    noise=None,
    rng: RngLike = None,
    chunk_size: int = 4096,
    materialized: Optional[MaterializedArrivals] = None,
    pricer_name: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    checkpoint_every: int = 1,
    checkpoint_final: bool = True,
) -> SimulationResult:
    """Execute one horizon as a sequence of chunks through checkpoints.

    The horizon is split into ``ceil(T / chunk_size)`` chunks.  Each chunk is
    driven through the same strategy dispatch as :func:`simulate` over a
    zero-copy slice of the materialised market; at every chunk boundary the
    pricer's state is pushed through a full ``state_dict → serialise →
    deserialise → load_state`` round-trip, so the continuation always resumes
    from the serialised snapshot.  The result is **bit-identical** to the
    unchunked run for every chunk size (pinned by the checkpoint property
    tests and the golden-transcript tier).

    Parameters
    ----------
    chunk_size:
        Rounds per chunk (the final chunk may be shorter).
    checkpoint_path:
        Optional file updated atomically at checkpoint boundaries with the
        pricer state, the number of completed rounds, the partial transcript
        columns, and a fingerprint of the materialised market — everything
        needed to resume after a crash.
    resume:
        When true and ``checkpoint_path`` exists, restore the pricer state
        and the completed-round columns from it and continue from where the
        interrupted run stopped.  ``pricer`` must then be a freshly
        constructed instance with the interrupted run's configuration; a
        checkpoint taken against a *different market* is rejected via the
        stored fingerprint.
    checkpoint_every:
        Persist the checkpoint every N-th chunk boundary (the final boundary
        is always written).  Each write contains the whole completed prefix,
        so total checkpoint I/O is ``O(T² / (chunk_size · N))`` — raise N on
        huge horizons with small chunks.
    checkpoint_final:
        Whether to persist the final boundary (default true).  The run
        matrix passes false: it writes the cell's result file immediately
        after this function returns and deletes the chunk checkpoint, so a
        full-horizon final write would never be read.

    Latency tracking is intentionally unsupported here: per-round timing
    forces the sequential loop and gains nothing from chunking — use
    :func:`simulate` with ``track_latency=True``.
    """
    from repro.engine import checkpoint as checkpoint_module

    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1, got %d" % chunk_size)
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1, got %d" % checkpoint_every)
    if materialized is None:
        if arrivals is None:
            raise ValueError("either arrivals or materialized must be provided")
        materialized = prepare(model, arrivals, noise=noise, rng=rng)
    rounds = materialized.rounds
    transcript = Transcript.for_materialized(materialized)
    fingerprint = (
        _market_fingerprint(materialized) if checkpoint_path is not None else None
    )

    start = 0
    if resume and checkpoint_path is not None and os.path.exists(checkpoint_path):
        loaded = checkpoint_module.load_checkpoint(checkpoint_path)
        stored_fingerprint = loaded.meta.get("market_fingerprint")
        if stored_fingerprint is not None and stored_fingerprint != fingerprint:
            raise checkpoint_module.CheckpointError(
                "checkpoint %r was taken against a different market "
                "(fingerprint %s != %s); refusing to resume"
                % (checkpoint_path, stored_fingerprint, fingerprint)
            )
        checkpoint_module.restore_pricer(pricer, loaded)
        start = int(loaded.rounds_done)
        if start > rounds:
            raise checkpoint_module.CheckpointError(
                "checkpoint has %d completed rounds but the horizon is %d"
                % (start, rounds)
            )
        stored = loaded.meta.get("columns", {})
        for name in _DECISION_COLUMNS:
            column = stored.get(name)
            if column is None or column.shape[0] != start:
                raise checkpoint_module.CheckpointError(
                    "checkpoint column %r is missing or mis-sized" % name
                )
            getattr(transcript, name)[:start] = column

    chunk_index = 0
    while start < rounds:
        stop = min(start + chunk_size, rounds)
        chunk = materialized.slice(start, stop)
        chunk_transcript = Transcript.for_materialized(chunk)
        _dispatch(model, pricer, chunk, chunk_transcript)
        for name in _DECISION_COLUMNS:
            getattr(transcript, name)[start:stop] = getattr(chunk_transcript, name)
        start = stop
        chunk_index += 1
        if start < rounds:
            # Resume the next chunk from the serialised snapshot, never from
            # live in-memory state, so incomplete snapshots cannot hide.
            checkpoint_module.roundtrip_state(pricer)
        if checkpoint_path is not None and (
            (start == rounds and checkpoint_final)
            or (start < rounds and chunk_index % checkpoint_every == 0)
        ):
            columns = {
                name: getattr(transcript, name)[:start].copy()
                for name in _DECISION_COLUMNS
            }
            checkpoint_module.save_checkpoint(
                checkpoint_path,
                pricer,
                start,
                meta={"columns": columns, "market_fingerprint": fingerprint},
            )

    transcript.finalize_regrets()
    return SimulationResult(
        pricer_name=pricer_name or getattr(pricer, "name", type(pricer).__name__),
        transcript=transcript,
        latency=OnlineLatencyTracker(),
    )


#: Transcript columns written by the pricer strategies (the environment
#: columns are pre-filled by :meth:`Transcript.for_materialized`, regret is
#: finalised vectorised at the end).
_DECISION_COLUMNS = ("link_prices", "posted_prices", "sold", "skipped", "exploratory")


def _market_fingerprint(materialized: MaterializedArrivals) -> str:
    """A cheap identity digest of one materialised market.

    Stored inside chunked-run checkpoints and verified on resume, so a
    checkpoint taken against one market can never be silently continued on
    another (which would stitch two unrelated half-transcripts together).
    Computed once per run from the realised values and reserves — the two
    columns every decision depends on.
    """
    digest = hashlib.sha1()
    digest.update(b"%d:%d:" % (materialized.rounds, materialized.dimension))
    digest.update(np.ascontiguousarray(materialized.market_values).tobytes())
    digest.update(np.ascontiguousarray(materialized.link_reserves).tobytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #


def _dispatch(model, pricer, materialized: MaterializedArrivals, transcript: Transcript) -> None:
    """Strategy dispatch shared by :func:`simulate` and the chunked runner."""
    if getattr(pricer, "supports_batch_propose", False):
        _run_vectorized(model, pricer, materialized, transcript)
    elif not pricer.run_batch(model, materialized, transcript):
        _run_loop(model, pricer, materialized, transcript, latency=None)


def _run_vectorized(model, pricer, materialized: MaterializedArrivals, transcript: Transcript) -> None:
    """Whole-horizon array path for feedback-independent pricers."""
    decisions = pricer.propose_batch(materialized.mapped_features, materialized.link_reserves)
    if decisions.rounds != materialized.rounds:
        raise ValueError(
            "propose_batch returned %d decisions for %d rounds"
            % (decisions.rounds, materialized.rounds)
        )
    posted = model.link_batch(decisions.link_prices)
    sold = posted <= materialized.market_values
    sold &= ~decisions.skipped
    pricer.update_batch(decisions, sold)
    transcript.link_prices[:] = decisions.link_prices
    transcript.posted_prices[:] = posted
    transcript.sold[:] = sold
    transcript.skipped[:] = decisions.skipped
    transcript.exploratory[:] = decisions.exploratory


def _run_loop(
    model,
    pricer,
    materialized: MaterializedArrivals,
    transcript: Transcript,
    latency: Optional[OnlineLatencyTracker],
) -> None:
    """Sequential propose/update fallback (exact legacy round protocol)."""
    mapped = materialized.mapped_features
    market_values = materialized.market_values
    link_reserves = materialized.link_reserves
    timed = latency is not None
    rounds = materialized.rounds
    for index in range(rounds):
        link_reserve = link_reserves[index]
        reserve = None if np.isnan(link_reserve) else float(link_reserve)

        start = time.perf_counter() if timed else 0.0
        decision = pricer.propose(mapped[index], reserve=reserve)
        elapsed_propose = (time.perf_counter() - start) if timed else 0.0

        if decision.skipped or decision.price is None:
            sold = False
        else:
            link_price = float(decision.price)
            posted_price = model.link(link_price)
            sold = posted_price <= market_values[index]
            transcript.link_prices[index] = link_price
            transcript.posted_prices[index] = posted_price
            transcript.sold[index] = sold

        start = time.perf_counter() if timed else 0.0
        pricer.update(decision, accepted=sold)
        elapsed_update = (time.perf_counter() - start) if timed else 0.0

        if timed:
            # Measured once and reused for both the tracker and the column.
            elapsed = elapsed_propose + elapsed_update
            latency.record(elapsed)
            transcript.latency_seconds[index] = elapsed

        transcript.skipped[index] = decision.skipped
        transcript.exploratory[index] = decision.exploratory
