"""Columnar simulation engine.

This package is the performance core of the repository: it materialises whole
horizons of query arrivals as contiguous arrays (:mod:`repro.engine.arrivals`),
records simulation transcripts as preallocated columns
(:mod:`repro.engine.transcript`), drives pricers through batched or lean
sequential strategies (:mod:`repro.engine.runner`), and fans
(pricer × seed × scenario) experiment grids across workers
(:mod:`repro.engine.runmatrix`).

The engine is *provably transcript-identical* to the legacy sequential loop,
which is preserved verbatim in :mod:`repro.engine.reference` and pinned by the
equivalence test suite — see ``docs/architecture.md`` for the layering and the
exactness contract.
"""

from repro.engine.arrivals import ArrivalBatch, MaterializedArrivals, as_batch, materialize
from repro.engine.checkpoint import (
    CheckpointError,
    PricerCheckpoint,
    deserialize_state,
    load_checkpoint,
    load_result,
    restore_pricer,
    save_checkpoint,
    save_result,
    serialize_state,
)
from repro.engine.equivalence import assert_bit_exact, state_equal
from repro.engine.records import QueryArrival, RoundOutcome
from repro.engine.reference import simulate_reference
from repro.engine.results import SimulationResult
from repro.engine.runmatrix import (
    MarketScenario,
    RunCell,
    RunCellError,
    RunMatrix,
    RunMatrixResult,
)
from repro.engine.runner import prepare, run_batch_chunked, simulate
from repro.engine.streaming import StreamedRound, stream_rounds
from repro.engine.transcript import Transcript, TranscriptRows

__all__ = [
    "ArrivalBatch",
    "CheckpointError",
    "assert_bit_exact",
    "MaterializedArrivals",
    "MarketScenario",
    "PricerCheckpoint",
    "QueryArrival",
    "RoundOutcome",
    "RunCell",
    "RunCellError",
    "RunMatrix",
    "RunMatrixResult",
    "SimulationResult",
    "StreamedRound",
    "Transcript",
    "TranscriptRows",
    "as_batch",
    "deserialize_state",
    "load_checkpoint",
    "load_result",
    "materialize",
    "prepare",
    "restore_pricer",
    "run_batch_chunked",
    "save_checkpoint",
    "save_result",
    "serialize_state",
    "simulate",
    "simulate_reference",
    "state_equal",
    "stream_rounds",
]
