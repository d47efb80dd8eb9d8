"""Run-matrix executor: fan (pricer × seed × scenario) cells across workers.

Every figure and table of the paper is a grid of independent simulation cells
— one market scenario (environment + seed) replayed by one pricer.  The
:class:`RunMatrix` executor materialises each scenario's arrivals **once** and
fans the cells across workers:

* ``serial`` — run in the calling process (the default on single-core hosts),
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; useful when
  the per-cell work is dominated by BLAS calls that release the GIL,
* ``process`` — a fork-based :class:`~concurrent.futures.ProcessPoolExecutor`.
  Scenarios are built and materialised in the parent before the fork, so the
  (read-only) arrival arrays are shared with every worker through
  copy-on-write; only the scenario/pricer keys cross the pipe going in and the
  columnar results coming back.
* ``auto`` — ``process`` when more than one CPU is available and the platform
  supports ``fork``, otherwise ``serial``.

Seeds live in the scenario: a seed sweep registers one scenario per seed (see
:meth:`RunMatrix.add_scenario_sweep`), which keeps a cell fully described by
the ``(scenario, pricer)`` key pair.

Two orthogonal extensions ride on the pricer checkpoint subsystem
(:mod:`repro.engine.checkpoint`):

* **within-cell horizon sharding** (``shard_rounds``) — one huge-``T`` cell is
  executed as a chain of chunks; each chunk may run on a different worker,
  resuming from the previous chunk's serialised state snapshot, and the chunk
  chains of different cells are pipelined across the pool so a long-horizon
  sweep keeps every core busy even when a single cell dominates;
* **resume-after-crash** (``checkpoint_dir``) — each completed cell's result
  is persisted; re-running the same matrix skips finished cells and reloads
  their transcripts from disk.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import re
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine import checkpoint as checkpoint_store
from repro.engine.arrivals import ArrivalBatch, MaterializedArrivals, as_batch, materialize
from repro.engine.results import SimulationResult
from repro.engine.runner import (
    _DECISION_COLUMNS,
    _dispatch,
    _market_fingerprint,
    run_batch_chunked,
    simulate,
)
from repro.engine.transcript import Transcript


class RunCellError(RuntimeError):
    """One run-matrix cell failed; carries the failing cell's identity.

    Worker pools strip tracebacks down to the raised exception, so a bare
    pool error is useless for locating the failing (pricer, seed, scenario)
    cell of a large sweep.  Every executor therefore wraps cell failures in
    this exception, whose message and attributes name the cell.  The seed is
    part of the scenario key (``add_scenario_sweep`` registers
    ``prefix/seed=N`` keys), so the triple is fully identified.
    """

    def __init__(self, scenario: str, pricer: str, message: str) -> None:
        super().__init__(scenario, pricer, message)
        self.scenario = scenario
        self.pricer = pricer

    def __str__(self) -> str:
        return "run-matrix cell (scenario=%r, pricer=%r) failed: %s" % (
            self.scenario,
            self.pricer,
            self.args[2],
        )


@dataclass
class MarketScenario:
    """One fully-specified market: a model plus a (noise-resolved) arrival batch.

    ``context`` carries arbitrary caller data (e.g. the originating
    :class:`~repro.apps.common.AppEnvironment`) so pricer factories can read
    hyper-parameters like the knowledge-ball radius or ε.
    """

    name: str
    model: Any
    batch: ArrivalBatch
    context: Any = None

    def __post_init__(self) -> None:
        self.batch = as_batch(self.batch)
        if self.batch.has_missing_noise:
            raise ValueError(
                "scenario %r has arrivals with undrawn noise; resolve it with "
                "ArrivalBatch.with_noise() so every cell replays the same market"
                % self.name
            )


ScenarioBuilder = Callable[[], MarketScenario]
PricerFactory = Callable[[MarketScenario], Any]


@dataclass(frozen=True)
class RunCell:
    """One cell of the run matrix: a scenario replayed by a pricer."""

    scenario: str
    pricer: str


class RunMatrixResult:
    """Results of a run-matrix execution, keyed by ``(scenario, pricer)``."""

    def __init__(self, results: Dict[RunCell, SimulationResult]) -> None:
        self._results = results

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self):
        return iter(self._results.items())

    def get(self, scenario: str, pricer: str) -> SimulationResult:
        """The result of one cell."""
        return self._results[RunCell(scenario=scenario, pricer=pricer)]

    def by_scenario(self, scenario: str) -> Dict[str, SimulationResult]:
        """All results of one scenario, keyed by pricer name."""
        return {
            cell.pricer: result
            for cell, result in self._results.items()
            if cell.scenario == scenario
        }

    def by_pricer(self, pricer: str) -> Dict[str, SimulationResult]:
        """All results of one pricer, keyed by scenario name."""
        return {
            cell.scenario: result
            for cell, result in self._results.items()
            if cell.pricer == pricer
        }


class RunMatrix:
    """Declarative (pricer × seed × scenario) experiment grid.

    Example
    -------
    >>> matrix = RunMatrix()
    >>> matrix.add_scenario("n=20", lambda: build_scenario(dimension=20))
    ... # doctest: +SKIP
    >>> matrix.add_pricer("pure version", lambda s: make_pricer(...))
    ... # doctest: +SKIP
    >>> results = matrix.run(executor="auto")  # doctest: +SKIP
    """

    def __init__(self) -> None:
        self._scenario_builders: Dict[str, ScenarioBuilder] = {}
        self._pricer_factories: Dict[str, PricerFactory] = {}
        self._cells: List[RunCell] = []
        self._built_scenarios: Dict[str, MarketScenario] = {}
        self._checkpoint_tag = ""

    # ------------------------------------------------------------------ #
    # Declaration
    # ------------------------------------------------------------------ #

    def add_scenario(self, key: str, builder) -> None:
        """Register a scenario under ``key``.

        ``builder`` is either a :class:`MarketScenario` or a zero-argument
        callable returning one (built lazily, once, when first needed).
        """
        if key in self._scenario_builders:
            raise ValueError("scenario %r already registered" % key)
        if isinstance(builder, MarketScenario):
            scenario = builder
            self._scenario_builders[key] = lambda: scenario
        else:
            self._scenario_builders[key] = builder

    def add_scenario_sweep(
        self, prefix: str, builder_for_seed: Callable[[int], MarketScenario], seeds: Iterable[int]
    ) -> List[str]:
        """Register one scenario per seed and return the generated keys."""
        keys = []
        for seed in seeds:
            key = "%s/seed=%d" % (prefix, seed)
            self.add_scenario(key, _SeededBuilder(builder_for_seed, seed))
            keys.append(key)
        return keys

    def add_pricer(self, key: str, factory: PricerFactory) -> None:
        """Register a pricer factory under ``key``.

        The factory receives the cell's :class:`MarketScenario` and must
        return a fresh pricer (cells never share pricer state).
        """
        if key in self._pricer_factories:
            raise ValueError("pricer %r already registered" % key)
        self._pricer_factories[key] = factory

    def add_cell(self, scenario: str, pricer: str) -> None:
        """Add one (scenario, pricer) cell to the grid."""
        if scenario not in self._scenario_builders:
            raise ValueError("unknown scenario %r" % scenario)
        if pricer not in self._pricer_factories:
            raise ValueError("unknown pricer %r" % pricer)
        self._cells.append(RunCell(scenario=scenario, pricer=pricer))

    def add_cross(
        self,
        scenarios: Optional[Sequence[str]] = None,
        pricers: Optional[Sequence[str]] = None,
    ) -> None:
        """Add the full cross product of the given (default: all) keys."""
        for scenario in scenarios if scenarios is not None else self._scenario_builders:
            for pricer in pricers if pricers is not None else self._pricer_factories:
                self.add_cell(scenario, pricer)

    @property
    def cells(self) -> Tuple[RunCell, ...]:
        """The declared cells, in declaration order."""
        return tuple(self._cells)

    @property
    def built_scenarios(self) -> Dict[str, MarketScenario]:
        """Scenarios built by :meth:`run` so far (for metadata access)."""
        return dict(self._built_scenarios)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        executor: str = "auto",
        max_workers: Optional[int] = None,
        track_latency: bool = False,
        shard_rounds: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_tag: Optional[str] = None,
        chunk_checkpoint_every: int = 1,
    ) -> RunMatrixResult:
        """Execute every declared cell and return the result grid.

        ``track_latency`` forces per-round timing, and with it the serial
        executor: the per-round wall-clock the paper reports (Section V-D)
        must not include CPU contention from sibling worker cells, so latency
        runs are serialised across cells as well as within them (sharding is
        disabled for the same reason).

        ``shard_rounds`` enables within-cell horizon sharding: every cell's
        horizon is executed as a chain of ``shard_rounds``-sized chunks
        through pricer state checkpoints.  Under a parallel executor the
        chunk chains of different cells are pipelined across the pool —
        worker N resumes a cell from the serialised snapshot worker N-1
        produced — so one huge-``T`` cell no longer serialises the whole
        sweep behind a single core.  Sharded transcripts are bit-identical
        to unsharded ones (the chunked-execution exactness contract).

        ``checkpoint_dir`` persists every completed cell's result under the
        given directory and, on a re-run, loads finished cells from disk
        instead of re-simulating them — crash/resume for minutes-long sweeps.
        Combined with ``shard_rounds`` the resume is additionally *mid-cell*:
        every chunk boundary of an unfinished cell is persisted as a pricer
        checkpoint (``*.chunk.npz``, the ``run_batch_chunked`` format), so a
        crashed sweep re-runs only the chunks after the last completed
        boundary of the interrupted cell instead of the whole huge-``T``
        horizon.  Chunk files are deleted once their cell's result file is
        written; a stale or foreign chunk file (workload changed under the
        same keys without a ``checkpoint_tag``) is detected via the stored
        market fingerprint and ignored.  Each chunk write persists the whole
        completed prefix, so ``chunk_checkpoint_every=N`` persists only every
        N-th boundary — raise it on huge horizons with small chunks (the
        ``run_batch_chunked(checkpoint_every=...)`` trade-off).
        Cells restored from disk do not re-build their scenario, so results
        are matched purely by file name: pass ``checkpoint_tag`` — a string
        fingerprinting the workload parameters (dimension, horizon, δ, …) —
        whenever the same scenario/pricer keys can describe different
        workloads (e.g. a smoke pass and a full pass sharing one directory).
        The tag is baked into every cell's file name, so a mismatched run
        never silently reuses a foreign result.
        """
        if not self._cells:
            return RunMatrixResult({})
        self._validate_executor(executor)
        if shard_rounds is not None and shard_rounds < 1:
            raise ValueError("shard_rounds must be at least 1, got %d" % shard_rounds)
        if chunk_checkpoint_every < 1:
            raise ValueError(
                "chunk_checkpoint_every must be at least 1, got %d" % chunk_checkpoint_every
            )
        if track_latency:
            executor = "serial"
            shard_rounds = None

        self._checkpoint_tag = checkpoint_tag or ""
        results: Dict[RunCell, SimulationResult] = {}
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
            for cell in self._cells:
                path = _cell_result_path(checkpoint_dir, cell, self._checkpoint_tag)
                if os.path.exists(path):
                    results[cell] = checkpoint_store.load_result(path)
        pending = [cell for cell in self._cells if cell not in results]
        if not pending:
            return RunMatrixResult({cell: results[cell] for cell in self._cells})

        needed = []
        for cell in pending:
            if cell.scenario not in needed:
                needed.append(cell.scenario)

        if executor == "auto" and not self._parallel_worthwhile():
            executor = "serial"
        if executor == "serial":
            # Lazy per-scenario execution: each scenario is built, materialised,
            # replayed by its cells, and its materialisation dropped before the
            # next one — peak memory is one market, not the whole grid.
            for key in needed:
                scenario = self._scenario_builders[key]()
                self._built_scenarios[key] = scenario
                materialized = materialize(scenario.model, scenario.batch)
                for cell in pending:
                    if cell.scenario == key:
                        result = self._run_cell(
                            (scenario, materialized),
                            cell,
                            track_latency,
                            shard_rounds,
                            chunk_checkpoint_path=self._chunk_path(
                                cell, shard_rounds, checkpoint_dir
                            ),
                            chunk_checkpoint_every=chunk_checkpoint_every,
                        )
                        self._store(results, cell, result, checkpoint_dir)
            return RunMatrixResult({cell: results[cell] for cell in self._cells})

        # Parallel executors: build + materialise every scenario up front —
        # thread workers share the arrays directly, process workers inherit
        # them copy-on-write through the fork.
        prepared: Dict[str, Tuple[MarketScenario, MaterializedArrivals]] = {}
        for key in needed:
            scenario = self._scenario_builders[key]()
            prepared[key] = (scenario, materialize(scenario.model, scenario.batch))
            self._built_scenarios[key] = scenario

        if executor == "auto":
            workload = sum(prepared[cell.scenario][1].rounds for cell in pending)
            executor = "process" if workload >= self.AUTO_PROCESS_THRESHOLD else "serial"
            if executor == "serial":
                for cell in pending:
                    result = self._run_cell(
                        prepared[cell.scenario],
                        cell,
                        track_latency,
                        shard_rounds,
                        chunk_checkpoint_path=self._chunk_path(
                            cell, shard_rounds, checkpoint_dir
                        ),
                        chunk_checkpoint_every=chunk_checkpoint_every,
                    )
                    self._store(results, cell, result, checkpoint_dir)
                return RunMatrixResult({cell: results[cell] for cell in self._cells})

        if executor == "thread":
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                if shard_rounds is not None:
                    self._run_sharded(
                        pool,
                        pending,
                        shard_rounds,
                        results,
                        checkpoint_dir,
                        submit=lambda cell, start, stop, blob: pool.submit(
                            _run_chunk,
                            prepared[cell.scenario],
                            self._pricer_factories[cell.pricer],
                            cell,
                            start,
                            stop,
                            blob,
                        ),
                        rounds_of=lambda cell: prepared[cell.scenario][1].rounds,
                        transcript_for=lambda cell: Transcript.for_materialized(
                            prepared[cell.scenario][1]
                        ),
                        materialized_of=lambda cell: prepared[cell.scenario][1],
                        chunk_checkpoint_every=chunk_checkpoint_every,
                    )
                else:
                    futures = {
                        cell: pool.submit(
                            self._run_cell,
                            prepared[cell.scenario],
                            cell,
                            track_latency,
                            None,
                        )
                        for cell in pending
                    }
                    for cell, future in futures.items():
                        self._store(results, cell, future.result(), checkpoint_dir)
            return RunMatrixResult({cell: results[cell] for cell in self._cells})

        # Fork-based process pool: expose the prepared scenarios and factories
        # through a module-level registry so workers reach them via
        # copy-on-write and only the run token + cell keys are pickled.  The
        # registry is keyed per run, so overlapping runs (nested matrices,
        # threads) never clobber each other's state.
        token = "%d-%d" % (os.getpid(), next(_RUN_TOKENS))
        _WORKER_STATES[token] = (prepared, dict(self._pricer_factories), track_latency)
        try:
            context = multiprocessing.get_context("fork")
            workers = max_workers or min(len(pending), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                if shard_rounds is not None:
                    self._run_sharded(
                        pool,
                        pending,
                        shard_rounds,
                        results,
                        checkpoint_dir,
                        submit=lambda cell, start, stop, blob: pool.submit(
                            _run_chunk_in_worker, token, cell, start, stop, blob
                        ),
                        rounds_of=lambda cell: prepared[cell.scenario][1].rounds,
                        transcript_for=lambda cell: Transcript.for_materialized(
                            prepared[cell.scenario][1]
                        ),
                        materialized_of=lambda cell: prepared[cell.scenario][1],
                        chunk_checkpoint_every=chunk_checkpoint_every,
                    )
                else:
                    futures = {
                        cell: pool.submit(_run_cell_in_worker, token, cell)
                        for cell in pending
                    }
                    for cell, future in futures.items():
                        self._store(results, cell, future.result(), checkpoint_dir)
            return RunMatrixResult({cell: results[cell] for cell in self._cells})
        finally:
            _WORKER_STATES.pop(token, None)

    def _run_sharded(
        self,
        pool,
        cells: Sequence[RunCell],
        shard_rounds: int,
        results: Dict[RunCell, SimulationResult],
        checkpoint_dir: Optional[str],
        submit,
        rounds_of,
        transcript_for,
        materialized_of=None,
        chunk_checkpoint_every: int = 1,
    ) -> None:
        """Pipeline the chunk chains of ``cells`` across a worker pool.

        Chunks of one cell are strictly ordered (chunk ``k+1`` resumes from
        the serialised pricer state chunk ``k`` returned), but chunks of
        *different* cells interleave freely: at any moment each unfinished
        cell has exactly one chunk in flight, so the pool stays busy as long
        as there are more unfinished cells than workers — and a single
        huge-horizon cell still makes forward progress chunk by chunk.

        With ``checkpoint_dir`` set, every ``chunk_checkpoint_every``-th
        completed chunk boundary is additionally persisted as a pricer
        checkpoint (state + completed transcript prefix + market
        fingerprint, the ``run_batch_chunked`` on-disk format), and cells
        whose chunk file survives a crash resume from its boundary instead
        of round zero.  The final boundary is never persisted — the cell's
        result file is written in the same step and supersedes it.
        """
        transcripts: Dict[RunCell, Transcript] = {}
        state_blobs: Dict[RunCell, Optional[bytes]] = {}
        chunk_paths: Dict[RunCell, str] = {}
        fingerprints: Dict[RunCell, str] = {}
        in_flight = {}

        def _submit_next(cell: RunCell, start: int) -> None:
            stop = min(start + shard_rounds, rounds_of(cell))
            future = submit(cell, start, stop, state_blobs.get(cell))
            in_flight[future] = (cell, start, stop)

        for cell in cells:
            transcripts[cell] = transcript_for(cell)
            state_blobs[cell] = None
            start = 0
            if checkpoint_dir is not None and materialized_of is not None:
                chunk_paths[cell] = _cell_chunk_path(
                    checkpoint_dir, cell, self._checkpoint_tag
                )
                fingerprints[cell] = _market_fingerprint(materialized_of(cell))
                start = self._restore_chunk_progress(
                    chunk_paths[cell], fingerprints[cell], rounds_of(cell),
                    transcripts[cell], state_blobs, cell,
                )
            if rounds_of(cell) <= start:
                self._store(
                    results, cell, _finalize_cell(cell, transcripts[cell]), checkpoint_dir
                )
            else:
                _submit_next(cell, start)

        while in_flight:
            done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
            for future in done:
                cell, start, stop = in_flight.pop(future)
                columns, blob, pricer_type = future.result()
                transcript = transcripts[cell]
                for name in _DECISION_COLUMNS:
                    getattr(transcript, name)[start:stop] = columns[name]
                state_blobs[cell] = blob
                boundary = (stop + shard_rounds - 1) // shard_rounds
                if (
                    cell in chunk_paths
                    and stop < rounds_of(cell)
                    and boundary % chunk_checkpoint_every == 0
                ):
                    prefix = {
                        name: getattr(transcript, name)[:stop].copy()
                        for name in _DECISION_COLUMNS
                    }
                    checkpoint_store.save_state_checkpoint(
                        chunk_paths[cell],
                        pricer_type,
                        stop,
                        checkpoint_store.deserialize_state(blob),
                        meta={
                            "columns": prefix,
                            "market_fingerprint": fingerprints[cell],
                        },
                    )
                if stop < rounds_of(cell):
                    _submit_next(cell, stop)
                else:
                    self._store(
                        results, cell, _finalize_cell(cell, transcript), checkpoint_dir
                    )

    def _restore_chunk_progress(
        self,
        chunk_path: str,
        fingerprint: str,
        rounds: int,
        transcript: Transcript,
        state_blobs: Dict[RunCell, Optional[bytes]],
        cell: RunCell,
    ) -> int:
        """Load one cell's mid-cell chunk checkpoint, if a valid one exists.

        Returns the round to resume from (0 when there is no usable file).
        A file whose market fingerprint does not match, whose columns are
        mis-sized, or that is unreadable is treated as absent — the cell
        simply re-runs from scratch and overwrites it at the next boundary.
        """
        if not os.path.exists(chunk_path):
            return 0
        try:
            loaded = checkpoint_store.load_checkpoint(chunk_path)
        except (checkpoint_store.CheckpointError, OSError):
            # Malformed or unreadable (e.g. unlinked by a concurrent sweep
            # between the existence check and the open) — run from scratch.
            return 0
        if loaded.meta.get("market_fingerprint") != fingerprint:
            return 0
        done = int(loaded.rounds_done)
        if not 0 < done <= rounds:
            return 0
        columns = loaded.meta.get("columns", {})
        for name in _DECISION_COLUMNS:
            column = columns.get(name)
            if column is None or column.shape[0] != done:
                return 0
        for name in _DECISION_COLUMNS:
            getattr(transcript, name)[:done] = columns[name]
        state_blobs[cell] = checkpoint_store.serialize_state(loaded.state)
        return done

    def _store(
        self,
        results: Dict[RunCell, SimulationResult],
        cell: RunCell,
        result: SimulationResult,
        checkpoint_dir: Optional[str],
    ) -> None:
        results[cell] = result
        if checkpoint_dir is not None:
            checkpoint_store.save_result(
                _cell_result_path(checkpoint_dir, cell, self._checkpoint_tag), result
            )
            # The cell is complete; its mid-cell progress file (if any) is
            # superseded by the result file.
            chunk_path = _cell_chunk_path(checkpoint_dir, cell, self._checkpoint_tag)
            try:
                os.unlink(chunk_path)
            except OSError:
                pass

    def _chunk_path(
        self, cell: RunCell, shard_rounds: Optional[int], checkpoint_dir: Optional[str]
    ) -> Optional[str]:
        """The mid-cell chunk checkpoint path, when both features are on."""
        if shard_rounds is None or checkpoint_dir is None:
            return None
        return _cell_chunk_path(checkpoint_dir, cell, self._checkpoint_tag)

    def _run_cell(
        self,
        prepared: Tuple[MarketScenario, MaterializedArrivals],
        cell: RunCell,
        track_latency: bool,
        shard_rounds: Optional[int] = None,
        chunk_checkpoint_path: Optional[str] = None,
        chunk_checkpoint_every: int = 1,
    ) -> SimulationResult:
        scenario, materialized = prepared
        try:
            pricer = self._pricer_factories[cell.pricer](scenario)
            if shard_rounds is not None:
                if chunk_checkpoint_path is None:
                    return run_batch_chunked(
                        scenario.model,
                        pricer,
                        materialized=materialized,
                        chunk_size=shard_rounds,
                        pricer_name=cell.pricer,
                    )
                try:
                    return run_batch_chunked(
                        scenario.model,
                        pricer,
                        materialized=materialized,
                        chunk_size=shard_rounds,
                        pricer_name=cell.pricer,
                        checkpoint_path=chunk_checkpoint_path,
                        resume=True,
                        checkpoint_every=chunk_checkpoint_every,
                        checkpoint_final=False,
                    )
                except checkpoint_store.CheckpointError:
                    # Stale or foreign chunk file (e.g. the workload changed
                    # under unchanged keys) — drop it and run the cell fresh
                    # on a clean pricer.
                    try:
                        os.unlink(chunk_checkpoint_path)
                    except OSError:
                        pass
                    pricer = self._pricer_factories[cell.pricer](scenario)
                    return run_batch_chunked(
                        scenario.model,
                        pricer,
                        materialized=materialized,
                        chunk_size=shard_rounds,
                        pricer_name=cell.pricer,
                        checkpoint_path=chunk_checkpoint_path,
                        checkpoint_every=chunk_checkpoint_every,
                        checkpoint_final=False,
                    )
            return simulate(
                scenario.model,
                pricer,
                materialized=materialized,
                track_latency=track_latency,
                pricer_name=cell.pricer,
            )
        except RunCellError:
            raise
        except Exception as exc:
            raise RunCellError(
                cell.scenario, cell.pricer, "%s: %s" % (type(exc).__name__, exc)
            ) from exc

    #: Minimum total round-cells before "auto" pays the fork overhead of the
    #: process executor.
    AUTO_PROCESS_THRESHOLD = 200_000

    def _validate_executor(self, executor: str) -> None:
        if executor not in ("auto", "serial", "thread", "process"):
            raise ValueError(
                "executor must be one of 'auto', 'serial', 'thread', 'process', got %r"
                % executor
            )
        if executor == "process" and "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(
                "the process executor requires the 'fork' start method; "
                "use executor='thread' or 'serial' on this platform"
            )

    def _parallel_worthwhile(self) -> bool:
        """Whether "auto" should even consider the process executor."""
        fork_available = "fork" in multiprocessing.get_all_start_methods()
        return (os.cpu_count() or 1) >= 2 and fork_available and len(self._cells) >= 2


class _SeededBuilder:
    """Picklable zero-argument builder binding a seed to a seed-taking builder."""

    def __init__(self, builder_for_seed: Callable[[int], MarketScenario], seed: int) -> None:
        self._builder = builder_for_seed
        self._seed = seed

    def __call__(self) -> MarketScenario:
        return self._builder(self._seed)


#: Per-run worker state, registered by :meth:`RunMatrix.run` immediately
#: before forking process workers and removed when the run completes.
_WORKER_STATES: Dict[str, Tuple[dict, dict, bool]] = {}
_RUN_TOKENS = itertools.count()


def _run_cell_in_worker(token: str, cell: RunCell) -> SimulationResult:
    """Process-pool entry point: run one cell from the fork-inherited state."""
    state = _WORKER_STATES.get(token)
    if state is None:  # pragma: no cover - defensive
        raise RuntimeError(
            "run-matrix worker state %r missing (not forked from run()?)" % token
        )
    prepared, factories, track_latency = state
    scenario, materialized = prepared[cell.scenario]
    try:
        pricer = factories[cell.pricer](scenario)
        return simulate(
            scenario.model,
            pricer,
            materialized=materialized,
            track_latency=track_latency,
            pricer_name=cell.pricer,
        )
    except Exception as exc:
        # RunCellError pickles cleanly across the pool pipe (its args are the
        # three strings), so the parent sees the failing cell's identity
        # instead of a bare traceback-less pool error.
        raise RunCellError(
            cell.scenario, cell.pricer, "%s: %s" % (type(exc).__name__, exc)
        ) from exc


def _run_chunk_in_worker(
    token: str, cell: RunCell, start: int, stop: int, state_blob: Optional[bytes]
):
    """Process-pool entry point: run one chunk of one sharded cell."""
    state = _WORKER_STATES.get(token)
    if state is None:  # pragma: no cover - defensive
        raise RuntimeError(
            "run-matrix worker state %r missing (not forked from run()?)" % token
        )
    prepared, factories, _track_latency = state
    return _run_chunk(
        prepared[cell.scenario], factories[cell.pricer], cell, start, stop, state_blob
    )


def _run_chunk(
    prepared: Tuple[MarketScenario, MaterializedArrivals],
    factory: PricerFactory,
    cell: RunCell,
    start: int,
    stop: int,
    state_blob: Optional[bytes],
):
    """Run rounds ``[start, stop)`` of one cell from a serialised snapshot.

    A *fresh* pricer is built for every chunk and the previous chunk's
    serialised state is loaded into it — the same restore path a
    crash-resume would take, so the sharded executor continuously exercises
    the checkpoint contract.  Returns the chunk's decision columns, the
    serialised state after the chunk, and the pricer's type name (recorded
    in mid-cell chunk checkpoints so a serial ``run_batch_chunked`` resume
    can type-check against them).
    """
    scenario, materialized = prepared
    try:
        pricer = factory(scenario)
        if state_blob is not None:
            pricer.load_state(checkpoint_store.deserialize_state(state_blob))
        chunk = materialized.slice(start, stop)
        transcript = Transcript.for_materialized(chunk)
        _dispatch(scenario.model, pricer, chunk, transcript)
        columns = {name: getattr(transcript, name) for name in _DECISION_COLUMNS}
        return columns, checkpoint_store.serialize_state(pricer.state_dict()), type(pricer).__name__
    except Exception as exc:
        raise RunCellError(
            cell.scenario,
            cell.pricer,
            "chunk [%d, %d): %s: %s" % (start, stop, type(exc).__name__, exc),
        ) from exc


def _finalize_cell(cell: RunCell, transcript: Transcript) -> SimulationResult:
    transcript.finalize_regrets()
    return SimulationResult(pricer_name=cell.pricer, transcript=transcript)


def _cell_result_path(checkpoint_dir: str, cell: RunCell, tag: str = "") -> str:
    """A stable, filesystem-safe result path for one (scenario, pricer) cell.

    The workload ``tag`` participates in the digest, so two sweeps sharing
    scenario/pricer keys but differing in workload parameters never collide.
    """
    digest = hashlib.sha1(
        ("%s\x00%s\x00%s" % (cell.scenario, cell.pricer, tag)).encode("utf-8")
    ).hexdigest()[:12]
    slug = re.sub(r"[^A-Za-z0-9._=-]+", "-", "%s__%s" % (cell.scenario, cell.pricer))
    return os.path.join(checkpoint_dir, "%s-%s.result.npz" % (slug[:80], digest))


def _cell_chunk_path(checkpoint_dir: str, cell: RunCell, tag: str = "") -> str:
    """The mid-cell chunk-checkpoint path of one sharded (scenario, pricer) cell.

    Shares the result-file naming scheme (slug + workload-tagged digest) with
    a distinct suffix, so the two artifact kinds of one cell sit next to each
    other and never collide across workloads.
    """
    return _cell_result_path(checkpoint_dir, cell, tag)[: -len(".result.npz")] + ".chunk.npz"
