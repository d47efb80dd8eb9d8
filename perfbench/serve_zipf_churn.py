"""``serve_zipf_churn``: store writes beside store reads.

Synchronous ``quote()``/``feedback()`` events address sessions drawn from a
Zipf(1.1) law over a universe ten times the registry's residency cap, so the
popular head stays resident while the tail cycles through persist on evict
and zero-copy hydrate from mmap segment snapshots.  Session ``r`` runs
algorithm version ``r mod 4`` and replays the market from its own first
round, so each session is the same stream however the events interleave.
A warm-up in set-up brings the store to steady churn before the window.

Sessions age through the window, so later events cut less and cost less.
Every figure is therefore taken over the same work: the window's first
``MEASURED_BLOCKS`` blocks of events.  The window runs on past the deadline
until they are done, and on to the deadline when they finish early (those
events are checked, not measured).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

import numpy as np

from perfbench import common, program, tracer as tracing

UNIVERSE = 20_000
CAPACITY = 2_048
ZIPF_A = 1.1
MARKET_ROUNDS = 4_000
WARMUP_EVENTS = 10_000
#: Events drawn up front; the stream wraps around beyond them.
STREAM = 1 << 19
#: Events per block: the window is a whole number of blocks.
BLOCK = 2_048
#: Blocks every figure is taken over: ops_per_s, the latency percentiles
#: and the regret ratio cover them, and peak RSS and resident bytes are read
#: after them: 10–20 s of events on a 2.1 GHz Xeon vCPU.
MEASURED_BLOCKS = 40


class ServeZipfChurn:
    name = "serve_zipf_churn"

    def __init__(self, seed: int, universe: int = UNIVERSE, capacity: int = CAPACITY,
                 warmup: int = WARMUP_EVENTS, market_rounds: int = MARKET_ROUNDS,
                 block: int = BLOCK, blocks: int = MEASURED_BLOCKS,
                 workdir: str = common.TMP_DIR) -> None:
        self.seed = seed
        self.block = block
        self.blocks = blocks
        self.universe = universe
        self.capacity = capacity
        self.warmup = warmup
        self.market_rounds = market_rounds
        self.workdir = workdir
        self.shape = {
            "universe": universe,
            "max_sessions": capacity,
            "zipf_a": ZIPF_A,
            "snapshot_format": "segment",
            "market_rounds": market_rounds,
            "warmup_events": warmup,
            "measured_events": blocks * block,
            **common.FIG4,
        }
        self.snapshot_dir = None
        self.registry = None

    def prepare(self, tracer) -> None:
        self.environment, self.materialized = common.build_market(
            self.seed, self.market_rounds, tracer
        )
        self.rows = common.Rows(self.materialized)
        rng = np.random.default_rng([self.seed, 0x5A1F])
        pmf = np.arange(1, self.universe + 1, dtype=np.float64) ** -ZIPF_A
        self.ranks = rng.choice(self.universe, size=STREAM, p=pmf / pmf.sum()).astype(np.int32)
        versions = program.ALGORITHM_VERSIONS
        self.keys = [
            program.SessionKey(
                "zipf", "seed%d/r%05d/%s" % (self.seed, rank, common.VERSION_SHORT[versions[rank % 4]])
            )
            for rank in range(self.universe)
        ]
        self.version_of = {key: versions[rank % 4] for rank, key in enumerate(self.keys)}

    def start(self, tracer) -> None:
        self.tracer = tracer
        self.tally = tracing.CoreTally()
        environment, version_of, tally = self.environment, self.version_of, self.tally

        def factory(key):
            pricer = program.build_pricer_for_version(environment, version_of[key])
            tracing.install_pricer(tracer, pricer, tally)
            return environment.model, pricer

        os.makedirs(self.workdir, exist_ok=True)
        self.snapshot_dir = tempfile.mkdtemp(prefix="zipf-", dir=self.workdir)
        self.registry = program.PricerRegistry(
            factory,
            snapshot_dir=self.snapshot_dir,
            max_sessions=self.capacity,
            snapshot_format="segment",
        )
        self.service = program.QuoteService(self.registry)
        self.waits = tracing.install_service(tracer, self.service)
        self.session_round = np.zeros(self.universe, dtype=np.int64)
        self.cursor = 0
        self._events(self.warmup, None, None)

    def stop(self) -> None:
        if self.registry is not None:
            self.registry.close()
            self.registry = None
        if self.snapshot_dir is not None:
            shutil.rmtree(self.snapshot_dir, ignore_errors=True)
            self.snapshot_dir = None

    def _events(self, count, latency, log) -> None:
        """Run ``count`` quote+feedback events; ``log`` records outcomes."""
        quote, feedback = self.service.quote, self.service.feedback
        rows, keys, ranks, session_round = self.rows, self.keys, self.ranks, self.session_round
        market_rounds = len(rows)
        clock = time.perf_counter
        for _ in range(count):
            rank = int(ranks[self.cursor % STREAM])
            self.cursor += 1
            key = keys[rank]
            row = int(session_round[rank] % market_rounds)
            session_round[rank] += 1
            started = clock()
            response = quote(program.QuoteRequest(key, rows.features[row], rows.reserves[row]))
            if latency is not None:
                latency.add(clock() - started)
            sold = response.sold_at(rows.values[row])
            feedback(program.FeedbackEvent(key, response.quote_id, sold))
            if log is not None:
                log.add(row, response, sold)

    def measure(self, seconds: float) -> dict:
        latency = common.Samples()
        log = EventLog()
        window = common.ServiceWindow(self)
        block_seconds = []
        deadline = common.Deadline(seconds)
        block, measured = self.block, self.blocks
        while len(block_seconds) < measured or not deadline.passed():
            first = len(block_seconds) < measured
            started = time.perf_counter()
            self._events(block, latency if first else None, log if first else None)
            block_seconds.append(time.perf_counter() - started)
            if len(block_seconds) == measured:
                rss = common.rss_peak_mb()
                resident_bytes = common.store_counters(self.registry)["resident_bytes"]
        wall = time.perf_counter() - deadline.start
        regret, value = log.regret_totals(self.materialized)
        result = window.close()
        result.update({
            "wall_s": wall,
            "attempted": len(block_seconds) * block,
            "unit_seconds": block_seconds,
            "ops_per_s": measured * block / sum(block_seconds[:measured]),
            "latency": latency,
            "regret_ratio": regret / value,
            "rss_peak_mb": rss,
            "resident_bytes": resident_bytes,
            "resident": self.registry.resident_count,
        })
        return result

    def check(self, result: dict) -> int:
        events = result["attempted"]
        served = result["service_delta"]["quotes_served"]
        settled = result["service_delta"]["feedback_applied"]
        if not served == settled == events:
            raise common.CheckFailed(
                "serve_zipf_churn: %d events, %d served, %d settled" % (events, served, settled)
            )
        after = result["store_after"]
        hydrated = after["zero_copy_hydrations"] + after["legacy_hydrations"]
        if hydrated + after["created"] != after["opened"]:
            raise common.CheckFailed(
                "serve_zipf_churn: zero_copy + legacy + created = %d != opened = %d"
                % (hydrated + after["created"], after["opened"])
            )
        if result["resident"] > self.capacity:
            raise common.CheckFailed(
                "serve_zipf_churn: %d sessions resident over a cap of %d"
                % (result["resident"], self.capacity)
            )
        return 0

    def end_to_end(self, result: dict) -> dict:
        latency = result["latency"]
        return {
            "ops_per_s": result["ops_per_s"],
            "latency_p50_ms": latency.percentile_ms(50),
            "rss_peak_mb": result["rss_peak_mb"],
            "regret_ratio": result["regret_ratio"],
        }


class EventLog:
    """Row index, posted price and sale of every timed event."""

    def __init__(self, capacity: int = common.SAMPLE_CAPACITY) -> None:
        self.row = np.empty(capacity, dtype=np.int32)
        self.posted = np.empty(capacity)
        self.sold = np.empty(capacity, dtype=bool)
        self.count = 0

    def add(self, row, response, sold) -> None:
        i = self.count
        if i < self.row.size:
            self.row[i] = row
            self.posted[i] = np.nan if response.posted_price is None else response.posted_price
            self.sold[i] = sold
            self.count = i + 1

    def regret_totals(self, materialized):
        """Σ regret and Σ market value over the logged events (Eq. 1,
        through the engine's regret pass)."""
        n = self.count
        rows = self.row[:n]
        transcript = program.Transcript(n)
        transcript.market_values[:] = materialized.market_values[rows]
        transcript.reserve_values[:] = materialized.batch.reserve_values[rows]
        transcript.posted_prices[:] = self.posted[:n]
        transcript.sold[:] = self.sold[:n]
        transcript.finalize_regrets()
        return float(transcript.regrets.sum()), float(transcript.market_values.sum())
