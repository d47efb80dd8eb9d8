"""Pieces shared by the workloads: the fig4 market, outcome buffers, checks."""

from __future__ import annotations

import resource
import time
from typing import Dict, List

import numpy as np

from perfbench import program
from perfbench.stats import MIN_TAIL_SAMPLES, nearest_rank

#: The paper's Fig. 4 market shape (Section V-A): n = 20, δ = 0.01, with
#: the 200-owner population the repo's engine bench uses.
FIG4 = {"dimension": 20, "owner_count": 200, "delta": 0.01}

#: Short names of the four algorithm versions, in ALGORITHM_VERSIONS order.
VERSION_SHORT = {
    "pure version": "pure",
    "with uncertainty": "uncertainty",
    "with reserve price": "reserve",
    "with reserve price and uncertainty": "reserve-uncertainty",
}

#: Temporary files of a run (segment snapshots, the unix socket) and the span
#: files of a traced run, relative to the working directory.
TMP_DIR = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"

#: Samples a latency buffer holds; a run records at most this many.
SAMPLE_CAPACITY = 1 << 21


class CheckFailed(Exception):
    """An output check failed; the run prints no numbers."""


def build_environment(seed: int, rounds: int, tracer=None):
    """One fig4-shaped market environment of ``rounds`` arrivals."""
    config = program.NoisyLinearQueryConfig(rounds=rounds, seed=seed, **FIG4)
    build = program.build_noisy_query_environment
    if tracer is not None:
        build = tracer.wrap(build, "market.build")
    environment = build(config)
    environment.arrival_batch()
    return environment


def build_market(seed: int, rounds: int, tracer=None):
    """A fig4-shaped environment and its materialisation."""
    environment = build_environment(seed, rounds, tracer)
    return environment, program.prepare(environment.model, environment.arrival_batch())


class Rows:
    """A materialised market as plain per-round lists (the load generator's input)."""

    def __init__(self, materialized) -> None:
        rounds = list(program.stream_rounds(materialized))
        self.features = [r.features for r in rounds]
        self.reserves = [r.reserve for r in rounds]
        self.values = [r.market_value for r in rounds]

    def __len__(self) -> int:
        return len(self.values)


class Samples:
    """Latency samples in a preallocated array (no growth with run length)."""

    def __init__(self, capacity: int = SAMPLE_CAPACITY) -> None:
        self.values = np.empty(capacity)
        self.count = 0

    def add(self, seconds: float) -> None:
        if self.count < self.values.size:
            self.values[self.count] = seconds
            self.count += 1

    def view(self) -> np.ndarray:
        return self.values[: self.count]

    def percentile_ms(self, percentile: float) -> float:
        """A median needs one sample; a tail percentile ten beyond it."""
        min_beyond = 0 if percentile <= 50 else MIN_TAIL_SAMPLES
        return 1e3 * nearest_rank(self.view(), percentile, min_beyond)


class Outcomes:
    """Per-session outcome columns of one horizon (reused across epochs)."""

    COLUMNS = ("link_prices", "posted_prices", "sold", "skipped", "exploratory")

    def __init__(self, sessions: int, horizon: int) -> None:
        self.link_prices = np.empty((sessions, horizon))
        self.posted_prices = np.empty((sessions, horizon))
        self.sold = np.empty((sessions, horizon), dtype=bool)
        self.skipped = np.empty((sessions, horizon), dtype=bool)
        self.exploratory = np.empty((sessions, horizon), dtype=bool)
        self.reset()

    def reset(self) -> None:
        self.link_prices.fill(np.nan)
        self.posted_prices.fill(np.nan)
        self.sold.fill(False)
        self.skipped.fill(False)
        self.exploratory.fill(False)

    def record(self, session: int, index: int, link_price, posted_price, sold, skipped, exploratory) -> None:
        if link_price is not None:
            self.link_prices[session, index] = link_price
            self.posted_prices[session, index] = posted_price
            self.sold[session, index] = sold
        self.skipped[session, index] = skipped
        self.exploratory[session, index] = exploratory

    def copy(self) -> "Outcomes":
        twin = Outcomes.__new__(Outcomes)
        for name in self.COLUMNS:
            setattr(twin, name, getattr(self, name).copy())
        return twin

    def equals(self, other: "Outcomes") -> bool:
        return all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
            for name in self.COLUMNS
        )


class SegmentedMarket:
    """One fig4 market cut into segments of ``horizon`` rounds.

    Session ``j`` of an epoch replays segment ``plan[j][0]`` with algorithm
    version ``plan[j][1]``: every version on every segment.
    """

    def __init__(self, seed: int, segments: int, horizon: int, tracer=None) -> None:
        self.seed = seed
        self.horizon = horizon
        self.environment, materialized = build_market(seed, segments * horizon, tracer)
        self.segments = [
            materialized.slice(j * horizon, (j + 1) * horizon) for j in range(segments)
        ]
        self.rows = Rows(materialized)
        self.plan = [
            (segment, version)
            for segment in range(segments)
            for version in program.ALGORITHM_VERSIONS
        ]
        self.offsets = [segment * horizon for segment, _version in self.plan]

    @property
    def quotes_per_epoch(self) -> int:
        return len(self.plan) * self.horizon

    def keys(self, epoch: int) -> list:
        """Fresh session keys for one epoch; the last path part names the
        version (the socket server reads it back)."""
        return [
            program.SessionKey(
                "fig4", "seed%d/e%d/s%d/%s" % (self.seed, epoch, segment, VERSION_SHORT[version])
            )
            for segment, version in self.plan
        ]

    def offline(self) -> Outcomes:
        """Offline ``simulate`` of each session's version over its own rows."""
        expected = Outcomes(len(self.plan), self.horizon)
        for session, (segment, version) in enumerate(self.plan):
            pricer = program.build_pricer_for_version(self.environment, version)
            transcript = program.simulate(
                self.environment.model, pricer, materialized=self.segments[segment]
            ).transcript
            for name in Outcomes.COLUMNS:
                getattr(expected, name)[session] = getattr(transcript, name)
        return expected

    def regret_ratio(self, outcomes: Outcomes) -> float:
        """Σ regret / Σ market value of one epoch (Eq. 1), through the
        engine's own regret pass over the served columns."""
        regret = value = 0.0
        for session, (segment, _version) in enumerate(self.plan):
            transcript = program.Transcript.for_materialized(self.segments[segment])
            for name in Outcomes.COLUMNS:
                getattr(transcript, name)[:] = getattr(outcomes, name)[session]
            transcript.finalize_regrets()
            regret += float(transcript.regrets.sum())
            value += float(transcript.market_values.sum())
        return regret / value


class Epochs:
    """The timed epochs of a serving workload.

    Every epoch replays the same rows with fresh sessions, so every epoch
    must produce the first epoch's outcomes, and every epoch is the same
    work: the window's figures are medians over its epochs.
    """

    def __init__(self, outcomes: Outcomes) -> None:
        self.outcomes = outcomes
        self.first = None
        self.mismatched = 0
        self.seconds: List[float] = []
        self.sample_ends: List[int] = []

    def add(self, seconds: float, sample_end: int) -> None:
        """Close an epoch that took ``seconds`` and whose latency samples
        end at index ``sample_end``."""
        self.seconds.append(seconds)
        self.sample_ends.append(sample_end)
        if self.first is None:
            self.first = self.outcomes.copy()
        elif not self.outcomes.equals(self.first):
            self.mismatched += 1

    def __len__(self) -> int:
        return len(self.seconds)

    def rate(self, ops_per_epoch: int) -> float:
        """Ops per second of the median epoch."""
        return ops_per_epoch / float(np.median(self.seconds))

    def median_p50_ms(self, latency: "Samples") -> float:
        """The median over epochs of each epoch's latency p50 (epochs past
        the sample buffer's capacity have no samples and are left out)."""
        values = latency.view()
        bounds = [0] + self.sample_ends
        return float(np.median([
            1e3 * nearest_rank(values[lo:hi], 50, 0)
            for lo, hi in zip(bounds, bounds[1:]) if hi > lo
        ]))


def check_epochs(name: str, market: SegmentedMarket, epochs: Epochs) -> None:
    """The serving contract: every epoch equals the first, and the first is
    bit-identical to offline ``simulate``."""
    if epochs.mismatched:
        raise CheckFailed("%s: %d epochs differ from the first" % (name, epochs.mismatched))
    served, expected = epochs.first, market.offline()
    for column in Outcomes.COLUMNS:
        mine, theirs = getattr(served, column), getattr(expected, column)
        if not np.array_equal(mine, theirs, equal_nan=True):
            same = (mine == theirs) | (np.isnan(mine) & np.isnan(theirs)) if mine.dtype.kind == "f" else mine == theirs
            session, index = np.argwhere(~same)[0]
            raise CheckFailed(
                "%s: column %s differs from offline simulate at session %d, round %d"
                % (name, column, session, index)
            )


def rss_peak_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def store_counters(registry) -> Dict[str, float]:
    """The registry's lifecycle counters."""
    return dict(registry.stats.as_dict())


def service_counters(service) -> Dict[str, int]:
    stats = service.stats
    return {
        "quotes_served": stats.quotes_served,
        "drains": stats.drains,
        "feedback_applied": stats.feedback_applied,
    }


class ServiceWindow:
    """An in-process service's counters over one timed window.

    Opening it also starts the window of the workload's tracer, if any.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        if workload.tracer is not None:
            workload.tracer.mark()
            workload.tally.mark()
            workload.waits.mark()
        self.service = service_counters(workload.service)
        self.store = store_counters(workload.registry)

    def close(self) -> dict:
        workload = self.workload
        after = service_counters(workload.service)
        out = {
            "service_delta": {key: after[key] - self.service[key] for key in after},
            "store_before": self.store,
            "store_after": store_counters(workload.registry),
        }
        if workload.tracer is not None:
            out["core"] = workload.tally.metrics()
            out["queue_wait_p50_ms"] = workload.waits.p50_ms()
        return out


def per_k(count: float, ops: int) -> float:
    return 1000.0 * count / ops if ops else 0.0


class Deadline:
    """The end of the timed window on the monotonic clock."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.stop = self.start + seconds

    def passed(self) -> bool:
        return time.perf_counter() >= self.stop

