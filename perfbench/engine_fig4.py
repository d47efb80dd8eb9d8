"""``engine_fig4``: the paper's headline experiment on the offline engine.

Set-up builds one fig4 market (n = 20, T = 20,000, 200 owners, δ = 0.01).
The timed op materialises it (``prepare``) and simulates the four
algorithm versions on it serially, with fresh pricers, on the default
bit-exact path; ops repeat until the window closes.  No serving code runs.
Every replay is the same work, so the window's figures come from the median
replay: a host slowdown over less than half of the window does not move them.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import common, program

ROUNDS = 20_000
#: Rounds of each version checked against the sequential reference loop.
REFERENCE_PREFIX = 2_000


class EngineFig4:
    name = "engine_fig4"

    def __init__(self, seed: int, rounds: int = ROUNDS, reference_prefix: int = REFERENCE_PREFIX) -> None:
        self.seed = seed
        self.rounds = rounds
        self.reference_prefix = min(reference_prefix, rounds)
        self.shape = {"rounds": rounds, "versions": 4, "path": "bit-exact", **common.FIG4}
        self.environment = None

    def prepare(self, tracer) -> None:
        environment = common.build_environment(self.seed, self.rounds, tracer)
        if self.environment is not None and not np.array_equal(
            environment.arrival_batch().features, self.environment.arrival_batch().features
        ):
            raise common.CheckFailed("engine_fig4: two builds of one seed differ")
        self.environment = environment

    def start(self, tracer) -> None:
        self.tracer = tracer

    def stop(self) -> None:
        pass

    def _op(self):
        """One replay: materialise, then the four versions, serially."""
        environment, tracer = self.environment, self.tracer
        prepare, simulate = program.prepare, program.simulate
        if tracer is not None:
            prepare = tracer.wrap(prepare, "engine.prepare")
        materialized = prepare(environment.model, environment.arrival_batch())
        results = []
        for version in program.ALGORITHM_VERSIONS:
            pricer = program.build_pricer_for_version(environment, version)
            run = simulate
            if tracer is not None:
                run = tracer.wrap(
                    tracer.wrap(simulate, "engine.simulate"),
                    "engine.simulate." + common.VERSION_SHORT[version],
                )
            results.append((pricer, run(environment.model, pricer, materialized=materialized)))
        return materialized, results

    def measure(self, seconds: float) -> dict:
        op_seconds = []
        first = None
        mismatched = 0
        if self.tracer is not None:
            self.tracer.mark()
        deadline = common.Deadline(seconds)
        while not op_seconds or not deadline.passed():
            started = time.perf_counter()
            materialized, results = self._op()
            op_seconds.append(time.perf_counter() - started)
            transcripts = [result.transcript for _pricer, result in results]
            if first is None:
                first = (materialized, transcripts, [pricer.cuts_applied for pricer, _r in results])
            elif not all(map(_same_transcript, transcripts, first[1])):
                mismatched += 1
        wall = time.perf_counter() - deadline.start
        rounds_per_op = 4 * self.rounds
        regret = sum(float(t.regrets.sum()) for t in first[1])
        value = sum(float(t.market_values.sum()) for t in first[1])
        result = {
            "wall_s": wall,
            "ops": len(op_seconds),
            "attempted": len(op_seconds) * rounds_per_op,
            "unit_seconds": op_seconds,
            "ops_per_s": rounds_per_op / float(np.median(op_seconds)),
            "first": first,
            "mismatched_ops": mismatched,
            "regret_ratio": regret / value,
        }
        result["core"] = self.core_metrics(result)
        return result

    def check(self, result: dict) -> int:
        if result["mismatched_ops"]:
            raise common.CheckFailed(
                "engine_fig4: %d replays differ from the first" % result["mismatched_ops"]
            )
        materialized, transcripts, _cuts = result["first"]
        prefix = self.reference_prefix
        arrivals = self.environment.arrivals[:prefix]
        for version, transcript in zip(program.ALGORITHM_VERSIONS, transcripts):
            pricer = program.build_pricer_for_version(self.environment, version)
            reference = program.simulate_reference(self.environment.model, pricer, arrivals).transcript
            for name in ("link_prices", "posted_prices", "sold", "skipped", "exploratory", "regrets", "market_values"):
                if not np.array_equal(
                    getattr(transcript, name)[:prefix], getattr(reference, name), equal_nan=True
                ):
                    raise common.CheckFailed(
                        "engine_fig4: %s column %s differs from simulate_reference"
                        % (common.VERSION_SHORT[version], name)
                    )
        return 0

    def end_to_end(self, result: dict) -> dict:
        return {
            "ops_per_s": result["ops_per_s"],
            "latency_p50_ms": 1e3 * float(np.median(result["unit_seconds"])),
            "rss_peak_mb": common.rss_peak_mb(),
            "regret_ratio": result["regret_ratio"],
        }

    def core_metrics(self, result: dict) -> dict:
        _materialized, transcripts, cuts = result["first"]
        rounds = sum(t.rounds for t in transcripts)
        return {
            "core.cuts": common.per_k(sum(cuts), rounds),
            "core.exploratory_share": sum(int(np.count_nonzero(t.exploratory)) for t in transcripts) / rounds,
            "core.skip_share": sum(int(np.count_nonzero(t.skipped)) for t in transcripts) / rounds,
        }


def _same_transcript(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
        for name in ("link_prices", "posted_prices", "sold", "skipped", "exploratory", "regrets")
    )
