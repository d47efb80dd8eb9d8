#!/usr/bin/env python
"""Benchmark the columnar engine + run matrix against the legacy loop.

Regenerates a ``bench_fig4``-style workload (the noisy-linear-query market,
all four algorithm versions on one shared arrival stream) twice:

* **legacy** — the preserved sequential reference loop
  (:func:`repro.engine.simulate_reference`), one full object-per-round pass
  per version, exactly as the pre-engine simulator ran it;
* **engine** — a :class:`repro.engine.RunMatrix` over the same cells: the
  market is materialised once, each version runs through its batched fast
  path, and the cells fan out across workers where available.

The passes alternate, engine then legacy, three times over, and each side
reports its fastest pass (fresh pricers every time): a slow phase of the
host then falls on both sides instead of on one block of passes.  Every
pair's times go into the report.  The transcripts of the two passes are
checked element-wise identical (every column) before the timing is
trusted.  The result is written to a JSON file
(``BENCH_engine.json``) so the performance trajectory is tracked across PRs —
CI runs a short-horizon smoke version of this script and gates the legacy /
engine ratio.

Usage::

    PYTHONPATH=src python scripts/bench_engine.py --rounds 20000 --output BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.apps.common import ALGORITHM_VERSIONS, VersionPricerFactory, build_pricer_for_version
from repro.apps.noisy_linear_query import NoisyLinearQueryConfig, build_noisy_query_environment
from repro.engine import RunMatrix, simulate_reference

#: Timed passes per side; each side reports its fastest.
REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=20_000, help="horizon T per cell")
    parser.add_argument("--dimension", type=int, default=20, help="feature dimension n")
    parser.add_argument("--owner-count", type=int, default=200, help="data owner count")
    parser.add_argument("--seed", type=int, default=7, help="master seed")
    parser.add_argument("--delta", type=float, default=0.01, help="uncertainty buffer")
    parser.add_argument(
        "--executor",
        default="auto",
        choices=("auto", "serial", "thread", "process"),
        help="run-matrix executor for the engine pass",
    )
    parser.add_argument("--output", default="BENCH_engine.json", help="JSON output path")
    parser.add_argument(
        "--skip-legacy",
        action="store_true",
        help="only time the engine pass (no speedup/identity check)",
    )
    return parser.parse_args(argv)


def timed(run):
    """Wall-clock seconds of one call of ``run``, and its result."""
    start = time.perf_counter()
    result = run()
    return time.perf_counter() - start, result


def transcripts_identical(engine_result, reference_result) -> bool:
    """Element-wise identity of every transcript column."""
    engine, reference = engine_result.transcript, reference_result.transcript
    return all(
        np.array_equal(getattr(engine, name), getattr(reference, name), equal_nan=True)
        for name in (
            "link_values",
            "market_values",
            "reserve_values",
            "link_prices",
            "posted_prices",
            "sold",
            "skipped",
            "exploratory",
            "regrets",
        )
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    config = NoisyLinearQueryConfig(
        dimension=args.dimension,
        rounds=args.rounds,
        owner_count=args.owner_count,
        delta=args.delta,
        seed=args.seed,
    )
    print(
        "building environment (n=%d, T=%d, owners=%d) ..."
        % (args.dimension, args.rounds, args.owner_count)
    )
    environment = build_noisy_query_environment(config)
    versions = list(ALGORITHM_VERSIONS)

    # Engine pass: one matrix, one shared materialisation, batched fast paths.
    matrix = RunMatrix()
    matrix.add_scenario("market", environment.as_scenario)
    for version in versions:
        matrix.add_pricer(version, VersionPricerFactory(version))
    matrix.add_cross()

    def engine_pass():
        grid = matrix.run(executor=args.executor)
        return {version: grid.get("market", version) for version in versions}

    if args.skip_legacy:
        legacy_pass = None
    else:
        # Build the row objects once, outside the timer: the legacy pass is
        # timed on the same work as the engine pass, the replay alone.
        arrivals = list(environment.arrivals)

        def legacy_pass():
            return {
                version: simulate_reference(
                    environment.model, build_pricer_for_version(environment, version), arrivals
                )
                for version in versions
            }

    # Pair i is engine pass i, then legacy pass i.
    seconds = {"engine": [], "legacy": []}
    for _ in range(REPEATS):
        elapsed, engine_results = timed(engine_pass)
        seconds["engine"].append(elapsed)
        if legacy_pass is not None:
            elapsed, references = timed(legacy_pass)
            seconds["legacy"].append(elapsed)
    engine_seconds = min(seconds["engine"])
    print("engine pass:  %6.2fs  (%d cells, executor=%s)" % (engine_seconds, len(versions), args.executor))

    report = {
        "benchmark": "bench_engine (fig4-style, noisy linear query)",
        "config": {
            "rounds": args.rounds,
            "dimension": args.dimension,
            "owner_count": args.owner_count,
            "delta": args.delta,
            "seed": args.seed,
            "versions": versions,
        },
        "cpu_count": os.cpu_count(),
        "executor": args.executor,
        "repeats": REPEATS,
        "engine_seconds": round(engine_seconds, 4),
        "pass_seconds": {
            side: [round(elapsed, 4) for elapsed in times] for side, times in seconds.items()
        },
        "final_cumulative_regret": {
            version: round(result.cumulative_regret, 4)
            for version, result in engine_results.items()
        },
    }

    if legacy_pass is not None:
        legacy_seconds = min(seconds["legacy"])
        identical = all(
            transcripts_identical(engine_results[version], references[version])
            for version in versions
        )
        speedup = legacy_seconds / engine_seconds if engine_seconds > 0 else float("inf")
        print("legacy pass:  %6.2fs" % legacy_seconds)
        print("speedup:      %6.2fx   transcripts identical: %s" % (speedup, identical))
        report["legacy_seconds"] = round(legacy_seconds, 4)
        report["speedup"] = round(speedup, 3)
        report["transcripts_identical"] = identical
        if not identical:
            print("ERROR: engine transcripts differ from the sequential reference", file=sys.stderr)
            return 1

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
