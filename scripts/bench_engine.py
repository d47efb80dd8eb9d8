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

The transcripts of the two passes are checked element-wise identical (prices,
sold flags, regrets) before the timing is trusted, and the result is written
to a JSON file (``BENCH_engine.json``) so the performance trajectory is
tracked across PRs — CI runs a short-horizon smoke version of this script.

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
from repro.engine import RunMatrix, simulate, simulate_reference
from repro.engine.equivalence import (
    assert_regret_curves_close,
    assert_transcripts_close,
    decision_flips,
)
from repro.engine.runner import prepare


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
    parser.add_argument(
        "--skip-backend",
        action="store_true",
        help="skip the relaxed-tier batched-backend comparison",
    )
    parser.add_argument(
        "--backend-repeats",
        type=int,
        default=3,
        help="timing repeats per path in the backend comparison (best-of)",
    )
    return parser.parse_args(argv)


def run_backend_compare(args, environment) -> dict:
    """Reference vs ``backend="batched"`` on the conservative-tail workload.

    The ellipsoid pricer's exploratory phase is cut-dense (block vectorisation
    gains little there) but the long conservative tail re-prices round after
    round on a *frozen* ellipsoid — exactly the regime the galloping-block
    kernel collapses into O(log T) stacked support-interval evaluations.  The
    same full horizon runs through both paths; equivalence is asserted under
    the relaxed tier (zero decision flips expected) before timing is trusted.
    """
    version = "with reserve price"
    materialized = prepare(environment.model, environment.arrival_batch())

    def one_pass(backend):
        best = float("inf")
        result = None
        pricer = None
        for _ in range(max(1, args.backend_repeats)):
            pricer = build_pricer_for_version(environment, version)
            start = time.perf_counter()
            result = simulate(
                environment.model, pricer, materialized=materialized, backend=backend
            )
            best = min(best, time.perf_counter() - start)
        return best, result, pricer

    reference_seconds, reference, _ = one_pass(None)
    batched_seconds, batched, _ = one_pass("batched")

    flips = decision_flips(batched.transcript, reference.transcript)
    relaxed_ok = True
    try:
        assert_transcripts_close(batched.transcript, reference.transcript)
        assert_regret_curves_close(batched.transcript, reference.transcript)
    except AssertionError as exc:
        relaxed_ok = False
        print("ERROR: batched backend outside relaxed tier: %s" % exc, file=sys.stderr)
    conservative = int(np.count_nonzero(
        ~np.asarray(reference.transcript.exploratory)
        & ~np.asarray(reference.transcript.skipped)
    ))
    speedup = reference_seconds / batched_seconds if batched_seconds > 0 else float("inf")
    print(
        "backend compare (%s, T=%d, %d conservative rounds):" % (version, materialized.rounds, conservative)
    )
    print(
        "  reference %.3fs   batched %.3fs   speedup %.2fx   flips %d"
        % (reference_seconds, batched_seconds, speedup, flips)
    )
    return {
        "version": version,
        "rounds": materialized.rounds,
        "conservative_rounds": conservative,
        "reference_seconds": round(reference_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(speedup, 3),
        "decision_flips": flips,
        "relaxed_equivalent": relaxed_ok,
    }


def transcripts_identical(engine_result, reference_result) -> bool:
    """Element-wise identity of the decision-relevant transcript columns."""
    engine, reference = engine_result.transcript, reference_result.transcript
    return bool(
        np.array_equal(engine.posted_prices, reference.posted_prices, equal_nan=True)
        and np.array_equal(engine.link_prices, reference.link_prices, equal_nan=True)
        and np.array_equal(engine.sold, reference.sold)
        and np.array_equal(engine.skipped, reference.skipped)
        and np.array_equal(engine.regrets, reference.regrets)
        and np.array_equal(engine.market_values, reference.market_values)
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
    start = time.perf_counter()
    grid = matrix.run(executor=args.executor)
    engine_seconds = time.perf_counter() - start
    engine_results = {version: grid.get("market", version) for version in versions}
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
        "engine_seconds": round(engine_seconds, 4),
        "final_cumulative_regret": {
            version: round(result.cumulative_regret, 4)
            for version, result in engine_results.items()
        },
    }

    if not args.skip_legacy:
        # Build the row objects once, outside the timer: the legacy pass is
        # timed on the same work as the engine pass, the replay alone.
        arrivals = list(environment.arrivals)
        legacy_seconds = 0.0
        identical = True
        for version in versions:
            pricer = build_pricer_for_version(environment, version)
            start = time.perf_counter()
            reference = simulate_reference(environment.model, pricer, arrivals)
            legacy_seconds += time.perf_counter() - start
            identical &= transcripts_identical(engine_results[version], reference)
        speedup = legacy_seconds / engine_seconds if engine_seconds > 0 else float("inf")
        print("legacy pass:  %6.2fs" % legacy_seconds)
        print("speedup:      %6.2fx   transcripts identical: %s" % (speedup, identical))
        report["legacy_seconds"] = round(legacy_seconds, 4)
        report["speedup"] = round(speedup, 3)
        report["transcripts_identical"] = identical
        if not identical:
            print("ERROR: engine transcripts differ from the sequential reference", file=sys.stderr)
            return 1

    if not args.skip_backend:
        report["backend_compare"] = run_backend_compare(args, environment)
        if not report["backend_compare"]["relaxed_equivalent"]:
            return 1

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
