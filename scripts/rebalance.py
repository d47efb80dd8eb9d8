#!/usr/bin/env python
"""Live-reshard a sharded serving fleet N→M **under socket traffic**.

The online counterpart of ``scripts/reshard.py``: instead of stopping the
service and rewriting the snapshot tree, this CLI starts a sharded fleet on
N workers behind the asyncio socket frontend, drives a closed-loop fig4
workload through a pipelined :class:`AsyncQuoteClient`, and mid-stream runs
:class:`repro.serving.rebalance.LiveRebalancer` to migrate the fleet to M
shards — sessions are quiesced and moved one at a time while every other
session keeps serving.

The run is **self-verifying** on two axes:

* **exact quote-id accounting** — every submitted quote must resolve
  (response + applied feedback); quotes failed by a shard loss are retried
  and must converge, so the final ledger shows zero unresolved ids;
* **bit-exactness** — each session's posted-price transcript must equal the
  offline engine's for its pricer family, straight through the migration
  (and, with ``--chaos``, straight through a SIGKILL of a shard worker
  mid-migration: the worker is respawned and its sessions recover from
  their write-behind snapshots, so the retried quotes re-propose the exact
  same prices).

Usage::

    PYTHONPATH=src python scripts/rebalance.py \\
        --from-shards 2 --to-shards 3 --sessions 8 --rounds 96
    PYTHONPATH=src python scripts/rebalance.py \\
        --from-shards 2 --to-shards 3 --chaos --report rebalance_stats.json

``--report`` writes the migration report plus the backend's ``rebalance``
stats block (sessions moved, parked/replayed quote counts, quiesce-time
percentiles) as JSON — CI uploads it as an artifact next to
``BENCH_serving.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np

from repro.apps.common import ALGORITHM_VERSIONS, build_pricer_for_version
from repro.apps.noisy_linear_query import NoisyLinearQueryConfig, build_noisy_query_environment
from repro.engine import prepare, simulate, stream_rounds
from repro.serving import (
    AsyncQuoteClient,
    LiveRebalancer,
    MicroBatchConfig,
    SessionKey,
    ShardedRegistry,
    frame_sold_at,
    start_frontend_thread,
)

#: Per-(key, round) retry budget for quotes failed by a dying shard.
MAX_RETRIES = 60
RETRY_SLEEP = 0.05


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=8, help="concurrent sessions")
    parser.add_argument("--rounds", type=int, default=96, help="closed-loop rounds per session")
    parser.add_argument("--dimension", type=int, default=8)
    parser.add_argument("--owner-count", type=int, default=3)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--from-shards", type=int, default=2, help="initial shard count N")
    parser.add_argument("--to-shards", type=int, default=3, help="target shard count M")
    parser.add_argument("--persist-every", type=int, default=1,
                        help="write-behind cadence (1 = persist per feedback)")
    parser.add_argument("--move-at", type=float, default=0.5,
                        help="start the migration at this fraction of the horizon")
    parser.add_argument("--quiesce-timeout", type=float, default=30.0)
    parser.add_argument("--chaos", action="store_true",
                        help="SIGKILL + respawn a shard worker mid-migration")
    parser.add_argument("--snapshot-dir", default=None,
                        help="snapshot tree (default: a temp directory)")
    parser.add_argument("--report", default=None, help="write the run report as JSON here")
    return parser.parse_args(argv)


def build_workload(args):
    """The fig4-style market plus versioned session keys and their factory."""
    config = NoisyLinearQueryConfig(
        dimension=args.dimension,
        rounds=args.rounds,
        owner_count=args.owner_count,
        delta=args.delta,
        seed=args.seed,
    )
    environment = build_noisy_query_environment(config)
    materialized = prepare(environment.model, environment.arrival_batch())
    versions = list(ALGORITHM_VERSIONS)
    keys = [
        SessionKey(app="rebalance", segment="seg=%d/%s" % (index, versions[index % len(versions)]))
        for index in range(args.sessions)
    ]
    version_of = {key: versions[index % len(versions)] for index, key in enumerate(keys)}

    def factory(key: SessionKey):
        return environment.model, build_pricer_for_version(environment, version_of[key])

    return environment, materialized, keys, version_of, factory


def offline_baselines(environment, materialized, version_of):
    """Posted-price transcript per pricer version from the offline engine."""
    baselines = {}
    for version in sorted(set(version_of.values())):
        result = simulate(
            environment.model,
            build_pricer_for_version(environment, version),
            materialized=materialized,
        )
        baselines[version] = result.transcript.posted_prices
    return baselines


async def drive(args, sharded, address, materialized, keys, counters, migration):
    """Closed-loop socket traffic with retry-until-resolved accounting.

    Per round, every session fires one pipelined quote; each settled quote
    fires its feedback before the session's next round (the closed-loop
    protocol).  A quote or feedback failed by a mid-migration shard loss is
    retried from the quote step — the session's write-behind snapshot
    guarantees the re-proposal is bit-identical — so the ledger converges
    to zero unresolved ids or the run fails loudly.
    """
    client = await AsyncQuoteClient.connect(unix_path=address)
    posted = {key: [] for key in keys}
    try:
        for index, round_ in enumerate(stream_rounds(materialized)):
            if migration is not None and index == counters["move_round"]:
                migration.start()
            quote_futures = {
                key: client.submit_quote(key, round_.features, round_.reserve)
                for key in keys
            }
            counters["submitted"] += len(keys)
            for key, future in quote_futures.items():
                result = None
                for attempt in range(MAX_RETRIES):
                    try:
                        result = await future
                        break
                    except Exception:
                        counters["retries"] += 1
                        await asyncio.sleep(RETRY_SLEEP)
                        future = client.submit_quote(key, round_.features, round_.reserve)
                        counters["submitted"] += 1
                if result is None:
                    raise RuntimeError(
                        "quote for %s round %d did not resolve after %d attempts"
                        % (key, index, MAX_RETRIES)
                    )
                sold = frame_sold_at(result, round_.market_value)
                settled = False
                for attempt in range(MAX_RETRIES):
                    try:
                        await client.submit_feedback(key, result["quote_id"], sold)
                        settled = True
                        break
                    except Exception:
                        # The shard died between quote and feedback: the
                        # decision is gone, so replay the quote itself.
                        counters["retries"] += 1
                        await asyncio.sleep(RETRY_SLEEP)
                        result = None
                        for requote in range(MAX_RETRIES):
                            try:
                                result = await client.submit_quote(
                                    key, round_.features, round_.reserve
                                )
                                counters["submitted"] += 1
                                break
                            except Exception:
                                counters["retries"] += 1
                                await asyncio.sleep(RETRY_SLEEP)
                        if result is None:
                            break
                        sold = frame_sold_at(result, round_.market_value)
                if not settled:
                    raise RuntimeError(
                        "feedback for %s round %d did not settle after %d attempts"
                        % (key, index, MAX_RETRIES)
                    )
                counters["resolved"] += 1
                posted[key].append(
                    np.nan if result.get("posted_price") is None else result["posted_price"]
                )
    finally:
        await client.close()
    return posted


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.sessions < 1 or args.rounds < 1:
        print("ERROR: --sessions and --rounds must be positive", file=sys.stderr)
        return 1
    environment, materialized, keys, version_of, factory = build_workload(args)
    baselines = offline_baselines(environment, materialized, version_of)

    snapshot_dir = args.snapshot_dir or tempfile.mkdtemp(prefix="rebalance-cli-")
    socket_dir = tempfile.mkdtemp(prefix="rebalance-sock-")
    sharded = ShardedRegistry(
        factory,
        num_shards=args.from_shards,
        config=MicroBatchConfig(max_batch=max(8, args.sessions), max_wait_seconds=0.002),
        snapshot_dir=snapshot_dir,
        persist_every=args.persist_every,
    )
    chaos_log = []

    def chaos_hook(count, move):
        if not args.chaos or count != 1:
            return
        victim = move.target
        os.kill(sharded._shards[victim].process.pid, signal.SIGKILL)
        lost = sharded.respawn_shard(victim)
        chaos_log.append({"killed_shard": victim, "lost_quote_ids": lost})

    rebalancer = LiveRebalancer(
        sharded,
        args.to_shards,
        quiesce_timeout=args.quiesce_timeout,
        after_move=chaos_hook,
    )
    migration_result = {}

    def migrate():
        try:
            migration_result["report"] = rebalancer.run()
        except Exception as exc:  # surfaced after the drive loop joins
            migration_result["error"] = exc

    migration = threading.Thread(target=migrate, name="rebalancer")
    counters = {
        "submitted": 0,
        "resolved": 0,
        "retries": 0,
        "move_round": min(max(0, int(args.rounds * args.move_at)), args.rounds - 1),
    }

    handle = start_frontend_thread(
        sharded,
        unix_path=os.path.join(socket_dir, "quotes.sock"),
        drain_interval=0.0005,
    )
    print(
        "serving %d sessions x %d rounds through the socket, "
        "migrating %d -> %d shards at round %d%s ..."
        % (
            args.sessions,
            args.rounds,
            args.from_shards,
            args.to_shards,
            counters["move_round"],
            " with chaos" if args.chaos else "",
        )
    )
    start = time.perf_counter()
    try:
        posted = asyncio.run(
            drive(args, sharded, handle.address, materialized, keys, counters, migration)
        )
        migration.join(timeout=120.0)
        if migration.is_alive():
            raise RuntimeError("migration did not finish within 120s")
        if "error" in migration_result:
            raise migration_result["error"]
        stats = sharded.stats()
    finally:
        handle.stop()
        sharded.close()
    wall_seconds = time.perf_counter() - start

    report = migration_result["report"]
    mismatched = []
    for key in keys:
        expected = baselines[version_of[key]][: args.rounds]
        if not np.array_equal(np.array(posted[key]), expected, equal_nan=True):
            mismatched.append(key)
    unresolved = args.rounds * args.sessions - counters["resolved"]
    exact = not mismatched and unresolved == 0

    print(
        "migrated %d session(s) in %d sweep(s); %d quote submit(s), "
        "%d resolved, %d retried, %.1fs wall"
        % (
            report.sessions,
            report.sweeps,
            counters["submitted"],
            counters["resolved"],
            counters["retries"],
            wall_seconds,
        )
    )
    if chaos_log:
        print(
            "chaos: killed shard %d mid-migration (%d in-flight quote(s) lost, retried)"
            % (chaos_log[0]["killed_shard"], len(chaos_log[0]["lost_quote_ids"]))
        )
    quiesce = report.stats.get("quiesce", {})
    print(
        "rebalance block: parked=%d replayed=%d quiesce p50=%.2fms p99=%.2fms"
        % (
            report.stats.get("parked_quotes", 0),
            report.stats.get("replayed_quotes", 0),
            quiesce.get("p50_ms", 0.0) or 0.0,
            quiesce.get("p99_ms", 0.0) or 0.0,
        )
    )
    if exact:
        print(
            "exact: all %d sessions bit-identical to the offline engine, "
            "zero unresolved quote ids" % len(keys)
        )
    else:
        print(
            "ERROR: %d session(s) diverged from the offline engine%s"
            % (
                len(mismatched),
                "; unresolved=%d" % unresolved if unresolved else "",
            ),
            file=sys.stderr,
        )

    if args.report:
        payload = {
            "workload": {
                "sessions": args.sessions,
                "rounds": args.rounds,
                "from_shards": args.from_shards,
                "to_shards": args.to_shards,
                "chaos": bool(args.chaos),
            },
            "migration": report.as_dict(),
            "routing": stats["routing"],
            "rebalance": stats["rebalance"],
            "accounting": {
                "submitted": counters["submitted"],
                "resolved": counters["resolved"],
                "retries": counters["retries"],
                "exact": exact,
            },
            "chaos": chaos_log,
            "wall_seconds": wall_seconds,
        }
        with open(args.report, "w") as out:
            json.dump(payload, out, indent=2, sort_keys=True, default=str)
            out.write("\n")
        print("wrote %s" % args.report)
    return 0 if exact else 1


if __name__ == "__main__":
    sys.exit(main())
