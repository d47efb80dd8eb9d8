#!/usr/bin/env python
"""Load-generate the online quote-serving subsystem and report throughput.

The workload is the fig4-style market (noisy linear query, the same
environment ``scripts/bench_engine.py`` times offline): one shared arrival
stream replayed closed-loop by N concurrent pricing sessions — each round
submits one quote per session, the micro-batch window coalesces them into a
single drain, sales are settled against the realised market values, and the
accept/reject outcomes go back through the batched feedback path before the
next round (so every session runs the exact online protocol).

Six measurement modes, all written into one ``BENCH_serving.json``:

* **closed-loop** (always run) — the in-process baseline: quotes/sec and
  p50/p99 per-quote latency (enqueue → response, i.e. including micro-batch
  queueing delay), sessions resident, and the lifecycle counters.
* **replay-at-rate** (``--target-qps``) — open-loop pacing: quotes are
  submitted on a fixed schedule regardless of completions (an arrival
  process, not a benchmark loop), responses are settled as they drain, and
  the report carries offered vs *achieved* qps plus queue-delay percentiles.
* **networked replay-at-rate** (``--net-target-qps``) — the same open-loop
  arrival schedule driven **through the socket frontend**: ``--connections``
  pipelined :class:`AsyncQuoteClient` connections over a unix socket
  (binary v2 batches, writes coalesced per event-loop tick), quotes fanned
  round-robin, feedback settled as results arrive.  Reports offered vs achieved qps, client-side round-trip
  percentiles, the server-side queue-delay percentiles, backpressure
  rejections, and the frontend wire/dispatch counters — this is the mode
  that actually exercises the network path.
* **latency-vs-offered-load sweep** (``--sweep-qps lo:hi:steps``) — runs the
  networked mode at ``steps`` offered rates between ``lo`` and ``hi`` (a
  fresh service and frontend per point, so no learning-state carryover) and
  locates the *knee*: the highest offered rate the frontend still sustains
  (achieved ≥ 90% of offered).  The whole curve lands in the report.
* **shard scaling** (``--shards N``) — the same closed-loop replay dispatched
  through :class:`repro.serving.sharding.ShardedRegistry` with 1 worker and
  with N workers (identical pipe dispatch, so the comparison isolates the
  parallelism), reporting both throughputs and the scaling factor.  Scaling
  requires as many idle cores as shards — on a 1-CPU container the factor
  is necessarily ≈ 1.
* **Zipf popularity sweep** (``--zipf-sessions N``) — the session-store
  stress: quotes drawn from a Zipf(``--zipf-a``) popularity law over ``N``
  distinct sessions (≥ 100k in the committed run) against a residency bound
  of ``--zipf-max-sessions``, so the tail of the distribution thrashes
  through persist → clock-evict → hydrate continuously.  Reports
  resident-memory bytes (and bytes/session — the CI regression gate), the
  zero-copy hydration count, and an eviction-cost curve across resident
  set sizes:
  clock-hand steps per eviction must stay flat as the resident set grows —
  the O(1) replacement for the old O(n) LRU scan.

Usage::

    PYTHONPATH=src python scripts/bench_serving.py --rounds 5000 --sessions 4
    PYTHONPATH=src python scripts/bench_serving.py --target-qps 20000
    PYTHONPATH=src python scripts/bench_serving.py --net-target-qps 10000 --connections 4
    PYTHONPATH=src python scripts/bench_serving.py --shards 4
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.apps.common import ALGORITHM_VERSIONS, build_pricer_for_version
from repro.apps.noisy_linear_query import NoisyLinearQueryConfig, build_noisy_query_environment
from repro.engine import prepare, stream_rounds
from repro.exceptions import BackpressureError, ServingError
from repro.serving import (
    AsyncQuoteClient,
    FeedbackEvent,
    MicroBatchConfig,
    PricerRegistry,
    QuoteRequest,
    QuoteService,
    SessionKey,
    ShardedRegistry,
    frame_sold_at,
    start_frontend_thread,
)
from repro.utils.metrics import LatencySummary


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5_000, help="rounds per session")
    parser.add_argument("--sessions", type=int, default=4, help="concurrent pricing sessions")
    parser.add_argument("--dimension", type=int, default=20, help="feature dimension n")
    parser.add_argument("--owner-count", type=int, default=200, help="data owner count")
    parser.add_argument("--seed", type=int, default=7, help="master seed")
    parser.add_argument("--delta", type=float, default=0.01, help="uncertainty buffer")
    parser.add_argument("--max-batch", type=int, default=64, help="micro-batch size bound")
    parser.add_argument(
        "--max-wait-ms", type=float, default=1.0, help="micro-batch window in milliseconds"
    )
    parser.add_argument(
        "--snapshot-dir", default=None, help="session snapshot directory (default: off)"
    )
    parser.add_argument(
        "--persist-every",
        type=int,
        default=0,
        help="write-behind cadence in feedback updates (0 = only on flush/evict)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=None, help="LRU residency bound (default: unbounded)"
    )
    parser.add_argument(
        "--target-qps",
        type=float,
        default=0.0,
        help="replay-at-rate mode: offered open-loop quote rate (0 = skip)",
    )
    parser.add_argument(
        "--rate-rounds",
        type=int,
        default=0,
        help="rounds per session for the rate mode (0 = same as --rounds)",
    )
    parser.add_argument(
        "--net-target-qps",
        type=float,
        default=0.0,
        help="networked replay-at-rate mode: offered rate through the socket (0 = skip)",
    )
    parser.add_argument(
        "--connections",
        type=int,
        default=4,
        help="pipelined client connections for the networked rate mode",
    )
    parser.add_argument(
        "--sweep-qps",
        default=None,
        metavar="LO:HI:STEPS",
        help="latency-vs-offered-load sweep through the socket (e.g. 2000:16000:5)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="shard-scaling mode: worker process count (0 = skip)",
    )
    parser.add_argument(
        "--replay-window",
        type=int,
        default=256,
        help="rounds per pipe message in the sharded replay dispatch",
    )
    parser.add_argument(
        "--zipf-sessions",
        type=int,
        default=0,
        help="Zipf popularity sweep: distinct session universe size (0 = skip)",
    )
    parser.add_argument(
        "--zipf-events",
        type=int,
        default=200_000,
        help="quote+feedback events drawn for the Zipf sweep",
    )
    parser.add_argument(
        "--zipf-a",
        type=float,
        default=1.1,
        help="Zipf exponent of the session popularity law",
    )
    parser.add_argument(
        "--zipf-max-sessions",
        type=int,
        default=4096,
        help="residency bound for the Zipf sweep (the clock-eviction stress)",
    )
    parser.add_argument(
        "--min-qps",
        type=float,
        default=0.0,
        help="fail (exit 1) when closed-loop quotes/sec lands below this floor (0 = report only)",
    )
    parser.add_argument("--output", default="BENCH_serving.json", help="JSON output path")
    return parser.parse_args(argv)


def build_workload(args):
    """The shared fig4-style market plus session keys and their factory."""
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
        SessionKey(app="fig4", segment="shard=%d/%s" % (index, versions[index % len(versions)]))
        for index in range(args.sessions)
    ]
    version_of = {key: versions[index % len(versions)] for index, key in enumerate(keys)}

    def factory(key: SessionKey):
        return environment.model, build_pricer_for_version(environment, version_of[key])

    return environment, materialized, keys, factory


def micro_batch_config(args) -> MicroBatchConfig:
    return MicroBatchConfig(
        max_batch=max(args.max_batch, args.sessions),
        max_wait_seconds=args.max_wait_ms / 1000.0,
    )


def run_closed_loop(args, materialized, keys, factory):
    """The in-process closed-loop baseline (the bench's headline numbers)."""
    registry = PricerRegistry(
        factory,
        snapshot_dir=args.snapshot_dir,
        max_sessions=args.max_sessions,
        persist_every=args.persist_every,
    )
    service = QuoteService(registry, config=micro_batch_config(args))

    print("serving %d quotes closed-loop ..." % (args.rounds * args.sessions))
    start = time.perf_counter()
    for round_ in stream_rounds(materialized):
        for key in keys:
            service.submit(
                QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
            )
        events = [
            FeedbackEvent(
                key=response.key,
                quote_id=response.quote_id,
                accepted=response.sold_at(round_.market_value),
            )
            for response in service.flush()
        ]
        service.feedback_batch(events)
    wall_seconds = time.perf_counter() - start
    if args.snapshot_dir:
        registry.flush()

    quotes = service.stats.quotes_served
    qps = quotes / wall_seconds if wall_seconds > 0 else float("inf")
    latency = service.stats.latency_summary()
    print(
        "served %d quotes in %.2fs  ->  %.0f quotes/sec   p50 %.4f ms   p99 %.4f ms"
        % (quotes, wall_seconds, qps, latency.p50_ms, latency.p99_ms)
    )
    return {
        "quotes": quotes,
        "wall_seconds": round(wall_seconds, 4),
        "quotes_per_second": round(qps, 1),
        "latency": {name: round(value, 6) for name, value in latency.as_dict().items()},
        "sessions_resident": registry.resident_count,
        "service": {
            "drains": service.stats.drains,
            "batched_proposals": service.stats.batched_proposals,
            "feedback_applied": service.stats.feedback_applied,
        },
        "registry": registry.stats.as_dict(),
    }


def run_replay_at_rate(args, materialized, keys, factory):
    """Open-loop pacing: submit on a fixed schedule, settle as drains land.

    The schedule is *open-loop*: quote ``i`` is offered at ``start + i/qps``
    whether or not earlier quotes completed (a service that falls behind
    accumulates queue delay instead of throttling the arrival process —
    exactly how live traffic behaves).  Queue-delay percentiles are the
    enqueue → response latencies the service records.
    """
    rate_rounds = args.rate_rounds or args.rounds
    if rate_rounds > args.rounds:
        # The rate mode replays a slice of the closed-loop market; clamp
        # instead of crashing after the closed-loop phase already ran.
        print(
            "note: --rate-rounds %d exceeds --rounds %d; clamping"
            % (rate_rounds, args.rounds)
        )
        rate_rounds = args.rounds
    target_qps = args.target_qps
    registry = PricerRegistry(factory)
    service = QuoteService(registry, config=micro_batch_config(args))

    total = rate_rounds * len(keys)
    print("replaying at %.0f offered qps (%d quotes) ..." % (target_qps, total))
    interval = 1.0 / target_qps
    market_value_of = {}
    settled = 0

    def settle(responses):
        events = [
            FeedbackEvent(
                key=response.key,
                quote_id=response.quote_id,
                accepted=response.sold_at(market_value_of.pop(response.quote_id)),
            )
            for response in responses
        ]
        if events:
            service.feedback_batch(events)
        return len(events)

    offered = 0
    start = time.perf_counter()
    for round_ in stream_rounds(materialized.slice(0, rate_rounds)):
        for key in keys:
            due = start + offered * interval
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                settled += settle(service.poll())
            quote_id = service.submit(
                QuoteRequest(key=key, features=round_.features, reserve=round_.reserve)
            )
            market_value_of[quote_id] = round_.market_value
            offered += 1
            settled += settle(service.poll())
    settled += settle(service.flush())
    wall_seconds = time.perf_counter() - start

    achieved = settled / wall_seconds if wall_seconds > 0 else float("inf")
    latency = service.stats.latency_summary()
    print(
        "offered %.0f qps, achieved %.0f qps   queue-delay p50 %.4f ms   p99 %.4f ms"
        % (target_qps, achieved, latency.p50_ms, latency.p99_ms)
    )
    return {
        "offered_qps": round(target_qps, 1),
        "achieved_qps": round(achieved, 1),
        "quotes": settled,
        "rounds": rate_rounds,
        "wall_seconds": round(wall_seconds, 4),
        "queue_delay": {name: round(value, 6) for name, value in latency.as_dict().items()},
        "service": {
            "drains": service.stats.drains,
            "batched_proposals": service.stats.batched_proposals,
            "feedback_applied": service.stats.feedback_applied,
        },
    }


def run_networked_point(args, materialized, keys, factory, target_qps):
    """One open-loop measurement **through the socket**: real wire, one rate.

    The in-process rate mode never touches a socket; this one starts the
    asyncio frontend on a unix socket (a fresh service per call, so repeated
    points never inherit learning state) and drives it from
    ``--connections`` pipelined :class:`AsyncQuoteClient` connections.  Quotes follow the open-loop
    schedule (quote ``i`` offered at ``start + i/qps``), fanned round-robin
    across connections.  The settle path is callback-driven, not
    task-per-quote: each quote future chains into its feedback submit on
    completion, so a burst of submits per tick stays one coalesced frame
    out and one coalesced frame back, and completions never throttle the
    arrival process.  Backpressure rejections are counted, not retried — an
    overloaded frontend sheds load instead of queueing unboundedly, and the
    achieved qps shows it.  Achieved qps is settled quotes over the time
    from the first submit to the last settle, so it reads below offered by
    about the last round trip over the window even when the socket keeps
    up: tens of milliseconds against a window of ``--rate-rounds`` times
    the session count over the offered rate.
    """
    rate_rounds = args.rate_rounds or args.rounds
    if rate_rounds > args.rounds:
        rate_rounds = args.rounds
    connections = max(1, args.connections)
    registry = PricerRegistry(factory)
    service = QuoteService(registry, config=micro_batch_config(args))
    socket_dir = tempfile.mkdtemp(prefix="bench-serving-net-")
    handle = start_frontend_thread(
        service, unix_path=os.path.join(socket_dir, "quotes.sock"), drain_interval=0.0005
    )
    total = rate_rounds * len(keys)
    print(
        "replaying at %.0f offered qps through the socket "
        "(%d quotes, %d connections) ..."
        % (target_qps, total, connections)
    )

    async def _drive():
        clients = [
            await AsyncQuoteClient.connect(unix_path=handle.address)
            for _ in range(connections)
        ]
        interval = 1.0 / target_qps
        round_trip = []
        counters = {"settled": 0, "rejected": 0, "errors": 0}
        state = {"outstanding": 0, "submits_done": False}
        done = asyncio.Event()

        def _finish_one():
            state["outstanding"] -= 1
            if state["outstanding"] == 0 and state["submits_done"]:
                done.set()

        def _on_feedback(future):
            if future.cancelled() or future.exception() is not None:
                counters["errors"] += 1
            else:
                counters["settled"] += 1
            _finish_one()

        def _on_quote(future, client, key, market_value, begin):
            if future.cancelled():
                counters["errors"] += 1
                _finish_one()
                return
            exc = future.exception()
            if exc is not None:
                if isinstance(exc, BackpressureError):
                    counters["rejected"] += 1
                else:
                    counters["errors"] += 1
                _finish_one()
                return
            result = future.result()
            round_trip.append(time.perf_counter() - begin)
            try:
                feedback = client.submit_feedback(
                    key, result["quote_id"], frame_sold_at(result, market_value)
                )
            except ServingError:
                counters["errors"] += 1
                _finish_one()
                return
            feedback.add_done_callback(_on_feedback)

        offered = 0
        behind = 0
        start = time.perf_counter()
        for round_ in stream_rounds(materialized.slice(0, rate_rounds)):
            for key in keys:
                due = start + offered * interval
                now = time.perf_counter()
                if now < due:
                    await asyncio.sleep(due - now)
                    behind = 0
                else:
                    # Behind schedule: submit back-to-back, but yield every
                    # few dozen submits so the coalesced flush, the reader
                    # task, and the response callbacks keep running.
                    behind += 1
                    if behind % 64 == 0:
                        await asyncio.sleep(0)
                client = clients[offered % len(clients)]
                begin = time.perf_counter()
                try:
                    future = client.submit_quote(
                        key, round_.features, reserve=round_.reserve
                    )
                except ServingError:
                    counters["errors"] += 1
                    offered += 1
                    continue
                state["outstanding"] += 1
                future.add_done_callback(
                    lambda f, c=client, k=key, mv=round_.market_value, b=begin:
                        _on_quote(f, c, k, mv, b)
                )
                offered += 1
        state["submits_done"] = True
        if state["outstanding"] == 0:
            done.set()
        try:
            await asyncio.wait_for(done.wait(), timeout=120.0)
        except asyncio.TimeoutError:
            counters["errors"] += state["outstanding"]
        wall_seconds = time.perf_counter() - start
        stats = await clients[0].stats()
        for client in clients:
            await client.close()
        return wall_seconds, round_trip, counters, stats

    try:
        wall_seconds, round_trip, counters, stats = asyncio.run(_drive())
    finally:
        handle.stop()
        shutil.rmtree(socket_dir, ignore_errors=True)

    achieved = counters["settled"] / wall_seconds if wall_seconds > 0 else float("inf")
    trip = LatencySummary.from_seconds(round_trip)
    queue_delay = stats.get("latency", {})
    frontend = stats.get("frontend", {})
    print(
        "offered %.0f qps, achieved %.0f qps over the wire   "
        "round-trip p50 %.4f ms   p99 %.4f ms   (%d rejected)"
        % (target_qps, achieved, trip.p50_ms, trip.p99_ms, counters["rejected"])
    )
    return {
        "offered_qps": round(target_qps, 1),
        "achieved_qps": round(achieved, 1),
        "connections": connections,
        "quotes": counters["settled"],
        "rejected_backpressure": counters["rejected"],
        "errors": counters["errors"],
        "rounds": rate_rounds,
        "wall_seconds": round(wall_seconds, 4),
        "round_trip": {name: round(value, 6) for name, value in trip.as_dict().items()},
        "queue_delay": {name: round(value, 6) for name, value in queue_delay.items()},
        "frontend": frontend,
    }


def parse_sweep(spec: str):
    """``lo:hi:steps`` → the list of offered rates (linear spacing)."""
    try:
        lo_text, hi_text, steps_text = spec.split(":")
        lo, hi, steps = float(lo_text), float(hi_text), int(steps_text)
    except ValueError:
        raise SystemExit("--sweep-qps expects LO:HI:STEPS, got %r" % spec)
    if lo <= 0 or hi < lo or steps < 1:
        raise SystemExit("--sweep-qps needs 0 < LO <= HI and STEPS >= 1")
    if steps == 1:
        return [lo]
    return [lo + index * (hi - lo) / (steps - 1) for index in range(steps)]


def find_knee(sustained):
    """Index of the knee in a low-to-high sweep's sustained flags, or ``None``.

    The knee is the highest sustained rate that is *corroborated*: either the
    very first swept rate, or a rate whose immediate predecessor was also
    sustained.  A lone sustained blip past unsustained rates is measurement
    noise beyond saturation, not capacity — the old "last sustained point"
    rule reported exactly those blips as the knee.
    """
    knee = None
    for index, flag in enumerate(sustained):
        if flag and (index == 0 or sustained[index - 1]):
            knee = index
    return knee


def run_networked_sweep(args, materialized, keys, factory):
    """Latency-vs-offered-load curve through the socket, plus its knee.

    Each offered rate is an independent :func:`run_networked_point` (fresh
    service, fresh frontend).  The *knee* is the highest offered rate still
    sustained — achieved ≥ 90% of offered with no backpressure shedding —
    i.e. where the open-loop arrival process stops being served at its own
    rate and latency starts growing without bound.
    """
    rates = parse_sweep(args.sweep_qps)
    print("sweeping offered load through the socket: %s qps ..."
          % ", ".join("%.0f" % rate for rate in rates))
    points = []
    for rate in rates:
        point = run_networked_point(args, materialized, keys, factory, rate)
        point["sustained"] = (
            point["achieved_qps"] >= 0.9 * point["offered_qps"]
            and point["rejected_backpressure"] == 0
        )
        points.append(point)
    knee_index = find_knee([point["sustained"] for point in points])
    knee = None if knee_index is None else points[knee_index]
    summary = {
        "connections": max(1, args.connections),
        "offered_qps": [point["offered_qps"] for point in points],
        "achieved_qps": [point["achieved_qps"] for point in points],
        "round_trip_p50_ms": [point["round_trip"].get("p50_ms") for point in points],
        "round_trip_p99_ms": [point["round_trip"].get("p99_ms") for point in points],
        "knee_qps": knee["offered_qps"] if knee else None,
        "points": points,
    }
    if knee:
        print("knee: %.0f offered qps sustained (achieved %.0f)"
              % (knee["offered_qps"], knee["achieved_qps"]))
    else:
        print("knee: none of the swept rates was sustained")
    return summary


def run_sharded_scaling(args, materialized, keys, factory):
    """Closed-loop replay through 1 worker vs ``--shards`` workers.

    Both runs go through the identical :class:`ShardedRegistry` pipe
    dispatch (same windowing, same pickling), so the ratio isolates the
    parallelism across worker processes.
    """
    pairs = []
    for round_ in stream_rounds(materialized):
        for key in keys:
            pairs.append(
                (
                    QuoteRequest(key=key, features=round_.features, reserve=round_.reserve),
                    round_.market_value,
                )
            )

    def measure(num_shards):
        # Each measurement gets its own snapshot tree: sharing one would let
        # the N-shard run hydrate sessions the 1-shard run persisted, making
        # the two workloads (and the scaling ratio) non-equivalent.
        snapshot_dir = (
            os.path.join(args.snapshot_dir, "scaling-%d" % num_shards)
            if args.snapshot_dir
            else None
        )
        with ShardedRegistry(
            factory,
            num_shards=num_shards,
            config=micro_batch_config(args),
            snapshot_dir=snapshot_dir,
            max_sessions=args.max_sessions,
            persist_every=args.persist_every,
        ) as sharded:
            start = time.perf_counter()
            served = sharded.replay_closed_loop(pairs, window=args.replay_window)
            wall_seconds = time.perf_counter() - start
            stats = sharded.stats()
        qps = served / wall_seconds if wall_seconds > 0 else float("inf")
        print(
            "  %d shard(s): %d quotes in %.2fs  ->  %.0f quotes/sec"
            % (num_shards, served, wall_seconds, qps)
        )
        return {
            "quotes": served,
            "wall_seconds": round(wall_seconds, 4),
            "quotes_per_second": round(qps, 1),
            "latency": {
                name: round(value, 6) for name, value in stats["latency"].items()
            },
            "sessions_resident": stats["sessions_resident"],
            "registry": stats["registry"],
        }

    print("shard scaling (replay window %d) ..." % args.replay_window)
    single = measure(1)
    sharded = measure(args.shards)
    scaling = (
        sharded["quotes_per_second"] / single["quotes_per_second"]
        if single["quotes_per_second"]
        else float("inf")
    )
    print("  scaling: %.2fx over single shard (%d CPUs)" % (scaling, os.cpu_count() or 1))
    return {
        "shards": args.shards,
        "replay_window": args.replay_window,
        "single_shard": single,
        "sharded": sharded,
        "scaling_x": round(scaling, 3),
    }


def run_zipf_popularity(args, environment, materialized):
    """Zipf-popularity session churn: the session store's stress workload.

    ``--zipf-sessions`` distinct sessions, accesses drawn from a bounded
    Zipf(``--zipf-a``) law, residency capped at ``--zipf-max-sessions`` —
    the popular head stays resident while the long tail cycles through
    persist → clock-evict → hydrate on every touch (a hydration storm).
    The numbers that matter (a store miss's latency is perfbench's
    ``store.session.p99_us`` on ``serve_zipf_churn``):

    * ``resident_bytes`` / ``bytes_per_session`` — memory stays bounded by
      the residency cap, not the session universe (the CI gate compares
      bytes/session against the pricer family's state-array bytes);
    * the eviction-cost curve — ``clock_hand_steps / evictions`` across
      growing resident sizes.  The old LRU scan walked the whole resident
      set per eviction (O(n)); the clock hand must hold a flat, small
      constant.
    """
    num_sessions = args.zipf_sessions
    rows = list(stream_rounds(materialized.slice(0, min(args.rounds, 512))))
    version = list(ALGORITHM_VERSIONS)[0]

    def factory(key):
        return environment.model, build_pricer_for_version(environment, version)

    print(
        "zipf popularity sweep: %d sessions, a=%.2f, %d events, "
        "max %d resident ..."
        % (num_sessions, args.zipf_a, args.zipf_events, args.zipf_max_sessions)
    )
    rng = np.random.default_rng(args.seed)
    pmf = np.arange(1, num_sessions + 1, dtype=np.float64) ** -args.zipf_a
    pmf /= pmf.sum()
    draws = rng.choice(num_sessions, size=args.zipf_events, p=pmf)
    keys = [SessionKey("zipf", "s%07d" % index) for index in range(num_sessions)]

    def run_point(max_sessions, event_draws):
        snapshot_dir = tempfile.mkdtemp(prefix="bench-zipf-")
        registry = PricerRegistry(
            factory,
            snapshot_dir=snapshot_dir,
            max_sessions=max_sessions,
        )
        service = QuoteService(registry, config=micro_batch_config(args))
        start = time.perf_counter()
        for index, rank in enumerate(event_draws):
            row = rows[index % len(rows)]
            key = keys[rank]
            response = service.quote(
                QuoteRequest(key=key, features=row.features, reserve=row.reserve)
            )
            service.feedback(
                FeedbackEvent(
                    key=key,
                    quote_id=response.quote_id,
                    accepted=response.sold_at(row.market_value),
                )
            )
        wall_seconds = time.perf_counter() - start
        stats = registry.stats.as_dict()
        resident = registry.resident_count
        served = service.stats.quotes_served
        settled = service.stats.feedback_applied
        registry.close()
        shutil.rmtree(snapshot_dir, ignore_errors=True)
        events = len(event_draws)
        return {
            "events": events,
            "distinct_sessions_touched": int(np.unique(event_draws).size),
            "max_sessions": max_sessions,
            "wall_seconds": round(wall_seconds, 4),
            "events_per_second": round(events / wall_seconds, 1)
            if wall_seconds > 0
            else float("inf"),
            "lost_quotes": events - settled,
            "hit_rate": round(1.0 - stats["opened"] / max(events, 1), 4),
            "resident_sessions": resident,
            "steps_per_eviction": round(
                stats["clock_hand_steps"] / max(stats["evictions"], 1), 3
            ),
            "evictions_per_second": round(
                stats["evictions"] / wall_seconds, 1
            )
            if wall_seconds > 0
            else float("inf"),
            "bytes_per_session": round(
                stats["resident_bytes"] / max(resident, 1), 1
            ),
            "registry": stats,
            "served": served,
        }

    main_point = run_point(args.zipf_max_sessions, draws)
    print(
        "  %d events in %.2fs -> %.0f events/sec   "
        "%.1f bytes/session resident   %.2f clock steps/eviction"
        % (
            main_point["events"],
            main_point["wall_seconds"],
            main_point["events_per_second"],
            main_point["bytes_per_session"],
            main_point["steps_per_eviction"],
        )
    )

    # The O(1) eviction demonstration: identical event stream against
    # growing resident sets.  An O(n) victim scan would show steps (and
    # cost) growing with the resident size; the clock hand stays flat.
    cost_events = draws[: min(len(draws), 40_000)]
    sizes = sorted(
        {
            max(128, args.zipf_max_sessions // 8),
            max(256, args.zipf_max_sessions // 2),
            args.zipf_max_sessions,
        }
    )
    curve = {
        "resident_sizes": [],
        "steps_per_eviction": [],
        "evictions_per_second": [],
        "events_per_second": [],
    }
    for size in sizes:
        point = run_point(size, cost_events)
        curve["resident_sizes"].append(size)
        curve["steps_per_eviction"].append(point["steps_per_eviction"])
        curve["evictions_per_second"].append(point["evictions_per_second"])
        curve["events_per_second"].append(point["events_per_second"])
        print(
            "  eviction cost @ %5d resident: %.2f steps/eviction, %.0f evictions/sec"
            % (size, point["steps_per_eviction"], point["evictions_per_second"])
        )

    result = dict(main_point)
    result.update(
        {
            "sessions": num_sessions,
            "zipf_a": args.zipf_a,
            "eviction_cost": curve,
        }
    )
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    print(
        "building fig4 workload (n=%d, T=%d per session, %d sessions) ..."
        % (args.dimension, args.rounds, args.sessions)
    )
    environment, materialized, keys, factory = build_workload(args)

    closed_loop = run_closed_loop(args, materialized, keys, factory)

    report = {
        "benchmark": "bench_serving (fig4-style closed-loop, noisy linear query)",
        "config": {
            "rounds": args.rounds,
            "sessions": args.sessions,
            "dimension": args.dimension,
            "owner_count": args.owner_count,
            "delta": args.delta,
            "seed": args.seed,
            "max_batch": max(args.max_batch, args.sessions),
            "max_wait_ms": args.max_wait_ms,
            "persist_every": args.persist_every,
            "snapshot_dir": bool(args.snapshot_dir),
        },
        "cpu_count": os.cpu_count(),
    }
    report.update(closed_loop)

    if args.target_qps > 0:
        report["replay_at_rate"] = run_replay_at_rate(args, materialized, keys, factory)
    if args.net_target_qps > 0:
        report["replay_at_rate_networked"] = run_networked_point(
            args, materialized, keys, factory, args.net_target_qps
        )
    if args.sweep_qps:
        report["replay_at_rate_networked_sweep"] = run_networked_sweep(
            args, materialized, keys, factory
        )
    if args.shards > 0:
        report["sharding"] = run_sharded_scaling(args, materialized, keys, factory)
    if args.zipf_sessions > 0:
        report["zipf"] = run_zipf_popularity(args, environment, materialized)

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)

    qps = report["quotes_per_second"]
    if args.min_qps > 0 and qps < args.min_qps:
        print(
            "ERROR: %.0f quotes/sec below the required %.0f" % (qps, args.min_qps),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
