#!/usr/bin/env python
"""Quickstart: quote over the socket front end against a sharded backend.

Starts a 2-shard :class:`~repro.serving.sharding.ShardedRegistry` (each
worker process owns its own pricer registry + micro-batching quote service),
exposes it through the asyncio :class:`~repro.serving.frontend.QuoteFrontend`
on a unix socket, and drives two short closed-loop sessions from the
blocking :class:`~repro.serving.client.QuoteSocketClient`: quote → settle
against the realised market value → feedback → next round.

On the wire every frame is a 4-byte big-endian length and a body: quotes,
results and feedback travel as columnar binary batches that carry prices
and features as raw IEEE doubles; ``ping`` and ``stats`` are small JSON
frames.  Everything here is deterministic: the market is the noisy linear
query market of Fig. 4 with a fixed seed, so re-running prints identical
prices.

Usage::

    PYTHONPATH=src python examples/serve_socket.py
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.apps.common import build_pricer_for_version
from repro.apps.noisy_linear_query import NoisyLinearQueryConfig, build_noisy_query_environment
from repro.engine import prepare, stream_rounds
from repro.serving import (
    MicroBatchConfig,
    QuoteSocketClient,
    SessionKey,
    ShardedRegistry,
    start_frontend_thread,
)

ROUNDS = 24


def main() -> int:
    # A deterministic noisy-linear-query market (n = 20, as in Fig. 4).
    environment = build_noisy_query_environment(
        NoisyLinearQueryConfig(dimension=20, rounds=ROUNDS, owner_count=200, seed=11)
    )
    materialized = prepare(environment.model, environment.arrival_batch())

    def factory(key: SessionKey):
        return environment.model, build_pricer_for_version(environment, key.segment)

    socket_path = os.path.join(tempfile.mkdtemp(prefix="repro-serving-"), "quotes.sock")
    print("starting 2-shard backend + asyncio front end on %s" % socket_path)
    with ShardedRegistry(
        factory,
        num_shards=2,
        config=MicroBatchConfig(max_batch=1, max_wait_seconds=0.0),
    ) as backend:
        handle = start_frontend_thread(backend, unix_path=socket_path)
        try:
            with QuoteSocketClient(unix_path=socket_path) as client:
                client.ping()
                keys = [
                    SessionKey("queries", "pure version"),
                    SessionKey("queries", "with reserve price"),
                ]
                for key in keys:
                    print(
                        "session %s -> shard %d" % (key, backend.shard_of(key))
                    )
                revenue = {key: 0.0 for key in keys}
                for round_ in stream_rounds(materialized):
                    for key in keys:
                        result = client.quote(
                            key, round_.features, reserve=round_.reserve
                        )
                        posted = result["posted_price"]
                        sold = posted is not None and posted <= round_.market_value
                        client.feedback(key, result["quote_id"], sold)
                        if sold:
                            revenue[key] += posted
                        if round_.index < 3:
                            print(
                                "  round %2d  %-18s quote_id=%-5d posted=%s sold=%s"
                                % (
                                    round_.index,
                                    key.segment,
                                    result["quote_id"],
                                    "skip" if posted is None else "%.4f" % posted,
                                    sold,
                                )
                            )
                stats = client.stats()
                print(
                    "served %d quotes over the socket (%d feedback events, "
                    "%d sessions resident across %d shards)"
                    % (
                        stats["quotes_served"],
                        stats["feedback_applied"],
                        stats["sessions_resident"],
                        stats["shards"],
                    )
                )
                for key in keys:
                    print("  revenue %-26s %.4f" % (key, revenue[key]))
        finally:
            handle.stop()
    print("done.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
