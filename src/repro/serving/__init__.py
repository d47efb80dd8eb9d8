"""Online quote-serving subsystem.

This package turns the batch simulator into a request/response pricing
service — the paper's Section V-D *online* story (millisecond per-round quote
latency under live arrivals) as an actual serving layer:

* :mod:`repro.serving.store` — :class:`PricerRegistry`, the session
  registry keyed by ``(app, segment)``: the live pricer is each resident
  session's only in-memory state; the registry hydrates pricers from
  snapshots, persists them on a write-behind cadence, and evicts cold
  sessions with an O(1) clock hand, over one snapshot format: a segment log
  of mmap-backed data files and a JSONL index, compacted once dead entries
  outweigh live ones;
* :mod:`repro.serving.service` — :class:`QuoteService`, a micro-batching
  quote queue that coalesces concurrent requests within a time/size window
  into columnar ``propose_batch`` calls where legal, plus the feedback path
  applying accept/reject outcomes through ``update_batch`` / ``update``;
* :mod:`repro.serving.loop` — :func:`serve_closed_loop`, the round-by-round
  driver whose transcript is bit-identical to the offline engine
  (``tests/serving/`` pins this for every golden pricer family);
* :mod:`repro.serving.sharding` — :class:`ShardedRegistry`, a router hashing
  session keys across N worker processes (one registry + service per
  worker, quote/feedback dispatch over pipes, a segment log per shard);
* :mod:`repro.serving.wire` — the length-prefixed framing and its codecs:
  quotes, results, feedback and acks cross the socket only as columnar
  binary v2 batches of tagged items; JSON frames carry only the control ops
  (``flush``, ``stats``, ``ping``), their replies and errors;
* :mod:`repro.serving.frontend` — :class:`QuoteFrontend`, the asyncio socket
  server (TCP or unix socket) over either backend, dispatching each
  event-loop tick's frames as one coalesced backend call, with
  bounded-waiter / per-connection-budget / slow-reader backpressure;
* :mod:`repro.serving.client` — the one client core:
  :class:`AsyncQuoteClient` (pipelined, multiple outstanding requests per
  connection, futures keyed by request tag, writes coalesced per
  event-loop tick), its blocking wrapper :class:`QuoteSocketClient`, and
  :func:`serve_closed_loop_async`, the through-the-wire twin of the
  closed-loop driver;
* :mod:`repro.serving.resharding` — **offline** snapshot migration between
  shard counts: append every segment record of an N-shard tree verbatim to
  the log its key hashes to under M shards, with byte-exact verification
  (``scripts/reshard.py`` is the CLI);
* :mod:`repro.serving.rebalance` — **online** N→M resharding:
  :class:`LiveRebalancer` re-homes sessions one at a time through the
  router's per-session quiesce (park admissions, drain, relay the segment
  record to the target shard's log, replay parked quotes on the target
  shard) while every other session keeps serving, then commits the
  versioned routing table (``scripts/rebalance.py`` is the CLI).

Load generation lives in ``scripts/bench_serving.py`` (quotes/sec, p50/p99
quote latency, replay-at-rate pacing — in-process and through the socket —
and shard scaling → ``BENCH_serving.json``).
"""

from repro.serving.client import (
    AsyncQuoteClient,
    QuoteSocketClient,
    frame_sold_at,
    serve_closed_loop_async,
)
from repro.serving.frontend import (
    FrontendHandle,
    FrontendStats,
    QuoteFrontend,
    start_frontend_thread,
)
from repro.serving.loop import serve_closed_loop
from repro.serving.rebalance import (
    LiveRebalancer,
    RebalanceReport,
    SessionRebalance,
    rebalance_live,
)
from repro.serving.requests import FeedbackEvent, QuoteRequest, QuoteResponse, SessionKey
from repro.serving.resharding import (
    ReshardReport,
    SessionMove,
    plan_reshard,
    reshard_snapshots,
    verify_reshard,
)
from repro.serving.service import MicroBatchConfig, QuoteService, ServiceStats
from repro.serving.sharding import RoutingTable, ShardedRegistry, shard_of_key
from repro.serving.store import (
    PricerRegistry,
    PricingSession,
    RegistryStats,
    SegmentLog,
    list_segment_sessions,
)
from repro.serving.wire import WIRE_V2, FrameDecoder

__all__ = [
    "AsyncQuoteClient",
    "FeedbackEvent",
    "FrameDecoder",
    "FrontendHandle",
    "FrontendStats",
    "LiveRebalancer",
    "MicroBatchConfig",
    "PricerRegistry",
    "PricingSession",
    "QuoteFrontend",
    "QuoteRequest",
    "QuoteResponse",
    "QuoteService",
    "QuoteSocketClient",
    "RebalanceReport",
    "RegistryStats",
    "ReshardReport",
    "RoutingTable",
    "SegmentLog",
    "ServiceStats",
    "SessionKey",
    "SessionMove",
    "SessionRebalance",
    "ShardedRegistry",
    "WIRE_V2",
    "frame_sold_at",
    "list_segment_sessions",
    "plan_reshard",
    "rebalance_live",
    "reshard_snapshots",
    "serve_closed_loop",
    "serve_closed_loop_async",
    "shard_of_key",
    "start_frontend_thread",
    "verify_reshard",
]
