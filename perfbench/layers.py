"""Per-layer metrics of a traced run.

Each layer is named after the program module it times.  The table lists
every metric with its unit and which way is better; a metric a workload
does not exercise reads 0 (its call count says so).  ``BENCHMARK.json``'s
``per_layer`` list is this table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from perfbench import common
from perfbench.stats import TooFewSamples
from perfbench.tracer import BOUNDARIES

#: name -> (unit, better)
TABLE: Dict[str, Tuple[str, str]] = {}
for _boundary in BOUNDARIES:
    TABLE[_boundary + ".calls"] = ("count", "higher")
    TABLE[_boundary + ".busy_s"] = ("s", "lower")
    TABLE[_boundary + ".self_s"] = ("s", "lower")
    TABLE[_boundary + ".p50_us"] = ("us", "lower")
TABLE.update({
    "latency_p99_ms": ("ms", "lower"),
    "store.session.p99_us": ("us", "lower"),
    "core.cuts": ("per_1k", "lower"),
    "core.exploratory_share": ("ratio", "lower"),
    "core.skip_share": ("ratio", "lower"),
    "service.quotes_per_drain": ("count", "higher"),
    "service.queue_wait_p50_ms": ("ms", "lower"),
    "service.errors": ("count", "lower"),
    "store.hit_rate": ("ratio", "higher"),
    "store.hydrations": ("per_1k", "lower"),
    "store.creations": ("per_1k", "lower"),
    "store.evictions": ("per_1k", "lower"),
    "store.persists": ("per_1k", "lower"),
    "store.steps_per_eviction": ("count", "lower"),
    "store.resident_bytes": ("bytes", "lower"),
    "frontend.quotes_per_hop": ("count", "higher"),
    "frontend.frames_per_tick": ("count", "higher"),
    "wire.bytes_per_quote": ("bytes", "lower"),
    "frontend.rejected": ("count", "lower"),
    "frontend.peak_waiters": ("count", "lower"),
    "server.cpu_ms_per_quote": ("ms", "lower"),
    "server.residual_p50_ms": ("ms", "lower"),
    "client.rtt_p99_ms": ("ms", "lower"),
    "client.cpu_share": ("ratio", "lower"),
    "client.errors": ("count", "lower"),
    "driver.share": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
})

UNITS = {name: unit for name, (unit, _better) in TABLE.items()}


def lookup(mapping, *path):
    """``mapping[path[0]][path[1]]...``, or ``None`` when a key is missing."""
    for key in path:
        if not isinstance(mapping, dict) or key not in mapping:
            return None
        mapping = mapping[key]
    return mapping


def per_layer(result: dict, tracer, setup_summary, server: Optional[dict],
              untraced: dict) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics of one traced window, and the names left
    absent because an optional stats-frame key was missing."""
    metrics: Dict[str, float] = {name: 0.0 for name in TABLE}
    absent: List[str] = []
    ops = result["attempted"]

    spans = dict(tracer.summary())
    spans["market.build"] = setup_summary["market.build"]
    if server and "spans" in server:
        for name, figures in server["spans"].items():
            if figures["calls"]:
                spans[name] = figures
    for name, figures in spans.items():
        for field in ("calls", "busy_s", "self_s", "p50_us"):
            metrics["%s.%s" % (name, field)] = figures[field]
    metrics["store.session.p99_us"] = spans["store.session"].get("p99_us", 0.0)

    metrics.update(result.get("core") or (server or {}).get("core") or {})

    service = result.get("service_delta")
    if service:
        metrics["service.quotes_per_drain"] = service["quotes_served"] / max(service["drains"], 1)
    metrics["service.errors"] = (server or {}).get("errors", tracer.errors)
    wait = result.get("queue_wait_p50_ms", (server or {}).get("queue_wait_p50_ms"))
    metrics["service.queue_wait_p50_ms"] = wait or 0.0

    before, after = result.get("store_before"), result.get("store_after")
    if before and after:
        delta = {key: after[key] - before[key] for key in after if key in before}
        calls = metrics["store.session.calls"]
        metrics["store.hit_rate"] = 1.0 - delta["opened"] / calls if calls else 0.0
        metrics["store.hydrations"] = common.per_k(delta["hydrations"], ops)
        metrics["store.creations"] = common.per_k(delta["created"], ops)
        metrics["store.evictions"] = common.per_k(delta["evictions"], ops)
        metrics["store.persists"] = common.per_k(delta["persists"], ops)
        if delta["evictions"]:
            metrics["store.steps_per_eviction"] = delta["clock_hand_steps"] / delta["evictions"]
        metrics["store.resident_bytes"] = result["resident_bytes"]

    frame = result.get("stats_frame")
    if frame is not None:
        served = lookup(frame, "quotes_served")
        wire = {
            "frontend.quotes_per_hop": lookup(frame, "frontend", "wire", "submit_batch", "mean"),
            "frontend.frames_per_tick": lookup(frame, "frontend", "wire", "frames_per_tick", "mean"),
            "frontend.rejected": lookup(frame, "frontend", "rejected"),
            "frontend.peak_waiters": lookup(frame, "frontend", "peak_waiters"),
        }
        bytes_in = lookup(frame, "frontend", "wire", "bytes_in")
        bytes_out = lookup(frame, "frontend", "wire", "bytes_out")
        if None not in (bytes_in, bytes_out, served) and served:
            wire["wire.bytes_per_quote"] = (bytes_in + bytes_out) / served
        else:
            wire["wire.bytes_per_quote"] = None
        for name, value in wire.items():
            if value is None:
                absent.append(name)
                del metrics[name]
            else:
                metrics[name] = value
        quotes = result["attempted"]
        metrics["server.cpu_ms_per_quote"] = 1e3 * result["server_cpu_s"] / quotes
        rtt_p50 = result["latency"].percentile_ms(50)
        if server and "root_cover_s" in server:
            metrics["server.residual_p50_ms"] = rtt_p50 - 1e3 * server["root_cover_s"] / quotes
        metrics["client.rtt_p99_ms"] = spans["client.submit_quote"].get("p99_us", 0.0) / 1e3
        metrics["client.cpu_share"] = result["client_cpu_s"] / result["wall_s"]

    latency = untraced.get("latency")
    if latency is not None:
        try:
            metrics["latency_p99_ms"] = latency.percentile_ms(99)
        except TooFewSamples:
            absent.append("latency_p99_ms")
            del metrics["latency_p99_ms"]

    metrics["driver.share"] = 1.0 - tracer.root_cover_s() / result["wall_s"]
    metrics["trace.overhead"] = untraced["ops_per_s"] / result["ops_per_s"] - 1.0
    return metrics, absent
