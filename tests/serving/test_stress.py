"""Concurrency/fault stress tier for the socket frontend.

The async serving path must stay correct and **bounded** under hostile
concurrency: many pipelined clients, clients that stop reading, clients
that disconnect mid-flight, and shutdown with quotes in flight.  The
assertions are structural, not eyeballed — the waiter map and the
per-connection budgets are proved bounded through the frontend's own
counters (``peak_waiters`` is recorded under the same lock as the
admission check), and quote ids are collected end-to-end to prove nothing
is stranded or double-served.

The backend here is a deliberately dumb echo pricer (optionally slow) —
the stress tier pins the *transport and accounting* layer; transcript
exactness is pinned by the golden tiers.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.core.base import PricingDecision
from repro.exceptions import BackpressureError, ServingError
from repro.serving import (
    AsyncQuoteClient,
    MicroBatchConfig,
    PricerRegistry,
    QuoteService,
    QuoteSocketClient,
    SessionKey,
    start_frontend_thread,
)
from repro.serving.wire import encode_quote_batch


class EchoModel:
    def link(self, price):
        return price


class EchoPricer:
    """Stateless stub: prices every query at its first feature (optionally slowly)."""

    supports_batch_propose = False

    def __init__(self, delay: float = 0.0):
        self.rounds_seen = 0
        self.delay = delay

    def propose(self, features, reserve=None):
        if self.delay:
            time.sleep(self.delay)
        index = self.rounds_seen
        self.rounds_seen += 1
        price = float(np.atleast_1d(np.asarray(features, dtype=float))[0])
        return PricingDecision(
            features=np.atleast_1d(np.asarray(features, dtype=float)),
            reserve=reserve,
            lower_bound=0.0,
            upper_bound=float("inf"),
            price=price,
            exploratory=False,
            skipped=False,
            round_index=index,
        )

    def update(self, decision, accepted):
        pass


def _service(delay: float = 0.0, max_batch: int = 16) -> QuoteService:
    registry = PricerRegistry(lambda _key: (EchoModel(), EchoPricer(delay=delay)))
    return QuoteService(
        registry, config=MicroBatchConfig(max_batch=max_batch, max_wait_seconds=0.0)
    )


def _start(tmp_path, service, **frontend_options):
    return start_frontend_thread(
        service,
        unix_path=str(tmp_path / "stress.sock"),
        drain_interval=0.0005,
        **frontend_options,
    )


KEY = SessionKey("stress", "segment")


# --------------------------------------------------------------------------- #
# Pipelined clients: threads + asyncio, exact id accounting
# --------------------------------------------------------------------------- #


def test_pipelined_and_threaded_clients_no_stranded_or_double_served(tmp_path):
    """3 pipelined asyncio clients + 2 blocking thread clients hammer one
    frontend; every quote is answered exactly once and the waiter map ends
    empty."""
    service = _service()
    handle = _start(tmp_path, service)
    quotes_per_async_client, async_clients = 60, 3
    quotes_per_thread, threads = 40, 2
    seen_lock = threading.Lock()
    seen_ids = []

    async def _async_session(worker: int):
        key = SessionKey("stress", "async-%d" % worker)
        async with await AsyncQuoteClient.connect(unix_path=handle.address) as client:
            futures = [
                client.submit_quote(key, [float(i), 1.0], reserve=None)
                for i in range(quotes_per_async_client)
            ]
            results = await asyncio.gather(*futures)
            await asyncio.gather(
                *[
                    client.submit_feedback(key, r["quote_id"], accepted=True)
                    for r in results
                ]
            )
            with seen_lock:
                seen_ids.extend(r["quote_id"] for r in results)

    async def _async_main():
        await asyncio.gather(*[_async_session(w) for w in range(async_clients)])

    def _thread_session(worker: int):
        key = SessionKey("stress", "thread-%d" % worker)
        with QuoteSocketClient(unix_path=handle.address) as client:
            for i in range(quotes_per_thread):
                result = client.quote(key, [float(i), 2.0])
                client.feedback(key, result["quote_id"], accepted=False)
                with seen_lock:
                    seen_ids.append(result["quote_id"])

    workers = [
        threading.Thread(target=_thread_session, args=(w,)) for w in range(threads)
    ]
    for worker in workers:
        worker.start()
    try:
        asyncio.run(_async_main())
    finally:
        for worker in workers:
            worker.join(timeout=30)
    total = async_clients * quotes_per_async_client + threads * quotes_per_thread
    try:
        assert len(seen_ids) == total
        # No double-serving: every answered quote id is unique.
        assert len(set(seen_ids)) == total
        # No stranding: every submitted quote was served and settled.
        assert service.stats.quotes_served == total
        assert service.stats.feedback_applied == total
        # The waiter map drained completely — nothing leaked.
        assert handle.frontend.waiter_count == 0
        assert handle.frontend.stats.rejected == 0
    finally:
        handle.stop()


# --------------------------------------------------------------------------- #
# Bounded waiter map and per-connection budgets
# --------------------------------------------------------------------------- #


def _window_service(max_wait_seconds: float = 0.2) -> QuoteService:
    """A service whose micro-batch window stays open for a while.

    Admitted quotes accumulate in the waiter map until the time bound
    closes the window, which makes the backpressure bounds deterministic to
    exercise: a pipelined flood races far ahead of the first drain.
    """
    registry = PricerRegistry(lambda _key: (EchoModel(), EchoPricer()))
    return QuoteService(
        registry,
        config=MicroBatchConfig(max_batch=10_000, max_wait_seconds=max_wait_seconds),
    )


def test_waiter_map_bound_is_provably_enforced(tmp_path):
    """Flood an open micro-batch window with far more pipelined quotes than
    ``max_waiters``: exactly the excess is rejected with BackpressureError,
    the recorded peak never exceeds the bound, and every admitted quote is
    still served once the window closes."""
    bound, flood = 6, 48
    service = _window_service()
    handle = _start(tmp_path, service, max_waiters=bound)

    async def _flood():
        async with await AsyncQuoteClient.connect(unix_path=handle.address) as client:
            futures = [
                client.submit_quote(KEY, [float(i)]) for i in range(flood)
            ]
            return await asyncio.gather(*futures, return_exceptions=True)

    try:
        outcomes = asyncio.run(_flood())
        served = [o for o in outcomes if isinstance(o, dict)]
        rejected = [o for o in outcomes if isinstance(o, BackpressureError)]
        unexpected = [
            o for o in outcomes if not isinstance(o, (dict, BackpressureError))
        ]
        assert unexpected == []
        assert len(served) + len(rejected) == flood
        assert len(rejected) > 0  # the flood genuinely hit the bound
        # Bounded, asserted, not eyeballed: the peak is recorded under the
        # admission lock, so this is exact.
        assert handle.frontend.stats.peak_waiters <= bound
        assert handle.frontend.stats.rejected_waiter_map == len(rejected)
        # Every admitted quote was served exactly once.
        assert len({r["quote_id"] for r in served}) == len(served)
        assert handle.frontend.waiter_count == 0
    finally:
        handle.stop()


def test_per_connection_budget_spares_other_connections(tmp_path):
    """One greedy pipelined connection exhausts its budget and is rejected;
    a second connection on the same frontend is still admitted."""
    budget, flood = 4, 24
    service = _window_service()
    handle = _start(
        tmp_path, service, max_outstanding_per_connection=budget, max_waiters=1024
    )

    async def _run():
        greedy = await AsyncQuoteClient.connect(unix_path=handle.address)
        polite = await AsyncQuoteClient.connect(unix_path=handle.address)
        try:
            futures = [greedy.submit_quote(KEY, [float(i)]) for i in range(flood)]
            # The polite client's single quote must be admitted even while
            # the greedy connection is saturated (its own budget is fresh).
            polite_key = SessionKey("stress", "polite")
            polite_result = await polite.quote(polite_key, [7.0])
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            return polite_result, outcomes
        finally:
            await greedy.close()
            await polite.close()

    try:
        polite_result, outcomes = asyncio.run(_run())
        assert polite_result["quote_id"] >= 0
        rejected = [o for o in outcomes if isinstance(o, BackpressureError)]
        served = [o for o in outcomes if isinstance(o, dict)]
        assert len(served) + len(rejected) == flood
        assert len(served) <= budget + 1  # admitted while below the budget only
        assert len(rejected) > 0
        assert handle.frontend.stats.rejected_connection_budget == len(rejected)
        assert handle.frontend.waiter_count == 0
    finally:
        handle.stop()


# --------------------------------------------------------------------------- #
# Slow readers and mid-flight disconnects
# --------------------------------------------------------------------------- #


def _wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def test_slow_reader_is_aborted_and_server_survives(tmp_path):
    """A client that submits thousands of quotes but never reads must be
    disconnected once its responses exceed the write-buffer bound — and a
    healthy client on the same frontend keeps working."""
    service = _service()
    handle = _start(tmp_path, service, max_write_buffer_bytes=32 * 1024)
    import socket as socket_module

    slow = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    slow.connect(handle.address)
    slow.settimeout(30)
    try:
        # 16,000 results at ~53B apiece (batches of up to 16 per drain)
        # ≫ kernel socket buffer + 32 KiB transport bound, so the abort must
        # trigger; the client never reads.
        try:
            for start in range(0, 16_000, 10):
                slow.sendall(encode_quote_batch([
                    {"app": "stress", "segment": "slow", "features": [1.0, 2.0],
                     "reserve": None, "id": index}
                    for index in range(start, start + 10)
                ]))
        except (BrokenPipeError, ConnectionResetError):
            pass  # aborted mid-flood — exactly the point
        assert _wait_until(lambda: handle.frontend.stats.slow_reader_disconnects == 1)
        # Its waiters were dropped, not leaked.
        assert _wait_until(lambda: handle.frontend.waiter_count == 0)
        with QuoteSocketClient(unix_path=handle.address) as healthy:
            healthy.ping()
            result = healthy.quote(SessionKey("stress", "healthy"), [3.0])
            stats = healthy.stats()
            assert stats["frontend"]["slow_reader_disconnects"] == 1
            assert result["posted_price"] == 3.0
    finally:
        slow.close()
        handle.stop()


def test_mid_flight_disconnect_cleans_waiters(tmp_path):
    """A client that submits quotes and hangs up before reading leaves no
    waiter-map residue; the backend still serves (and discards) them."""
    service = _service(delay=0.01)
    handle = _start(tmp_path, service)

    async def _hit_and_run():
        client = await AsyncQuoteClient.connect(unix_path=handle.address)
        futures = [client.submit_quote(KEY, [float(i)]) for i in range(5)]
        await client.drain()  # frames actually on the wire
        # Wait until the frontend registered at least one waiter, so the
        # disconnect genuinely races in-flight quotes.
        for _ in range(1000):
            if handle.frontend.waiter_count > 0:
                break
            await asyncio.sleep(0.001)
        await client.close()
        # Every abandoned future must be resolved (served or failed by the
        # hang-up) — retrieving them also keeps the event loop quiet.
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
        assert all(isinstance(o, (dict, ServingError)) for o in outcomes)

    try:
        asyncio.run(_hit_and_run())
        assert _wait_until(lambda: handle.frontend.waiter_count == 0)
        # Quotes parsed before the hang-up are served (and their responses
        # discarded); frames still unparsed when the connection died are
        # shed — either way nothing may linger in the waiter map.
        assert _wait_until(lambda: 1 <= service.stats.quotes_served <= 5)
        assert _wait_until(
            lambda: handle.frontend.stats.connections_closed
            == handle.frontend.stats.connections_opened
        )
        with QuoteSocketClient(unix_path=handle.address) as healthy:
            healthy.ping()
    finally:
        handle.stop()


# --------------------------------------------------------------------------- #
# Clean shutdown
# --------------------------------------------------------------------------- #


def test_clean_shutdown_with_quotes_in_flight(tmp_path):
    """Stopping the frontend with pipelined quotes outstanding must return
    promptly and fail every pending client future — no hangs, no leaks."""
    service = _service(delay=0.02)
    handle = _start(tmp_path, service)

    async def _submit_then_die():
        client = await AsyncQuoteClient.connect(unix_path=handle.address)
        futures = [client.submit_quote(KEY, [float(i)]) for i in range(10)]
        await client.drain()
        stopped = asyncio.get_running_loop().run_in_executor(None, handle.stop)
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
        await stopped
        # Submitting on the dead connection must fail fast, not hang: no
        # reader is left to ever resolve a new future.
        if any(isinstance(o, ServingError) for o in outcomes):
            with pytest.raises(ServingError):
                client.submit_quote(KEY, [99.0])
        await client.close()
        return outcomes

    begin = time.monotonic()
    outcomes = asyncio.run(_submit_then_die())
    elapsed = time.monotonic() - begin
    assert elapsed < 15.0, "shutdown with in-flight quotes took %.1fs" % elapsed
    # Every future resolved — served before the stop, or failed by the
    # hang-up — none is left pending forever.
    assert all(isinstance(o, (dict, ServingError)) for o in outcomes)
    assert handle.frontend.waiter_count == 0
    assert not handle.thread.is_alive()


def test_stats_frame_reports_frontend_bounds(tmp_path):
    service = _service()
    handle = _start(
        tmp_path,
        service,
        max_waiters=123,
        max_outstanding_per_connection=45,
        max_write_buffer_bytes=6789,
    )
    try:
        with QuoteSocketClient(unix_path=handle.address) as client:
            frontend = client.stats()["frontend"]
        assert frontend["limits"] == {
            "max_waiters": 123,
            "max_outstanding_per_connection": 45,
            "max_write_buffer_bytes": 6789,
        }
        assert frontend["connections_open"] == 1
        assert frontend["waiters"] == 0
    finally:
        handle.stop()
