"""Micro-batch window semantics and the coalesced feedback path."""

import numpy as np
import pytest

from repro.core.baselines import RiskAversePricer
from repro.core.models import LinearModel
from repro.core.pricing import make_pricer
from repro.exceptions import ServingError
from repro.serving import (
    FeedbackEvent,
    MicroBatchConfig,
    PricerRegistry,
    QuoteRequest,
    QuoteService,
    SessionKey,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class CountingRiskAverse(RiskAversePricer):
    """Instrumented stateless pricer: counts batched protocol entry points."""

    def __init__(self):
        super().__init__()
        self.propose_calls = 0
        self.propose_batch_calls = 0
        self.update_batch_calls = 0

    def propose(self, features, reserve=None):
        self.propose_calls += 1
        return super().propose(features, reserve=reserve)

    def propose_batch(self, features, reserves):
        self.propose_batch_calls += 1
        return super().propose_batch(features, reserves)

    def update_batch(self, decisions, accepted):
        self.update_batch_calls += 1
        return super().update_batch(decisions, accepted)


def _model(dimension=3):
    return LinearModel(np.full(dimension, 1.0))


def _service(pricer_factory, max_batch=8, max_wait_seconds=0.010):
    clock = FakeClock()
    registry = PricerRegistry(lambda key: (_model(), pricer_factory()))
    service = QuoteService(
        registry,
        config=MicroBatchConfig(max_batch=max_batch, max_wait_seconds=max_wait_seconds),
        clock=clock,
    )
    return service, clock


def _request(key, reserve=0.4):
    return QuoteRequest(key=key, features=np.array([0.5, 0.3, 0.2]), reserve=reserve)


def test_window_holds_until_time_bound():
    service, clock = _service(CountingRiskAverse)
    key = SessionKey("app", "s")
    for _ in range(3):
        service.submit(_request(key))
    assert service.poll() == []  # window open: under both bounds
    assert service.queued == 3
    clock.advance(0.011)
    responses = service.poll()
    assert len(responses) == 3
    assert service.queued == 0


def test_window_closes_on_size_bound():
    service, clock = _service(CountingRiskAverse, max_batch=4)
    key = SessionKey("app", "s")
    for _ in range(4):
        service.submit(_request(key))
    # No time has passed, but the size bound fires the drain.
    responses = service.poll()
    assert len(responses) == 4


def test_stateless_session_coalesces_into_one_propose_batch():
    service, clock = _service(CountingRiskAverse, max_batch=4)
    key = SessionKey("app", "s")
    quote_ids = [service.submit(_request(key, reserve=0.3 + 0.1 * i)) for i in range(4)]
    responses = service.poll()
    pricer = service.registry.peek(key).pricer
    assert pricer.propose_batch_calls == 1
    assert pricer.propose_calls == 0
    assert service.stats.batched_proposals == 1
    # Element-wise identical to the sequential protocol: the risk-averse
    # baseline posts the reserve.
    assert [r.link_price for r in responses] == [0.3 + 0.1 * i for i in range(4)]
    assert [r.round_index for r in responses] == [0, 1, 2, 3]

    # The coalesced feedback path goes through update_batch, once.
    events = [
        FeedbackEvent(key=key, quote_id=quote_id, accepted=True) for quote_id in quote_ids
    ]
    service.feedback_batch(events)
    assert pricer.update_batch_calls == 1
    assert not service.registry.peek(key).pending
    assert service.stats.feedback_applied == 4


def test_learning_session_proposes_sequentially():
    service, clock = _service(
        lambda: make_pricer(dimension=3, radius=3.0, epsilon=0.1), max_batch=3
    )
    key = SessionKey("app", "ellipsoid")
    for _ in range(3):
        service.submit(_request(key))
    responses = service.poll()
    assert len(responses) == 3
    # Feedback-dependent pricers have no propose_batch; the drain used the
    # object protocol and every quote has a pending decision.
    assert len(service.registry.peek(key).pending) == 3
    service.feedback_batch(
        [FeedbackEvent(key=key, quote_id=r.quote_id, accepted=False) for r in responses]
    )
    assert not service.registry.peek(key).pending


def test_drain_groups_by_session_preserving_order():
    service, clock = _service(CountingRiskAverse, max_batch=8)
    key_a, key_b = SessionKey("app", "a"), SessionKey("app", "b")
    order = [key_a, key_b, key_a, key_b]
    ids = [service.submit(_request(key)) for key in order]
    responses = service.flush()
    assert len(responses) == 4
    # Grouped by session, first-come order within each group.
    assert [r.key for r in responses] == [key_a, key_a, key_b, key_b]
    assert [r.quote_id for r in responses] == [ids[0], ids[2], ids[1], ids[3]]
    # One columnar call per session, not per request.
    assert service.registry.peek(key_a).pricer.propose_batch_calls == 1
    assert service.registry.peek(key_b).pricer.propose_batch_calls == 1


def test_quote_returns_own_response_and_parks_the_rest():
    service, clock = _service(CountingRiskAverse)
    key = SessionKey("app", "s")
    parked_id = service.submit(_request(key))
    response = service.quote(_request(key, reserve=0.9))
    assert response.link_price == 0.9
    # The co-drained request is waiting in the outbox.
    rest = service.poll()
    assert [r.quote_id for r in rest] == [parked_id]


def test_per_quote_latency_includes_queueing_delay():
    service, clock = _service(CountingRiskAverse, max_wait_seconds=0.005)
    key = SessionKey("app", "s")
    service.submit(_request(key))
    clock.advance(0.006)
    (response,) = service.poll()
    assert response.latency_seconds == pytest.approx(0.006)
    assert service.stats.latency.count == 1


def test_feedback_for_unknown_quote_raises():
    service, clock = _service(CountingRiskAverse)
    key = SessionKey("app", "s")
    response = service.quote(_request(key))
    service.feedback(FeedbackEvent(key=key, quote_id=response.quote_id, accepted=True))
    with pytest.raises(ServingError):
        service.feedback(FeedbackEvent(key=key, quote_id=response.quote_id, accepted=True))
    with pytest.raises(ServingError):
        service.feedback(FeedbackEvent(key=key, quote_id=999, accepted=False))


def test_feedback_batch_rejects_bad_ids_without_stranding_valid_outcomes():
    """A bad quote id anywhere in the window must leave every pending
    decision settleable — no half-applied group."""
    service, clock = _service(CountingRiskAverse, max_batch=4)
    key = SessionKey("app", "s")
    ids = [service.submit(_request(key)) for _ in range(3)]
    service.flush()
    session = service.registry.peek(key)
    assert len(session.pending) == 3

    bad = [FeedbackEvent(key=key, quote_id=ids[0], accepted=True),
           FeedbackEvent(key=key, quote_id=999, accepted=True)]
    with pytest.raises(ServingError):
        service.feedback_batch(bad)
    assert len(session.pending) == 3  # nothing was popped
    assert session.pricer.update_batch_calls == 0

    duplicated = [FeedbackEvent(key=key, quote_id=ids[0], accepted=True),
                  FeedbackEvent(key=key, quote_id=ids[0], accepted=False)]
    with pytest.raises(ServingError):
        service.feedback_batch(duplicated)
    assert len(session.pending) == 3

    service.feedback_batch(
        [FeedbackEvent(key=key, quote_id=quote_id, accepted=True) for quote_id in ids]
    )
    assert not session.pending


def test_drain_failure_requeues_untouched_groups_and_names_lost_quotes():
    class FlakyPricer(CountingRiskAverse):
        supports_batch_propose = False  # force the sequential path

        def propose(self, features, reserve=None):
            if self.propose_calls == 1:
                self.propose_calls += 1
                raise RuntimeError("pricer blew up")
            return super().propose(features, reserve=reserve)

    clock = FakeClock()
    built = {}

    def factory(key):
        built[key] = FlakyPricer() if key.segment == "flaky" else CountingRiskAverse()
        return _model(), built[key]

    service = QuoteService(
        PricerRegistry(factory),
        config=MicroBatchConfig(max_batch=16, max_wait_seconds=0.01),
        clock=clock,
    )
    flaky, healthy = SessionKey("app", "flaky"), SessionKey("app", "healthy")
    ids = [service.submit(_request(key)) for key in (flaky, flaky, flaky, healthy, healthy)]
    with pytest.raises(ServingError) as excinfo:
        service.flush()
    # The first flaky quote was served before the failure; the two unserved
    # flaky quote ids are named in the error.
    assert str(ids[1]) in str(excinfo.value) and str(ids[2]) in str(excinfo.value)
    responses = service.poll()  # the emitted response survives in the outbox
    assert [r.quote_id for r in responses] == [ids[0]]
    # The healthy group went back to the queue, in order, and serves cleanly.
    assert service.queued == 2
    clock.advance(0.02)
    assert [r.quote_id for r in service.poll()] == [ids[3], ids[4]]


def test_a_quote_priced_at_minus_inf_fails_instead_of_posting():
    """``x^T A x`` overflows on the radius-4 ball, so the ellipsoid pricer's
    midpoint is NaN and its price -inf, which no feedback can settle (the
    offline engine raises at that round's cut): the quote fails with its id
    named and nothing pending, and the session serves on."""
    theta = np.array([1.1, 0.7, 0.4, 0.9])
    service = QuoteService(
        PricerRegistry(
            lambda key: (LinearModel(theta), make_pricer(dimension=4, radius=4.0, epsilon=0.05))
        ),
        config=MicroBatchConfig(max_batch=1, max_wait_seconds=0.0),
    )
    key = SessionKey("app", "overflow")
    lost = service.submit(QuoteRequest(key=key, features=np.array([0.0, 0.0, 0.0, 2.04e154])))
    with np.errstate(over="ignore"):
        with pytest.raises(ServingError, match="price must be finite, got -inf") as excinfo:
            service.flush()
    assert excinfo.value.lost_quote_ids == [lost]
    assert service.registry.session(key).pending == {}
    served = service.submit(QuoteRequest(key=key, features=np.array([0.1, 0.2, 0.3, 0.4])))
    (response,) = service.flush()
    assert response.quote_id == served and np.isfinite(response.posted_price)
    assert service.feedback_many([FeedbackEvent(key, served, True)]) == [None]


class ThrowingLinkModel(LinearModel):
    """A value model whose link translation blows up on the N-th call."""

    def __init__(self, theta, fail_on_call):
        super().__init__(theta)
        self.fail_on_call = fail_on_call
        self.link_calls = 0

    def link(self, z):
        self.link_calls += 1
        if self.link_calls == self.fail_on_call:
            raise RuntimeError("link translation blew up")
        return super().link(z)


def test_batched_drain_failure_counts_emitted_quotes():
    """A ``model.link`` failure mid-emission of a *batched* group must report
    only the unserved quotes as lost — the already-emitted responses stay in
    the outbox, their pending entries stay settleable, and the served counter
    matches the emissions."""
    clock = FakeClock()
    model = ThrowingLinkModel(np.full(3, 1.0), fail_on_call=3)
    registry = PricerRegistry(lambda key: (model, CountingRiskAverse()))
    service = QuoteService(
        registry,
        config=MicroBatchConfig(max_batch=16, max_wait_seconds=0.01),
        clock=clock,
    )
    key = SessionKey("app", "s")
    ids = [service.submit(_request(key, reserve=0.3 + 0.1 * i)) for i in range(4)]

    with pytest.raises(ServingError) as excinfo:
        service.flush()
    error = excinfo.value
    # The batch proposal succeeded; emission 3 of 4 failed in the link call.
    assert registry.peek(key).pricer.propose_batch_calls == 1
    assert error.lost_quote_ids == [ids[2], ids[3]]
    assert error.key == key
    assert service.stats.quotes_served == 2

    # The two emitted responses survive and their pending entries settle.
    responses = service.poll()
    assert [r.quote_id for r in responses] == [ids[0], ids[1]]
    session = registry.peek(key)
    assert sorted(session.pending) == [ids[0], ids[1]]
    service.feedback_batch(
        [FeedbackEvent(key=key, quote_id=quote_id, accepted=True) for quote_id in ids[:2]]
    )
    assert not session.pending


class AlwaysFailingPricer(CountingRiskAverse):
    supports_batch_propose = False

    def propose(self, features, reserve=None):
        raise RuntimeError("pricer always fails")


def _flaky_healthy_service():
    clock = FakeClock()

    def factory(key):
        pricer = AlwaysFailingPricer() if key.segment == "flaky" else CountingRiskAverse()
        return _model(), pricer

    service = QuoteService(
        PricerRegistry(factory),
        config=MicroBatchConfig(max_batch=16, max_wait_seconds=0.01),
        clock=clock,
    )
    return service, clock, SessionKey("app", "flaky"), SessionKey("app", "healthy")


def test_quote_is_cancelled_when_an_earlier_group_fails():
    """Drain order: the failing group precedes the caller's.  The caller's
    requeued request must be cancelled and named in the error — never served
    later into the outbox with nobody collecting it."""
    service, clock, flaky, healthy = _flaky_healthy_service()
    flaky_id = service.submit(_request(flaky))

    request = _request(healthy)
    with pytest.raises(ServingError) as excinfo:
        service.quote(request)
    error = excinfo.value
    # The caller's cancelled quote leads the lost list; the failing group's
    # quote (also never served) is reported right behind it.
    cancelled_id = error.lost_quote_ids[0]
    assert cancelled_id != flaky_id
    assert flaky_id in error.lost_quote_ids
    assert str(cancelled_id) in str(error)
    assert error.response is None

    # Cancelled means gone: nothing queued, and no orphan response ever
    # surfaces on a later drain.
    assert service.queued == 0
    clock.advance(1.0)
    assert service.poll() == []

    # Retrying the *same* request object is safe (submit never mutated it)
    # and now succeeds — the flaky group is no longer in front.
    assert request.quote_id is None
    response = service.quote(request)
    assert response.key == healthy
    assert response.quote_id not in (flaky_id, cancelled_id)


def test_quote_served_before_a_later_group_fails_rides_on_the_error():
    """Drain order: the caller's group precedes the failing one.  The drain
    error must hand the caller's already-emitted response over instead of
    stranding it in the outbox."""
    service, clock, flaky, healthy = _flaky_healthy_service()
    parked_id = service.submit(_request(healthy))
    flaky_id = service.submit(_request(flaky))

    with pytest.raises(ServingError) as excinfo:
        service.quote(_request(healthy, reserve=0.7))
    error = excinfo.value
    assert error.lost_quote_ids == [flaky_id]
    assert error.response is not None
    assert error.response.link_price == 0.7
    assert error.response.quote_id not in (parked_id, flaky_id)

    # Only the parked co-drained response remains for poll collectors.
    assert [r.quote_id for r in service.poll()] == [parked_id]


def test_quote_cancellation_with_same_key_request_ahead_in_queue():
    """Cancelling the synchronous caller's requeued request must work even
    when another request of the *same key* sits ahead of it in the queue
    (index-based removal — equality would compare numpy feature arrays)."""
    service, clock, flaky, healthy = _flaky_healthy_service()
    service.submit(_request(flaky))
    parked_id = service.submit(_request(healthy))

    with pytest.raises(ServingError) as excinfo:
        service.quote(_request(healthy, reserve=0.8))
    error = excinfo.value
    cancelled_id = error.lost_quote_ids[0]
    assert parked_id not in error.lost_quote_ids
    assert error.requeued_quote_ids == [parked_id]

    # Only the parked request remains queued; the cancelled one never
    # surfaces again.
    assert service.queued == 1
    clock.advance(1.0)
    assert [r.quote_id for r in service.poll()] == [parked_id]
    assert cancelled_id not in [r.quote_id for r in service.poll()]


def test_drain_error_names_requeued_quote_ids():
    service, clock, flaky, healthy = _flaky_healthy_service()
    ids = [service.submit(_request(key)) for key in (flaky, healthy, healthy)]
    with pytest.raises(ServingError) as excinfo:
        service.flush()
    error = excinfo.value
    assert error.lost_quote_ids == [ids[0]]
    assert error.requeued_quote_ids == [ids[1], ids[2]]
    assert service.queued == 2
    clock.advance(1.0)
    assert [r.quote_id for r in service.poll()] == [ids[1], ids[2]]


def test_submit_leaves_the_caller_request_unmutated():
    """Resubmitting one request object must yield independent quotes — the
    service stamps ids on private copies, never on the caller's object."""
    service, clock = _service(CountingRiskAverse, max_batch=8)
    key = SessionKey("app", "s")
    request = _request(key)
    clock.advance(0.5)
    first = service.submit(request)
    second = service.submit(request)
    assert first != second
    assert request.quote_id is None  # untouched
    assert request.enqueued_at == 0.0  # untouched

    responses = service.flush()
    assert sorted(r.quote_id for r in responses) == [first, second]
    session = service.registry.peek(key)
    assert sorted(session.pending) == [first, second]
    service.feedback_batch(
        [FeedbackEvent(key=key, quote_id=quote_id, accepted=True) for quote_id in (first, second)]
    )
    assert not session.pending


def test_backward_clock_latency_is_clamped_consistently():
    """An injected clock stepping backwards must not produce a negative
    response latency, and the response must agree with the recorded stats."""
    service, clock = _service(CountingRiskAverse)
    key = SessionKey("app", "s")
    clock.advance(5.0)
    service.submit(_request(key))
    clock.advance(-1.0)  # clock artifact: drain observes an earlier time
    (response,) = service.flush()
    assert response.latency_seconds == 0.0
    assert service.stats.latency.samples_seconds == [0.0]


def test_feedback_requires_a_resident_session():
    service, clock = _service(CountingRiskAverse)
    with pytest.raises(ServingError):
        service.feedback(
            FeedbackEvent(key=SessionKey("app", "never-served"), quote_id=0, accepted=True)
        )
    assert service.registry.resident_count == 0  # the lookup created nothing


def test_config_validation():
    with pytest.raises(ValueError):
        MicroBatchConfig(max_batch=0)
    with pytest.raises(ValueError):
        MicroBatchConfig(max_wait_seconds=-1.0)
