"""Cross-session stacked feedback (relaxed tier) vs the per-session loop."""

import numpy as np
import pytest

from repro.core.models import LinearModel
from repro.core.pricing import make_pricer
from repro.core.sgd_pricer import SGDContextualPricer
from repro.engine.equivalence import assert_states_close
from repro.serving import (
    FeedbackEvent,
    MicroBatchConfig,
    PricerRegistry,
    QuoteRequest,
    QuoteService,
    SessionKey,
)

DIM = 4
THETA = np.full(DIM, 0.8)


def _factory(key):
    return LinearModel(THETA.copy()), make_pricer(
        dimension=DIM, radius=2.0, epsilon=0.05, delta=0.0
    )


def _sgd_factory(key):
    return LinearModel(THETA.copy()), SGDContextualPricer(dimension=DIM, radius=2.0)


def _service(backend, factory=_factory):
    registry = PricerRegistry(factory)
    service = QuoteService(
        registry,
        config=MicroBatchConfig(max_batch=512, max_wait_seconds=10.0),
        backend=backend,
    )
    return registry, service


def _drive(registry, service, n_sessions=10, windows=20, seed=42, reserve=0.1):
    """Windows of one quote per session with deterministic market feedback."""
    keys = [SessionKey("app", "s%02d" % index) for index in range(n_sessions)]
    rng = np.random.default_rng(seed)
    for _ in range(windows):
        issued = {}
        for key in keys:
            features = rng.random(DIM)
            features /= features.sum()
            quote_id = service.submit(
                QuoteRequest(key=key, features=features, reserve=reserve)
            )
            issued[key] = (quote_id, features)
        responses = {r.quote_id: r for r in service.flush()}
        events = []
        for key in keys:
            quote_id, features = issued[key]
            response = responses[quote_id]
            if response.skipped or response.posted_price is None:
                accepted = False
            else:
                accepted = response.posted_price <= float(features @ THETA)
            events.append(FeedbackEvent(key=key, quote_id=quote_id, accepted=accepted))
        service.feedback_batch(events)
    return keys


class TestStackedFeedbackParity:
    def test_states_match_reference_loop(self):
        ref_registry, ref_service = _service(None)
        bat_registry, bat_service = _service("batched")
        keys = _drive(ref_registry, ref_service)
        _drive(bat_registry, bat_service)
        assert bat_service.stats.batched_updates > 0
        assert bat_service.stats.feedback_applied == ref_service.stats.feedback_applied
        for key in keys:
            reference = ref_registry.peek(key).pricer
            batched = bat_registry.peek(key).pricer
            # Scalar skeleton (cut counters, round counts) must match
            # exactly; geometry within the relaxed policy.
            assert_states_close(
                batched.state_dict(), reference.state_dict(), label=str(key)
            )

    def test_stacked_update_covers_all_eligible_sessions(self):
        bat_registry, bat_service = _service("batched")
        _drive(bat_registry, bat_service, n_sessions=8, windows=5)
        stats = bat_service.stats
        # Every window whose sessions all cut exactly once becomes one
        # stacked update over all eight sessions.
        assert stats.batched_update_sessions >= stats.batched_updates * 2
        assert stats.feedback_applied == 8 * 5

    def test_write_behind_persists_post_cut_state(self, tmp_path):
        registry = PricerRegistry(
            _factory, snapshot_dir=str(tmp_path), persist_every=1
        )
        service = QuoteService(
            registry,
            config=MicroBatchConfig(max_batch=512, max_wait_seconds=10.0),
            backend="batched",
        )
        keys = _drive(registry, service, n_sessions=4, windows=3)
        assert service.stats.batched_updates > 0
        for key in keys:
            live_state = registry.peek(key).pricer.state_dict()
            registry.evict(key)
            reloaded = registry.session(key).pricer
            assert_states_close(
                reloaded.state_dict(), live_state, label="reload %s" % (key,)
            )


class TestFallbacks:
    def test_zero_cut_window_uses_reference_loop(self):
        registry, service = _service("batched")
        # A reserve far above any attainable value skips every round: no
        # cut-requiring event, so nothing to stack.
        _drive(registry, service, n_sessions=3, windows=4, reserve=100.0)
        assert service.stats.batched_updates == 0
        assert service.stats.feedback_applied == 3 * 4

    def test_multi_cut_group_uses_reference_loop(self):
        registry, service = _service("batched")
        key = SessionKey("app", "multi")
        rng = np.random.default_rng(3)
        first = rng.random(DIM)
        second = rng.random(DIM)
        id_a = service.submit(QuoteRequest(key=key, features=first, reserve=0.1))
        id_b = service.submit(QuoteRequest(key=key, features=second, reserve=0.1))
        service.flush()
        service.feedback_batch(
            [
                FeedbackEvent(key=key, quote_id=id_a, accepted=True),
                FeedbackEvent(key=key, quote_id=id_b, accepted=False),
            ]
        )
        assert service.stats.batched_updates == 0
        assert service.stats.feedback_applied == 2
        assert registry.peek(key).pricer.cuts_applied == 2

    def test_partial_window_keeps_reference_loop(self):
        # Feedback for one of two in-flight quotes: pending would stay
        # non-empty, so the session is not eligible — must fall back.
        registry, service = _service("batched")
        key = SessionKey("app", "partial")
        rng = np.random.default_rng(4)
        id_a = service.submit(
            QuoteRequest(key=key, features=rng.random(DIM), reserve=0.1)
        )
        service.submit(QuoteRequest(key=key, features=rng.random(DIM), reserve=0.1))
        service.flush()
        service.feedback_batch([FeedbackEvent(key=key, quote_id=id_a, accepted=True)])
        assert service.stats.batched_updates == 0
        assert len(registry.peek(key).pending) == 1

    def test_non_ellipsoid_family_uses_reference_loop(self):
        registry, service = _service("batched", factory=_sgd_factory)
        keys = _drive(registry, service, n_sessions=3, windows=3)
        assert service.stats.batched_updates == 0
        assert service.stats.feedback_applied == 3 * 3
        ref_registry, ref_service = _service(None, factory=_sgd_factory)
        _drive(ref_registry, ref_service, n_sessions=3, windows=3)
        for key in keys:
            np.testing.assert_array_equal(
                registry.peek(key).pricer.estimate,
                ref_registry.peek(key).pricer.estimate,
            )


class TestBackendConstruction:
    def test_unknown_backend_fails_at_construction(self):
        registry = PricerRegistry(_factory)
        with pytest.raises(ValueError):
            QuoteService(registry, backend="bogus")

    def test_reference_backend_has_no_math_backend(self):
        registry, service = _service("reference")
        assert service._math_backend is None
