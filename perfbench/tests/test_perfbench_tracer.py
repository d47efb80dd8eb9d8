import numpy as np
import pytest

from perfbench.tracer import Tracer, covered_s, self_times


def test_self_time_subtracts_direct_children_on_a_nested_trace():
    # root [0, 10) holds a [1, 4) and b [5, 9); a holds c [2, 3).
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_wrapped_calls_nest_and_summarise():
    clock = FakeClock()
    tracer = Tracer(capacity=16, clock=clock)

    def inner():
        clock.advance(2.0)

    traced_inner = tracer.wrap(inner, "core.propose")

    def outer():
        clock.advance(1.0)
        traced_inner()
        traced_inner()
        clock.advance(3.0)
        return 7

    assert tracer.wrap(outer, "service.quote", after=lambda args, result: result)() == 7
    summary = tracer.summary(("service.quote", "core.propose", "store.session"))
    assert summary["service.quote"]["calls"] == 1
    assert summary["service.quote"]["busy_s"] == pytest.approx(8.0)
    assert summary["service.quote"]["self_s"] == pytest.approx(4.0)
    assert summary["core.propose"]["calls"] == 2
    assert summary["core.propose"]["self_s"] == pytest.approx(4.0)
    assert summary["core.propose"]["p50_us"] == pytest.approx(2e6)
    assert summary["store.session"] == {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_us": 0.0}
    assert tracer.spans()["request"].tolist() == [7, -1, -1]
    assert tracer.root_cover_s() == pytest.approx(8.0)


def test_overlapping_root_spans_cover_their_union_once():
    # [0, 4) and [1, 3) overlap, [3.5, 5) joins them, [7, 8) stands alone.
    start = np.array([3.5, 0.0, 7.0, 1.0])
    end = np.array([5.0, 4.0, 8.0, 3.0])
    assert covered_s(start, end) == pytest.approx(6.0)
    assert covered_s(np.array([]), np.array([])) == 0.0
    tracer = Tracer(capacity=8, clock=FakeClock())
    code = tracer.code("client.submit_quote")
    for lo, hi in zip(start, end):
        tracer.record(code, lo, hi, request=int(hi))
    assert tracer.root_cover_s() == pytest.approx(6.0)
    summary = tracer.summary(("client.submit_quote",))["client.submit_quote"]
    assert summary["calls"] == 4 and summary["busy_s"] == pytest.approx(8.5)


def test_mark_starts_the_window_and_counts_errors():
    clock = FakeClock()
    tracer = Tracer(capacity=4, clock=clock)
    step = tracer.wrap(lambda: clock.advance(1.0), "service.submit")
    step()
    tracer.mark()
    step()

    def fail():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        tracer.wrap(fail, "service.poll")()
    summary = tracer.summary(("service.submit", "service.poll"))
    assert summary["service.submit"]["calls"] == 1
    assert summary["service.poll"]["calls"] == 1
    assert tracer.errors == 1
    step()
    step()  # beyond capacity: counted, not stored
    assert tracer.dropped == 1
