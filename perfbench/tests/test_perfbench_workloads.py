"""Tiny-size runs of every workload, and one corrupted output per check.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import json
import os

import numpy as np
import pytest

from perfbench import layers, program
from perfbench.common import CheckFailed
from perfbench.engine_fig4 import EngineFig4, _same_transcript
from perfbench.run import UNITS, WORKLOADS, execute
from perfbench.serve_socket import ServeSocket
from perfbench.serve_zipf_churn import ServeZipfChurn

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = {
    "engine_fig4": lambda: EngineFig4(3, rounds=300, reference_prefix=100),
    "serve_zipf_churn": lambda: ServeZipfChurn(
        3, universe=200, capacity=20, warmup=200, market_rounds=100, block=64, blocks=2
    ),
    "serve_socket": lambda: ServeSocket(3, horizon=6, segments=2),
}

def measured(name):
    workload = TINY[name]()
    workload.prepare(None)
    workload.start(None)
    try:
        result = workload.measure(0.05)
    finally:
        workload.stop()
    workload.check(result)
    return workload, result


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_reports_every_metric(name):
    report = execute(TINY[name](), seconds=0.05, trace=False, setups=1)
    assert set(report["metrics"]) == set(UNITS)
    assert all(np.isfinite(value) for value in report["metrics"].values())
    assert report["attempted"] > 0 and report["failed"] == 0
    traced = execute(TINY[name](), seconds=0.05, trace=True, setups=1)
    assert set(traced["metrics"]) | set(traced["absent"]) == set(layers.TABLE)
    assert traced["metrics"]["trace.overhead"] > -1.0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"] for m in spec["end_to_end"]} == set(UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS) == set(TINY)


def test_program_names_the_benchmark_depends_on_are_importable():
    for name in program.__all__:
        assert getattr(program, name) is not None


# -- one corrupted output per check ----------------------------------------- #


def test_engine_replays_must_match_each_other_and_the_reference():
    workload, result = measured("engine_fig4")
    transcript = result["first"][1][0]
    twin = program.Transcript(transcript.rounds)
    for column in ("link_prices", "posted_prices", "sold", "skipped", "exploratory", "regrets"):
        getattr(twin, column)[:] = getattr(transcript, column)
    assert _same_transcript(twin, transcript)
    twin.sold[0] = not twin.sold[0]
    assert not _same_transcript(twin, transcript)
    transcript.sold[1] = not transcript.sold[1]
    with pytest.raises(CheckFailed, match="sold"):
        workload.check(result)


def test_served_outcomes_must_match_offline_simulate():
    workload, result = measured("serve_socket")
    served = result["epochs"].first
    served.sold[0, 2] = not served.sold[0, 2]
    with pytest.raises(CheckFailed, match="sold"):
        workload.check(result)
    served.sold[0, 2] = not served.sold[0, 2]
    workload.check(result)
    # A dropped response leaves its round unrecorded.
    served.link_prices[1, 3] = np.nan
    served.posted_prices[1, 3] = np.nan
    served.sold[1, 3] = False
    with pytest.raises(CheckFailed):
        workload.check(result)


def test_zipf_counters_must_balance():
    workload, result = measured("serve_zipf_churn")
    result["service_delta"]["feedback_applied"] -= 1  # a dropped response
    with pytest.raises(CheckFailed, match="settled"):
        workload.check(result)
    result["service_delta"]["feedback_applied"] += 1
    result["store_after"]["created"] += 1
    with pytest.raises(CheckFailed, match="opened"):
        workload.check(result)
    result["store_after"]["created"] -= 1
    result["resident"] = workload.capacity + 1
    with pytest.raises(CheckFailed, match="cap"):
        workload.check(result)


def test_socket_quote_ids_must_resolve_exactly_once_without_rejections():
    workload, result = measured("serve_socket")
    ids = result["quote_ids"]
    original = ids.values[1]
    ids.values[1] = ids.values[0]
    with pytest.raises(CheckFailed, match="distinct"):
        workload.check(result)
    ids.values[1] = original
    ids.count -= 1  # a quote whose result never came back
    with pytest.raises(CheckFailed, match="results"):
        workload.check(result)
    ids.count += 1
    result["stats_frame"]["frontend"]["rejected"] = 1
    with pytest.raises(CheckFailed, match="rejected"):
        workload.check(result)
