"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_socket --seed 1 --seconds 25 --trace 0

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The line before it records the provenance (git
revision, core count, library versions, seed, workload shape) and sample
counts.  A failed output check exits non-zero without printing numbers.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402

from perfbench import common, layers  # noqa: E402
from perfbench.engine_fig4 import EngineFig4  # noqa: E402
from perfbench.serve_socket import ServeSocket  # noqa: E402
from perfbench.serve_zipf_churn import ServeZipfChurn  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED

WORKLOADS = {
    "engine_fig4": EngineFig4,
    "serve_zipf_churn": ServeZipfChurn,
    "serve_socket": ServeSocket,
}

#: Set-ups per run; ``setup_s`` takes their median.
SETUPS = 3

UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "rss_peak_mb": "MB",
    "regret_ratio": "ratio",
}


def execute(workload, seconds: float, trace: bool, import_s: float = 0.0, setups: int = SETUPS) -> dict:
    """Set up, measure and check one workload; returns the report.

    Raises :class:`CheckFailed` when an output is wrong.
    """
    tracer = Tracer() if trace else None
    unit_seconds = []
    for index in range(setups):
        started = time.perf_counter()
        workload.prepare(tracer)
        try:
            workload.start(None)
            unit_seconds.append(time.perf_counter() - started)
            if index == setups - 1:
                result = workload.measure(seconds)
        finally:
            workload.stop()
    report = {"setup_units_s": unit_seconds}
    failed = workload.check(result)
    if not trace:
        metrics = workload.end_to_end(result)
        metrics["setup_s"] = import_s + float(np.median(unit_seconds))
        report["samples"] = _sample_counts(result)
    else:
        setup_summary = tracer.summary(("market.build",))
        try:
            workload.start(tracer)
            traced = workload.measure(seconds)
        finally:
            server = workload.stop()
        failed += workload.check(traced)
        metrics, absent = layers.per_layer(
            traced, tracer, setup_summary, server, untraced=result
        )
        report["absent"] = absent
        report["samples"] = _sample_counts(traced)
        report["spans_dropped"] = tracer.dropped
        report["spans_file"] = _save_spans(workload, tracer)
    report.update(attempted=int(result["attempted"]), failed=int(failed), metrics=metrics)
    return report


def _sample_counts(result: dict) -> dict:
    """Ops, window length, latency samples and the time of each unit of
    work (replay, epoch or block) behind the figures."""
    counts = {
        "ops": int(result["attempted"]),
        "window_s": result["wall_s"],
        "unit_seconds": [round(x, 6) for x in result["unit_seconds"]],
    }
    latency = result.get("latency")
    if latency is not None:
        counts["latency"] = latency.count
    return counts


def _save_spans(workload, tracer) -> str:
    os.makedirs(common.OUT_DIR, exist_ok=True)
    path = os.path.join(common.OUT_DIR, "%s-seed%d-spans.npz" % (workload.name, workload.seed))
    tracer.save(path)
    return path


def provenance(workload, seed: int) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "shape": workload.shape,
        "git_rev": _git_rev(),
        "src_sha1": _tree_digest(os.path.join(ROOT, "src")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _blas_version(),
    }


def _git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _tree_digest(directory: str) -> str:
    """SHA-1 over the program's source files (the checkout may not be a git repo)."""
    digest = hashlib.sha1()
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, directory).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _blas_version():
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        return None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed window length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    try:
        report = execute(workload, args.seconds, bool(args.trace), IMPORT_S)
    except common.CheckFailed as exc:
        print("output check failed: %s" % exc, file=sys.stderr)
        return 1
    units = dict(UNITS, **layers.UNITS)
    info = provenance(workload, args.seed)
    info.update({k: v for k, v in report.items() if k not in ("attempted", "failed", "metrics")})
    print(json.dumps({"provenance": info}, default=str))
    print(json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in report["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
