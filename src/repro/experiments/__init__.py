"""Experiment harness: one module per table / figure of the paper's evaluation.

========================  ==========================================  =====================
Paper artefact            Module                                      Bench target
========================  ==========================================  =====================
Fig. 1                    :mod:`repro.core.regret` (regret curve)     tests / quickstart
Fig. 4 (a)–(f)            :mod:`repro.experiments.fig4`               ``benchmarks/bench_fig4.py``
Table I                   :mod:`repro.experiments.table1`             ``benchmarks/bench_table1.py``
Fig. 5 (a)                :mod:`repro.experiments.fig5`               ``benchmarks/bench_fig5a.py``
Fig. 5 (b)                :mod:`repro.experiments.fig5`               ``benchmarks/bench_fig5b.py``
Fig. 5 (c)                :mod:`repro.experiments.fig5`               ``benchmarks/bench_fig5c.py``
Section V-D (overhead)    :mod:`repro.experiments.overhead`           ``benchmarks/bench_overhead.py``
Fig. 6 / Lemma 8          :mod:`repro.experiments.adversarial`        ``benchmarks/bench_lemma8.py``
Theorems 1 / 3 (scaling)  :mod:`repro.experiments.regret_scaling`     ``tests/claims/test_regret_scaling.py``
========================  ==========================================  =====================

Every experiment function takes explicit size parameters so the benches can run
scaled-down versions by default while ``examples/`` and ``EXPERIMENTS.md`` use
paper-scale settings.
"""

from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.fig5 import (
    Fig5aResult,
    Fig5bResult,
    Fig5cResult,
    run_fig5a,
    run_fig5b,
    run_fig5c,
)
from repro.experiments.table1 import Table1Row, run_table1
from repro.experiments.overhead import OverheadReport, run_overhead
from repro.experiments.adversarial import AdversarialResult, run_adversarial_example
from repro.experiments.regret_scaling import ScalingResult, run_dimension_scaling, run_horizon_scaling
from repro.experiments.cold_start import ColdStartResult, run_cold_start
from repro.experiments.noise_robustness import (
    NoiseRobustnessResult,
    format_noise_robustness,
    run_noise_robustness,
)
from repro.experiments.reporting import format_series_table, format_table

__all__ = [
    "Fig4Result",
    "run_fig4",
    "Fig5aResult",
    "Fig5bResult",
    "Fig5cResult",
    "run_fig5a",
    "run_fig5b",
    "run_fig5c",
    "Table1Row",
    "run_table1",
    "OverheadReport",
    "run_overhead",
    "AdversarialResult",
    "run_adversarial_example",
    "ScalingResult",
    "run_dimension_scaling",
    "run_horizon_scaling",
    "ColdStartResult",
    "run_cold_start",
    "NoiseRobustnessResult",
    "run_noise_robustness",
    "format_noise_robustness",
    "format_table",
    "format_series_table",
]
