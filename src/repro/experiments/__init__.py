"""Experiment harness: regenerate every figure of the paper's evaluation.

The declarative scenario registry (:mod:`repro.experiments.scenarios`)
describes every sweep, and :func:`~repro.experiments.scenarios.run_figure`
runs one figure in process; the orchestrator
(:mod:`repro.experiments.orchestrator`, CLI ``python -m repro.experiments
run|list|compare``) fans the independent trials across a process pool and
writes versioned ``BENCH_*.json`` artifacts with a CI regression gate.
See :mod:`repro.experiments.trials` for the atomic measurements,
:mod:`repro.experiments.workloads` for the query / packet / churn workload
generators and :mod:`repro.experiments.reporting` for the shape checks that
compare the reproduction against the paper's reported trends.
"""

from .metrics import FigureResult, Series, format_table
from .orchestrator import CompareReport, RunReport, compare, run
from .reporting import check_shape, paper_expectations, render_report
from .scenarios import (
    SCENARIOS,
    Scenario,
    TrialSpec,
    assemble_figure,
    figure_scenarios,
    get_scenario,
    register,
    run_figure,
    scenario_for_figure,
    unregister,
)
from .trials import MODE_LABELS, ExecutionEnv, build_network
from .workloads import PacketWorkload, QueryWorkload, make_churn

__all__ = [
    "MODE_LABELS",
    "ExecutionEnv",
    "build_network",
    "FigureResult",
    "Series",
    "format_table",
    "check_shape",
    "paper_expectations",
    "render_report",
    "PacketWorkload",
    "QueryWorkload",
    "make_churn",
    "SCENARIOS",
    "Scenario",
    "TrialSpec",
    "assemble_figure",
    "figure_scenarios",
    "get_scenario",
    "register",
    "unregister",
    "run_figure",
    "scenario_for_figure",
    "CompareReport",
    "RunReport",
    "compare",
    "run",
]
