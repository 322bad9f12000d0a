"""Regenerate the figures of the paper's evaluation (Section 7).

One benchmark, parametrised over every figure scenario in the registry
(:func:`repro.experiments.scenarios.figure_scenarios`).  Under pytest each
case runs its figure once at quick scale (the simulations are
deterministic, so more timing rounds would only time the simulator),
records the series means as benchmark info and asserts the paper's
qualitative shape checks::

    pytest benchmarks/bench_figures.py --benchmark-only
    pytest benchmarks/bench_figures.py -k fig17 --benchmark-disable

Run as a script, it prints each figure's table and shape verdicts and
exits 1 if a verdict fails::

    PYTHONPATH=src python benchmarks/bench_figures.py                # every figure
    PYTHONPATH=src python benchmarks/bench_figures.py --figure 6 7   # Figures 6 and 7
    PYTHONPATH=src python benchmarks/bench_figures.py --paper-scale  # paper sizes (slow)

For parallel sweeps and versioned artifacts use the orchestrator
(``python -m repro.experiments run``) instead.
"""

from __future__ import annotations

import argparse
import sys
import time

import pytest

from repro.experiments.reporting import check_shape, render_report
from repro.experiments.scenarios import figure_scenarios, run_figure, scenario_for_figure


@pytest.mark.parametrize("scenario", figure_scenarios(), ids=lambda scenario: scenario.name)
def test_figure(benchmark, scenario):
    result = benchmark.pedantic(lambda: run_figure(scenario.name), rounds=1, iterations=1)
    benchmark.extra_info["figure"] = result.figure_id
    benchmark.extra_info["series_means"] = {
        label: round(value, 6) for label, value in result.summary().items()
    }
    failed = [description for description, holds in check_shape(result) if not holds]
    assert not failed, (
        f"{result.figure_id}: shape checks failed: {failed}; "
        f"series means: {result.summary()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="print the paper's figures and shape checks")
    parser.add_argument(
        "--figure", nargs="*", default=None, help="figure numbers to run (default: all)"
    )
    parser.add_argument(
        "--paper-scale", action="store_true", help="the paper's network sizes (slow)"
    )
    arguments = parser.parse_args(argv)
    if arguments.figure:
        scenarios = [scenario_for_figure(figure) for figure in arguments.figure]
    else:
        scenarios = figure_scenarios()
    scale = "paper" if arguments.paper_scale else "quick"
    status = 0
    for scenario in scenarios:
        started = time.time()
        result = run_figure(scenario.name, scale=scale)
        result.notes["wall-clock seconds"] = round(time.time() - started, 2)
        print(render_report([result]))
        if not all(holds for _, holds in check_shape(result)):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
