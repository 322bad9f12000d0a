"""``python -m repro.experiments`` — the experiment orchestrator CLI.

Subcommands::

    python -m repro.experiments list                    # registered scenarios
    python -m repro.experiments run --all --quick --workers 4
    python -m repro.experiments run 6 7 scale_sweep --paper
    python -m repro.experiments run 13 --trace traces   # + Chrome traces
    python -m repro.experiments compare benchmarks/baselines results
    python -m repro.experiments trace traces/TRACE_*.json

``run`` writes one schema-versioned artifact per scenario
(``results/BENCH_<scenario>.json``); re-runs reuse trials whose stored
fingerprint still matches (``--no-resume`` forces re-execution).  A run is
deterministic: any ``--workers`` value produces byte-identical artifacts —
and so does ``--trace``, which additionally writes one Perfetto-loadable
Chrome trace per executed trial plus advisory per-trial phase breakdowns.

``compare`` diffs two artifact directories: it lists every planner and
traffic counter that differs (the before/after table) and exits non-zero
unless every artifact is byte-identical, advisory wall-clock fields
stripped — the CI bench job runs it against the committed baselines under
``benchmarks/baselines/``.

``trace`` validates captured trace files against the Chrome trace-event
schema and prints their flamegraph-style phase summaries.

The per-figure report (tables plus the paper's qualitative shape checks)
is ``python benchmarks/bench_figures.py``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..obs.export import (
    load_trace,
    phase_summary,
    summarize_trace_events,
    validate_chrome_trace,
)
from .orchestrator import (
    DEFAULT_RESULTS_DIR,
    compare,
    run,
    wall_clock_report,
)
from .scenarios import SCENARIOS
from .trials import ExecutionEnv

__all__ = ["main"]


def _cmd_list(arguments: argparse.Namespace) -> int:
    scale = "paper" if arguments.paper else "quick"
    print(f"{len(SCENARIOS)} registered scenario(s) ({scale} scale):")
    for scenario in SCENARIOS.values():
        figure = f"Figure {scenario.figure}" if scenario.figure else "registry-only"
        trial_count = len(scenario.trials(scale))
        print(f"  {scenario.name:<28} {figure:<14} {trial_count:>3} trial(s)")
        if arguments.verbose and scenario.description:
            print(f"      {scenario.description}")
    return 0


def _cmd_run(arguments: argparse.Namespace) -> int:
    names = arguments.scenarios or None
    if arguments.all:
        names = None
    elif not names:
        print("run: select scenarios (names or figure numbers) or pass --all")
        return 2
    try:
        env = ExecutionEnv(
            shards=arguments.shards,
            storage=arguments.storage,
            faults=arguments.faults,
            trace_dir=arguments.trace,
        )
    except ValueError as error:
        # A bad --shards/--storage/--faults fails before any trial runs.
        print(f"run: error: {error}")
        return 2
    try:
        report = run(
            names,
            scale="paper" if arguments.paper else "quick",
            workers=arguments.workers,
            results_dir=arguments.results_dir,
            resume=not arguments.no_resume,
            verbose=arguments.verbose,
            env=env,
        )
    except KeyError as error:
        # Unknown scenario name / figure number: an error line, not a trace.
        print(f"run: error: {error.args[0] if error.args else error}")
        return 2
    print(report.render())
    return 0


def _cmd_trace(arguments: argparse.Namespace) -> int:
    status = 0
    for path in arguments.files:
        try:
            payload = load_trace(path)
        except (OSError, ValueError) as error:
            print(f"{path}: unreadable trace: {error}")
            status = 1
            continue
        errors = validate_chrome_trace(payload)
        if errors:
            print(f"{path}: INVALID ({len(errors)} error(s)):")
            for line in errors[: arguments.max_errors]:
                print(f"  {line}")
            status = 1
            continue
        events = payload["traceEvents"]
        spans = [event for event in events if event.get("ph") == "X"]
        print(f"{path}: valid Chrome trace ({len(spans)} span(s))")
        print(phase_summary(summarize_trace_events(events)))
        if arguments.top:
            slowest = sorted(
                spans,
                key=lambda event: -(event.get("args", {}).get("wall_us", 0.0)),
            )[: arguments.top]
            print(f"  top {len(slowest)} span(s) by advisory wall time:")
            for event in slowest:
                args = event.get("args", {})
                print(
                    f"    {event['name']:<18} ts={event.get('ts', 0):>12.1f}us "
                    f"wall={args.get('wall_us', 0.0):>10.1f}us "
                    f"span={args.get('span_id', '?')}"
                )
    return status


def _cmd_compare(arguments: argparse.Namespace) -> int:
    if arguments.wall_clock_only:
        # Advisory view only: never gates, always exits 0 (the CI bench job
        # prints this into the job summary after the real gate ran).
        print(wall_clock_report(arguments.baseline, arguments.candidate))
        return 0
    report = compare(arguments.baseline, arguments.candidate)
    print(report.render())
    if arguments.wall_clock:
        print(wall_clock_report(arguments.baseline, arguments.candidate))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser("list", help="list registered scenarios")
    list_parser.add_argument("--paper", action="store_true", help="paper-scale counts")
    list_parser.add_argument("--verbose", action="store_true", help="show descriptions")
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = commands.add_parser("run", help="run scenarios, write artifacts")
    run_parser.add_argument(
        "scenarios", nargs="*",
        help="scenario names or figure numbers (e.g. fig09_mincost_churn, 6, 17)",
    )
    run_parser.add_argument("--all", action="store_true", help="run every scenario")
    scale = run_parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--quick", action="store_true", help="CI/laptop parameters (default)"
    )
    scale.add_argument(
        "--paper", action="store_true", help="the paper's sweep sizes (slow)"
    )
    run_parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size (default 1; any value is byte-identical)",
    )
    run_parser.add_argument(
        "--results-dir", default=DEFAULT_RESULTS_DIR,
        help=f"artifact directory (default: {DEFAULT_RESULTS_DIR}/)",
    )
    run_parser.add_argument(
        "--no-resume", action="store_true",
        help="re-execute trials even when a fresh artifact exists",
    )
    run_parser.add_argument(
        "--shards", type=int, default=1,
        help="worker-shard count for shard-capable trials (the "
        "sharded engine is bit-identical to serial, so artifacts are "
        "byte-identical for any value — CI exploits that as a gate)",
    )
    run_parser.add_argument(
        "--storage", default=None, metavar="SPEC",
        help="storage backend for every trial (memory, sqlite or "
        "sqlite:<path>; every backend is byte-identical by contract, so "
        "artifacts match the committed baselines under any choice — the "
        "CI durability gate byte-compares a sqlite run against them)",
    )
    run_parser.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="inject a fault plan (parse_fault_spec grammar, e.g. "
        "'seed=3; drop:*->*:p=0.2,n=20') into every trial network; "
        "the plan enters each trial's fingerprint, so a later clean run "
        "re-executes; final protocol tables still converge, but traffic "
        "counters are perturbed, so never compare faulted artifacts "
        "against the committed baselines — the CI chaos gate checks "
        "convergence digests instead (benchmarks/chaos_gate.py)",
    )
    run_parser.add_argument(
        "--trace", nargs="?", const="traces", default=None, metavar="DIR",
        help="capture span traces: one Chrome trace-event JSON per executed "
        "trial under DIR (default: traces/) plus advisory per-trial phase "
        "breakdowns; artifacts stay byte-identical to an untraced run",
    )
    run_parser.add_argument("--verbose", action="store_true")
    run_parser.set_defaults(handler=_cmd_run)

    trace_parser = commands.add_parser(
        "trace", help="validate captured traces, print phase summaries"
    )
    trace_parser.add_argument("files", nargs="+", help="TRACE_*.json files")
    trace_parser.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="also list the N slowest spans by advisory wall time",
    )
    trace_parser.add_argument(
        "--max-errors", type=int, default=10,
        help="schema errors to print per invalid file (default 10)",
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    compare_parser = commands.add_parser(
        "compare",
        help="list every changed counter; exit 1 unless artifacts are byte-identical",
    )
    compare_parser.add_argument("baseline", help="baseline artifact directory")
    compare_parser.add_argument("candidate", help="candidate artifact directory")
    compare_parser.add_argument(
        "--wall-clock", action="store_true",
        help="also print advisory per-scenario wall-clock deltas (not gated)",
    )
    compare_parser.add_argument(
        "--wall-clock-only", action="store_true",
        help="print only the advisory wall-clock deltas and exit 0",
    )
    compare_parser.set_defaults(handler=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
