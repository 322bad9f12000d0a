"""``--aa N``: does the ruler repeat?  Two groups of N full sets, same commit.

Set *i* of either group runs every workload with seed ``--seed + i``, as
the acceptance driver does.  Per workload x end-to-end metric the table
gives each group's median, quartiles (``statistics.quantiles(n=4)``), the
quartile spread as a share of the median, the largest single deviation,
and how far group B's median sits from group A's.  The bound written to
``BENCHMARK.json`` for a metric is three times its worst spread on any
workload (so the spread stays under a third of the bound), no less than
10 % and never more than the contract's 25 %; ``setup_s`` always gets 25 %.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
from typing import Any, Callable, Dict, List, Sequence, Tuple

from catalog import END_TO_END

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
FLOOR, CEILING = 0.10, 0.25

Values = Dict[Tuple[str, str], List[float]]  # (workload, metric) -> one value per set


def summarise(values: Sequence[float]) -> Dict[str, float]:
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": first,
        "q3": third,
        "spread": (third - first) / median if median else 0.0,
        "max_dev": max(abs(value - median) for value in values) / median if median else 0.0,
    }


def justified_bound(metric: str, worst_spread: float) -> float:
    if metric == "setup_s":
        return CEILING
    return min(CEILING, max(FLOOR, math.ceil(3 * worst_spread * 100) / 100))


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return done.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def collect(
    args: argparse.Namespace,
    timed_run: Callable[[str, argparse.Namespace], Dict[str, Any]],
    workloads: Sequence[str],
) -> Tuple[List[Values], bool]:
    groups: List[Values] = []
    correct = True
    for group in "AB":
        values: Values = {}
        for index in range(args.aa):
            seeded = argparse.Namespace(**{**vars(args), "seed": args.seed + index})
            for workload in workloads:
                result = timed_run(workload, seeded)
                correct = correct and result["correct"]
                for metric, entry in result["metrics"].items():
                    values.setdefault((workload, metric), []).append(entry["value"])
                for metric, value in result["uncalibrated"].items():
                    values.setdefault((workload, "raw " + metric), []).append(value)
                print(f"group {group} set {index + 1}/{args.aa} {workload}: "
                      f"{'ok' if result['correct'] else 'WRONG ' + '; '.join(result['errors'])}",
                      flush=True)
        groups.append(values)
    return groups, correct


def run(
    args: argparse.Namespace,
    timed_run: Callable[[str, argparse.Namespace], Dict[str, Any]],
    workloads: Sequence[str],
) -> int:
    if args.aa < 2:
        raise SystemExit("--aa needs at least 2 sets: quartiles of one value do not exist")
    (first, second), correct = collect(args, timed_run, workloads)
    lines = [
        "# A/A: two groups of full sets on one commit",
        "",
        f"- sets per group: {args.aa} (seeds {args.seed}..{args.seed + args.aa - 1}), "
        f"`--seconds {args.seconds:g}`",
        f"- nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"{platform.system()} {platform.machine()}, commit {commit()} plus this PR's tree",
        "- spread = (q3 - q1) / median; drift = group B median against group A, "
        "positive is worse; bound = what `BENCHMARK.json` now carries",
        "- as measured = the same figure before the speed probe's calibration "
        "(spread of group A, drift of B against A): what the probe buys on this box",
        "",
        "| workload | metric | A median | A q1 | A q3 | A spread | A max dev | "
        "B median | B spread | drift | bound | as measured: spread, drift |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    worst: Dict[str, float] = {}
    rows = []
    for workload in workloads:
        for metric, _, better in END_TO_END:
            a, b = summarise(first[(workload, metric)]), summarise(second[(workload, metric)])
            sign = 1.0 if better == "lower" else -1.0
            drift = sign * (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            worst[metric] = max(worst.get(metric, 0.0), a["spread"], b["spread"])
            measured = ""
            if (workload, "raw " + metric) in first:
                raw_a = summarise(first[(workload, "raw " + metric)])
                raw_b = summarise(second[(workload, "raw " + metric)])
                raw_drift = (raw_b["median"] - raw_a["median"]) / raw_a["median"]
                measured = f"{raw_a['spread']:.1%}, {raw_drift:+.1%}"
            rows.append((workload, metric, a, b, drift, measured))
    bounds = {metric: justified_bound(metric, spread) for metric, spread in worst.items()}
    unsteady = []
    for workload, metric, a, b, drift, measured in rows:
        lines.append(
            f"| {workload} | {metric} | {a['median']:.5g} | {a['q1']:.5g} | {a['q3']:.5g} | "
            f"{a['spread']:.1%} | {a['max_dev']:.1%} | {b['median']:.5g} | {b['spread']:.1%} | "
            f"{drift:+.1%} | {bounds[metric]:.0%} | {measured} |"
        )
        if metric != "setup_s" and max(a["spread"], b["spread"]) > bounds[metric]:
            unsteady.append(f"{workload} {metric}: spread beyond its bound")
        if drift > bounds[metric]:
            unsteady.append(f"{workload} {metric}: group B worse than A by {drift:.1%}")
    lines += ["", "Every count metric and `wire_mb` repeat exactly for one seed; "
              "their spread here is across seeds."]
    lines += ["", "## Verdict", ""]
    lines += [f"- NOT STEADY: {problem}" for problem in unsteady] or [
        "- every spread is within its bound and group B agrees with group A within the bounds"
    ]
    report = "\n".join(lines) + "\n"
    print(report)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "aa-values.json"), "w", encoding="utf-8") as handle:
        json.dump(
            [{" ".join(key): series for key, series in group.items()} for group in (first, second)],
            handle,
        )
    if args.smoke:  # toy sizes say nothing about steadiness: print, write nothing
        return 0 if correct else 1
    with open(os.path.join(HERE, "AA.md"), "w", encoding="utf-8") as handle:
        handle.write(report)
    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    for entry in manifest["end_to_end"]:
        entry["bound"] = bounds[entry["name"]]
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    return 0 if correct and not unsteady else 1
