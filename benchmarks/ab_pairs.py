#!/usr/bin/env python3
"""Alternated parent/change pairs of one ruler workload.

    python benchmarks/ab_pairs.py --parent ../parent --change . \\
        --workload maint_mc_value --seeds 1-10

The protocol ROADMAP asks of every perf claim below the A/A bound: for each
seed run the *unchanged* ruler (``benchmarks/perf/run.py --trace 0``) once
in each checkout, alternating which side goes first, then compare medians
and count wins.  Each checkout runs its own copy of the ruler, so both must
carry the same ``benchmarks/perf``.  ``--workload`` takes one name or a
comma-separated list, run one after the other.  Per workload it prints the
per-seed table, each side's median / q1 / q3 for every end-to-end metric,
the ratio of the medians, the median of the per-pair ratios (a slow
stretch of a shared host then hits both sides of a pair instead of skewing
one side's median) and the win count on ``--metric``.  Exits 1 when
``wire_mb``, ``attempted``, ``failed`` or ``correct`` differ for any seed
of any workload — the two sides must do the same work.  Wall-clock never
gates.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Sequence

#: What must be equal per seed for the timings to be comparable.
EXACT = ("wire_mb", "attempted", "failed", "correct")


def ruler(root: str, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One timed run of the ruler in *root*, flattened to ``{name: value}``."""
    command = [sys.executable, os.path.join("benchmarks", "perf", "run.py")]
    command += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    command += ["--trace", "0"]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    try:
        contract = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{root}: {workload} seed {seed}: no contract line\n{proc.stderr}")
    flat = {name: entry["value"] for name, entry in contract["metrics"].items()}
    flat.update({name: contract[name] for name in ("attempted", "failed", "correct")})
    return flat


def parse_seeds(text: str) -> List[int]:
    """``"1-4,9"`` -> ``[1, 2, 3, 4, 9]``."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def quartiles(values: Sequence[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} (q1 {q1:.4g}, q3 {q3:.4g})"


def compare(sides: Dict[str, str], workload: str, seeds: List[int], args) -> List[str]:
    """Alternated pairs of *workload*: prints its tables, returns its mismatches."""
    runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
    mismatches: List[str] = []
    wins = ties = 0
    print(f"{workload}: {args.metric}, lower is better")
    print("| seed | first | parent | change | change/parent | exact |")
    print("|---:|---|---:|---:|---:|---|")
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        result = {side: ruler(sides[side], workload, seed, args.seconds) for side in order}
        parent, change = result["parent"], result["change"]
        runs["parent"].append(parent)
        runs["change"].append(change)
        differing = [name for name in EXACT if parent[name] != change[name]]
        if not (parent["correct"] and change["correct"]):
            differing.append("incorrect")
        mismatches += [f"seed {seed}: {name}" for name in differing]
        a, b = parent[args.metric], change[args.metric]
        wins += b < a
        ties += b == a
        print(
            f"| {seed} | {order[0]} | {a:.4g} | {b:.4g} | "
            f"{b / a if a else float('nan'):.3f} | {', '.join(differing) or 'ok'} |"
        )
    pairs = len(runs["parent"])
    print(f"\nchange won {wins} of {pairs} pairs on {args.metric} ({ties} ties)\n")
    print("| metric | parent | change | change/parent | median pair ratio |")
    print("|---|---|---|---:|---:|")
    for name in runs["parent"][0]:
        if name in ("attempted", "failed", "correct"):
            continue
        a = [run[name] for run in runs["parent"]]
        b = [run[name] for run in runs["change"]]
        base = statistics.median(a)
        ratio = statistics.median(b) / base if base else float("nan")
        pair_ratios = [y / x for x, y in zip(a, b) if x]
        pair_ratio = statistics.median(pair_ratios) if pair_ratios else float("nan")
        print(f"| {name} | {quartiles(a)} | {quartiles(b)} | {ratio:.3f} | {pair_ratio:.3f} |")
    if mismatches:
        print("\nNOT COMPARABLE: " + "; ".join(mismatches))
    print()
    return mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument(
        "--workload", required=True, help="BENCHMARK.json workload names, comma-separated"
    )
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,2,7")
    parser.add_argument("--seconds", type=float, default=10.0, help="ruler --seconds")
    parser.add_argument("--metric", default="op_ms_p50", help="the metric wins are counted on")
    args = parser.parse_args()

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    seeds = parse_seeds(args.seeds)
    comparable = True
    for workload in args.workload.split(","):
        comparable &= not compare(sides, workload.strip(), seeds, args)
    return 0 if comparable else 1


if __name__ == "__main__":
    sys.exit(main())
