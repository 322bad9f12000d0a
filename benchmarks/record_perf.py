#!/usr/bin/env python3
"""The committed perf trajectory: ``BENCH_perf.json`` and the README table.

    python benchmarks/record_perf.py                  run the ruler here, append a row
    python benchmarks/record_perf.py --root DIR       ... on another checkout (e.g. a
                                                      clone of the parent commit)
    python benchmarks/record_perf.py --render         rewrite the README table only
    python benchmarks/record_perf.py --check          exit 1 unless README == render

One row per PR (ROADMAP item 1).  A row is what the *unchanged* ruler
printed — ``benchmarks/perf/run.py --workload W --seed S --seconds 10
--trace 0`` for each of the seven workloads, the median over the seeds run —
plus where it ran (``nproc``, Python) and ``proc.slowness`` from one
``--trace 1`` pass of ``maint_pv_ref``, which tells a busy box from a slow
commit.  Nothing here measures anything itself, and nothing gates on time:
``--check`` is a pure function of the committed JSON.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Sequence

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILE = os.path.join(REPO, "BENCH_perf.json")
README = os.path.join(REPO, "README.md")
BEGIN, END = "<!-- perf-table -->", "<!-- /perf-table -->"

#: ``(metric, heading, format)`` for the README's columns, in
#: ``BENCHMARK.json`` order.
COLUMNS = (
    ("op_ms_p50", "op p50 (ms)", "{:.1f}"),
    ("wall_s", "wall (s)", "{:.2f}"),
    ("fixpoint_s", "fixpoint (s)", "{:.3f}"),
    ("setup_s", "setup (s)", "{:.3f}"),
    ("peak_rss_mb", "peak RSS (MB)", "{:.1f}"),
    ("wire_mb", "wire (MB)", "{:.3f}"),
)


def ruler(root: str, workload: str, seed: int, trace: int) -> Dict[str, Any]:
    """One run of the ruler in *root*; its last stdout line is the contract."""
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "perf", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "10",
         "--trace", str(trace)],
        cwd=root,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output\n{proc.stderr}")
    return json.loads(lines[-1])


def median_contract(runs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The contract object of several seeds' runs, metric by metric."""
    metrics = {
        name: {
            "value": statistics.median(run["metrics"][name]["value"] for run in runs),
            "unit": runs[0]["metrics"][name]["unit"],
        }
        for name in runs[0]["metrics"]
    }
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": int(statistics.median(run["attempted"] for run in runs)),
        "failed": int(statistics.median(run["failed"] for run in runs)),
        "metrics": metrics,
    }


def record(root: str, seeds: Sequence[int], commit: str) -> Dict[str, Any]:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        names = [workload["name"] for workload in json.load(handle)["workloads"]]
    workloads = {}
    for name in names:
        workloads[name] = median_contract([ruler(root, name, seed, 0) for seed in seeds])
        print(name, workloads[name]["metrics"]["op_ms_p50"], file=sys.stderr)
    layer_pass = ruler(root, "maint_pv_ref", seeds[0], 1)
    return {
        "commit": commit,
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seeds": list(seeds),
        "proc.slowness": layer_pass["metrics"]["proc.slowness"]["value"],
        "workloads": workloads,
    }


def load_rows() -> List[Dict[str, Any]]:
    with open(BENCH_FILE) as handle:
        return json.load(handle)["rows"]


def render(rows: Sequence[Dict[str, Any]]) -> str:
    """The README block: one table per workload, one line per recorded row."""
    out = [BEGIN, ""]
    header = "| commit | " + " | ".join(heading for _, heading, _ in COLUMNS) + " |"
    rule = "|---|" + "---:|" * len(COLUMNS)
    for name in rows[-1]["workloads"]:
        out += [f"**`{name}`**", "", header, rule]
        for row in rows:
            contract = row["workloads"].get(name)
            if contract is None:
                continue
            cells = [
                form.format(contract["metrics"][metric]["value"])
                for metric, _, form in COLUMNS
            ]
            wrong = "" if contract["correct"] and not contract["failed"] else " **wrong**"
            out.append(f"| {row['commit']}{wrong} | " + " | ".join(cells) + " |")
        out.append("")
    last = rows[-1]
    out += [
        f"Rows are medians over seeds {last['seeds']} of the unchanged ruler "
        f"(`--seconds 10 --trace 0`); last row recorded {last['date']} on "
        f"{last['nproc']} cores, Python {last['python']}, "
        f"`proc.slowness` {last['proc.slowness']:.2f}.",
        "",
        END,
    ]
    return "\n".join(out)


def readme_with(block: str) -> str:
    with open(README) as handle:
        text = handle.read()
    start, stop = text.index(BEGIN), text.index(END) + len(END)
    return text[:start] + block + text[stop:]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO, help="checkout to run the ruler in")
    parser.add_argument("--seeds", default="1,2", help="comma-separated ruler seeds")
    parser.add_argument("--commit", help="row label (default: git HEAD of --root)")
    parser.add_argument("--render", action="store_true", help="rewrite the README table")
    parser.add_argument("--check", action="store_true", help="README table in sync?")
    args = parser.parse_args()
    if args.check:
        with open(README) as handle:
            if handle.read() != readme_with(render(load_rows())):
                print("README perf table is stale: run benchmarks/record_perf.py --render")
                return 1
        print("README perf table matches BENCH_perf.json")
        return 0
    if not args.render:
        commit = args.commit or subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=args.root, capture_output=True, text=True, check=True,
        ).stdout.strip()
        seeds = [int(seed) for seed in args.seeds.split(",")]
        rows = load_rows() if os.path.exists(BENCH_FILE) else []
        rows.append(record(args.root, seeds, commit))
        with open(BENCH_FILE, "w") as handle:
            json.dump({"rows": rows}, handle, indent=1)
            handle.write("\n")
    text = readme_with(render(load_rows()))
    with open(README, "w") as handle:
        handle.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
