#!/usr/bin/env python3
"""The repo benchmark: seven workloads, end-to-end metrics, a per-layer ledger.

    python benchmarks/perf/run.py                      every workload, both tables
    python benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
    python benchmarks/perf/run.py --smoke              toy sizes, no timing claims
    python benchmarks/perf/run.py --aa 10              A/A sets -> AA.md and bounds

``--trace 0`` is the timed run (end-to-end metrics, tracing off);
``--trace 1`` is the layer pass (per-layer metrics: a plain run for counts
and twins, then a traced run for self times, kernels and a Chrome trace
under ``out/``).  With one workload the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Every workload runs in its own fresh interpreter with ``PYTHONHASHSEED=0``:
the SHA-1/VID caches and memoised plan code are process-wide, and a
64-node churn loop measured 28.7 s then 24.4 s inside one process but
within 2 % across fresh ones.  This file is both the supervisor (spawns,
times out, reaps, prints) and, under ``--worker``, the workload process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
from typing import Any, Dict, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

from catalog import END_TO_END_UNITS, LAYER_SHARE, PER_LAYER_UNITS, RUN_SECONDS  # noqa: E402
from harness import (  # noqa: E402
    OUT_DIR,
    Recorder,
    Scratch,
    WorkloadAborted,
    clock,
    counter_delta,
    gc_collections,
    install_guards,
    peak_rss_mb,
    percentile,
    scratch_path,
)

#: Spelled out (a test compares them with ``workloads.WORKLOADS``) so that
#: the supervisor never imports the program it measures.
WORKLOAD_NAMES = (
    "maint_pv_ref",
    "maint_mc_value",
    "query_read",
    "query_churn",
    "service_mixed",
    "durable_sqlite",
    "shard2_fixpoint",
)

#: Set-ups (and cold convergences) per timed run; their median is reported.
SETUP_REPS = 7

#: The supervisor kills a workload process that outlives this (the contract
#: allows a run 180 s).  The kill is a counted failure, never a hang.
HARD_TIMEOUT_S = 150.0

MODES = ("e2e", "plain", "traced")


# ---------------------------------------------------------------------- #
# the workload process
# ---------------------------------------------------------------------- #
def busy_cpu_s() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def end_to_end(samples: Any, wall_s: float) -> Dict[str, float]:
    """The timing metrics, from calibrated or from as-measured samples."""
    return {
        "setup_s": percentile(samples("setup"), 0.5),
        "wall_s": wall_s,
        "fixpoint_s": percentile(samples("fixpoint"), 0.5),
        "op_ms_p50": percentile(samples("op"), 0.5) * 1e3,
    }


def sample_counts(recorder: Recorder) -> Dict[str, int]:
    """How many samples each name, and each dotted family, holds."""
    counts: Dict[str, int] = {}
    for name, samples in recorder.samples.items():
        for key in {name, name.partition(".")[0]}:
            counts[key] = counts.get(key, 0) + len(samples)
    return counts


def worker(args: argparse.Namespace) -> int:
    """Run one workload in this (fresh) interpreter; print one JSON line."""
    mode = args.worker
    install_guards()
    sys.path.insert(0, SRC)
    importing = clock()
    import workloads  # noqa: E402 - pulls in the repro facade

    import_ms = (clock() - importing) * 1e3
    timed = mode == "e2e"
    if not timed:
        import kernels
        import layers
    session = mark = None
    if mode == "traced":
        from repro.obs import enable_tracing

        session = enable_tracing()  # before any network is built

    scale = args.seconds / RUN_SECONDS * (1.0 if timed else LAYER_SHARE)
    reps = SETUP_REPS if timed and not args.smoke else 1
    recorder = Recorder(trace=mode == "traced", capture=mode == "traced")
    scratch = Scratch()
    factory = workloads.BY_NAME[args.workload]
    workload = None
    metrics: Dict[str, float] = {}
    uncalibrated: Dict[str, float] = {}
    try:
        for rep in range(reps):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            recorder.take_probe()
            started = clock()
            workload = factory(args.seed, scale, args.smoke, scratch)
            workload.setup(recorder)
            recorder.lap("setup", started)
            recorder.take_probe()
            if rep == reps - 1:
                wire_before = workload.wire_bytes()
                counts_before = workload.counters() if mode == "plain" else {}
                cpu_before, gc_before = busy_cpu_s(), gc_collections()
                recorder.busy.clear()
                if session is not None:
                    mark = layers.Mark(session)
            workload.cold(recorder)
        workload.measure(recorder)
        recorder.take_probe()
        raw_s, wall_s = recorder.busy_s()
        cpu_s, gc_runs = busy_cpu_s() - cpu_before, gc_collections() - gc_before
        wire_mb = (workload.wire_bytes() - wire_before) / 1e6
        workload.verify(recorder)
        if timed:
            metrics = end_to_end(recorder.calibrated, wall_s)
            metrics.update({"peak_rss_mb": peak_rss_mb(), "wire_mb": wire_mb})
            uncalibrated = end_to_end(recorder.measured, raw_s)
        elif mode == "plain":
            counts_after = workload.counters()
            metrics = layers.plain_metrics(
                recorder, counter_delta(counts_after, counts_before), counts_after, wall_s
            )
            twin = layers.TWINS.get(args.workload)
            if twin is not None:
                metrics.update(twin(workload, recorder))
            metrics.update(
                {
                    "proc.cpu_s": cpu_s,
                    "proc.import_ms": import_ms,
                    "proc.gc_collections": gc_runs,
                    "proc.wall_raw_s": raw_s,
                    "proc.slowness": raw_s / wall_s,
                }
            )
        else:
            metrics, table = layers.traced_metrics(session, mark, raw_s / wall_s)
            metrics.update(kernels.run_kernels(workload, recorder))
            layers.write_chrome_trace(
                os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                args.workload,
                recorder,
                table,
            )
    except WorkloadAborted:
        _, wall_s = recorder.busy_s()
    finally:
        if workload is not None:
            workload.close()
        scratch.remove()
    print(
        json.dumps(
            {
                "workload": args.workload,
                "mode": mode,
                "correct": recorder.failed == 0,
                "attempted": recorder.attempted,
                "failed": recorder.failed,
                "errors": recorder.errors,
                "wall_s": wall_s,
                "metrics": metrics,
                "uncalibrated": uncalibrated,
                "n": sample_counts(recorder),
            }
        )
    )
    return 0


# ---------------------------------------------------------------------- #
# the supervisor
# ---------------------------------------------------------------------- #
def spawn(workload: str, mode: str, args: argparse.Namespace) -> Dict[str, Any]:
    """One workload process: fresh interpreter, own process group, reaped."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--worker", mode,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
    ]
    if args.smoke:
        command.append("--smoke")
    environment = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=environment, start_new_session=True
    )
    problem = None
    try:
        output, _ = child.communicate(timeout=HARD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        problem = f"no result within {HARD_TIMEOUT_S:.0f} s; killed"
        output = ""
    finally:
        try:  # the whole group: shard workers must never outlive their driver
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(scratch_path(child.pid), ignore_errors=True)
    lines = output.strip().splitlines()
    if problem is None and child.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            problem = "unreadable result line"
    if problem is None:
        problem = f"workload process exited with code {child.returncode}"
    return {
        "workload": workload, "mode": mode, "correct": False, "attempted": 1, "failed": 1,
        "errors": [problem], "wall_s": 0.0, "metrics": {}, "uncalibrated": {}, "n": {},
    }


def timed_run(workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    """``--trace 0``: every end-to-end metric, tracing off."""
    outcome = spawn(workload, "e2e", args)
    metrics = outcome["metrics"]
    return {
        "correct": outcome["correct"] and set(metrics) == set(END_TO_END_UNITS),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "errors": outcome["errors"],
        "n": outcome["n"],
        "uncalibrated": outcome.get("uncalibrated", {}),
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        },
    }


def layer_run(workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    """``--trace 1``: every per-layer metric, from a plain then a traced run."""
    plain = spawn(workload, "plain", args)
    traced = spawn(workload, "traced", args)
    merged = {**plain["metrics"], **traced["metrics"]}
    merged["trace.overhead_ratio"] = (
        traced["wall_s"] / plain["wall_s"] if plain["wall_s"] else 0.0
    )
    unknown = sorted(set(merged) - set(PER_LAYER_UNITS))
    errors = plain["errors"] + traced["errors"]
    if unknown:
        errors.append(f"metrics missing from catalog.PER_LAYER: {unknown}")
    return {
        "correct": plain["correct"] and traced["correct"] and not unknown,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": errors,
        "n": plain["n"],
        "metrics": {
            name: {"value": merged.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        },
    }


def contract_line(result: Dict[str, Any]) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


# ---------------------------------------------------------------------- #
# printing
# ---------------------------------------------------------------------- #
#: Which sample an end-to-end figure was taken over, for the ``n`` column.
SAMPLE_OF = {
    "setup_s": "setup", "fixpoint_s": "fixpoint", "op_ms_p50": "op", "op_ms_p90": "op",
    "round_ms_p50": "round", "round_ms_p90": "round", "query_ms_p50": "query",
    "query_ms_p99": "query", "sql_ms_p50": "sql",
}


def print_result(workload: str, title: str, result: Dict[str, Any]) -> None:
    verdict = "ok" if result["correct"] else "WRONG"
    print(
        f"\n== {workload} · {title} · {verdict} · "
        f"{result['attempted']} attempted, {result['failed']} failed"
    )
    for error in result["errors"]:
        print(f"   ! {error}")
    for name, entry in result["metrics"].items():
        sample = SAMPLE_OF.get(name)
        count = f"  n={result['n'].get(sample, 0)}" if sample else ""
        print(f"   {name:<32} {entry['value']:>16.6g} {entry['unit']}{count}")


def run_all(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    passes = []
    if args.trace in (None, 0):
        passes.append(("end to end", timed_run))
    if args.trace in (None, 1):
        passes.append(("per layer", layer_run))
    correct = True
    result: Dict[str, Any] = {}
    for workload in names:
        for title, run in passes:
            result = run(workload, args)
            correct = correct and result["correct"]
            print_result(workload, title, result)
            sys.stdout.flush()
    if args.workload and len(passes) == 1:
        print(contract_line(result))
    else:
        print(f"\n{'all answers correct' if correct else 'WRONG ANSWERS: see above'}")
    return 0 if correct else 1


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="draws every input (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=float(RUN_SECONDS),
        help=f"measured seconds the operation counts are sized for (default {RUN_SECONDS})",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
        help="0: timed run only; 1: layer pass only (default: both)",
    )
    parser.add_argument("--smoke", action="store_true", help="toy sizes; no timing claims")
    parser.add_argument("--aa", type=int, metavar="N", help="N A/A sets, twice; writes AA.md")
    parser.add_argument("--worker", choices=MODES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found: nothing to measure", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    if args.aa:
        import aa

        return aa.run(args, timed_run, WORKLOAD_NAMES)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
