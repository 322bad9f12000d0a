"""The committed perf trajectory: BENCH_perf.json rows and the README table.

No timing here — the README block is a pure function of the JSON, and the
JSON's rows must carry what ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import importlib.util
import json
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _record_perf():
    spec = importlib.util.spec_from_file_location(
        "record_perf", os.path.join(REPO, "benchmarks", "record_perf.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_table_is_the_render_of_bench_perf_json():
    record_perf = _record_perf()
    with open(record_perf.README) as handle:
        readme = handle.read()
    assert readme == record_perf.readme_with(record_perf.render(record_perf.load_rows()))


def test_rows_carry_every_declared_workload_and_metric():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    workloads = [workload["name"] for workload in declared["workloads"]]
    metrics = {metric["name"] for metric in declared["end_to_end"]}
    rows = _record_perf().load_rows()
    assert len(rows) >= 2  # the parent of the first recorded PR, and that PR
    for row in rows:
        assert {"commit", "date", "nproc", "python", "seeds", "proc.slowness"} <= set(row)
        assert list(row["workloads"]) == workloads
        for contract in row["workloads"].values():
            assert contract["correct"] and contract["failed"] == 0
            assert set(contract["metrics"]) == metrics
