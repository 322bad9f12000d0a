"""The committed perf trajectory: BENCH_perf.json rows and the README table.

No timing here — the README block is a pure function of the JSON, and the
JSON's rows must carry what ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import importlib.util
import json
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(REPO, "benchmarks", f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record_perf():
    return _tool("record_perf")


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


def test_ab_pairs_alternates_sides_and_refuses_unequal_work(monkeypatch, capsys):
    """The A/B tool with a canned ruler: order, win count, and the equalities."""
    ab_pairs = _tool("ab_pairs")
    assert ab_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    calls = []

    def ruler(root, workload, seed, seconds):
        side = os.path.basename(root)
        calls.append((seed, side))
        wire = 2.5 if (side, seed) == ("change", unequal_seed) else 2.0
        return {
            "op_ms_p50": 10.0 if side == "parent" else 8.0, "wire_mb": wire,
            "attempted": 5, "failed": 0, "correct": True,
        }

    monkeypatch.setattr(ab_pairs, "ruler", ruler)
    argv = ["ab_pairs.py", "--parent", "/x/parent", "--change", "/x/change",
            "--workload", "maint_mc_value", "--seeds", "1-4"]
    monkeypatch.setattr("sys.argv", argv)
    unequal_seed = None
    assert ab_pairs.main() == 0
    assert calls == [(1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
                     (3, "parent"), (3, "change"), (4, "change"), (4, "parent")]
    assert "change won 4 of 4 pairs" in capsys.readouterr().out
    unequal_seed = 3
    assert ab_pairs.main() == 1
    assert "NOT COMPARABLE: seed 3: wire_mb" in capsys.readouterr().out


def test_ab_pairs_takes_a_workload_list_and_reports_pair_ratios(monkeypatch, capsys):
    """One call runs each listed workload; the pair-ratio median is per pair."""
    ab_pairs = _tool("ab_pairs")
    calls = []
    readings = {("parent", 1): 10.0, ("change", 1): 9.0, ("parent", 2): 20.0, ("change", 2): 8.0}

    def ruler(root, workload, seed, seconds):
        side = os.path.basename(root)
        calls.append((workload, seed, side))
        wire = 2.5 if (workload, side) == ("query_read", "change") else 2.0
        return {
            "op_ms_p50": readings[(side, seed)], "wire_mb": wire,
            "attempted": 5, "failed": 0, "correct": True,
        }

    monkeypatch.setattr(ab_pairs, "ruler", ruler)
    argv = ["ab_pairs.py", "--parent", "/x/parent", "--change", "/x/change",
            "--workload", "maint_mc_value,query_read", "--seeds", "1-2"]
    monkeypatch.setattr("sys.argv", argv)
    assert ab_pairs.main() == 1  # query_read put different bytes on the wire
    assert [call[0] for call in calls] == ["maint_mc_value"] * 4 + ["query_read"] * 4
    out = capsys.readouterr().out
    # medians 15 -> 8.5 (ratio 0.567); pairs 0.9 and 0.4 (median 0.65)
    assert "| op_ms_p50 | 15 (q1 12.5, q3 17.5) | 8.5 (q1 8.25, q3 8.75) | 0.567 | 0.650 |" in out
    assert out.count("NOT COMPARABLE") == 1
    assert "NOT COMPARABLE: seed 1: wire_mb; seed 2: wire_mb" in out
