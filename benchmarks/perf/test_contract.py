"""The runner, the catalogue and ``BENCHMARK.json`` must say the same thing.

Also here: the import allow-list (grep-style), the ``--smoke`` run of every
workload in both modes, the non-zero exit on a wrong answer, the Chrome
trace, and the refusal to run with no program beside the benchmark.

Run with ``python -m pytest benchmarks/perf -q``; not part of tier-1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import catalog
import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUNNER = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    MANIFEST = json.load(handle)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ---------------------------------------------------------------------- #
# BENCHMARK.json against the contract and the catalogue
# ---------------------------------------------------------------------- #
def test_manifest_has_the_contract_shape():
    sections = ("workloads", "end_to_end", "per_layer")
    assert set(MANIFEST) == {"command", "paths", "run_seconds", *sections}
    assert MANIFEST["paths"] == ["benchmarks/perf"]
    assert MANIFEST["command"] == ["python3", "benchmarks/perf/run.py"]
    assert MANIFEST["run_seconds"] == catalog.RUN_SECONDS and 1 <= catalog.RUN_SECONDS <= 60
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in sections for entry in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(metric for metric in MANIFEST["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in MANIFEST["end_to_end"])


def test_manifest_matches_the_catalogue():
    for section, metrics in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST[section]] == metrics
    assert [workload["name"] for workload in MANIFEST["workloads"]] == list(run.WORKLOAD_NAMES)


def test_workload_classes_match_the_manifest():
    sys.path.insert(0, run.SRC)
    import workloads

    assert [(w.name, w.why) for w in workloads.WORKLOADS] == [
        (entry["name"], entry["why"]) for entry in MANIFEST["workloads"]
    ]


# ---------------------------------------------------------------------- #
# the import allow-list
# ---------------------------------------------------------------------- #
#: Modules on the end-to-end path, and every ``repro`` name they may import.
END_TO_END_PATH = ("run.py", "aa.py", "catalog.py", "harness.py", "checks.py", "workloads.py")
ALLOWED = {
    "repro.core": {
        "ExspanNetwork", "ExspanConfig", "QueryRequest", "SpecDescriptor", "ProvenanceMode",
    },
    "repro.datalog.ast": {"Fact"},
    "repro.net.topology": None,  # the whole module is on the list
    "repro.protocols": None,
    "repro.service": {"ServiceThread", "ServiceClient"},
    "repro.net.sharding": {"ShardedExspanNetwork"},
    "repro.obs": {"enable_tracing"},
}
FORBIDDEN = (
    "register_query_spec", "issue_query", "query_provenance", "set_default_",
    "repro.experiments", "repro.datalog.catalog", "repro.core.storage", "pipeline=", "planner=",
)


def test_end_to_end_path_imports_only_the_allow_list():
    for filename in END_TO_END_PATH:
        with open(os.path.join(HERE, filename), encoding="utf-8") as source:
            text = source.read()
        assert not re.search(r"^\s*import\s+repro", text, re.M), filename
        for module, names in re.findall(
            r"^\s*from\s+(repro[\w.]*)\s+import\s+(\([^)]*\)|[^\n]*)", text, re.M
        ):
            assert module in ALLOWED, f"{filename} imports {module}"
            imported = {name.strip() for name in names.strip("()").split(",") if name.strip()}
            allowed = ALLOWED[module]
            assert allowed is None or imported <= allowed, f"{filename}: {module} {imported}"
        for word in FORBIDDEN:
            assert word not in text, f"{filename} mentions {word}"


# ---------------------------------------------------------------------- #
# the runner itself, at toy size
# ---------------------------------------------------------------------- #
def smoke(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUNNER, "--smoke", "--workload", workload, "--seed", "3",
         "--seconds", str(catalog.RUN_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    """The JSON object on the last line of standard output."""
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_prints_exactly_the_manifest_metrics(workload: str, trace: int):
    done = smoke(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for metric in expected:  # the human-readable table names every metric with its unit
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}\b",
                         done.stdout, re.M), metric["name"]


def test_traced_run_leaves_a_loadable_chrome_trace():
    assert smoke("query_churn", 1).returncode == 0
    path = os.path.join(HERE, "out", "trace-query_churn-seed3.json")
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    names = {event["name"] for event in trace["traceEvents"] if event["ph"] == "X"}
    assert {"bench.setup", "bench.fixpoint", "bench.round", "bench.query"} <= names
    assert "sim.event" in trace["otherData"]["program_spans"]
    sys.path.insert(0, run.SRC)
    from repro.obs import validate_chrome_trace

    assert validate_chrome_trace(trace) == []


def test_same_seed_repeats_every_count_and_the_wire_bytes():
    first, second = (result_of(smoke("query_churn", 1)) for _ in range(2))
    for name, entry in first["metrics"].items():
        measured = name.startswith(("proc.", "trace.", "sqlite.db"))
        if entry["unit"] in ("count", "B") and not measured:
            assert entry["value"] == second["metrics"][name]["value"], name
    wire = [result_of(smoke("query_churn", 0))["metrics"]["wire_mb"] for _ in range(2)]
    assert wire[0] == wire[1]


def test_a_wrong_answer_fails_the_run(monkeypatch, capsys):
    wrong = {
        "workload": "query_read", "mode": "e2e", "correct": False, "attempted": 10, "failed": 1,
        "errors": ["cached != uncached"], "wall_s": 1.0, "n": {},
        "metrics": {name: 1.0 for name in catalog.END_TO_END_UNITS},
    }
    monkeypatch.setattr(run, "spawn", lambda workload, mode, args: wrong)
    args = argparse.Namespace(workload="query_read", trace=0, seed=1, seconds=10.0, smoke=True)
    assert run.run_all(args) == 1
    printed = capsys.readouterr().out
    assert "cached != uncached" in printed
    assert json.loads(printed.strip().splitlines()[-1])["correct"] is False


def test_a_killed_workload_process_is_a_counted_failure(monkeypatch):
    monkeypatch.setattr(run, "HARD_TIMEOUT_S", 0.2)
    args = argparse.Namespace(seed=1, seconds=10.0, smoke=False)
    outcome = run.spawn("shard2_fixpoint", "e2e", args)
    assert outcome["correct"] is False and outcome["failed"] == 1
    assert "killed" in outcome["errors"][0]
    leftovers = [name for name in os.listdir(os.path.join(HERE, "out")) if name.startswith("tmp-")]
    assert leftovers == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "query_read", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
