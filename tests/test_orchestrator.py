"""Tests for the scenario registry, parallel orchestrator and regression gate."""

from __future__ import annotations

import copy
import glob
import json
import os

import pytest

from repro.experiments import (
    SCENARIOS,
    Scenario,
    TrialSpec,
    assemble_figure,
    get_scenario,
    register,
    run_figure,
    scenario_for_figure,
    unregister,
)
from repro.experiments.__main__ import main as cli_main
from repro.experiments.orchestrator import (
    SCHEMA_VERSION,
    artifact_path,
    canonical_artifact_bytes,
    compare,
    dump_artifact,
    load_artifact,
    run,
    strict_compare,
    trial_fingerprint,
    wall_clock_report,
)
from repro.experiments.scenarios import run_trial_spec
from repro.experiments.trials import TRIAL_FUNCTIONS


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_every_paper_figure_has_a_scenario(self):
        for figure_number in range(6, 18):
            scenario = scenario_for_figure(str(figure_number))
            assert scenario.figure == str(figure_number)
            assert scenario.trials("quick"), scenario.name
            assert scenario.trials("paper"), scenario.name

    def test_registry_only_scenarios_exist(self):
        for name in ("churn_intensity", "query_concurrency", "scale_sweep", "chaos_convergence"):
            scenario = get_scenario(name)
            assert scenario.figure is None
            assert scenario.trials("quick")

    def test_expansion_is_deterministic_and_json_safe(self):
        for scenario in SCENARIOS.values():
            first = scenario.trials("quick")
            second = scenario.trials("quick")
            assert first == second
            for spec in first:
                assert spec.fn in TRIAL_FUNCTIONS
                json.dumps(spec.kwargs)  # kwargs must be artifact-serializable

    def test_trial_ids_are_unique_within_a_scenario(self):
        for scenario in SCENARIOS.values():
            ids = [spec.trial_id for spec in scenario.trials("quick")]
            assert len(ids) == len(set(ids)), scenario.name

    def test_params_scales_and_overrides(self):
        scenario = get_scenario("fig17_testbed_fixpoint")
        assert scenario.params("quick")["sizes"] != scenario.params("paper")["sizes"]
        assert scenario.params("quick", {"sizes": (6,)})["sizes"] == (6,)
        with pytest.raises(ValueError):
            scenario.params("huge")

    def test_unknown_override_keys_raise(self):
        scenario = get_scenario("fig09_mincost_churn")
        with pytest.raises(TypeError, match="links_per_rounds"):
            scenario.params("quick", {"links_per_rounds": 8})  # typo
        with pytest.raises(TypeError):
            run_figure("fig09_mincost_churn", links_per_rounds=8)

    def test_override_keys_match_what_expansion_consumes(self):
        # Mode-sweeping scenarios take a modes override...
        specs = get_scenario("fig09_mincost_churn").trials("quick", {"modes": ("none",)})
        assert [spec.kwargs["mode"] for spec in specs] == ["none"]
        # ...but query-workload scenarios reject it instead of silently
        # dropping it (their trials have no modes knob).
        for name in ("fig11_caching_bandwidth", "fig13_traversal_bandwidth"):
            with pytest.raises(TypeError, match="modes"):
                get_scenario(name).params("quick", {"modes": ("none",)})
        # One executor: there is no evaluation strategy to override.
        with pytest.raises(TypeError, match="planner"):
            get_scenario("fig09_mincost_churn").params("quick", {"planner": "naive"})

    def test_every_scenario_has_exactly_one_committed_baseline(self):
        # CI's fail-closed compare reads every BENCH_*.json under
        # benchmarks/baselines/: a retired scenario must take its baseline
        # with it, and a new one must commit one.
        baselines = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "baselines")
        committed = {
            os.path.basename(path)[len("BENCH_") : -len(".json")]
            for path in glob.glob(os.path.join(baselines, "BENCH_*.json"))
        }
        assert committed == set(SCENARIOS)
        assert len(SCENARIOS) == 16

    def test_duplicate_registration_rejected(self):
        scenario = get_scenario("churn_intensity")
        with pytest.raises(ValueError):
            register(scenario)

    def test_unknown_lookups_raise(self):
        with pytest.raises(KeyError):
            get_scenario("no_such_scenario")
        with pytest.raises(KeyError):
            scenario_for_figure("99")

    def test_run_figure_matches_assembled_trials(self):
        scenario = get_scenario("fig17_testbed_fixpoint")
        trials = [run_trial_spec(spec) for spec in scenario.trials("quick", {"sizes": (6,)})]
        direct = run_figure("fig17_testbed_fixpoint", sizes=(6,))
        assert direct.render() == assemble_figure(scenario, trials).render()


# ---------------------------------------------------------------------- #
# orchestrator runs
# ---------------------------------------------------------------------- #
@pytest.fixture
def tiny_scenario():
    """A registry-registered scenario small enough to run in tests."""
    name = "tmp_tiny_fixpoint"

    def expand(params):
        return [
            TrialSpec(
                scenario=name,
                trial_id=f"size={size}/mode={mode}",
                fn="testbed_fixpoint",
                kwargs={"size": size, "mode": mode, "seed": params["seed"]},
            )
            for size in params["sizes"]
            for mode in ("ref", "none")
        ]

    scenario = Scenario(
        name=name,
        title="tiny fixpoint sweep",
        x_label="Number of Nodes",
        y_label="Fixpoint Latency (seconds)",
        expand=expand,
        quick={"sizes": (4, 6), "seed": 0},
    )
    register(scenario)
    yield scenario
    unregister(name)


def _artifact_bytes(results_dir, scenario_name):
    """Canonical artifact bytes: advisory wall-clock stripped.

    Wall-clock differs between any two executions by nature; every other
    byte must be identical, which is exactly what canonical_artifact_bytes
    compares.
    """
    return canonical_artifact_bytes(artifact_path(str(results_dir), scenario_name))


class TestOrchestratorRun:
    def test_parallel_matches_serial_byte_for_byte(self, tiny_scenario, tmp_path):
        serial = run([tiny_scenario.name], workers=1, results_dir=str(tmp_path / "s"))
        parallel = run([tiny_scenario.name], workers=2, results_dir=str(tmp_path / "p"))
        assert serial.executed == parallel.executed == 4
        assert _artifact_bytes(tmp_path / "s", tiny_scenario.name) == _artifact_bytes(
            tmp_path / "p", tiny_scenario.name
        )
        assert strict_compare(str(tmp_path / "s"), str(tmp_path / "p")) == []

    def test_artifact_schema(self, tiny_scenario, tmp_path):
        run([tiny_scenario.name], results_dir=str(tmp_path))
        artifact = load_artifact(artifact_path(str(tmp_path), tiny_scenario.name))
        assert artifact is not None
        assert artifact["schema"] == SCHEMA_VERSION
        assert artifact["scenario"] == tiny_scenario.name
        assert artifact["scale"] == "quick"
        assert len(artifact["trials"]) == 4
        for trial in artifact["trials"]:
            assert trial["fingerprint"] == trial_fingerprint(trial["fn"], trial["kwargs"])
            assert set(trial["result"]) == {"series", "notes", "planner", "traffic"}
        figure = assemble_figure(
            tiny_scenario, [trial["result"] for trial in artifact["trials"]]
        )
        assert figure.labels() == ["Ref-based Prov.", "No Prov."]

    def test_resume_skips_fresh_trials(self, tiny_scenario, tmp_path):
        first = run([tiny_scenario.name], results_dir=str(tmp_path))
        assert (first.executed, first.skipped) == (4, 0)
        before = _artifact_bytes(tmp_path, tiny_scenario.name)
        second = run([tiny_scenario.name], results_dir=str(tmp_path))
        assert (second.executed, second.skipped) == (0, 4)
        assert _artifact_bytes(tmp_path, tiny_scenario.name) == before
        forced = run([tiny_scenario.name], results_dir=str(tmp_path), resume=False)
        assert (forced.executed, forced.skipped) == (4, 0)
        assert _artifact_bytes(tmp_path, tiny_scenario.name) == before

    def test_stale_fingerprints_rerun(self, tiny_scenario, tmp_path):
        run([tiny_scenario.name], results_dir=str(tmp_path))
        path = artifact_path(str(tmp_path), tiny_scenario.name)
        artifact = load_artifact(path)
        artifact["trials"][0]["fingerprint"] = "0" * 16
        dump_artifact(path, artifact)
        repaired = run([tiny_scenario.name], results_dir=str(tmp_path))
        assert (repaired.executed, repaired.skipped) == (1, 3)

    def test_figure_number_selector(self, tiny_scenario, tmp_path):
        report = run(["17"], results_dir=str(tmp_path))
        assert report.scenarios == ["fig17_testbed_fixpoint"]

    def test_trial_functions_are_deterministic(self):
        spec = TrialSpec("x", "t", "testbed_fixpoint", {"size": 5, "mode": "none"})
        assert run_trial_spec(spec) == run_trial_spec(spec)


# ---------------------------------------------------------------------- #
# compare / regression gate
# ---------------------------------------------------------------------- #
def _fake_artifact(scenario="fake_scenario", tuples_scanned=1000, total_bytes=5000):
    return {
        "schema": SCHEMA_VERSION,
        "generator": "test",
        "scenario": scenario,
        "figure": None,
        "title": "fake",
        "x_label": "x",
        "y_label": "y",
        "scale": "quick",
        "params": {},
        "trials": [
            {
                "id": "only",
                "fn": "testbed_fixpoint",
                "kwargs": {},
                "fingerprint": "f" * 16,
                "result": {
                    "series": {"s": [[1, 1.0]]},
                    "notes": {},
                    "planner": {"tuples_scanned": tuples_scanned, "full_scans": 100},
                    "traffic": {"total_bytes": total_bytes, "total_messages": 40},
                },
            }
        ],
    }


class TestCompare:
    def _write(self, directory, artifact):
        os.makedirs(directory, exist_ok=True)
        dump_artifact(
            artifact_path(str(directory), artifact["scenario"]), artifact
        )

    def test_identical_artifacts_pass(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        self._write(tmp_path / "b", _fake_artifact())
        report = compare(str(tmp_path / "a"), str(tmp_path / "b"))
        assert report.ok and report.checked == 4
        assert "OK" in report.render()

    def test_injected_regression_fails(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact(tuples_scanned=1000))
        self._write(tmp_path / "b", _fake_artifact(tuples_scanned=1200))
        report = compare(str(tmp_path / "a"), str(tmp_path / "b"), threshold=0.05)
        assert not report.ok
        assert [r.key for r in report.regressions] == ["tuples_scanned"]
        assert "REGRESSIONS" in report.render()

    def test_improvement_is_not_a_failure(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact(tuples_scanned=1000))
        self._write(tmp_path / "b", _fake_artifact(tuples_scanned=500))
        report = compare(str(tmp_path / "a"), str(tmp_path / "b"))
        assert report.ok
        assert [r.key for r in report.improvements] == ["tuples_scanned"]

    def test_min_delta_tolerance_is_opt_in(self, tmp_path):
        # Counters are deterministic, so the default gate flags any growth
        # past the relative threshold; min_delta exists for callers who
        # knowingly tolerate small absolute drift.
        self._write(tmp_path / "a", _fake_artifact(tuples_scanned=10))
        self._write(tmp_path / "b", _fake_artifact(tuples_scanned=12))
        assert not compare(str(tmp_path / "a"), str(tmp_path / "b")).ok
        assert compare(str(tmp_path / "a"), str(tmp_path / "b"), min_delta=16).ok

    def test_unreadable_baseline_fails_closed(self, tmp_path):
        os.makedirs(tmp_path / "a", exist_ok=True)
        with open(tmp_path / "a" / "BENCH_broken.json", "w") as handle:
            handle.write("{not json")
        self._write(tmp_path / "b", _fake_artifact())
        report = compare(str(tmp_path / "a"), str(tmp_path / "b"))
        assert not report.ok
        assert report.regressions[0].key == "unreadable or stale-schema baseline"

    def test_baseline_with_no_trials_fails_closed(self, tmp_path):
        empty = _fake_artifact()
        empty["trials"] = []
        self._write(tmp_path / "a", empty)
        self._write(tmp_path / "b", _fake_artifact())
        report = compare(str(tmp_path / "a"), str(tmp_path / "b"))
        assert not report.ok
        assert report.regressions[0].key == "baseline has no trials"

    def test_empty_baseline_directory_fails_closed(self, tmp_path):
        os.makedirs(tmp_path / "a", exist_ok=True)
        self._write(tmp_path / "b", _fake_artifact())
        report = compare(str(tmp_path / "a"), str(tmp_path / "b"))
        assert not report.ok
        assert "no baseline artifacts" in report.regressions[0].key
        assert strict_compare(str(tmp_path / "empty1"), str(tmp_path / "empty2"))

    def test_strict_compare_flags_candidate_only_artifacts(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        self._write(tmp_path / "b", _fake_artifact())
        self._write(tmp_path / "b", _fake_artifact(scenario="extra_only"))
        assert strict_compare(str(tmp_path / "a"), str(tmp_path / "b")) == [
            "BENCH_extra_only.json"
        ]

    def test_vanished_counter_fails(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        gutted = _fake_artifact()
        del gutted["trials"][0]["result"]["planner"]["tuples_scanned"]
        self._write(tmp_path / "b", gutted)
        report = compare(str(tmp_path / "a"), str(tmp_path / "b"))
        assert not report.ok
        assert [r.key for r in report.regressions] == ["tuples_scanned missing"]

    def test_missing_candidate_artifact_fails(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        os.makedirs(tmp_path / "b", exist_ok=True)
        report = compare(str(tmp_path / "a"), str(tmp_path / "b"))
        assert not report.ok
        assert report.regressions[0].key == "artifact missing"

    def test_missing_trial_fails(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        gutted = _fake_artifact()
        gutted["trials"] = []
        self._write(tmp_path / "b", gutted)
        report = compare(str(tmp_path / "a"), str(tmp_path / "b"))
        assert not report.ok
        assert report.regressions[0].key == "trial missing"

    def test_new_candidate_scenario_is_only_a_note(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        self._write(tmp_path / "b", _fake_artifact())
        self._write(tmp_path / "b", _fake_artifact(scenario="brand_new"))
        report = compare(str(tmp_path / "a"), str(tmp_path / "b"))
        assert report.ok
        assert any("brand_new" in note for note in report.notes)

    def test_strict_compare_detects_byte_drift(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        drifted = _fake_artifact()
        drifted["trials"][0]["result"]["series"]["s"] = [[1, 1.0000001]]
        self._write(tmp_path / "b", drifted)
        assert compare(str(tmp_path / "a"), str(tmp_path / "b")).ok
        assert strict_compare(str(tmp_path / "a"), str(tmp_path / "b"))


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig06_mincost_comm" in out and "chaos_convergence" in out
        assert "planner_ablation" not in out

    def test_run_requires_selection(self, capsys):
        assert cli_main(["run"]) == 2

    def test_planner_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "--planner", "naive", "6"])
        assert exit_info.value.code == 2
        assert "--planner" in capsys.readouterr().err

    def test_run_unknown_scenario_is_an_error_not_a_traceback(self, capsys):
        assert cli_main(["run", "bogus_scenario"]) == 2
        assert "error" in capsys.readouterr().out

    def test_run_and_compare_roundtrip(self, tiny_scenario, tmp_path, capsys):
        base = str(tmp_path / "base")
        cand = str(tmp_path / "cand")
        assert cli_main(["run", tiny_scenario.name, "--results-dir", base]) == 0
        assert cli_main(["run", tiny_scenario.name, "--results-dir", cand]) == 0
        assert cli_main(["compare", base, cand, "--strict"]) == 0
        artifact = load_artifact(artifact_path(cand, tiny_scenario.name))
        worse = copy.deepcopy(artifact)
        worse["trials"][0]["result"]["planner"]["tuples_scanned"] *= 10
        dump_artifact(artifact_path(cand, tiny_scenario.name), worse)
        assert cli_main(["compare", base, cand]) == 1
