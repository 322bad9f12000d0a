"""Tests for the scenario registry, parallel orchestrator and regression gate."""

from __future__ import annotations

import copy
import glob
import json
import os

import pytest

from repro.experiments import (
    SCENARIOS,
    ExecutionEnv,
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
    mismatched_artifacts,
    run,
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
        assert mismatched_artifacts(str(tmp_path / "s"), str(tmp_path / "p")) == []

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
# execution environment: no knob outlives its run
# ---------------------------------------------------------------------- #
BASELINES = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "baselines")
FIG16 = "fig16_testbed_bandwidth"
FAULTS = "seed=3; attempts=8; drop:*->*:p=0.2,n=20"


def _matches_fig16_baseline(results_dir):
    return _artifact_bytes(results_dir, FIG16) == _artifact_bytes(BASELINES, FIG16)


class TestExecutionEnv:
    def test_faulted_sqlite_sharded_run_does_not_leak_into_the_next(self, tmp_path):
        env = ExecutionEnv(shards=2, storage="sqlite", faults=FAULTS)
        run(["16"], results_dir=str(tmp_path / "env"), env=env)
        assert not _matches_fig16_baseline(tmp_path / "env")  # the faults did bite
        run(["16"], results_dir=str(tmp_path / "plain"))
        assert _matches_fig16_baseline(tmp_path / "plain")

    def test_clean_resume_after_faulted_run_reexecutes_every_trial(self, tmp_path):
        faulted = run(["16"], results_dir=str(tmp_path), env=ExecutionEnv(faults=FAULTS))
        assert (faulted.executed, faulted.skipped) == (3, 0)
        clean = run(["16"], results_dir=str(tmp_path))
        assert (clean.executed, clean.skipped) == (3, 0)
        assert _matches_fig16_baseline(tmp_path)
        again = run(["16"], results_dir=str(tmp_path), env=ExecutionEnv(shards=2))
        assert (again.executed, again.skipped) == (0, 3)  # shards stay out

    def test_only_faults_enter_the_fingerprint(self):
        kwargs = {"size": 5, "mode": "ref"}
        plain = trial_fingerprint("testbed_fixpoint", kwargs)
        assert trial_fingerprint("testbed_fixpoint", kwargs, None) == plain
        assert trial_fingerprint("testbed_fixpoint", kwargs, FAULTS) != plain
        for path in glob.glob(os.path.join(BASELINES, "BENCH_*.json")):
            for trial in load_artifact(path)["trials"]:
                assert trial["fingerprint"] == trial_fingerprint(trial["fn"], trial["kwargs"])

    @pytest.mark.parametrize(
        "flags",
        [["--faults", "garbage"], ["--storage", "bogus"], ["--shards", "0"]],
    )
    def test_cli_rejects_a_bad_env_before_any_trial_runs(self, flags, tmp_path, capsys):
        results = str(tmp_path / "results")
        assert cli_main(["run", "16", "--results-dir", results, *flags]) == 2
        assert capsys.readouterr().out.startswith("run: error: ")
        assert not os.path.exists(results)


# ---------------------------------------------------------------------- #
# compare / regression gate
# ---------------------------------------------------------------------- #
def _fake_artifact(
    scenario="fake_scenario", tuples_scanned=1000, total_bytes=5000, total_messages=40
):
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
                    "traffic": {"total_bytes": total_bytes, "total_messages": total_messages},
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

    def _compare(self, tmp_path):
        return compare(str(tmp_path / "a"), str(tmp_path / "b"))

    def test_identical_artifacts_pass(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        self._write(tmp_path / "b", _fake_artifact())
        report = self._compare(tmp_path)
        assert report.ok and report.checked == 4
        assert report.differences == [] and report.mismatched == []
        assert "OK" in report.render()

    def test_grown_counter_fails_and_is_listed(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact(tuples_scanned=1000))
        self._write(tmp_path / "b", _fake_artifact(tuples_scanned=1200))
        report = self._compare(tmp_path)
        assert not report.ok
        assert [d.key for d in report.differences] == ["planner.tuples_scanned"]
        assert report.mismatched == ["BENCH_fake_scenario.json"]
        rendered = report.render()
        assert "DIFFERENCES" in rendered and "1000 -> 1200 (1.20x)" in rendered

    def test_shrunk_counter_fails_and_is_listed(self, tmp_path):
        # An improvement is a behaviour change too: the baseline must be
        # re-recorded with it, so compare lists it and fails.
        self._write(tmp_path / "a", _fake_artifact(tuples_scanned=1000))
        self._write(tmp_path / "b", _fake_artifact(tuples_scanned=500))
        report = self._compare(tmp_path)
        assert not report.ok
        assert [(d.key, d.baseline, d.candidate) for d in report.differences] == [
            ("planner.tuples_scanned", 1000, 500)
        ]

    def test_message_drift_under_five_percent_fails_and_is_listed(self, tmp_path, capsys):
        self._write(tmp_path / "a", _fake_artifact(total_messages=40))
        self._write(tmp_path / "b", _fake_artifact(total_messages=41))
        report = self._compare(tmp_path)
        assert not report.ok
        assert [d.key for d in report.differences] == ["traffic.total_messages"]
        assert cli_main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert "traffic.total_messages 40 -> 41" in capsys.readouterr().out

    def test_every_changed_counter_is_listed_in_one_pass(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        changed = _fake_artifact(tuples_scanned=999, total_bytes=5001, total_messages=39)
        changed["trials"][0]["result"]["planner"]["plans_compiled"] = 7
        self._write(tmp_path / "b", changed)
        report = self._compare(tmp_path)
        assert report.checked == 5
        assert [d.render() for d in report.differences] == [
            "fake_scenario/only: planner.plans_compiled missing -> 7",
            "fake_scenario/only: planner.tuples_scanned 1000 -> 999 (1.00x)",
            "fake_scenario/only: traffic.total_bytes 5000 -> 5001 (1.00x)",
            "fake_scenario/only: traffic.total_messages 40 -> 39 (0.97x)",
        ]

    def test_unreadable_baseline_fails_closed(self, tmp_path):
        os.makedirs(tmp_path / "a", exist_ok=True)
        with open(tmp_path / "a" / "BENCH_broken.json", "w") as handle:
            handle.write("{not json")
        self._write(tmp_path / "b", _fake_artifact())
        report = self._compare(tmp_path)
        assert not report.ok
        assert report.differences[0].key == "unreadable or stale-schema baseline"

    def test_baseline_with_no_trials_fails_closed(self, tmp_path):
        empty = _fake_artifact()
        empty["trials"] = []
        self._write(tmp_path / "a", empty)
        self._write(tmp_path / "b", _fake_artifact())
        report = self._compare(tmp_path)
        assert not report.ok
        assert report.differences[0].key == "baseline has no trials"

    def test_empty_baseline_directory_fails_closed(self, tmp_path):
        os.makedirs(tmp_path / "a", exist_ok=True)
        self._write(tmp_path / "b", _fake_artifact())
        report = self._compare(tmp_path)
        assert not report.ok
        assert "no baseline artifacts" in report.differences[0].key
        assert mismatched_artifacts(str(tmp_path / "empty1"), str(tmp_path / "empty2"))

    def test_mismatched_artifacts_flags_candidate_only_artifacts(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        self._write(tmp_path / "b", _fake_artifact())
        self._write(tmp_path / "b", _fake_artifact(scenario="extra_only"))
        assert mismatched_artifacts(str(tmp_path / "a"), str(tmp_path / "b")) == [
            "BENCH_extra_only.json"
        ]

    def test_vanished_counter_fails(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        gutted = _fake_artifact()
        del gutted["trials"][0]["result"]["planner"]["tuples_scanned"]
        self._write(tmp_path / "b", gutted)
        report = self._compare(tmp_path)
        assert not report.ok
        assert [d.render() for d in report.differences] == [
            "fake_scenario/only: planner.tuples_scanned 1000 -> missing"
        ]

    def test_missing_candidate_artifact_fails(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        os.makedirs(tmp_path / "b", exist_ok=True)
        report = self._compare(tmp_path)
        assert not report.ok
        assert report.differences[0].key == "artifact missing"

    def test_missing_trial_fails(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        gutted = _fake_artifact()
        gutted["trials"] = []
        self._write(tmp_path / "b", gutted)
        report = self._compare(tmp_path)
        assert not report.ok
        assert report.differences[0].key == "trial missing"

    def test_new_candidate_scenario_is_noted_and_fails(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        self._write(tmp_path / "b", _fake_artifact())
        self._write(tmp_path / "b", _fake_artifact(scenario="brand_new"))
        report = self._compare(tmp_path)
        assert not report.ok
        assert report.differences == []
        assert report.mismatched == ["BENCH_brand_new.json"]
        assert any("brand_new" in note for note in report.notes)

    def test_byte_drift_outside_the_counters_fails(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        drifted = _fake_artifact()
        drifted["trials"][0]["result"]["series"]["s"] = [[1, 1.0000001]]
        self._write(tmp_path / "b", drifted)
        report = self._compare(tmp_path)
        assert not report.ok
        assert report.differences == []
        assert report.mismatched == ["BENCH_fake_scenario.json"]
        assert "NOT BYTE-IDENTICAL" in report.render()

    def test_advisory_fields_are_stripped(self, tmp_path):
        self._write(tmp_path / "a", _fake_artifact())
        timed = _fake_artifact()
        timed["trials"][0]["wall_seconds"] = 12.5
        self._write(tmp_path / "b", timed)
        assert self._compare(tmp_path).ok


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

    @pytest.mark.parametrize("option", [["--strict"], ["--threshold", "0.05"]])
    def test_compare_has_one_mode(self, option, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["compare", str(tmp_path), str(tmp_path), *option])
        assert exit_info.value.code == 2
        assert option[0] in capsys.readouterr().err

    def test_run_unknown_scenario_is_an_error_not_a_traceback(self, capsys):
        assert cli_main(["run", "bogus_scenario"]) == 2
        assert "error" in capsys.readouterr().out

    def test_run_and_compare_roundtrip(self, tiny_scenario, tmp_path, capsys):
        base = str(tmp_path / "base")
        cand = str(tmp_path / "cand")
        assert cli_main(["run", tiny_scenario.name, "--results-dir", base]) == 0
        assert cli_main(["run", tiny_scenario.name, "--results-dir", cand]) == 0
        assert cli_main(["compare", base, cand]) == 0
        artifact = load_artifact(artifact_path(cand, tiny_scenario.name))
        worse = copy.deepcopy(artifact)
        worse["trials"][0]["result"]["planner"]["tuples_scanned"] *= 10
        dump_artifact(artifact_path(cand, tiny_scenario.name), worse)
        assert cli_main(["compare", base, cand]) == 1
