"""Parallel experiment orchestrator with a versioned artifact store.

Runs registered scenarios (see :mod:`repro.experiments.scenarios`) by
fanning their independent trials out across a process pool and writing the
results to schema-versioned JSON artifacts, one per scenario::

    results/BENCH_fig06_mincost_comm.json

Three properties the CI regression gate depends on:

* **Determinism** — trials are seeded and share no state, results are
  merged in expansion order (never completion order), and artifacts are
  serialized canonically (sorted keys, fixed separators, trailing
  newline).  A run with ``--workers 8`` is byte-identical to ``--workers
  1``, and re-running an unchanged tree reproduces the committed baseline
  byte for byte.
* **Resumability** — every trial is fingerprinted over its schema version,
  function name, kwargs and (when set) the run's fault plan.  A re-run
  loads the existing artifact and skips any trial whose stored
  fingerprint still matches, so iterating on one scenario never re-pays
  for the other eleven.
* **Comparability** — :func:`compare` diffs two artifact directories: it
  lists every planner and traffic counter that differs, in either
  direction, and fails unless every artifact is byte-identical (advisory
  fields stripped).  The CI ``bench`` job runs it against the committed
  baseline under ``benchmarks/baselines/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.requests import canonical_json
from ..obs.export import phase_breakdown, write_chrome_trace
from ..obs.runtime import disable_tracing, enable_tracing
from .scenarios import (
    Scenario,
    TrialSpec,
    get_scenario,
    resolve_scenarios,
    run_trial_spec,
)
from .trials import ExecutionEnv

__all__ = [
    "SCHEMA_VERSION",
    "ARTIFACT_PREFIX",
    "DEFAULT_RESULTS_DIR",
    "ADVISORY_TRIAL_KEYS",
    "trial_fingerprint",
    "artifact_path",
    "load_artifact",
    "dump_artifact",
    "canonical_artifact_bytes",
    "RunReport",
    "run",
    "Difference",
    "CompareReport",
    "compare",
    "mismatched_artifacts",
    "wall_clock_report",
    "figure_result_from_artifact",
]

#: Bump when the artifact layout changes; stale artifacts are re-run, and
#: ``compare`` refuses to diff artifacts across schema versions.
SCHEMA_VERSION = 1

ARTIFACT_PREFIX = "BENCH_"
DEFAULT_RESULTS_DIR = "results"

#: Trial-record fields that are *advisory*: machine-dependent measurements
#: excluded from fingerprints and from ``compare``'s byte-identity check.
#: ``wall_seconds`` tracks real per-trial wall-clock so the BENCH artifacts
#: carry a speed trajectory without breaking determinism guarantees;
#: ``phases`` is the per-trial span-phase wall breakdown captured when
#: tracing is enabled (absent otherwise — and stripped here so tracing
#: on/off stays byte-identical).
ADVISORY_TRIAL_KEYS: Tuple[str, ...] = ("wall_seconds", "phases")

def trial_fingerprint(
    fn: str, kwargs: Mapping[str, Any], faults: Optional[str] = None
) -> str:
    """Content hash identifying one trial configuration (drives resume).

    A fault plan changes results, so it enters the hash; the key is left
    out when there is none, so fault-free fingerprints never change.
    """
    payload: Dict[str, Any] = {"schema": SCHEMA_VERSION, "fn": fn, "kwargs": kwargs}
    if faults is not None:
        payload["faults"] = faults
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def artifact_path(results_dir: str, scenario_name: str) -> str:
    return os.path.join(results_dir, f"{ARTIFACT_PREFIX}{scenario_name}.json")


def load_artifact(path: str) -> Optional[Dict[str, Any]]:
    """Load one artifact, or ``None`` when missing/corrupt/stale-schema."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            artifact = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(artifact, dict) or artifact.get("schema") != SCHEMA_VERSION:
        return None
    return artifact


def dump_artifact(path: str, artifact: Mapping[str, Any]) -> None:
    """Write *artifact* canonically (deterministic bytes for identical data)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(artifact, sort_keys=True, indent=2))
        handle.write("\n")


def _strip_advisory(artifact: Mapping[str, Any]) -> Dict[str, Any]:
    """A copy of *artifact* with the advisory per-trial fields removed."""
    stripped = dict(artifact)
    stripped["trials"] = [
        {key: value for key, value in trial.items() if key not in ADVISORY_TRIAL_KEYS}
        if isinstance(trial, dict)
        else trial
        for trial in artifact.get("trials", ())
    ]
    return stripped


def canonical_artifact_bytes(path: str) -> Optional[bytes]:
    """The artifact's canonical bytes with advisory fields stripped.

    This is what determinism checks must compare: two runs of the same
    tree are identical except for the machine-dependent advisory fields
    (see :data:`ADVISORY_TRIAL_KEYS`).  Returns ``None`` for missing or
    unreadable artifacts.
    """
    artifact = load_artifact(path)
    if artifact is None:
        return None
    return (
        json.dumps(_strip_advisory(artifact), sort_keys=True, indent=2) + "\n"
    ).encode("utf-8")


def _build_artifact(
    scenario: Scenario,
    scale: str,
    params: Mapping[str, Any],
    trials: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "generator": "repro.experiments.orchestrator",
        "scenario": scenario.name,
        "figure": scenario.figure,
        "title": scenario.title,
        "x_label": scenario.x_label,
        "y_label": scenario.y_label,
        "scale": scale,
        "params": {key: value for key, value in params.items() if key != "_scenario"},
        "trials": list(trials),
    }


def _fresh_results(
    artifact: Optional[Mapping[str, Any]]
) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """Index an existing artifact's trials by (id, fingerprint)."""
    if not artifact:
        return {}
    return {
        (trial["id"], trial["fingerprint"]): trial
        for trial in artifact.get("trials", ())
        if isinstance(trial, dict) and "id" in trial and "fingerprint" in trial
    }


def _trace_filename(scenario: str, trial_id: str) -> str:
    safe = "".join(
        ch if ch.isalnum() or ch in "-_." else "-" for ch in f"{scenario}_{trial_id}"
    )
    return f"TRACE_{safe}.json"


def _run_task(task: Tuple[str, str, str, Dict[str, Any], ExecutionEnv]) -> Dict[str, Any]:
    """Worker entry point: run one trial spec (must stay module-level).

    Returns ``{"result": ..., "wall_seconds": ...}``; the wall-clock is
    advisory (see :data:`ADVISORY_TRIAL_KEYS`).  When ``env.trace_dir`` is
    set, the trial runs under a trace session, its Chrome trace is written
    to ``TRACE_<scenario>_<trial>.json`` and the per-phase wall breakdown
    is returned under the advisory ``"phases"`` key.
    """
    scenario, trial_id, fn, kwargs, env = task
    session = enable_tracing() if env.trace_dir is not None else None
    started = time.perf_counter()
    try:
        result = run_trial_spec(TrialSpec(scenario, trial_id, fn, kwargs), env)
    finally:
        if session is not None:
            disable_tracing()
    outcome = {
        "result": result,
        "wall_seconds": round(time.perf_counter() - started, 3),
    }
    if session is not None:
        outcome["phases"] = phase_breakdown(session.phase_aggregates())
        os.makedirs(env.trace_dir, exist_ok=True)
        write_chrome_trace(
            os.path.join(env.trace_dir, _trace_filename(scenario, trial_id)),
            session.span_records(),
        )
    return outcome


@dataclass
class RunReport:
    """What one orchestrator invocation did."""

    scale: str
    workers: int
    executed: int = 0
    skipped: int = 0
    artifacts: List[str] = field(default_factory=list)
    scenarios: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"orchestrator: {len(self.scenarios)} scenario(s) at {self.scale} scale, "
            f"{self.executed} trial(s) executed, {self.skipped} reused "
            f"(workers={self.workers})"
        ]
        lines.extend(f"  wrote {path}" for path in self.artifacts)
        return "\n".join(lines)


def run(
    names: Optional[Sequence[str]] = None,
    scale: str = "quick",
    workers: int = 1,
    results_dir: str = DEFAULT_RESULTS_DIR,
    resume: bool = True,
    verbose: bool = False,
    env: ExecutionEnv = ExecutionEnv(),
) -> RunReport:
    """Run scenarios and write one ``BENCH_<scenario>.json`` per scenario.

    ``names`` mixes scenario names and figure numbers (``None`` = all).
    Every executed trial runs under *env* (see :class:`ExecutionEnv` for
    the four knobs and which of them may change results); nothing of it
    outlives this call.  With ``resume`` (the default), trials whose
    stored fingerprint still matches are reused from the existing artifact
    instead of re-executed.  Resumed trials were not executed, so they
    carry no trace or phases; pass ``resume=False`` to capture a complete
    trace set.
    """
    scenarios = resolve_scenarios(names)
    report = RunReport(scale=scale, workers=workers)

    # Expansion order defines both execution batching and artifact layout;
    # completion order never matters, which is what makes --workers N
    # byte-identical to --workers 1.
    planned: List[
        Tuple[
            Scenario,
            Mapping[str, Any],
            List[TrialSpec],
            List[str],
            Dict[Tuple[str, str], Dict[str, Any]],
        ]
    ] = []
    pending: List[Tuple[str, str, str, Dict[str, Any], ExecutionEnv]] = []
    for scenario in scenarios:
        params = scenario.params(scale)
        specs = scenario.trials(scale)
        fingerprints = [
            trial_fingerprint(spec.fn, spec.kwargs, env.faults) for spec in specs
        ]
        fresh = (
            _fresh_results(load_artifact(artifact_path(results_dir, scenario.name)))
            if resume
            else {}
        )
        planned.append((scenario, params, specs, fingerprints, fresh))
        for spec, fingerprint in zip(specs, fingerprints):
            if (spec.trial_id, fingerprint) in fresh:
                report.skipped += 1
            else:
                pending.append(
                    (spec.scenario, spec.trial_id, spec.fn, dict(spec.kwargs), env)
                )

    executed: Dict[Tuple[str, str], Dict[str, Any]] = {}
    if pending:
        if workers > 1 and len(pending) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_task, pending, chunksize=1))
        else:
            results = [_run_task(task) for task in pending]
        for task, result in zip(pending, results):
            executed[(task[0], task[1])] = result
        report.executed = len(pending)

    for scenario, params, specs, fingerprints, fresh in planned:
        trials: List[Dict[str, Any]] = []
        for spec, fingerprint in zip(specs, fingerprints):
            key = (spec.scenario, spec.trial_id)
            if key in executed:
                outcome = executed[key]
                result = outcome["result"]
                wall_seconds = outcome["wall_seconds"]
                phases = outcome.get("phases")
            else:
                reused = fresh[(spec.trial_id, fingerprint)]
                result = reused["result"]
                # Advisory: a resumed trial keeps the wall-clock (and phase
                # breakdown) measured when it actually ran, when present.
                wall_seconds = reused.get("wall_seconds")
                phases = reused.get("phases")
            trial: Dict[str, Any] = {
                "id": spec.trial_id,
                "fn": spec.fn,
                "kwargs": dict(spec.kwargs),
                "fingerprint": fingerprint,
                "result": result,
            }
            if wall_seconds is not None:
                trial["wall_seconds"] = wall_seconds
            if phases is not None:
                trial["phases"] = phases
            trials.append(trial)
        path = artifact_path(results_dir, scenario.name)
        dump_artifact(path, _build_artifact(scenario, scale, params, trials))
        report.artifacts.append(path)
        report.scenarios.append(scenario.name)
        if verbose:
            print(f"  {scenario.name}: {len(trials)} trial(s) -> {path}")
    return report


# ---------------------------------------------------------------------- #
# artifact comparison
# ---------------------------------------------------------------------- #
#: Trial-result sections whose numeric entries :func:`compare` lists.
_COUNTER_SECTIONS: Tuple[str, ...] = ("planner", "traffic")


@dataclass(frozen=True)
class Difference:
    """A counter that differs between two trials, or a missing artifact or trial."""

    scenario: str
    trial_id: str
    key: str
    baseline: Optional[float] = None
    candidate: Optional[float] = None

    def render(self) -> str:
        head = f"{self.scenario}/{self.trial_id}: {self.key}"
        if self.baseline is None and self.candidate is None:
            return head
        before = "missing" if self.baseline is None else f"{self.baseline:g}"
        after = "missing" if self.candidate is None else f"{self.candidate:g}"
        line = f"{head} {before} -> {after}"
        if self.baseline and self.candidate is not None:
            line += f" ({self.candidate / self.baseline:.2f}x)"
        return line


@dataclass
class CompareReport:
    """Outcome of diffing a candidate artifact set against a baseline."""

    checked: int = 0
    differences: List[Difference] = field(default_factory=list)
    #: Artifacts whose canonical bytes differ or that exist on one side only.
    mismatched: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.differences and not self.mismatched

    def render(self) -> str:
        lines = [f"compare: {self.checked} counter(s) checked"]
        lines.extend(f"  note: {note}" for note in self.notes)
        if self.differences:
            lines.append(f"  DIFFERENCES ({len(self.differences)}):")
            lines.extend(f"    {item.render()}" for item in self.differences)
        if self.mismatched:
            lines.append(f"  NOT BYTE-IDENTICAL ({len(self.mismatched)}):")
            lines.extend(f"    {name}" for name in self.mismatched)
        if self.ok:
            lines.append("  OK: all artifacts byte-identical")
        return "\n".join(lines)


def _artifact_files(directory: str) -> List[str]:
    try:
        entries = os.listdir(directory)
    except OSError:
        return []
    return sorted(
        entry
        for entry in entries
        if entry.startswith(ARTIFACT_PREFIX) and entry.endswith(".json")
    )


def _counters(trial: Mapping[str, Any], section: str) -> Dict[str, float]:
    counters = trial.get("result", {}).get(section, {})
    return {
        key: float(value)
        for key, value in counters.items()
        if isinstance(value, (int, float))
    }


def compare(baseline_dir: str, candidate_dir: str) -> CompareReport:
    """Diff candidate artifacts against a baseline set.

    Lists every planner and traffic counter that differs, in either
    direction, and every artifact whose canonical bytes differ
    (:func:`mismatched_artifacts`); the report is ``ok`` only when there is
    neither.  Missing candidate artifacts or trials are differences too — a
    sweep silently vanishing must fail the gate, and so must an empty or
    mislocated baseline directory (a gate with nothing to check must not
    pass).  A candidate-only artifact gets a note and, being on one side
    only, fails the byte check.
    """
    report = CompareReport()
    baseline_files = _artifact_files(baseline_dir)
    if not baseline_files:
        # Fail closed: an empty/missing baseline dir checks nothing, and a
        # gate that checks nothing must not report success.
        report.differences.append(
            Difference("<baseline>", "*", f"no baseline artifacts under {baseline_dir!r}")
        )
    candidate_only = set(_artifact_files(candidate_dir)) - set(baseline_files)
    for name in sorted(candidate_only):
        report.notes.append(f"no baseline yet for {name} (new scenario?)")
    for name in baseline_files:
        baseline = load_artifact(os.path.join(baseline_dir, name))
        if baseline is None:
            # Fail closed here too: an unparseable or stale-schema baseline
            # means this scenario is not being gated at all.
            report.differences.append(
                Difference(name, "*", "unreadable or stale-schema baseline")
            )
            continue
        scenario = baseline.get("scenario", name)
        baseline_trials = baseline.get("trials", ())
        if not baseline_trials:
            report.differences.append(Difference(scenario, "*", "baseline has no trials"))
            continue
        candidate = load_artifact(os.path.join(candidate_dir, name))
        if candidate is None:
            report.differences.append(Difference(scenario, "*", "artifact missing"))
            continue
        candidate_trials = {
            trial.get("id"): trial for trial in candidate.get("trials", ())
        }
        for trial in baseline_trials:
            trial_id = trial.get("id", "?")
            other = candidate_trials.get(trial_id)
            if other is None:
                report.differences.append(Difference(scenario, trial_id, "trial missing"))
                continue
            for section in _COUNTER_SECTIONS:
                before = _counters(trial, section)
                after = _counters(other, section)
                for key in sorted(set(before) | set(after)):
                    report.checked += 1
                    base = before.get(key)
                    cand = after.get(key)
                    if base != cand:
                        report.differences.append(
                            Difference(scenario, trial_id, f"{section}.{key}", base, cand)
                        )
    report.mismatched = mismatched_artifacts(baseline_dir, candidate_dir)
    return report


def mismatched_artifacts(baseline_dir: str, candidate_dir: str) -> List[str]:
    """Byte-compare the artifact sets in two directories, both ways.

    Returns the names of artifacts that differ or exist on only one side —
    the determinism check behind "parallel runs are byte-identical".
    Advisory per-trial fields (:data:`ADVISORY_TRIAL_KEYS`) are stripped
    before comparing: wall-clock varies run to run by design, everything
    else must match byte for byte.  An empty pair of directories is
    reported as a mismatch (nothing compared is not evidence of
    determinism).
    """
    names = sorted(set(_artifact_files(baseline_dir)) | set(_artifact_files(candidate_dir)))
    if not names:
        return [f"<no artifacts under {baseline_dir!r} or {candidate_dir!r}>"]
    mismatched: List[str] = []
    for name in names:
        left = canonical_artifact_bytes(os.path.join(baseline_dir, name))
        right = canonical_artifact_bytes(os.path.join(candidate_dir, name))
        if left is None or right is None or left != right:
            mismatched.append(name)
    return mismatched


def wall_clock_report(baseline_dir: str, candidate_dir: str) -> str:
    """Render the advisory per-scenario wall-clock deltas (never gating).

    Sums each artifact's per-trial ``wall_seconds`` on both sides and
    reports the relative change.  Scenarios missing the field on either
    side (old artifacts) are reported as such rather than skipped.
    """
    lines = ["wall-clock (advisory, not gated):"]
    names = sorted(
        set(_artifact_files(baseline_dir)) | set(_artifact_files(candidate_dir))
    )
    if not names:
        return lines[0] + " no artifacts found"

    def _total(directory: str, name: str) -> Optional[float]:
        artifact = load_artifact(os.path.join(directory, name))
        if artifact is None:
            return None
        walls = [
            trial.get("wall_seconds")
            for trial in artifact.get("trials", ())
            if isinstance(trial, dict)
        ]
        if not walls or any(value is None for value in walls):
            return None
        return sum(walls)

    for name in names:
        scenario = name[len(ARTIFACT_PREFIX) : -len(".json")]
        base = _total(baseline_dir, name)
        cand = _total(candidate_dir, name)
        if base is None or cand is None:
            sides = []
            if base is None:
                sides.append("baseline")
            if cand is None:
                sides.append("candidate")
            lines.append(
                f"  {scenario:<28} no wall_seconds in {' and '.join(sides)}"
            )
            continue
        ratio = (cand / base) if base else float("inf")
        lines.append(
            f"  {scenario:<28} {base:8.2f}s -> {cand:8.2f}s  ({ratio:5.2f}x)"
        )
    return "\n".join(lines)


def figure_result_from_artifact(artifact: Mapping[str, Any]):
    """Rebuild a :class:`FigureResult` from a stored artifact (reporting)."""
    from .scenarios import assemble_figure

    scenario = get_scenario(artifact["scenario"])
    return assemble_figure(
        scenario, [trial["result"] for trial in artifact.get("trials", ())]
    )
