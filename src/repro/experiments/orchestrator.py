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
  function name and kwargs.  A re-run loads the existing artifact and
  skips any trial whose stored fingerprint still matches, so iterating on
  one scenario never re-pays for the other eleven.
* **Comparability** — :func:`compare` diffs two artifact directories on
  the planner/traffic counters (tuples scanned, full scans, bytes,
  messages) and reports regressions beyond a relative threshold; the CI
  ``bench`` job fails the PR when the quick-mode run regresses against the
  committed baseline under ``benchmarks/baselines/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
from .trials import set_default_faults, set_default_shards

__all__ = [
    "SCHEMA_VERSION",
    "ARTIFACT_PREFIX",
    "DEFAULT_RESULTS_DIR",
    "DEFAULT_COMPARE_KEYS",
    "ADVISORY_TRIAL_KEYS",
    "trial_fingerprint",
    "artifact_path",
    "load_artifact",
    "dump_artifact",
    "canonical_artifact_bytes",
    "RunReport",
    "run",
    "Regression",
    "CompareReport",
    "compare",
    "strict_compare",
    "wall_clock_report",
    "figure_result_from_artifact",
]

#: Bump when the artifact layout changes; stale artifacts are re-run, and
#: ``compare`` refuses to diff artifacts across schema versions.
SCHEMA_VERSION = 1

ARTIFACT_PREFIX = "BENCH_"
DEFAULT_RESULTS_DIR = "results"

#: Trial-record fields that are *advisory*: machine-dependent measurements
#: excluded from fingerprints, from ``compare``'s regression gate, and from
#: ``strict_compare``'s byte-identity check.  ``wall_seconds`` tracks real
#: per-trial wall-clock so the BENCH artifacts carry a speed trajectory
#: without breaking determinism guarantees; ``phases`` is the per-trial
#: span-phase wall breakdown captured when tracing is enabled (absent
#: otherwise — and stripped here so tracing on/off stays byte-identical).
ADVISORY_TRIAL_KEYS: Tuple[str, ...] = ("wall_seconds", "phases")

#: Counters the regression gate watches, searched in each trial's
#: ``planner`` and ``traffic`` sections (a key absent from the *baseline*
#: is skipped; absent from only the candidate is a regression).  Note
#: ``index_lookups`` is deliberately not gated: indexed lookups replace
#: full scans, so a planner improvement legitimately raises that counter —
#: ``tuples_scanned`` and ``full_scans`` measure the work that matters.
DEFAULT_COMPARE_KEYS: Tuple[str, ...] = (
    "tuples_scanned",
    "full_scans",
    "total_bytes",
    "total_messages",
)


def trial_fingerprint(fn: str, kwargs: Mapping[str, Any]) -> str:
    """Content hash identifying one trial configuration (drives resume)."""
    digest = hashlib.sha256(
        canonical_json({"schema": SCHEMA_VERSION, "fn": fn, "kwargs": kwargs}).encode()
    )
    return digest.hexdigest()[:16]


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


#: Per-process trace output directory; ``None`` disables tracing.  Set by
#: :func:`_configure_worker` (pool initializer) or directly by :func:`run`
#: for the in-process path.  Like the ``shards`` default it deliberately
#: never enters trial kwargs or fingerprints: tracing must not change what
#: a trial *is*, only what it additionally emits.
_TRACE_DIR: Optional[str] = None


def _configure_worker(
    shards: int,
    trace_dir: Optional[str],
    storage: Optional[str] = None,
    faults: Optional[str] = None,
) -> None:
    """Process-pool initializer: shard count, trace dir, storage, faults."""
    global _TRACE_DIR
    set_default_shards(shards)
    if storage is not None:
        from ..storage.backend import set_default_storage

        set_default_storage(storage)
    if faults is not None:
        set_default_faults(faults)
    _TRACE_DIR = trace_dir


def _trace_filename(scenario: str, trial_id: str) -> str:
    safe = "".join(
        ch if ch.isalnum() or ch in "-_." else "-" for ch in f"{scenario}_{trial_id}"
    )
    return f"TRACE_{safe}.json"


def _run_task(task: Tuple[str, str, str, Dict[str, Any]]) -> Dict[str, Any]:
    """Worker entry point: run one trial spec (must stay module-level).

    Returns ``{"result": ..., "wall_seconds": ...}``; the wall-clock is
    advisory (see :data:`ADVISORY_TRIAL_KEYS`).  When a trace directory is
    configured, the trial runs under a process-wide trace session, its
    Chrome trace is written to ``TRACE_<scenario>_<trial>.json`` and the
    per-phase wall breakdown is returned under the advisory ``"phases"``
    key.
    """
    scenario, trial_id, fn, kwargs = task
    trace_dir = _TRACE_DIR
    session = enable_tracing() if trace_dir is not None else None
    started = time.perf_counter()
    try:
        result = run_trial_spec(TrialSpec(scenario, trial_id, fn, kwargs))
    finally:
        if session is not None:
            disable_tracing()
    outcome = {
        "result": result,
        "wall_seconds": round(time.perf_counter() - started, 3),
    }
    if session is not None:
        outcome["phases"] = phase_breakdown(session.phase_aggregates())
        os.makedirs(trace_dir, exist_ok=True)
        write_chrome_trace(
            os.path.join(trace_dir, _trace_filename(scenario, trial_id)),
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
    shards: Optional[int] = None,
    verbose: bool = False,
    trace_dir: Optional[str] = None,
    storage: Optional[str] = None,
    faults: Optional[str] = None,
) -> RunReport:
    """Run scenarios and write one ``BENCH_<scenario>.json`` per scenario.

    ``names`` mixes scenario names and figure numbers (``None`` = all).
    ``shards`` sets the process-wide default worker-shard count for
    shard-capable trials; it deliberately does **not** enter kwargs or
    fingerprints, because the sharded engine is
    bit-identical to the serial one — artifacts produced under any
    ``shards`` value must match byte for byte, which is how CI verifies
    the engine's determinism guarantee against the committed baselines.
    ``trace_dir`` mirrors ``shards``: it enables span tracing for every
    executed trial, writes one Chrome trace per trial into the directory
    and adds the advisory per-trial ``"phases"`` breakdown — while the
    artifacts stay byte-identical to an untraced run (that identity is the
    tracing subsystem's own CI gate).  Resumed trials were not executed,
    so they carry no trace or phases; pass ``resume=False`` to capture a
    complete trace set.  With ``resume`` (the default), trials whose
    stored fingerprint still matches are reused from the existing artifact
    instead of re-executed.
    ``storage`` also follows the ``shards`` convention: it sets the
    process-wide default storage backend (``"memory"``, ``"sqlite"`` or
    ``"sqlite:<path>"``) without entering kwargs or fingerprints — every
    backend is byte-identical by contract, and the CI durability gate
    re-runs a scenario under ``storage="sqlite"`` and strict-compares the
    artifact against the committed memory-backend baselines.
    ``faults`` is the one knob that deliberately breaks the byte-identity
    convention: it installs a process-wide fault plan (a
    ``parse_fault_spec`` string) into every trial network, perturbing the
    message-level traffic counters — so faulted artifacts are for chaos
    experimentation, never for comparing against the committed baselines.
    The invariant faults *do* preserve is convergence of the final
    protocol tables, which ``benchmarks/chaos_gate.py`` gates by digest.
    """
    global _TRACE_DIR
    if shards is not None:
        set_default_shards(shards)
    if storage is not None:
        from ..storage.backend import set_default_storage

        set_default_storage(storage)
    if faults is not None:
        set_default_faults(faults)
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
    pending: List[Tuple[str, str, str, Dict[str, Any]]] = []
    for scenario in scenarios:
        params = scenario.params(scale)
        specs = scenario.trials(scale)
        fingerprints = [trial_fingerprint(spec.fn, spec.kwargs) for spec in specs]
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
                pending.append((spec.scenario, spec.trial_id, spec.fn, dict(spec.kwargs)))

    executed: Dict[Tuple[str, str], Dict[str, Any]] = {}
    if pending:
        if workers > 1 and len(pending) > 1:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_configure_worker,
                initargs=(
                    shards if shards is not None else 1,
                    trace_dir,
                    storage,
                    faults,
                ),
            ) as pool:
                results = list(pool.map(_run_task, pending, chunksize=1))
        else:
            previous_trace_dir = _TRACE_DIR
            _TRACE_DIR = trace_dir
            try:
                results = [_run_task(task) for task in pending]
            finally:
                _TRACE_DIR = previous_trace_dir
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
# regression comparison
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Regression:
    """One counter that got worse beyond the threshold (or went missing)."""

    scenario: str
    trial_id: str
    key: str
    baseline: Optional[float]
    candidate: Optional[float]

    def render(self) -> str:
        if self.baseline is None or self.candidate is None:
            return f"{self.scenario}/{self.trial_id}: {self.key}"
        ratio = self.candidate / self.baseline if self.baseline else float("inf")
        return (
            f"{self.scenario}/{self.trial_id}: {self.key} "
            f"{self.baseline:g} -> {self.candidate:g} ({ratio:.2f}x)"
        )


@dataclass
class CompareReport:
    """Outcome of diffing a candidate artifact set against a baseline."""

    threshold: float
    checked: int = 0
    regressions: List[Regression] = field(default_factory=list)
    improvements: List[Regression] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"compare: {self.checked} counter(s) checked at "
            f"{self.threshold:.0%} threshold"
        ]
        lines.extend(f"  note: {note}" for note in self.notes)
        if self.regressions:
            lines.append(f"  REGRESSIONS ({len(self.regressions)}):")
            lines.extend(f"    {item.render()}" for item in self.regressions)
        if self.improvements:
            lines.append(f"  improvements ({len(self.improvements)}):")
            lines.extend(f"    {item.render()}" for item in self.improvements)
        if self.ok:
            lines.append("  OK: no counter regressed beyond the threshold")
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


def _counter(trial: Mapping[str, Any], key: str) -> Optional[float]:
    result = trial.get("result", {})
    for section in ("planner", "traffic"):
        value = result.get(section, {}).get(key)
        if isinstance(value, (int, float)):
            return float(value)
    return None


def compare(
    baseline_dir: str,
    candidate_dir: str,
    threshold: float = 0.05,
    keys: Iterable[str] = DEFAULT_COMPARE_KEYS,
    min_delta: float = 1.0,
) -> CompareReport:
    """Diff candidate artifacts against a baseline set; flag regressions.

    A counter regresses when ``candidate > baseline * (1 + threshold)``
    and the absolute growth is at least *min_delta* (default 1: the
    counters are deterministic, so any growth past the relative threshold
    is a real behavior change; raise it only to tolerate known-small
    drift).  Missing candidate artifacts or trials are regressions too — a
    sweep silently vanishing must fail the gate, and so must an empty or
    mislocated baseline directory (a gate with nothing to check must not
    pass).  Baselines only present in the candidate are noted but harmless
    (a new scenario has no baseline yet).
    """
    report = CompareReport(threshold=threshold)
    keys = tuple(keys)
    baseline_files = _artifact_files(baseline_dir)
    if not baseline_files:
        # Fail closed: an empty/missing baseline dir checks nothing, and a
        # gate that checks nothing must not report success.
        report.regressions.append(
            Regression(
                "<baseline>",
                "*",
                f"no baseline artifacts under {baseline_dir!r}",
                None,
                None,
            )
        )
    candidate_only = set(_artifact_files(candidate_dir)) - set(baseline_files)
    for name in sorted(candidate_only):
        report.notes.append(f"no baseline yet for {name} (new scenario?)")
    for name in baseline_files:
        baseline = load_artifact(os.path.join(baseline_dir, name))
        if baseline is None:
            # Fail closed here too: an unparseable or stale-schema baseline
            # means this scenario is not being gated at all.
            report.regressions.append(
                Regression(name, "*", "unreadable or stale-schema baseline", None, None)
            )
            continue
        scenario = baseline.get("scenario", name)
        baseline_trials = baseline.get("trials", ())
        if not baseline_trials:
            report.regressions.append(
                Regression(scenario, "*", "baseline has no trials", None, None)
            )
            continue
        candidate = load_artifact(os.path.join(candidate_dir, name))
        if candidate is None:
            report.regressions.append(
                Regression(scenario, "*", "artifact missing", None, None)
            )
            continue
        candidate_trials = {
            trial.get("id"): trial for trial in candidate.get("trials", ())
        }
        for trial in baseline_trials:
            trial_id = trial.get("id", "?")
            other = candidate_trials.get(trial_id)
            if other is None:
                report.regressions.append(
                    Regression(scenario, trial_id, "trial missing", None, None)
                )
                continue
            for key in keys:
                base = _counter(trial, key)
                cand = _counter(other, key)
                if base is None:
                    continue
                if cand is None:
                    # A counter the baseline measured has vanished from the
                    # candidate — the easiest way for a regression to hide,
                    # so it fails the gate rather than being skipped.
                    report.checked += 1
                    report.regressions.append(
                        Regression(scenario, trial_id, f"{key} missing", base, None)
                    )
                    continue
                report.checked += 1
                if cand > base * (1.0 + threshold) and cand - base >= min_delta:
                    report.regressions.append(
                        Regression(scenario, trial_id, key, base, cand)
                    )
                elif base > cand * (1.0 + threshold) and base - cand >= min_delta:
                    report.improvements.append(
                        Regression(scenario, trial_id, key, base, cand)
                    )
    return report


def strict_compare(baseline_dir: str, candidate_dir: str) -> List[str]:
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
