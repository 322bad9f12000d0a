"""Declarative scenario registry for the evaluation suite.

A :class:`Scenario` describes one experiment sweep — which figure it
reproduces (if any), the axes it sweeps (topology sizes, provenance modes,
churn/query parameters), and its parameters at two scales: ``quick`` (CI /
laptop defaults) and ``paper`` (the paper's own sweep sizes).  Each
scenario expands into an ordered list of independent :class:`TrialSpec`
units that :mod:`repro.experiments.orchestrator` can run serially or fan
out across a process pool; :func:`assemble_figure` folds the trial results
back into the :class:`~repro.experiments.metrics.FigureResult` the
reporting layer and shape checks consume.

A trial spec names a registered :class:`~repro.experiments.trials.Trial`:
one view of one simulation.  :func:`group_by_simulation` groups specs
that read the same simulation, and :func:`run_simulation` runs it once
and applies every view, so Figs. 12, 14 and 16 cost no simulation of
their own next to Figs. 11, 13 and 17.

Adding an experiment means registering a scenario here — no new script:
the registry-only scenarios at the bottom (query concurrency, a sharded
scale sweep and fault-plan convergence) are the proof, and each names the
gate that reads its artifact.  Every figure 6-17 of the paper is
registered; registry completeness is enforced by
``tests/test_orchestrator.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from .metrics import FigureResult
from .trials import MAINTENANCE_MODES, TRIAL_FUNCTIONS, ExecutionEnv

__all__ = [
    "TrialSpec",
    "Scenario",
    "SCENARIOS",
    "register",
    "get_scenario",
    "scenario_for_figure",
    "figure_scenarios",
    "resolve_scenarios",
    "group_by_simulation",
    "run_simulation",
    "assemble_figure",
    "run_figure",
]


@dataclass(frozen=True)
class TrialSpec:
    """One independently runnable trial: a function name plus JSON kwargs."""

    scenario: str
    trial_id: str
    fn: str
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """One registered experiment sweep (usually: one figure of the paper)."""

    name: str
    title: str
    x_label: str
    y_label: str
    expand: Callable[[Mapping[str, Any]], List[TrialSpec]]
    figure: Optional[str] = None
    description: str = ""
    quick: Mapping[str, Any] = field(default_factory=dict)
    paper: Mapping[str, Any] = field(default_factory=dict)

    def params(
        self, scale: str = "quick", overrides: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Effective parameters at *scale*, with explicit *overrides* on top.

        Unknown override keys raise ``TypeError`` (so a typo cannot
        silently run an experiment with default parameters); a ``None``
        value means "use the scale's default".  Beyond the scenario's own
        parameters, only the extra keys its expansion actually consumes
        are accepted (``modes``, advertised via the expansion function's
        ``override_keys`` attribute).
        """
        if scale not in ("quick", "paper"):
            raise ValueError(f"unknown scale {scale!r} (expected 'quick' or 'paper')")
        params = dict(self.quick)
        if scale == "paper":
            params.update(self.paper)
        if overrides:
            allowed = (
                set(self.quick)
                | set(self.paper)
                | set(getattr(self.expand, "override_keys", ()))
            )
            unknown = sorted(set(overrides) - allowed)
            if unknown:
                raise TypeError(
                    f"scenario {self.name!r} got unknown parameter(s) "
                    f"{', '.join(unknown)}; known: {', '.join(sorted(allowed))}"
                )
            params.update(
                (key, value) for key, value in overrides.items() if value is not None
            )
        return params

    def trials(
        self, scale: str = "quick", overrides: Optional[Mapping[str, Any]] = None
    ) -> List[TrialSpec]:
        """Expand this scenario into its ordered, independent trial specs."""
        return self.expand(self.params(scale, overrides))


#: The global registry, in registration (= figure) order.
SCENARIOS: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add *scenario* to the registry (name must be unused)."""
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    for spec in scenario.trials("quick"):
        if spec.fn not in TRIAL_FUNCTIONS:
            raise ValueError(
                f"scenario {scenario.name!r} references unknown trial fn {spec.fn!r}"
            )
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}"
        ) from None


def scenario_for_figure(figure_id: str) -> Scenario:
    """The scenario reproducing paper figure *figure_id* (e.g. ``"6"``)."""
    wanted = str(figure_id)
    for scenario in SCENARIOS.values():
        if scenario.figure == wanted:
            return scenario
    raise KeyError(f"no scenario registered for figure {figure_id!r}")


def figure_scenarios() -> List[Scenario]:
    """All scenarios that reproduce a paper figure, in figure order."""
    return [scenario for scenario in SCENARIOS.values() if scenario.figure is not None]


def resolve_scenarios(names: Optional[Sequence[str]] = None) -> List[Scenario]:
    """Map user-facing selectors to scenarios.

    *names* may mix scenario names and bare figure numbers; ``None`` (or
    ``["all"]``) selects the whole registry in registration order.
    """
    if not names or list(names) == ["all"]:
        return list(SCENARIOS.values())
    selected: List[Scenario] = []
    for name in names:
        scenario = (
            SCENARIOS.get(str(name))
            if str(name) in SCENARIOS
            else scenario_for_figure(str(name))
        )
        if scenario not in selected:
            selected.append(scenario)
    return selected


# ---------------------------------------------------------------------- #
# execution and assembly
# ---------------------------------------------------------------------- #
def group_by_simulation(specs: Sequence[TrialSpec]) -> List[List[TrialSpec]]:
    """*specs* grouped by the simulation they read, in first-appearance order.

    Two specs share a simulation when their trials run the same simulation
    function with equal simulation kwargs.  The fault plan, the one part of
    :class:`ExecutionEnv` that changes results, is the same for every spec
    of a run.
    """
    groups: Dict[Any, List[TrialSpec]] = {}
    for spec in specs:
        trial = TRIAL_FUNCTIONS[spec.fn]
        simulation = trial.split(spec.kwargs)[0]
        groups.setdefault((trial.simulate, tuple(sorted(simulation.items()))), []).append(spec)
    return list(groups.values())


def run_simulation(
    specs: Sequence[TrialSpec], env: ExecutionEnv = ExecutionEnv()
) -> List[Dict[str, Any]]:
    """Run the one simulation *specs* share under *env*; each spec's view of it.

    Runs in the current process (pool workers too): the observation never
    leaves it, only the views' results do.
    """
    first = TRIAL_FUNCTIONS[specs[0].fn]
    observation = first.simulate(**first.split(specs[0].kwargs)[0], env=env)
    results = []
    for spec in specs:
        trial = TRIAL_FUNCTIONS[spec.fn]
        results.append(trial.view(observation, **trial.split(spec.kwargs)[1]))
    return results


def assemble_figure(
    scenario: Scenario, results: Sequence[Mapping[str, Any]]
) -> FigureResult:
    """Fold ordered trial results into one :class:`FigureResult`.

    Series and notes are merged in trial order, which reproduces the exact
    series/point ordering the pre-registry monolithic runners emitted.
    """
    figure = FigureResult(
        figure_id=f"Figure {scenario.figure}" if scenario.figure else scenario.name,
        title=scenario.title,
        x_label=scenario.x_label,
        y_label=scenario.y_label,
    )
    for result in results:
        for label, points in result["series"].items():
            for x, y in points:
                figure.add_point(label, x, y)
        figure.notes.update(result["notes"])
    return figure


def run_figure(
    name: str, scale: str = "quick", env: ExecutionEnv = ExecutionEnv(), **overrides: Any
) -> FigureResult:
    """Run one scenario serially in-process under *env*; return its figure.

    This is the path ``benchmarks/bench_figures.py`` and in-process
    callers use; the orchestrator uses the same expansion, grouping and
    assembly but runs the simulations across a process pool.
    """
    scenario = get_scenario(name)
    specs = scenario.trials(scale, overrides)
    results: Dict[str, Dict[str, Any]] = {}
    for group in group_by_simulation(specs):
        results.update(zip((spec.trial_id for spec in group), run_simulation(group, env)))
    return assemble_figure(scenario, [results[spec.trial_id] for spec in specs])


# ---------------------------------------------------------------------- #
# expansion helpers
# ---------------------------------------------------------------------- #
def _modes(params: Mapping[str, Any]) -> Sequence[str]:
    return tuple(params.get("modes", MAINTENANCE_MODES))


def _pick(params: Mapping[str, Any], *keys: str) -> Dict[str, Any]:
    return {key: params[key] for key in keys if key in params}


def _expand_size_mode(fn: str, *extra_keys: str):
    """Sweep (size, mode): Figures 6, 7 and 17."""

    def expand(params: Mapping[str, Any]) -> List[TrialSpec]:
        fixed = _pick(params, "seed", *extra_keys)
        return [
            TrialSpec(
                scenario=params["_scenario"],
                trial_id=f"size={size}/mode={mode}",
                fn=fn,
                kwargs={"size": size, "mode": mode, **fixed},
            )
            for size in params["sizes"]
            for mode in _modes(params)
        ]

    expand.override_keys = ("modes",)
    return expand


def _expand_mode(fn: str, *extra_keys: str):
    """Sweep provenance modes at one size: Figures 8, 9, 10 and 16."""

    def expand(params: Mapping[str, Any]) -> List[TrialSpec]:
        fixed = _pick(params, "size", "seed", *extra_keys)
        return [
            TrialSpec(
                scenario=params["_scenario"],
                trial_id=f"mode={mode}",
                fn=fn,
                kwargs={"mode": mode, **fixed},
            )
            for mode in _modes(params)
        ]

    expand.override_keys = ("modes",)
    return expand


def _expand_variants(fn: str, axis: str, values_key: str, *extra_keys: str):
    """Sweep one categorical axis (cache on/off, traversal, representation).

    These query-workload trials run on a fixed reference-provenance
    network, so there is no ``modes`` knob to pass through.
    """

    def expand(params: Mapping[str, Any]) -> List[TrialSpec]:
        fixed = _pick(params, "seed", *extra_keys)
        return [
            TrialSpec(
                scenario=params["_scenario"],
                trial_id=f"{axis}={value}",
                fn=fn,
                kwargs={axis: value, **fixed},
            )
            for value in params[values_key]
        ]

    return expand


def _with_name(name: str, expand):
    """Bind the scenario name into the params seen by the expansion fn."""

    def bound(params: Mapping[str, Any]) -> List[TrialSpec]:
        return expand({**params, "_scenario": name})

    bound.override_keys = tuple(getattr(expand, "override_keys", ()))
    return bound


def _scenario(
    name: str,
    expand,
    **kwargs: Any,
) -> Scenario:
    return register(Scenario(name=name, expand=_with_name(name, expand), **kwargs))


# ---------------------------------------------------------------------- #
# the registered evaluation suite (Figures 6-17 of the paper)
# ---------------------------------------------------------------------- #
_scenario(
    "fig06_mincost_comm",
    _expand_size_mode("comm_cost", "program"),
    figure="6",
    title="Average communication cost for MINCOST",
    x_label="Number of Nodes",
    y_label="Average Comm. Cost (MB)",
    description="Per-node communication cost to fixpoint vs network size (MINCOST).",
    quick={"program": "mincost", "sizes": (16, 32, 48, 64), "seed": 0},
    paper={"sizes": (100, 200, 300, 400, 500)},
)

_scenario(
    "fig07_pathvector_comm",
    _expand_size_mode("comm_cost", "program"),
    figure="7",
    title="Average communication cost for PATHVECTOR",
    x_label="Number of Nodes",
    y_label="Average Comm. Cost (MB)",
    description="Per-node communication cost to fixpoint vs network size (PATHVECTOR).",
    quick={"program": "pathvector", "sizes": (16, 32, 48), "seed": 0},
    paper={"sizes": (100, 200, 300, 400, 500)},
)

_scenario(
    "fig08_packetforward_bandwidth",
    _expand_mode(
        "packet_bandwidth", "packets_per_second", "payload_bytes", "duration", "bucket"
    ),
    figure="8",
    title="Average bandwidth for PACKETFORWARD (data plane)",
    x_label="Time (seconds)",
    y_label="Average Bandwidth (MBps)",
    description="Data-plane bandwidth over time while forwarding payload packets.",
    quick={
        "size": 24,
        "packets_per_second": 20.0,
        "payload_bytes": 1024,
        "duration": 2.0,
        "bucket": 0.25,
        "seed": 0,
    },
    paper={"size": 200, "packets_per_second": 100.0, "duration": 4.5},
)

_scenario(
    "fig09_mincost_churn",
    _expand_mode(
        "churn", "program", "rounds", "links_per_round", "interval", "bucket", "max_cost"
    ),
    figure="9",
    title="Average bandwidth for MINCOST under churn",
    x_label="Time (seconds)",
    y_label="Average Bandwidth (MBps)",
    description=(
        "Maintenance bandwidth under stub-link churn; MINCOST runs with a "
        "RIP-style maximum cost to bound count-to-infinity recomputation."
    ),
    quick={
        "program": "mincost",
        "size": 36,
        "rounds": 4,
        "links_per_round": 4,
        "interval": 0.5,
        "bucket": 0.25,
        "seed": 0,
        "max_cost": 16,
    },
    paper={"size": 200, "rounds": 5, "links_per_round": 10},
)

_scenario(
    "fig10_pathvector_churn",
    _expand_mode("churn", "program", "rounds", "links_per_round", "interval", "bucket"),
    figure="10",
    title="Average bandwidth for PATHVECTOR under churn",
    x_label="Time (seconds)",
    y_label="Average Bandwidth (MBps)",
    description="Maintenance bandwidth under stub-link churn (PATHVECTOR).",
    quick={
        "program": "pathvector",
        "size": 36,
        "rounds": 4,
        "links_per_round": 4,
        "interval": 0.5,
        "bucket": 0.25,
        "seed": 0,
    },
    paper={"size": 200, "rounds": 5, "links_per_round": 10},
)

_scenario(
    "fig11_caching_bandwidth",
    _expand_variants(
        "caching_bandwidth", "use_cache", "caches", "size", "queries_per_second",
        "duration", "bucket",
    ),
    figure="11",
    title="Provenance query bandwidth with and without caching",
    x_label="Time (seconds)",
    y_label="Average Bandwidth (KBps)",
    description="Query bandwidth with and without query-result caching.",
    quick={
        "size": 48,
        "caches": (False, True),
        "queries_per_second": 5.0,
        "duration": 2.0,
        "bucket": 0.25,
        "seed": 0,
    },
    paper={"size": 100, "duration": 6.0},
)

_scenario(
    "fig12_caching_latency",
    _expand_variants(
        "caching_latency", "use_cache", "caches", "size", "queries_per_second",
        "duration", "cdf_samples",
    ),
    figure="12",
    title="Query completion latency CDF with and without caching",
    x_label="Query Completion Time (seconds)",
    y_label="Cumulative Fraction",
    description="Query completion-latency CDF with and without caching.",
    quick={
        "size": 48,
        "caches": (True, False),
        "queries_per_second": 5.0,
        "duration": 2.0,
        "cdf_samples": 20,
        "seed": 0,
    },
    paper={"size": 100, "duration": 6.0},
)

_scenario(
    "fig13_traversal_bandwidth",
    _expand_variants(
        "traversal_bandwidth", "traversal", "traversals", "grid_side",
        "queries_per_second", "duration", "bucket", "threshold",
    ),
    figure="13",
    title="Query bandwidth for different traversal orders",
    x_label="Time (seconds)",
    y_label="Average Bandwidth (KBps)",
    description="#DERIVATION query bandwidth under BFS / DFS / DFS-threshold.",
    quick={
        "grid_side": 5,
        "traversals": ("BFS", "DFS", "DFS-Threshold"),
        "queries_per_second": 5.0,
        "duration": 2.0,
        "bucket": 0.25,
        "threshold": 3,
        "seed": 0,
    },
    paper={"grid_side": 10, "duration": 6.0},
)

_scenario(
    "fig14_traversal_latency",
    _expand_variants(
        "traversal_latency", "traversal", "traversals", "grid_side",
        "queries_per_second", "duration", "cdf_samples", "threshold",
    ),
    figure="14",
    title="Query completion latency CDF for different traversal orders",
    x_label="Query Completion Latency (seconds)",
    y_label="Cumulative Fraction",
    description="#DERIVATION query latency CDF under BFS / DFS / DFS-threshold.",
    quick={
        "grid_side": 5,
        "traversals": ("BFS", "DFS", "DFS-Threshold"),
        "queries_per_second": 5.0,
        "duration": 2.0,
        "cdf_samples": 20,
        "threshold": 3,
        "seed": 0,
    },
    paper={"grid_side": 10, "duration": 6.0},
)

_scenario(
    "fig15_polynomial_vs_bdd",
    _expand_variants(
        "representation", "representation", "representations", "size",
        "queries_per_second", "duration", "bucket",
    ),
    figure="15",
    title="Query bandwidth for POLYNOMIAL vs BDD",
    x_label="Time (seconds)",
    y_label="Average Bandwidth (KBps)",
    description="Query bandwidth for polynomial vs BDD provenance encodings.",
    quick={
        "size": 48,
        "representations": ("Polynomial", "BDD"),
        "queries_per_second": 5.0,
        "duration": 2.0,
        "bucket": 0.25,
        "seed": 0,
    },
    paper={"size": 100, "duration": 6.0},
)

_scenario(
    "fig16_testbed_bandwidth",
    _expand_mode("testbed_bandwidth", "bucket"),
    figure="16",
    title="PATHVECTOR bandwidth on the testbed topology",
    x_label="Time (seconds)",
    y_label="Average Bandwidth (KBps)",
    description="PATHVECTOR bandwidth over time on the ring testbed topology.",
    quick={"size": 40, "bucket": 0.002, "seed": 0},
    paper={"size": 40},
)

_scenario(
    "fig17_testbed_fixpoint",
    _expand_size_mode("testbed_fixpoint"),
    figure="17",
    title="PATHVECTOR fixpoint latency on the testbed topology",
    x_label="Number of Nodes",
    y_label="Fixpoint Latency (seconds)",
    description="PATHVECTOR fixpoint latency vs testbed (ring) network size.",
    quick={"sizes": (10, 20, 30, 40), "seed": 0},
    paper={"sizes": (5, 10, 15, 20, 25, 30, 35, 40)},
)


# ---------------------------------------------------------------------- #
# registry-only scenarios: no script, no figure — just an entry here
# ---------------------------------------------------------------------- #
def _expand_query_concurrency(params: Mapping[str, Any]) -> List[TrialSpec]:
    fixed = _pick(
        params, "queries_per_querier", "hot_tuples", "waves", "threshold", "seed",
    )
    sizes = {"ring": params["ring_size"], "grid": params["grid_side"]}
    return [
        TrialSpec(
            scenario=params["_scenario"],
            trial_id=(
                f"topo={topology}/k={k}/traversal={traversal}/cache={use_cache}"
            ),
            fn="query_concurrency",
            kwargs={
                "topology": topology,
                "size": sizes[topology],
                "k": k,
                "traversal": traversal,
                "use_cache": use_cache,
                **fixed,
            },
        )
        for topology in params["topologies"]
        for traversal, use_cache in params["variants"]
        for k in params["ks"]
    ]


_scenario(
    "query_concurrency",
    _expand_query_concurrency,
    title="Prov-query traffic vs number of simultaneous queriers",
    x_label="Simultaneous Queriers (k)",
    y_label="Query Traffic (KB)",
    description=(
        "Registry-only sweep: k querier nodes fire bursts of #DERIVATION "
        "queries at the same instant against a shared hot set on ring and "
        "grid MINCOST networks; measures how in-flight sub-query "
        "coalescing, result caching and per-destination batching bend the "
        "prov-kind traffic curve as concurrency grows.  Read by the CI "
        "durability gate (benchmarks/durability_gate.py), which runs it "
        "on the sqlite backend against its baseline."
    ),
    quick={
        "topologies": ("ring", "grid"),
        "ring_size": 24,
        "grid_side": 5,
        "ks": (1, 2, 4, 8),
        "variants": (
            ("BFS", False),
            ("BFS", True),
            ("DFS", False),
            ("DFS-Threshold", True),
        ),
        "queries_per_querier": 4,
        "hot_tuples": 4,
        "waves": 2,
        "threshold": 3,
        "seed": 0,
    },
    paper={
        "ring_size": 48,
        "grid_side": 7,
        "ks": (2, 4, 8, 16, 32),
        "queries_per_querier": 5,
    },
)


def _expand_scale_sweep(params: Mapping[str, Any]) -> List[TrialSpec]:
    fixed = _pick(params, "mode", "seed")
    return [
        TrialSpec(
            scenario=params["_scenario"],
            trial_id=f"program={program}/size={size}/shards={shards}",
            fn="scale_fixpoint",
            kwargs={"program": program, "size": size, "shards": shards, **fixed},
        )
        for program in params["programs"]
        for size in params["sizes"]
        for shards in params["shards"]
    ]


_scenario(
    "scale_sweep",
    _expand_scale_sweep,
    title="Paper-scale fixpoints on the sharded engine",
    x_label="Number of Nodes",
    y_label="Average Comm. Cost (MB)",
    description=(
        "Registry-only sweep: PATHVECTOR and MINCOST fixpoints on large "
        "clustered topologies, swept over worker-shard counts.  Every "
        "counter is identical across shard counts (the determinism "
        "guarantee of the sharded engine — gated in CI); the advisory "
        "wall_seconds column shows the wall-clock scaling on multi-core "
        "machines.  Paper scale covers 256/512/1024-node topologies at "
        "shards of 1/2/4/8.  Its artifact is the shards axis of ROADMAP "
        "item 12."
    ),
    quick={
        "programs": ("pathvector", "mincost"),
        "sizes": (64,),
        "shards": (1, 2),
        "mode": "ref",
        "seed": 0,
    },
    paper={
        "sizes": (256, 512, 1024),
        "shards": (1, 2, 4, 8),
    },
)


def _expand_chaos(params: Mapping[str, Any]) -> List[TrialSpec]:
    fixed = _pick(params, "size", "mode", "seed")
    return [
        TrialSpec(
            scenario=params["_scenario"],
            trial_id=f"program={program}/plan={name}/shards={shards}",
            fn="chaos_convergence",
            kwargs={"program": program, "faults": spec, "shards": shards, **fixed},
        )
        for program in params["programs"]
        for name, spec in params["plans"]
        for shards in params["shards"]
    ]


_scenario(
    "chaos_convergence",
    _expand_chaos,
    title="Fault-plan convergence vs the fault-free digest",
    x_label="Number of Nodes",
    y_label="Converged (1 = digest match)",
    description=(
        "Registry-only sweep: MINCOST and PATHVECTOR fixpoints under "
        "injected faults (message drops, duplicates + delays, node "
        "crash/restart, link flaps), serial and sharded with worker "
        "supervision.  Every point must sit at 1.0: a quiescing fault "
        "plan yields final protocol tables digest-identical to the "
        "fault-free run — the fault subsystem's headline oracle, which "
        "the CI chaos gate (benchmarks/chaos_gate.py) enforces on the "
        "digests this artifact records."
    ),
    quick={
        "programs": ("mincost", "pathvector", "packetforward"),
        "plans": (
            ("drops", "seed=3; attempts=8; drop:*->*:p=0.2,n=20"),
            ("dup-delay", "seed=5; dup:*->*:p=0.15,n=12; delay:*->*:p=0.2,d=0.004"),
            ("crash", "attempts=8; crash:n1@0.001:restart=0.01"),
            ("flap", "attempts=8; flap:n0-n1@0.001:up=0.008"),
        ),
        "shards": (1, 2),
        "size": 8,
        "mode": "ref",
        "seed": 0,
    },
    paper={
        "size": 16,
        "plans": (
            ("drops", "seed=3; attempts=10; drop:*->*:p=0.3,n=60"),
            ("dup-delay", "seed=5; dup:*->*:p=0.2,n=40; delay:*->*:p=0.3,d=0.004"),
            ("crash", "attempts=10; crash:n1@0.001:restart=0.02"),
            ("flap", "attempts=10; flap:n0-n1@0.001:up=0.01"),
        ),
        "shards": (1, 2, 4),
    },
)
