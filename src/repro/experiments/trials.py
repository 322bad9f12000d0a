"""Atomic experiment trials: the units the orchestrator fans out.

A *trial* is one view of one simulation.  The *simulation* is a network
build plus a workload (e.g. "MINCOST on a 48-node transit-stub topology
with reference provenance, then two seconds of cached queries"), the
*view* the statistic read off it (a bandwidth series, a latency CDF, the
fixpoint time, the per-node MB).  Figs. 11/12, 13/14 and 16/17 read one
simulation twice, and the orchestrator runs each distinct simulation once
(:func:`repro.experiments.scenarios.run_simulation`).  Simulations share
no state, so they parallelize perfectly and a parallel run is
byte-identical to a serial one.

Contract for every :class:`Trial` in :data:`TRIAL_FUNCTIONS`:

* module-level simulation and view (workers look the trial up by name;
  an observation never leaves the process that simulated it);
* keyword arguments are JSON-serializable scalars (the orchestrator stores
  them verbatim in the artifact and fingerprints them for resume);
  ``view_keys`` name the view's, the rest are the simulation's;
* deterministic: same kwargs and :class:`ExecutionEnv`, same result, in
  any process;
* the simulation takes ``env: ExecutionEnv = ExecutionEnv()`` — the
  execution knobs (shards, storage, faults) arrive here, never through
  process globals;
* the view reads its observation without changing it and returns a
  plain-dict :func:`trial_result` with the measured series, notes, engine
  counters (the ``planner`` section) and traffic counters.

The provenance modes travel as short strings (``"value"``, ``"ref"``,
``"none"``) and are mapped to :class:`~repro.core.modes.ProvenanceMode` and
to the paper's legend labels here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..core.api import DELTA_MESSAGE_KIND, ExspanNetwork
from ..core.config import ExspanConfig
from ..core.customizations import (
    bdd_query,
    derivation_count_query,
    polynomial_query,
)
from ..core.modes import ProvenanceMode
from ..core.query import TraversalOrder
from ..datalog.ast import Program
from ..faults.plan import parse_fault_spec
from ..net.sharding import ScriptOp, ShardedExspanNetwork, collect_summary
from ..net.stats import cdf_points
from ..net.topology import (
    LinkSpec,
    Topology,
    cluster_topology,
    grid_topology,
    ring_topology,
    transit_stub_topology,
)
from ..protocols.mincost import mincost_program
from ..protocols.packetforward import packetforward_program
from ..protocols.pathvector import pathvector_program
from ..storage.backend import StorageError, validate_storage_spec
from .workloads import BurstQueryWorkload, PacketWorkload, QueryWorkload, make_churn

__all__ = [
    "MODE_KEYS",
    "MODE_LABELS",
    "PROGRAM_FACTORIES",
    "TRIAL_FUNCTIONS",
    "ExecutionEnv",
    "Trial",
    "build_network",
    "fixpoint_summary",
    "size_topology",
    "scale_topology",
    "trial_result",
    "scale_fixpoint_trial",
    "query_concurrency_trial",
    "chaos_convergence_trial",
]

#: Figure legend labels, in the order the paper lists them.
MODE_LABELS: Dict[ProvenanceMode, str] = {
    ProvenanceMode.VALUE: "Value-based Prov. (BDD)",
    ProvenanceMode.REFERENCE: "Ref-based Prov.",
    ProvenanceMode.NONE: "No Prov.",
}

#: JSON-able provenance-mode keys used in trial kwargs and artifact files.
MODE_KEYS: Dict[str, ProvenanceMode] = {
    "value": ProvenanceMode.VALUE,
    "ref": ProvenanceMode.REFERENCE,
    "none": ProvenanceMode.NONE,
}

#: The three curves shown in the maintenance-overhead figures.
MAINTENANCE_MODES: Tuple[str, ...] = ("value", "ref", "none")

#: NDlog programs referenced by name in trial kwargs.
PROGRAM_FACTORIES: Dict[str, Callable[..., Program]] = {
    "mincost": mincost_program,
    "pathvector": pathvector_program,
}


@dataclass(frozen=True)
class ExecutionEnv:
    """How a trial executes, as opposed to what it measures.

    Built once per run (the CLI builds it from ``--shards``, ``--storage``,
    ``--faults`` and ``--trace``) and handed to every trial, in-process or
    in a pool worker; nothing outlives the run that passed it.

    * ``shards`` — worker-shard count for the fixpoints of Figs. 6/7
      (``1`` = serial in-process; the scale and chaos sweeps set their
      own).  The sharded engine is bit-identical to the serial one, so
      artifacts match byte for byte under any value; CI diffs a
      ``--shards 2`` run against the committed baselines.
    * ``storage`` — storage backend spec (``"memory"``, ``"sqlite"`` or
      ``"sqlite:<path>"``; ``None`` = memory) for every trial network.
      Every backend is byte-identical by contract; the CI durability gate
      byte-compares a sqlite run against the baselines.
    * ``faults`` — a ``parse_fault_spec`` plan installed into every
      network :func:`build_network` and :func:`fixpoint_summary` build.
      Faults perturb the traffic counters, so a faulted artifact is never
      compared against the baselines, and the plan enters each trial's
      fingerprint so a later clean run does not reuse faulted trials.
      What faults preserve is convergence of the final protocol tables,
      which ``benchmarks/chaos_gate.py`` gates by digest.
    * ``trace_dir`` — when set, the orchestrator traces every executed
      simulation, writes its Chrome trace into the directory once per
      trial that reads it and records the advisory ``"phases"``
      breakdown; artifacts stay byte-identical to an untraced run.

    Only ``faults`` changes results; the other three stay out of trial
    kwargs and fingerprints.
    """

    shards: int = 1
    storage: Optional[str] = None
    faults: Optional[str] = None
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.shards, int) or self.shards < 1:
            raise ValueError(f"shards must be an int >= 1, got {self.shards!r}")
        if self.storage is not None:
            try:
                validate_storage_spec(self.storage)
            except StorageError as exc:
                raise ValueError(str(exc)) from None
        if self.faults is not None:
            try:
                parse_fault_spec(self.faults)
            except ValueError as exc:
                raise ValueError(f"bad fault plan {self.faults!r}: {exc}") from None


def build_network(
    topology: Topology,
    program: Program,
    mode: ProvenanceMode,
    seed: int = 0,
    env: ExecutionEnv = ExecutionEnv(),
) -> ExspanNetwork:
    """Build, seed and fixpoint an :class:`ExspanNetwork`.

    The network uses ``env.storage``; ``env.faults``, when set, is
    installed before the network is seeded, so the whole fixpoint runs
    under injected faults.
    """
    network = ExspanNetwork(
        topology, program,
        config=ExspanConfig(mode=mode, seed=seed, storage=env.storage),
    )
    network.install_faults(env.faults)  # None installs nothing
    network.seed_links()
    network.run_to_fixpoint()
    return network


def fixpoint_summary(
    topology: Topology,
    program: Program,
    mode: ProvenanceMode,
    seed: int = 0,
    env: ExecutionEnv = ExecutionEnv(),
) -> Dict[str, Any]:
    """Seed + fixpoint a network on ``env.shards`` shards and summarize it.

    The summary dict (:func:`repro.net.sharding.collect_summary`) carries
    every counter the fixpoint trials report; the sharded engine produces
    the identical dict for any worker count, so trials built on this helper
    yield byte-identical artifacts under any ``shards`` setting.
    """
    if env.shards <= 1:
        return collect_summary(build_network(topology, program, mode, seed=seed, env=env))
    with ShardedExspanNetwork(
        topology, program, mode=mode, shards=env.shards, seed=seed,
        storage=env.storage, faults=env.faults,
    ) as sharded:
        sharded.seed_links()
        sharded.run_to_fixpoint()
        return sharded.summary()


def size_topology(size: int, seed: int) -> Topology:
    """A connected topology of roughly *size* nodes in the transit-stub style.

    For sizes below 100 (one GT-ITM domain) the generator is scaled down by
    shrinking the per-stub node count so that small benchmark runs keep the
    transit/stub structure; at 100 nodes and above the paper's exact
    parameters are used and the size is swept by adding domains.
    """
    if size >= 100:
        domains = max(1, round(size / 100))
        return transit_stub_topology(domains=domains, seed=seed)
    nodes_per_stub = max(2, round(size / 12))
    return transit_stub_topology(
        domains=1,
        transit_per_domain=4,
        stubs_per_transit=3,
        nodes_per_stub=nodes_per_stub,
        seed=seed,
    )


def _mode(mode: str) -> ProvenanceMode:
    try:
        return MODE_KEYS[mode]
    except KeyError:
        raise ValueError(f"unknown provenance mode key {mode!r}") from None


def _program(program: str, max_cost: Optional[int] = None) -> Program:
    try:
        factory = PROGRAM_FACTORIES[program]
    except KeyError:
        raise ValueError(f"unknown program {program!r}") from None
    if max_cost is not None:
        return factory(max_cost=max_cost)
    return factory()


def trial_result(
    series: Dict[str, List[List[float]]],
    notes: Dict[str, Any],
    planner: Dict[str, int],
    traffic: Dict[str, Any],
) -> Dict[str, Any]:
    """The plain-dict shape every trial returns (and artifacts store)."""
    return {"series": series, "notes": notes, "planner": planner, "traffic": traffic}


def _network_result(
    network: ExspanNetwork,
    series: Dict[str, List[List[float]]],
    notes: Dict[str, Any],
) -> Dict[str, Any]:
    """Package *series*/*notes* with the network's planner/traffic counters."""
    return trial_result(
        series,
        notes,
        network.planner_stats(),
        {
            "total_bytes": network.stats.total_bytes(),
            "total_messages": network.stats.total_messages(),
            "maintenance_bytes": network.maintenance_bytes(),
            "query_bytes": network.query_bytes(),
        },
    )


class Run(NamedTuple):
    """What an in-process simulation leaves for its views: the series label,
    the network, the workload that drove it after its fixpoint, and the
    measured window in simulated seconds."""

    label: str
    network: ExspanNetwork
    workload: Any = None
    start: float = 0.0
    end: float = 0.0


def _bandwidth(
    run: Run, bucket: float, kinds: List[str], unit: float, notes: Dict[str, Any]
) -> Dict[str, Any]:
    """The per-node bandwidth of *kinds* over the run's window, in bytes/s / *unit*."""
    timeseries = run.network.stats.bandwidth_timeseries(
        bucket, run.network.node_count, start=run.start, end=run.end, kinds=kinds
    )
    points = [
        [round(time - run.start, 6), bytes_per_second / unit]
        for time, bytes_per_second in timeseries
    ]
    return _network_result(run.network, {run.label: points}, notes)


def _latency_cdf(run: Run, cdf_samples: int, notes: Dict[str, Any]) -> Dict[str, Any]:
    """The CDF of the run's query completion latencies at *cdf_samples* points."""
    latencies = [outcome.latency for outcome in run.workload.outcomes]
    points = [
        [round(value, 6), fraction] for value, fraction in cdf_points(latencies, cdf_samples)
    ]
    return _network_result(run.network, {run.label: points}, notes)


# ---------------------------------------------------------------------- #
# Figures 6, 7: communication cost to fixpoint vs network size
# ---------------------------------------------------------------------- #
def _comm_cost_run(
    program: str,
    size: int,
    mode: str,
    seed: int = 0,
    max_cost: Optional[int] = None,
    env: ExecutionEnv = ExecutionEnv(),
) -> Tuple[str, int, Dict[str, Any]]:
    """Fixpoint a transit-stub network on ``env.shards`` shards.

    Returns ``(label, node count, summary)``; the summary is identical for
    any shard count.
    """
    topology = size_topology(size, seed)
    summary = fixpoint_summary(
        topology, _program(program, max_cost), _mode(mode), seed=seed, env=env
    )
    return MODE_LABELS[_mode(mode)], topology.node_count(), summary


def _per_node_mb(run: Tuple[str, int, Dict[str, Any]]) -> Dict[str, Any]:
    """Per-node communication cost (MB) to fixpoint."""
    label, node_count, summary = run
    per_node_mb = summary["traffic"]["maintenance_bytes"] / node_count / 1e6
    series = {label: [[node_count, per_node_mb]]}
    return trial_result(series, {}, summary["planner"], summary["traffic"])


# ---------------------------------------------------------------------- #
# Figure 8: data-plane bandwidth over time (PACKETFORWARD)
# ---------------------------------------------------------------------- #
def _packet_run(
    size: int,
    mode: str,
    packets_per_second: float = 20.0,
    payload_bytes: int = 1024,
    duration: float = 2.0,
    seed: int = 0,
    env: ExecutionEnv = ExecutionEnv(),
) -> Run:
    """PATHVECTOR routes to fixpoint, then *duration* seconds of packets."""
    topology = size_topology(size, seed)
    program = pathvector_program().extended(packetforward_program(), "pv+fwd")
    network = build_network(topology, program, _mode(mode), seed=seed, env=env)
    start = network.now
    network.stats.reset()
    workload = PacketWorkload(
        network,
        payload_bytes=payload_bytes,
        packets_per_second=packets_per_second,
        duration=duration,
        seed=seed,
    )
    workload.run()
    return Run(MODE_LABELS[_mode(mode)], network, workload, start, start + duration)


def _packet_bandwidth(run: Run, bucket: float = 0.25) -> Dict[str, Any]:
    """Data-plane bandwidth (MBps) over time."""
    notes = {f"{run.label} delivered": run.workload.delivered()}
    return _bandwidth(run, bucket, [DELTA_MESSAGE_KIND], 1e6, notes)


# ---------------------------------------------------------------------- #
# Figures 9, 10: maintenance bandwidth under churn
# ---------------------------------------------------------------------- #
def _churn_run(
    program: str,
    size: int,
    mode: str,
    rounds: int = 4,
    links_per_round: int = 4,
    interval: float = 0.5,
    seed: int = 0,
    max_cost: Optional[int] = None,
    env: ExecutionEnv = ExecutionEnv(),
) -> Run:
    """A fixpoint, then *rounds* of stub-link churn until the network is idle."""
    topology = size_topology(size, seed)
    network = build_network(
        topology, _program(program, max_cost), _mode(mode), seed=seed, env=env
    )
    start = network.now
    network.stats.reset()
    churn = make_churn(
        network, links_per_round=links_per_round, interval=interval, seed=seed
    )
    churn.start(rounds=rounds, first_delay=interval)
    network.simulator.run_until_idle()
    end = start + rounds * interval + interval
    return Run(MODE_LABELS[_mode(mode)], network, churn, start, end)


def _churn_bandwidth(run: Run, bucket: float = 0.25) -> Dict[str, Any]:
    """Maintenance bandwidth (MBps) over time under churn."""
    notes = {f"{run.label} churn events": len(run.workload.events)}
    return _bandwidth(run, bucket, [DELTA_MESSAGE_KIND], 1e6, notes)


# ---------------------------------------------------------------------- #
# Figures 11-15: provenance query workloads
# ---------------------------------------------------------------------- #
def _query_network(size: int, seed: int, env: ExecutionEnv) -> ExspanNetwork:
    """A reference-provenance MINCOST network used by the query experiments."""
    topology = size_topology(size, seed)
    return build_network(
        topology, mincost_program(), ProvenanceMode.REFERENCE, seed=seed, env=env
    )


def _query_run(
    label: str,
    network: ExspanNetwork,
    spec,
    queries_per_second: float,
    duration: float,
    seed: int,
) -> Run:
    """*duration* seconds of *spec* queries on a converged *network*."""
    network.stats.reset()
    workload = QueryWorkload(
        network,
        spec,
        queries_per_second=queries_per_second,
        duration=duration,
        seed=seed,
    )
    workload.run()
    return Run(label, network, workload, 0.0, duration)


#: Caching variants: label and (equal-length) query-spec name per setting.
_CACHE_VARIANTS: Dict[bool, Tuple[str, str]] = {
    False: ("Without caching", "polync"),
    True: ("With caching", "polywc"),
}


def _caching_run(
    size: int,
    use_cache: bool,
    queries_per_second: float = 5.0,
    duration: float = 2.0,
    seed: int = 0,
    env: ExecutionEnv = ExecutionEnv(),
) -> Run:
    """POLYNOMIAL queries with or without result caching (Figs. 11, 12)."""
    label, spec_name = _CACHE_VARIANTS[bool(use_cache)]
    spec = polynomial_query(name=spec_name, use_cache=bool(use_cache))
    network = _query_network(size, seed, env)
    return _query_run(label, network, spec, queries_per_second, duration, seed)


def _caching_bandwidth(run: Run, bucket: float = 0.25) -> Dict[str, Any]:
    """Per-node query bandwidth (KBps) with or without result caching."""
    notes = {
        f"{run.label} queries": len(run.workload.outcomes),
        f"{run.label} cache": run.network.cache_stats(),
    }
    return _bandwidth(run, bucket, ["prov"], 1e3, notes)


def _caching_latency(run: Run, cdf_samples: int = 20) -> Dict[str, Any]:
    """Query completion-latency CDF with or without result caching."""
    stats = run.workload.latency_stats()
    notes = {
        f"{run.label} median (s)": round(stats.percentile(0.5), 6),
        f"{run.label} p80 (s)": round(stats.percentile(0.8), 6),
    }
    return _latency_cdf(run, cdf_samples, notes)


#: Traversal variants: equal-length spec names so that message-size
#: accounting is identical across strategies (the name travels in queries).
_TRAVERSAL_VARIANTS: Dict[str, Tuple[str, TraversalOrder]] = {
    "BFS": ("dcbfs", TraversalOrder.BFS),
    "DFS": ("dcdfs", TraversalOrder.DFS),
    "DFS-Threshold": ("dcthr", TraversalOrder.DFS_THRESHOLD),
}


def _traversal_spec(traversal: str, threshold: int):
    spec_name, order = _TRAVERSAL_VARIANTS[traversal]
    if order is TraversalOrder.DFS_THRESHOLD:
        return derivation_count_query(name=spec_name, traversal=order, threshold=threshold)
    return derivation_count_query(name=spec_name, traversal=order)


def _traversal_run(
    grid_side: int,
    traversal: str,
    queries_per_second: float = 5.0,
    duration: float = 2.0,
    threshold: int = 3,
    seed: int = 0,
    env: ExecutionEnv = ExecutionEnv(),
) -> Run:
    """#DERIVATION queries in one traversal order on a MINCOST grid (Figs. 13, 14).

    The paper's 100-node transit-stub networks give ``bestPathCost`` tuples
    roughly three alternative derivations on average; our scaled-down
    transit-stub defaults are too sparse for that, so the traversal-order
    experiments run on a grid, where equal-cost shortest paths make
    multi-derivation tuples the common case.
    """
    network = build_network(
        grid_topology(grid_side, grid_side), mincost_program(), ProvenanceMode.REFERENCE,
        seed=seed, env=env,
    )
    spec = _traversal_spec(traversal, threshold)
    return _query_run(traversal, network, spec, queries_per_second, duration, seed)


def _traversal_bandwidth(run: Run, bucket: float = 0.25) -> Dict[str, Any]:
    """#DERIVATION query bandwidth (KBps) for one traversal strategy."""
    notes = {
        f"{run.label} total KB": round(run.network.query_bytes() / 1e3, 3),
        f"{run.label} queries": len(run.workload.outcomes),
    }
    return _bandwidth(run, bucket, ["prov"], 1e3, notes)


def _traversal_latency(run: Run, cdf_samples: int = 20) -> Dict[str, Any]:
    """#DERIVATION query latency CDF for one traversal strategy."""
    notes = {f"{run.label} p80 (s)": round(run.workload.latency_stats().percentile(0.8), 6)}
    return _latency_cdf(run, cdf_samples, notes)


def _representation_run(
    size: int,
    representation: str,
    queries_per_second: float = 5.0,
    duration: float = 2.0,
    seed: int = 0,
    env: ExecutionEnv = ExecutionEnv(),
) -> Run:
    """Queries answered in one provenance representation (Fig. 15).

    Equal-length spec names keep the per-message framing identical.
    """
    specs = {
        "Polynomial": lambda: polynomial_query(name="f15poly"),
        "BDD": lambda: bdd_query(name="f15bddq"),
    }
    if representation not in specs:
        raise ValueError(f"unknown representation {representation!r}")
    network = _query_network(size, seed, env)
    return _query_run(
        representation, network, specs[representation](), queries_per_second, duration, seed
    )


def _representation_bandwidth(run: Run, bucket: float = 0.25) -> Dict[str, Any]:
    """Query bandwidth (KBps) for one provenance-result representation."""
    notes = {
        f"{run.label} total KB": round(run.network.query_bytes() / 1e3, 3),
        f"{run.label} mean latency (s)": round(run.workload.latency_stats().mean(), 6),
    }
    return _bandwidth(run, bucket, ["prov"], 1e3, notes)


# ---------------------------------------------------------------------- #
# Figures 16, 17: "testbed" deployment (ring topology)
# ---------------------------------------------------------------------- #
def _testbed_run(
    size: int,
    mode: str,
    seed: int = 0,
    env: ExecutionEnv = ExecutionEnv(),
) -> Run:
    """PATHVECTOR to fixpoint on the ring testbed topology.

    In process under any ``env.shards``: Fig. 16's view buckets the
    per-message log, which only a serial network keeps.
    """
    topology = ring_topology(size, seed=seed)
    network = build_network(topology, pathvector_program(), _mode(mode), seed=seed, env=env)
    return Run(MODE_LABELS[_mode(mode)], network)


def _testbed_bandwidth(run: Run, bucket: float = 0.002) -> Dict[str, Any]:
    """PATHVECTOR bandwidth (KBps) over time until the fixpoint."""
    notes = {
        f"{run.label} total KB per node": round(
            run.network.average_maintenance_bytes_per_node() / 1e3, 3
        )
    }
    window = run._replace(end=max(run.network.now, bucket))
    return _bandwidth(window, bucket, [DELTA_MESSAGE_KIND], 1e3, notes)


def _fixpoint_latency(run: Run) -> Dict[str, Any]:
    """PATHVECTOR fixpoint latency (s) at the ring's size."""
    point = [run.network.node_count, run.network.now]
    return _network_result(run.network, {run.label: [point]}, {})


# ---------------------------------------------------------------------- #
# Multi-querier concurrency sweep (registry-only): k simultaneous queriers
# ---------------------------------------------------------------------- #
#: Equal-length spec names per (traversal, cached) variant so the message
#: framing is identical across the sweep (the spec name travels in queries).
_CONCURRENCY_VARIANTS: Dict[Tuple[str, bool], str] = {
    ("BFS", False): "qcbfs0",
    ("BFS", True): "qcbfs1",
    ("DFS", False): "qcdfs0",
    ("DFS", True): "qcdfs1",
    ("DFS-Threshold", False): "qcthr0",
    ("DFS-Threshold", True): "qcthr1",
}


def _concurrency_topology(topology: str, size: int, seed: int) -> Topology:
    if topology == "ring":
        return ring_topology(size, seed=seed)
    if topology == "grid":
        return grid_topology(size, size)
    raise ValueError(f"unknown query_concurrency topology {topology!r}")


def _concurrency_spec(traversal: str, use_cache: bool, threshold: int):
    try:
        spec_name = _CONCURRENCY_VARIANTS[(traversal, bool(use_cache))]
    except KeyError:
        raise ValueError(
            f"unknown query_concurrency variant {traversal!r}/cache={use_cache!r}"
        ) from None
    _, order = _TRAVERSAL_VARIANTS[traversal]
    if order is TraversalOrder.DFS_THRESHOLD:
        return derivation_count_query(
            name=spec_name, traversal=order, use_cache=bool(use_cache),
            threshold=threshold,
        )
    return derivation_count_query(
        name=spec_name, traversal=order, use_cache=bool(use_cache)
    )


def query_concurrency_trial(
    topology: str,
    size: int,
    k: int,
    traversal: str,
    use_cache: bool,
    queries_per_querier: int = 4,
    hot_tuples: int = 4,
    waves: int = 2,
    threshold: int = 3,
    seed: int = 0,
    env: ExecutionEnv = ExecutionEnv(),
) -> Dict[str, Any]:
    """Prov-kind traffic (KB) for k simultaneous queriers on one variant.

    A MINCOST reference-provenance network is fixpointed on a ring or grid
    (grids give abundant equal-cost multipaths, i.e. multi-derivation
    tuples), then *k* querier nodes fire a burst of #DERIVATION queries at
    the same instant against a shared hot set of tuples.  The y value is
    total prov-kind KB for the burst; the notes surface the concurrency
    counters (in-flight / root coalescing, cache hits, batching) that
    explain the reduction.
    """
    network = ExspanNetwork(
        _concurrency_topology(topology, size, seed),
        mincost_program(),
        config=ExspanConfig(
            mode=ProvenanceMode.REFERENCE,
            seed=seed,
            storage=env.storage,
        ),
    )
    network.seed_links()
    network.run_to_fixpoint()
    spec = _concurrency_spec(traversal, use_cache, threshold)
    network.stats.reset()
    workload = BurstQueryWorkload(
        network,
        spec,
        queriers=k,
        queries_per_querier=queries_per_querier,
        hot_tuples=hot_tuples,
        waves=waves,
        seed=seed,
    )
    workload.run()
    label = f"{traversal}{'+cache' if use_cache else ''} ({topology})"
    query_stats = network.query_service_stats()
    notes = {
        f"{label} @k={k} queries": len(workload.outcomes),
        f"{label} @k={k} prov messages": network.query_messages(),
        f"{label} @k={k} coalesced": (
            query_stats["coalesced_inflight"] + query_stats["coalesced_roots"]
        ),
        f"{label} @k={k} cache hits": query_stats["cache_hits"],
        f"{label} @k={k} batched": query_stats["messages_batched"],
    }
    return _network_result(
        network, {label: [[k, round(network.query_bytes() / 1e3, 6)]]}, notes
    )


# ---------------------------------------------------------------------- #
# Scale sweep (registry-only): paper-scale fixpoints on the sharded engine
# ---------------------------------------------------------------------- #
def scale_topology(size: int, seed: int) -> Topology:
    """A clustered topology of exactly *size* nodes for the scale sweep.

    Clusters of 32 nodes joined by slow inter-cluster links (see
    :func:`~repro.net.topology.cluster_topology`); sizes that are not a
    multiple of 32 round to the nearest cluster count.
    """
    clusters = max(2, round(size / 32))
    return cluster_topology(clusters, 32, seed=seed)


def scale_fixpoint_trial(
    program: str,
    size: int,
    shards: int,
    mode: str = "ref",
    seed: int = 0,
    env: ExecutionEnv = ExecutionEnv(),
) -> Dict[str, Any]:
    """Fixpoint one paper-scale topology on the sharded engine.

    The y value is per-node maintenance MB at fixpoint; the notes carry
    the fixpoint latency and message counts.  Sweeping ``shards`` puts the
    engine's headline guarantee on the record: every curve of a scale
    sweep is **identical** across shard counts (the CI gate diffs them),
    while wall-clock (advisory ``wall_seconds`` in the artifact) drops as
    workers are added on multi-core machines.  The explicit ``shards``
    sweep axis overrides ``env.shards``.
    """
    topology = scale_topology(size, seed)
    summary = fixpoint_summary(
        topology, _program(program), _mode(mode), seed=seed,
        env=replace(env, shards=shards),
    )
    node_count = topology.node_count()
    per_node_mb = summary["traffic"]["maintenance_bytes"] / node_count / 1e6
    label = f"{program} shards={shards}"
    notes = {
        f"{label} fixpoint (s) @n={node_count}": round(summary["fixpoint_time"], 6),
        f"{label} messages @n={node_count}": summary["traffic"]["total_messages"],
    }
    series = {label: [[node_count, per_node_mb]]}
    return trial_result(series, notes, summary["planner"], summary["traffic"])


# ---------------------------------------------------------------------- #
# Chaos convergence (registry-only): fault plans vs the fault-free digest
# ---------------------------------------------------------------------- #
def chaos_topology(size: int, seed: int = 0) -> Topology:
    """A tie-free ring: distinct power-of-two link costs, rotated by *seed*.

    Any two distinct simple paths traverse different link subsets, and
    sums of distinct powers of two are unique — so no two paths ever tie
    on cost.  PATHVECTOR no longer needs that: it breaks equal-cost ties by
    the least path vector (``min<P>``), not by arrival order.  The ring
    stays because ``BENCH_chaos_convergence.json`` records its digests.
    """
    topology = Topology(name=f"chaosring:{size}")
    for index in range(size):
        a, b = f"n{index}", f"n{(index + 1) % size}"
        cost = 2 ** ((index + seed) % size)
        topology.add_link(a, b, LinkSpec(latency=0.001, cost=cost))
    return topology


def chaos_convergence_trial(
    program: str,
    size: int,
    faults: str,
    shards: int = 1,
    mode: str = "ref",
    seed: int = 0,
    env: ExecutionEnv = ExecutionEnv(),
) -> Dict[str, Any]:
    """Fixpoint one tie-free ring under a fault plan and check convergence.

    Runs the same (program, topology) twice: fault-free serial for the
    reference convergence digest, then under *faults* (serial or sharded
    with supervision).  The y value is 1.0 when the faulted run's final
    protocol tables digest-match the fault-free run — the subsystem's
    headline oracle — and the traffic section records the injector's
    counters (drops, retransmits, duplicates suppressed, crashes) so a
    sweep shows how much adversity each plan actually injected.

    ``program="packetforward"`` runs the data plane: PATHVECTOR builds
    the routes, packets are injected post-fixpoint, and the convergence
    check covers the materialized ``recvPacket`` deliveries too.  The
    trial's own ``faults`` and ``shards`` kwargs are its sweep axes; of
    *env* it reads only ``storage``.
    """
    from ..faults import convergence_digest
    from ..protocols.packetforward import packet_event

    topology = chaos_topology(size, seed=seed)
    packets: List[Any] = []
    if program == "packetforward":
        resolved = pathvector_program().extended(packetforward_program(), "pv+fwd")
        payload = "x" * 16
        packets = [
            packet_event("n0", "n0", f"n{size // 2}", payload),
            packet_event(f"n{size - 1}", f"n{size - 1}", "n1", payload),
        ]
    else:
        resolved = _program(program)

    def serial_run(plan):
        network = ExspanNetwork(
            topology, resolved,
            config=ExspanConfig(mode=_mode(mode), seed=seed, storage=env.storage),
        )
        if plan is not None:
            network.install_faults(plan)
        network.seed_links()
        network.run_to_fixpoint()
        for packet in packets:
            network.insert_fact(packet)
            network.run_to_fixpoint()
        return network

    expected = convergence_digest(serial_run(None))

    if shards <= 1:
        network = serial_run(faults)
        digest = convergence_digest(network)
        injector = network.fault_injector
        fault_stats = dict(injector.stats()) if injector is not None else {}
    else:
        with ShardedExspanNetwork(
            topology, resolved, mode=_mode(mode), shards=shards, seed=seed,
            storage=env.storage, faults=faults,
        ) as sharded:
            sharded.seed_links()
            sharded.run_to_fixpoint()
            for packet in packets:
                sharded.apply_ops([ScriptOp(kind="insert", fact=packet)])
            digest = sharded.convergence_digest()
            fault_stats = dict(sharded.fault_stats())

    converged = digest == expected
    label = f"{program} shards={shards}"
    notes = {
        f"{label} plan": faults,
        f"{label} converged": converged,
        f"{label} digest": digest[:16],
    }
    return trial_result(
        {label: [[size, 1.0 if converged else 0.0]]},
        notes,
        {},
        fault_stats,
    )


def _as_is(result: Dict[str, Any]) -> Dict[str, Any]:
    """The view of a simulation that measured its one statistic itself."""
    return result


@dataclass(frozen=True)
class Trial:
    """A registered trial: the simulation it runs and the view it reads off it.

    ``view_keys`` name the kwargs the view takes; the rest are the
    simulation's.  The registry-only sweeps, which share no simulation and
    take no view parameter, measure inside the simulation and view it
    :func:`_as_is`.
    """

    simulate: Callable[..., Any]
    view: Callable[..., Dict[str, Any]] = _as_is
    view_keys: Tuple[str, ...] = ()

    def split(self, kwargs: Mapping[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """``(simulation kwargs, view kwargs)`` of one trial's *kwargs*."""
        view = {key: kwargs[key] for key in self.view_keys if key in kwargs}
        return {key: value for key, value in kwargs.items() if key not in view}, view


#: Registry used by the orchestrator's worker processes: trials are
#: referenced by name in trial specs and artifacts, never pickled directly.
TRIAL_FUNCTIONS: Dict[str, Trial] = {
    "comm_cost": Trial(_comm_cost_run, _per_node_mb),
    "packet_bandwidth": Trial(_packet_run, _packet_bandwidth, ("bucket",)),
    "churn": Trial(_churn_run, _churn_bandwidth, ("bucket",)),
    "caching_bandwidth": Trial(_caching_run, _caching_bandwidth, ("bucket",)),
    "caching_latency": Trial(_caching_run, _caching_latency, ("cdf_samples",)),
    "traversal_bandwidth": Trial(_traversal_run, _traversal_bandwidth, ("bucket",)),
    "traversal_latency": Trial(_traversal_run, _traversal_latency, ("cdf_samples",)),
    "query_concurrency": Trial(query_concurrency_trial),
    "representation": Trial(_representation_run, _representation_bandwidth, ("bucket",)),
    "testbed_bandwidth": Trial(_testbed_run, _testbed_bandwidth, ("bucket",)),
    "testbed_fixpoint": Trial(_testbed_run, _fixpoint_latency),
    "scale_fixpoint": Trial(scale_fixpoint_trial),
    "chaos_convergence": Trial(chaos_convergence_trial),
}
