"""Atomic experiment trials: the units the orchestrator fans out.

A *trial* is the smallest independently runnable unit of the paper's
evaluation: one network build plus one workload plus one measurement, e.g.
"MINCOST on a 32-node transit-stub topology with reference provenance".
Every figure of Section 7 decomposes into a handful of such trials (one per
(size, provenance-mode) or per query-strategy variant), which is what lets
:mod:`repro.experiments.orchestrator` run a whole evidence sweep across a
process pool: trials share no state, so they parallelize perfectly and a
parallel run is byte-identical to a serial one.

Contract for every ``*_trial`` function here:

* module-level and picklable (workers import this module and look the
  function up in :data:`TRIAL_FUNCTIONS` by name);
* keyword arguments are JSON-serializable scalars (the orchestrator stores
  them verbatim in the artifact and fingerprints them for resume);
* deterministic: same kwargs, same result, in any process;
* returns a plain-dict :func:`trial_result` with the measured series, notes,
  engine counters (the ``planner`` section) and traffic counters.

The provenance modes travel as short strings (``"value"``, ``"ref"``,
``"none"``) and are mapped to :class:`~repro.core.modes.ProvenanceMode` and
to the paper's legend labels here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

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
from .workloads import BurstQueryWorkload, PacketWorkload, QueryWorkload, make_churn

__all__ = [
    "MODE_KEYS",
    "MODE_LABELS",
    "PROGRAM_FACTORIES",
    "TRIAL_FUNCTIONS",
    "build_network",
    "set_default_shards",
    "resolve_shards",
    "set_default_faults",
    "resolve_faults",
    "fixpoint_summary",
    "size_topology",
    "scale_topology",
    "trial_result",
    "scale_fixpoint_trial",
    "comm_cost_trial",
    "packet_bandwidth_trial",
    "churn_trial",
    "churn_intensity_trial",
    "caching_bandwidth_trial",
    "caching_latency_trial",
    "traversal_bandwidth_trial",
    "traversal_latency_trial",
    "query_concurrency_trial",
    "representation_trial",
    "testbed_bandwidth_trial",
    "testbed_fixpoint_trial",
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


def build_network(
    topology: Topology,
    program: Program,
    mode: ProvenanceMode,
    seed: int = 0,
    run_to_fixpoint: bool = True,
) -> ExspanNetwork:
    """Build, seed and (optionally) fixpoint an :class:`ExspanNetwork`.

    When a process-wide fault plan is set (``--faults``), it is installed
    before the network is seeded, so the whole fixpoint runs under
    injected faults.
    """
    network = ExspanNetwork(
        topology, program, config=ExspanConfig(mode=mode, seed=seed)
    )
    plan = resolve_faults(None)
    if plan is not None:
        network.install_faults(plan)
    network.seed_links()
    if run_to_fixpoint:
        network.run_to_fixpoint()
    return network


#: Process-wide default worker count for shard-capable trials.  ``1`` means
#: serial in-process execution.  Like ``PYTHONHASHSEED``, this is an
#: *execution environment* knob, never part of a trial's kwargs or
#: fingerprint: the sharded engine is bit-identical to the serial one, so
#: artifacts produced under any default must be byte-identical — which is
#: exactly what the CI determinism check verifies by diffing a
#: ``--shards 2`` run against the committed (serial) baselines.
DEFAULT_SHARDS = 1


def set_default_shards(shards: int) -> None:
    """Set the process-wide shard default (orchestrator ``--shards``)."""
    global DEFAULT_SHARDS
    DEFAULT_SHARDS = max(1, int(shards))


def resolve_shards(explicit: Optional[int]) -> int:
    """Effective shard count: the explicit kwarg, else the process default."""
    return DEFAULT_SHARDS if explicit is None else max(1, int(explicit))


#: Process-wide default fault plan (a ``parse_fault_spec`` string) injected
#: into every trial network, or ``None`` for fault-free runs.  Unlike
#: ``DEFAULT_SHARDS`` this knob is **not** byte-identity preserving on
#: traffic counters — retransmits and duplicate suppression change the
#: message-level series — so faulted artifacts must never be compared
#: against the committed baselines.  What *is* preserved is convergence:
#: any quiescing plan yields the same final protocol tables, which the
#: chaos gate (``benchmarks/chaos_gate.py``) checks by digest.
DEFAULT_FAULTS: Optional[str] = None


def set_default_faults(faults: Optional[str]) -> None:
    """Set the process-wide fault-plan default (orchestrator ``--faults``)."""
    global DEFAULT_FAULTS
    DEFAULT_FAULTS = faults or None


def resolve_faults(explicit: Optional[str]) -> Optional[str]:
    """Effective fault spec: the explicit kwarg, else the process default."""
    return DEFAULT_FAULTS if explicit is None else (explicit or None)


def fixpoint_summary(
    topology: Topology,
    program: Program,
    mode: ProvenanceMode,
    seed: int = 0,
    shards: Optional[int] = None,
) -> Dict[str, Any]:
    """Seed + fixpoint a network, serial or sharded, and summarize it.

    The summary dict (:func:`repro.net.sharding.collect_summary`) carries
    every counter the fixpoint trials report; the sharded engine produces
    the identical dict for any worker count, so trials built on this helper
    yield byte-identical artifacts under any ``shards`` setting.
    """
    count = resolve_shards(shards)
    if count <= 1:
        network = build_network(topology, program, mode, seed=seed)
        return collect_summary(network)
    with ShardedExspanNetwork(
        topology, program, mode=mode, shards=count, seed=seed,
        faults=resolve_faults(None),
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


def _summary_result(
    summary: Dict[str, Any],
    series: Dict[str, List[List[float]]],
    notes: Dict[str, Any],
) -> Dict[str, Any]:
    """Package *series*/*notes* with a fixpoint summary's counters."""
    return trial_result(series, notes, summary["planner"], summary["traffic"])


# ---------------------------------------------------------------------- #
# Figures 6, 7: communication cost to fixpoint vs network size
# ---------------------------------------------------------------------- #
def comm_cost_trial(
    program: str,
    size: int,
    mode: str,
    seed: int = 0,
    max_cost: Optional[int] = None,
    shards: Optional[int] = None,
) -> Dict[str, Any]:
    """Per-node communication cost (MB) to fixpoint at one (size, mode).

    ``shards`` (default: the process-wide ``--shards`` setting) selects the
    sharded multi-process engine; results are identical for any value.
    """
    topology = size_topology(size, seed)
    summary = fixpoint_summary(
        topology, _program(program, max_cost), _mode(mode), seed=seed, shards=shards
    )
    node_count = topology.node_count()
    per_node_mb = summary["traffic"]["maintenance_bytes"] / node_count / 1e6
    label = MODE_LABELS[_mode(mode)]
    return _summary_result(summary, {label: [[node_count, per_node_mb]]}, {})


# ---------------------------------------------------------------------- #
# Figure 8: data-plane bandwidth over time (PACKETFORWARD)
# ---------------------------------------------------------------------- #
def packet_bandwidth_trial(
    size: int,
    mode: str,
    packets_per_second: float = 20.0,
    payload_bytes: int = 1024,
    duration: float = 2.0,
    bucket: float = 0.25,
    seed: int = 0,
) -> Dict[str, Any]:
    """PACKETFORWARD data-plane bandwidth (MBps) over time for one mode."""
    topology = size_topology(size, seed)
    program = pathvector_program().extended(packetforward_program(), "pv+fwd")
    network = build_network(topology, program, _mode(mode), seed=seed)
    control_plane_end = network.now
    network.stats.reset()
    workload = PacketWorkload(
        network,
        payload_bytes=payload_bytes,
        packets_per_second=packets_per_second,
        duration=duration,
        seed=seed,
    )
    workload.run()
    timeseries = network.stats.bandwidth_timeseries(
        bucket,
        network.node_count,
        start=control_plane_end,
        end=control_plane_end + duration,
        kinds=[DELTA_MESSAGE_KIND],
    )
    label = MODE_LABELS[_mode(mode)]
    points = [
        [round(time - control_plane_end, 6), bytes_per_second / 1e6]
        for time, bytes_per_second in timeseries
    ]
    notes = {f"{label} delivered": workload.delivered()}
    return _network_result(network, {label: points}, notes)


# ---------------------------------------------------------------------- #
# Figures 9, 10: maintenance bandwidth under churn
# ---------------------------------------------------------------------- #
def _churn_timeseries(
    program: str,
    size: int,
    mode: str,
    rounds: int,
    links_per_round: int,
    interval: float,
    bucket: float,
    seed: int,
    max_cost: Optional[int],
) -> Tuple[ExspanNetwork, List[Tuple[float, float]], int]:
    """Run the stub-link churn workload; return (network, series, events)."""
    topology = size_topology(size, seed)
    network = build_network(topology, _program(program, max_cost), _mode(mode), seed=seed)
    start = network.now
    network.stats.reset()
    churn = make_churn(
        network, links_per_round=links_per_round, interval=interval, seed=seed
    )
    churn.start(rounds=rounds, first_delay=interval)
    network.simulator.run_until_idle()
    duration = rounds * interval + interval
    timeseries = network.stats.bandwidth_timeseries(
        bucket,
        network.node_count,
        start=start,
        end=start + duration,
        kinds=[DELTA_MESSAGE_KIND],
    )
    shifted = [
        (round(time - start, 6), bytes_per_second)
        for time, bytes_per_second in timeseries
    ]
    return network, shifted, len(churn.events)


def churn_trial(
    program: str,
    size: int,
    mode: str,
    rounds: int = 4,
    links_per_round: int = 4,
    interval: float = 0.5,
    bucket: float = 0.25,
    seed: int = 0,
    max_cost: Optional[int] = None,
) -> Dict[str, Any]:
    """Maintenance bandwidth (MBps) over time under churn for one mode."""
    network, timeseries, events = _churn_timeseries(
        program, size, mode, rounds, links_per_round, interval, bucket, seed, max_cost
    )
    label = MODE_LABELS[_mode(mode)]
    points = [[time, bytes_per_second / 1e6] for time, bytes_per_second in timeseries]
    notes = {f"{label} churn events": events}
    return _network_result(network, {label: points}, notes)


def churn_intensity_trial(
    program: str,
    size: int,
    mode: str,
    links_per_round: int,
    rounds: int = 4,
    interval: float = 0.5,
    bucket: float = 0.25,
    seed: int = 0,
    max_cost: Optional[int] = None,
) -> Dict[str, Any]:
    """Mean churn-window bandwidth (MBps) at one churn intensity.

    Registry-only scenario support: x is the churn intensity (links changed
    per round) rather than time, so a sweep over intensities shows how
    provenance maintenance scales with the rate of topology change.
    """
    network, timeseries, events = _churn_timeseries(
        program, size, mode, rounds, links_per_round, interval, bucket, seed, max_cost
    )
    values = [bytes_per_second for _, bytes_per_second in timeseries]
    mean_mbps = (sum(values) / len(values) if values else 0.0) / 1e6
    label = MODE_LABELS[_mode(mode)]
    notes = {f"{label} @{links_per_round} churn events": events}
    return _network_result(network, {label: [[links_per_round, mean_mbps]]}, notes)


# ---------------------------------------------------------------------- #
# Figures 11-15: provenance query workloads
# ---------------------------------------------------------------------- #
def _query_network(size: int, seed: int) -> ExspanNetwork:
    """A reference-provenance MINCOST network used by the query experiments."""
    topology = size_topology(size, seed)
    return build_network(topology, mincost_program(), ProvenanceMode.REFERENCE, seed=seed)


def _grid_query_network(side: int, seed: int) -> ExspanNetwork:
    """A grid-topology MINCOST network with abundant equal-cost multipaths.

    The paper's 100-node transit-stub networks give ``bestPathCost`` tuples
    roughly three alternative derivations on average; our scaled-down
    transit-stub defaults are too sparse for that, so the traversal-order
    experiments (Figures 13 / 14) run MINCOST on a grid, where equal-cost
    shortest paths make multi-derivation tuples the common case.
    """
    topology = grid_topology(side, side)
    return build_network(topology, mincost_program(), ProvenanceMode.REFERENCE, seed=seed)


def _run_query_workload(
    network: ExspanNetwork,
    spec,
    queries_per_second: float,
    duration: float,
    seed: int,
) -> QueryWorkload:
    network.stats.reset()
    workload = QueryWorkload(
        network,
        spec,
        queries_per_second=queries_per_second,
        duration=duration,
        seed=seed,
    )
    workload.run()
    return workload


#: Caching variants: label and (equal-length) query-spec name per setting.
_CACHE_VARIANTS: Dict[bool, Tuple[str, str]] = {
    False: ("Without caching", "polync"),
    True: ("With caching", "polywc"),
}


def caching_bandwidth_trial(
    size: int,
    use_cache: bool,
    queries_per_second: float = 5.0,
    duration: float = 2.0,
    bucket: float = 0.25,
    seed: int = 0,
) -> Dict[str, Any]:
    """Per-node query bandwidth (KBps) with or without result caching."""
    label, spec_name = _CACHE_VARIANTS[bool(use_cache)]
    network = _query_network(size, seed)
    spec = polynomial_query(name=spec_name, use_cache=bool(use_cache))
    workload = _run_query_workload(network, spec, queries_per_second, duration, seed)
    timeseries = network.stats.bandwidth_timeseries(
        bucket, network.node_count, start=0.0, end=duration, kinds=["prov"]
    )
    points = [[time, bytes_per_second / 1e3] for time, bytes_per_second in timeseries]
    notes = {
        f"{label} queries": len(workload.outcomes),
        f"{label} cache": network.cache_stats(),
    }
    return _network_result(network, {label: points}, notes)


def caching_latency_trial(
    size: int,
    use_cache: bool,
    queries_per_second: float = 5.0,
    duration: float = 2.0,
    cdf_samples: int = 20,
    seed: int = 0,
) -> Dict[str, Any]:
    """Query completion-latency CDF with or without result caching."""
    label, spec_name = _CACHE_VARIANTS[bool(use_cache)]
    network = _query_network(size, seed)
    spec = polynomial_query(name=spec_name, use_cache=bool(use_cache))
    workload = _run_query_workload(network, spec, queries_per_second, duration, seed)
    latencies = [outcome.latency for outcome in workload.outcomes]
    points = [
        [round(value, 6), fraction] for value, fraction in cdf_points(latencies, cdf_samples)
    ]
    stats = workload.latency_stats()
    notes = {
        f"{label} median (s)": round(stats.percentile(0.5), 6),
        f"{label} p80 (s)": round(stats.percentile(0.8), 6),
    }
    return _network_result(network, {label: points}, notes)


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


def traversal_bandwidth_trial(
    grid_side: int,
    traversal: str,
    queries_per_second: float = 5.0,
    duration: float = 2.0,
    bucket: float = 0.25,
    threshold: int = 3,
    seed: int = 0,
) -> Dict[str, Any]:
    """#DERIVATION query bandwidth (KBps) for one traversal strategy."""
    network = _grid_query_network(grid_side, seed)
    spec = _traversal_spec(traversal, threshold)
    workload = _run_query_workload(network, spec, queries_per_second, duration, seed)
    timeseries = network.stats.bandwidth_timeseries(
        bucket, network.node_count, start=0.0, end=duration, kinds=["prov"]
    )
    points = [[time, bytes_per_second / 1e3] for time, bytes_per_second in timeseries]
    notes = {
        f"{traversal} total KB": round(network.query_bytes() / 1e3, 3),
        f"{traversal} queries": len(workload.outcomes),
    }
    return _network_result(network, {traversal: points}, notes)


def traversal_latency_trial(
    grid_side: int,
    traversal: str,
    queries_per_second: float = 5.0,
    duration: float = 2.0,
    cdf_samples: int = 20,
    threshold: int = 3,
    seed: int = 0,
) -> Dict[str, Any]:
    """#DERIVATION query latency CDF for one traversal strategy."""
    network = _grid_query_network(grid_side, seed)
    spec = _traversal_spec(traversal, threshold)
    workload = _run_query_workload(network, spec, queries_per_second, duration, seed)
    latencies = [outcome.latency for outcome in workload.outcomes]
    points = [
        [round(value, 6), fraction] for value, fraction in cdf_points(latencies, cdf_samples)
    ]
    notes = {f"{traversal} p80 (s)": round(workload.latency_stats().percentile(0.8), 6)}
    return _network_result(network, {traversal: points}, notes)


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
    coalescing: bool = True,
    batching: bool = True,
) -> Dict[str, Any]:
    """Prov-kind traffic (KB) for k simultaneous queriers on one variant.

    A MINCOST reference-provenance network is fixpointed on a ring or grid
    (grids give abundant equal-cost multipaths, i.e. multi-derivation
    tuples), then *k* querier nodes fire a burst of #DERIVATION queries at
    the same instant against a shared hot set of tuples.  The y value is
    total prov-kind KB for the burst; the notes surface the concurrency
    counters (in-flight / root coalescing, cache hits, batching) that
    explain the reduction.  ``coalescing`` / ``batching`` exist for
    ablations and benchmarks; the registered scenario leaves them on.
    """
    network = ExspanNetwork(
        _concurrency_topology(topology, size, seed),
        mincost_program(),
        config=ExspanConfig(
            mode=ProvenanceMode.REFERENCE,
            seed=seed,
            query_coalescing=coalescing,
            query_batching=batching,
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
# Figure 15: polynomial vs BDD query representations
# ---------------------------------------------------------------------- #
def representation_trial(
    size: int,
    representation: str,
    queries_per_second: float = 5.0,
    duration: float = 2.0,
    bucket: float = 0.25,
    seed: int = 0,
) -> Dict[str, Any]:
    """Query bandwidth (KBps) for one provenance-result representation.

    Equal-length spec names keep the per-message framing identical.
    """
    specs = {
        "Polynomial": lambda: polynomial_query(name="f15poly"),
        "BDD": lambda: bdd_query(name="f15bddq"),
    }
    if representation not in specs:
        raise ValueError(f"unknown representation {representation!r}")
    network = _query_network(size, seed)
    workload = _run_query_workload(
        network, specs[representation](), queries_per_second, duration, seed
    )
    timeseries = network.stats.bandwidth_timeseries(
        bucket, network.node_count, start=0.0, end=duration, kinds=["prov"]
    )
    points = [[time, bytes_per_second / 1e3] for time, bytes_per_second in timeseries]
    notes = {
        f"{representation} total KB": round(network.query_bytes() / 1e3, 3),
        f"{representation} mean latency (s)": round(workload.latency_stats().mean(), 6),
    }
    return _network_result(network, {representation: points}, notes)


# ---------------------------------------------------------------------- #
# Figures 16, 17: "testbed" deployment (ring topology)
# ---------------------------------------------------------------------- #
def testbed_bandwidth_trial(
    size: int,
    mode: str,
    bucket: float = 0.002,
    seed: int = 0,
) -> Dict[str, Any]:
    """PATHVECTOR bandwidth (KBps) over time on the ring testbed topology."""
    topology = ring_topology(size, seed=seed)
    network = build_network(topology, pathvector_program(), _mode(mode), seed=seed)
    end = max(network.now, bucket)
    timeseries = network.stats.bandwidth_timeseries(
        bucket, network.node_count, start=0.0, end=end, kinds=[DELTA_MESSAGE_KIND]
    )
    label = MODE_LABELS[_mode(mode)]
    points = [
        [round(time, 6), bytes_per_second / 1e3] for time, bytes_per_second in timeseries
    ]
    notes = {
        f"{label} total KB per node": round(
            network.average_maintenance_bytes_per_node() / 1e3, 3
        )
    }
    return _network_result(network, {label: points}, notes)


def testbed_fixpoint_trial(
    size: int,
    mode: str,
    seed: int = 0,
    shards: Optional[int] = None,
) -> Dict[str, Any]:
    """PATHVECTOR fixpoint latency (s) at one (size, mode) on the testbed."""
    topology = ring_topology(size, seed=seed)
    summary = fixpoint_summary(
        topology, pathvector_program(), _mode(mode), seed=seed, shards=shards
    )
    label = MODE_LABELS[_mode(mode)]
    return _summary_result(
        summary, {label: [[size, summary["fixpoint_time"]]]}, {}
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
) -> Dict[str, Any]:
    """Fixpoint one paper-scale topology on the sharded engine.

    The y value is per-node maintenance MB at fixpoint; the notes carry
    the fixpoint latency and message counts.  Sweeping ``shards`` puts the
    engine's headline guarantee on the record: every curve of a scale
    sweep is **identical** across shard counts (the CI gate diffs them),
    while wall-clock (advisory ``wall_seconds`` in the artifact) drops as
    workers are added on multi-core machines.
    """
    topology = scale_topology(size, seed)
    summary = fixpoint_summary(
        topology, _program(program), _mode(mode), seed=seed, shards=shards
    )
    node_count = topology.node_count()
    per_node_mb = summary["traffic"]["maintenance_bytes"] / node_count / 1e6
    label = f"{program} shards={shards}"
    notes = {
        f"{label} fixpoint (s) @n={node_count}": round(summary["fixpoint_time"], 6),
        f"{label} messages @n={node_count}": summary["traffic"]["total_messages"],
    }
    return _summary_result(summary, {label: [[node_count, per_node_mb]]}, notes)


# ---------------------------------------------------------------------- #
# Chaos convergence (registry-only): fault plans vs the fault-free digest
# ---------------------------------------------------------------------- #
def chaos_topology(size: int, seed: int = 0) -> Topology:
    """A tie-free ring: distinct power-of-two link costs, rotated by *seed*.

    Any two distinct simple paths traverse different link subsets, and
    sums of distinct powers of two are unique — so no two paths ever tie
    on cost.  That matters because PATHVECTOR breaks equal-cost ties by
    *arrival order* (RapidNet materialize semantics: the keyed
    ``bestPath`` keeps whichever winner lands last), which is documented
    order-dependence, not divergence; a tie-free topology is what makes
    "final tables digest-match the fault-free run" a sound oracle under
    fault plans that perturb message timing.
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
    check covers the materialized ``recvPacket`` deliveries too.
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
            topology, resolved, config=ExspanConfig(mode=_mode(mode), seed=seed)
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
            faults=faults, supervise=True,
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


#: Registry used by the orchestrator's worker processes: trial functions are
#: referenced by name in trial specs and artifacts, never pickled directly.
TRIAL_FUNCTIONS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "comm_cost": comm_cost_trial,
    "packet_bandwidth": packet_bandwidth_trial,
    "churn": churn_trial,
    "churn_intensity": churn_intensity_trial,
    "caching_bandwidth": caching_bandwidth_trial,
    "caching_latency": caching_latency_trial,
    "traversal_bandwidth": traversal_bandwidth_trial,
    "traversal_latency": traversal_latency_trial,
    "query_concurrency": query_concurrency_trial,
    "representation": representation_trial,
    "testbed_bandwidth": testbed_bandwidth_trial,
    "testbed_fixpoint": testbed_fixpoint_trial,
    "scale_fixpoint": scale_fixpoint_trial,
    "chaos_convergence": chaos_convergence_trial,
}
