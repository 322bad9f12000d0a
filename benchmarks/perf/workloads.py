"""The seven workloads, driven through the stable facade only.

Each workload is a class with the same five steps — ``setup`` (build the
inputs from the seed and reach the start state), ``cold`` (a cold
convergence that belongs to the measured phase), ``measure`` (the closed
loop: one driver thread, the next operation issued when the previous one
returned), ``verify`` and ``close``.  ``run.py`` owns the order, the
repetitions and every reading; a workload only says what to do.

Imports are limited to the allow-list in ``README.md`` (a test greps for
it): later PRs delete the deprecated API and may not edit this benchmark.

What the seed draws, and what it does not
-----------------------------------------
Sizes and topology *shapes* are constants: with chords drawn per seed,
``fixpoint_s`` on one 44-node transit-stub ranged 0.74-1.13 s across six
seeds, wider than any bound the ruler may carry.  The seed draws what
happens *on* the shape — which links flap in which order, which tuples
are queried in which order — and every pick is dealt from whole shuffled
passes over a fixed population (see :func:`deal`), so every seed performs
nearly the same multiset of work in a different order.
"""

from __future__ import annotations

import ast
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode, QueryRequest, SpecDescriptor
from repro.datalog.ast import Fact
from repro.net.sharding import ShardedExspanNetwork
from repro.net.topology import (
    TIER_STUB,
    Topology,
    cluster_topology,
    grid_topology,
    partition_topology,
    transit_stub_topology,
)
from repro.protocols import mincost_program, pathvector_program
from repro.service import ServiceClient, ServiceThread

import checks
from harness import OP_TIMEOUT_S, Recorder, Scratch, clock, read_counters

Pair = Tuple[Any, Any]

#: The five kinds ``sql_provenance`` answers (``repro.storage.SQL_QUERY_KINDS``).
SQL_KINDS = ("reachable", "reachable_base", "nodeset", "derivability", "subgraph")


# ---------------------------------------------------------------------- #
# input generation
# ---------------------------------------------------------------------- #
def transit_stub(transits: int, stubs: int, stub_nodes: int) -> Topology:
    return transit_stub_topology(
        domains=1,
        transit_per_domain=transits,
        stubs_per_transit=stubs,
        nodes_per_stub=stub_nodes,
        seed=0,
    )


def flappable_links(topology: Topology) -> List[Pair]:
    """Stub-tier links, sorted: the paper churns stub-to-stub links only."""
    return sorted((a, b) for a, b, _ in topology.links_by_tier(TIER_STUB))


def deal(rng: random.Random, population: Sequence[Any], count: int) -> List[Any]:
    """*count* picks, dealt from whole shuffled passes over *population*.

    A population larger than *count* is first thinned to *count* evenly
    spaced members, so every seed works through the same members (the same
    links, the same tuples) and only their order differs.
    """
    if len(population) > count:
        population = [population[index * len(population) // count] for index in range(count)]
    order: List[Any] = []
    while len(order) < count:
        deck = list(population)
        rng.shuffle(deck)
        order.extend(deck)
    return order[:count]


def node_pairs(topology: Topology, linked: Optional[bool] = None) -> List[Pair]:
    """Ordered (source, destination) pairs; *linked* keeps (non-)adjacent ones."""
    nodes = sorted(topology.nodes)
    return [
        (source, destination)
        for source in nodes
        for destination in nodes
        if source != destination
        and (linked is None or topology.has_link(source, destination) == linked)
    ]


def topology_links(topology: Topology) -> List[Tuple[Any, Any, int]]:
    return [(a, b, spec.cost) for a, b, spec in topology.links()]


def best_cost_rows(network: ExspanNetwork) -> Dict[Pair, Tuple[Any, ...]]:
    """The converged ``bestPathCost`` rows by (source, destination)."""
    return {(row[0], row[1]): row for _, row in network.tuples("bestPathCost")}


def verify_costs(
    network: ExspanNetwork, recorder: Recorder, max_cost: Optional[int] = None
) -> None:
    """Every node's best cost per destination against Dijkstra, right now."""
    topology = network.topology
    rows = [row for _, row in network.tuples("bestPathCost")]
    recorder.check(
        checks.check_best_costs(rows, topology.nodes, topology_links(topology), max_cost)
    )


def flap(network: ExspanNetwork, link: Pair, op: Any, between: Any = None) -> None:
    """One link flap: down, quiesce, *between*, up, quiesce.  Two ``round`` laps."""
    a, b = link
    cost = network.topology.link(a, b).cost
    started = clock()
    network.remove_link(a, b)
    network.run_to_fixpoint()
    op.lap("round", started)
    if between is not None:
        between()
    started = clock()
    network.add_link(a, b, cost)
    network.run_to_fixpoint()
    op.lap("round", started)


class Workload:
    """Common shape; see the module docstring for the five steps."""

    name = ""
    why = ""
    #: ``(sizes at full scale, sizes in --smoke)``; counts scale with --seconds.
    full: Dict[str, Any] = {}
    toy: Dict[str, Any] = {}
    mode = ProvenanceMode.REFERENCE

    def __init__(self, seed: int, scale: float, toy: bool, scratch: Scratch):
        self.rng = random.Random(seed)
        self.seed = seed
        self.scale = scale
        self.size = self.toy if toy else self.full
        self.scratch = scratch
        self.networks: List[ExspanNetwork] = []

    def count(self, key: str) -> int:
        """A per-run operation count: the base size scaled by --seconds."""
        return max(2, round(self.size[key] * self.scale))

    def program(self) -> Any:
        return mincost_program()

    def build(self, topology: Topology, storage: Optional[str] = None) -> ExspanNetwork:
        return ExspanNetwork(
            topology, self.program(), config=ExspanConfig(mode=self.mode, storage=storage)
        )

    def setup(self, recorder: Recorder) -> None:
        raise NotImplementedError

    def cold(self, recorder: Recorder) -> None:
        """Cold convergence inside the measured phase (workloads 1, 2, 6)."""

    def measure(self, recorder: Recorder) -> None:
        raise NotImplementedError

    def verify(self, recorder: Recorder) -> None:
        """Final-state checks, outside every timed region."""

    def close(self) -> None:
        for network in self.networks:
            network.close_storage()

    def wire_bytes(self) -> int:
        """Bytes put on the simulated wire so far."""
        return sum(network.stats_snapshot()["total_bytes"] for network in self.networks)

    def counters(self) -> Dict[str, float]:
        """Every counter the facade reports, flattened (see ``read_counters``)."""
        return read_counters(self.networks)

    def converge(self, recorder: Recorder) -> None:
        """One cold convergence of every network: one ``fixpoint`` sample."""
        with recorder.op("fixpoint"):
            for network in self.networks:
                network.seed_links()
                network.run_to_fixpoint()


# ---------------------------------------------------------------------- #
# 1, 2: maintenance under churn
# ---------------------------------------------------------------------- #
class _Maintenance(Workload):
    max_cost: Optional[int] = None
    #: Dijkstra runs between the two halves of every n-th flap, link down.
    check_every = 10

    def setup(self, recorder: Recorder) -> None:
        topology = transit_stub(*self.size["shape"])
        self.flaps = deal(self.rng, flappable_links(topology), self.count("flaps"))
        self.network = self.build(topology)
        self.networks = [self.network]

    def cold(self, recorder: Recorder) -> None:
        self.converge(recorder)
        verify_costs(self.network, recorder, self.max_cost)

    def measure(self, recorder: Recorder) -> None:
        network = self.network
        check = lambda: verify_costs(network, recorder, self.max_cost)  # noqa: E731
        for index, link in enumerate(self.flaps):
            with recorder.op() as op:
                flap(network, link, op, check if index % self.check_every == 0 else None)

    def verify(self, recorder: Recorder) -> None:
        verify_costs(self.network, recorder, self.max_cost)


class MaintPvRef(_Maintenance):
    name = "maint_pv_ref"
    why = (
        "PATHVECTOR with reference provenance under link flaps: long joins, "
        "storage.memory and SHA-1/VID hashing do the work, core.bdd none"
    )
    full = {"shape": (4, 3, 3), "flaps": 72}
    toy = {"shape": (2, 2, 3), "flaps": 4}

    def program(self) -> Any:
        return pathvector_program()


class MaintMcValue(_Maintenance):
    name = "maint_mc_value"
    why = (
        "MINCOST with value-based BDD provenance under link flaps: aggregates "
        "and shipped annotations, the only maintenance load on core.bdd"
    )
    full = {"shape": (4, 3, 3), "flaps": 144}
    toy = {"shape": (2, 2, 3), "flaps": 4}
    max_cost = 16
    mode = ProvenanceMode.VALUE

    def program(self) -> Any:
        return mincost_program(max_cost=self.max_cost)


# ---------------------------------------------------------------------- #
# 3: read-only queries
# ---------------------------------------------------------------------- #
def query_templates(with_bdd: bool) -> List[SpecDescriptor]:
    """The fixed template mix: every kind, uncached then cached."""
    shapes: List[Dict[str, Any]] = [
        {"kind": "polynomial"},
        {"kind": "derivations"},
        {"kind": "derivations", "traversal": "dfs"},
        {"kind": "derivations", "traversal": "dfs-threshold", "threshold": 2},
        {"kind": "nodeset"},
        {"kind": "derivability"},
    ]
    if with_bdd:
        shapes.append({"kind": "bdd"})
    return [
        SpecDescriptor(use_cache=cached, **shape) for shape in shapes for cached in (False, True)
    ]


def check_sweep(label: str, answers: Dict[str, Dict[str, Any]], recorder: Recorder) -> None:
    """Cached == uncached, BFS == DFS, derivations == the polynomial's count."""
    for name, answer in answers.items():
        if name.endswith(":cache"):
            recorder.check(
                checks.check_same_answer(f"{label} {name}", answer, answers[name[: -len(":cache")]])
            )
    recorder.check(
        checks.check_same_answer(
            f"{label} bfs/dfs", answers["derivations"], answers["derivations:dfs"]
        )
    )
    polynomial = answers["polynomial"]
    recorder.check(checks.check_derivation_count(label, answers["derivations"], polynomial))
    recorder.check(
        checks.check_derivation_count(
            f"{label} threshold", answers["derivations:dfs-threshold:t2"], polynomial, threshold=2
        )
    )


class QueryRead(Workload):
    name = "query_read"
    why = (
        "read-only provenance queries on converged networks: core.query, "
        "net.message sizing, core.semiring and the simulator; join kernels idle"
    )
    full = {"grid": 5, "shape": (4, 3, 3), "sweeps": 500}
    toy = {"grid": 3, "shape": (2, 2, 3), "sweeps": 6}
    #: One sweep in this many is checked (ISSUE: a 1-in-50 sample).
    check_every = 50

    def setup(self, recorder: Recorder) -> None:
        side = self.size["grid"]
        grid = grid_topology(side, side)
        stub = transit_stub(*self.size["shape"])
        sweeps = self.count("sweeps")
        picks = list(
            zip(deal(self.rng, node_pairs(grid), sweeps), deal(self.rng, node_pairs(stub), sweeps))
        )
        self.grid, self.stub = self.build(grid), self.build(stub)
        self.networks = [self.grid, self.stub]
        self.converge(recorder)
        grid_rows, stub_rows = best_cost_rows(self.grid), best_cost_rows(self.stub)
        self.sweeps = [
            (Fact("bestPathCost", grid_rows[on_grid]), Fact("bestPathCost", stub_rows[on_stub]))
            for on_grid, on_stub in picks
        ]
        self.templates = (query_templates(with_bdd=False), query_templates(with_bdd=True))

    def measure(self, recorder: Recorder) -> None:
        latencies = recorder.sim_latencies
        kept = recorder.kept
        for index, facts in enumerate(self.sweeps):
            answers: List[Dict[str, Dict[str, Any]]] = [{}, {}]
            with recorder.op() as op:
                for network, fact, templates, seen in zip(
                    self.networks, facts, self.templates, answers
                ):
                    for spec in templates:
                        request = QueryRequest(fact=fact, spec=spec)
                        started = clock()
                        result = network.execute(request)
                        op.lap("query", started)
                        latencies.append(result.latency)
                        seen[spec.canonical_name] = result.annotation
                        if kept is not None and len(kept["results"]) < 512:
                            kept["results"].append(result)
            if index % self.check_every == 0:
                for fact, seen in zip(facts, answers):
                    check_sweep(str(fact), seen, recorder)


# ---------------------------------------------------------------------- #
# 4: queries beside writes
# ---------------------------------------------------------------------- #
class QueryChurn(Workload):
    name = "query_churn"
    why = (
        "cached queries between link flaps: core.cache invalidation and the "
        "tuple-update hook with a warm cache, which workloads 1 and 3 never see"
    )
    full = {"grid": 6, "flaps": 120, "queries": 20, "warm": 200}
    toy = {"grid": 3, "flaps": 4, "queries": 4, "warm": 8}
    #: One cached answer in this many is re-issued uncached and compared.
    check_every = 8

    def setup(self, recorder: Recorder) -> None:
        side = self.size["grid"]
        topology = grid_topology(side, side)
        self.flaps = deal(self.rng, flappable_links(topology), self.count("flaps"))
        self.per_half = self.size["queries"]
        self.pairs = deal(self.rng, node_pairs(topology), 2 * self.per_half * len(self.flaps))
        self.network = self.build(topology)
        self.networks = [self.network]
        self.converge(recorder)
        kinds = ("polynomial", "derivations", "nodeset", "derivability")
        self.cached = [SpecDescriptor(kind=kind, use_cache=True) for kind in kinds]
        self.uncached = [SpecDescriptor(kind=kind) for kind in kinds]
        self.issued = 0
        # Warm the cache: the measured rounds start from the state a
        # long-running deployment is in, not from an empty cache.
        self._queries(recorder, None, self.size["warm"])

    def _queries(self, recorder: Recorder, op: Any, count: Optional[int] = None) -> None:
        """One half-round of cached queries against the *current* best costs."""
        network = self.network
        rows = best_cost_rows(network)
        latencies = recorder.sim_latencies
        for _ in range(self.per_half if count is None else count):
            index = self.issued
            self.issued += 1
            fact = Fact("bestPathCost", rows[self.pairs[index % len(self.pairs)]])
            template = index % len(self.cached)
            request = QueryRequest(fact=fact, spec=self.cached[template])
            if op is None:
                network.execute(request)
                continue
            started = clock()
            result = network.execute(request)
            op.lap("query", started)
            latencies.append(result.latency)
            if index % self.check_every == 0:
                fresh = network.execute(QueryRequest(fact=fact, spec=self.uncached[template]))
                recorder.check(
                    checks.check_same_answer(
                        f"{fact} {request.spec_name} after update",
                        result.annotation,
                        fresh.annotation,
                    )
                )

    def measure(self, recorder: Recorder) -> None:
        self.issued = 0
        for link in self.flaps:
            with recorder.op() as op:
                flap(self.network, link, op, lambda: self._queries(recorder, op))
                self._queries(recorder, op)

    def verify(self, recorder: Recorder) -> None:
        verify_costs(self.network, recorder)


# ---------------------------------------------------------------------- #
# 5: the socket service
# ---------------------------------------------------------------------- #
def wire_fact(name: str, values: Sequence[Any]) -> Dict[str, Any]:
    return {"name": name, "values": list(values), "location_index": 0}


class ServiceMixed(Workload):
    name = "service_mixed"
    why = (
        "one client over loopback TCP against ServiceThread: framing, canonical "
        "JSON and the asyncio server dominate; the engine barely runs"
    )
    full = {"grid": 5, "cycles": 80}
    toy = {"grid": 3, "cycles": 2}
    #: One request cycle: 20 ping, 4 tuples, 20 query, 2 prov and one link
    #: flap (insert, fixpoint, delete, fixpoint) — 50 requests.
    block = (("ping",) * 5 + ("tuples",) + ("query",) * 5) * 2 + ("prov",)
    #: One cycle in this many has its query replies compared in process.
    check_every = 10
    client: Optional[ServiceClient] = None
    thread: Optional[ServiceThread] = None

    def setup(self, recorder: Recorder) -> None:
        side = self.size["grid"]
        topology = grid_topology(side, side)
        cycles = self.count("cycles")
        self.per_cycle = 2 * (self.block.count("query") + self.block.count("prov"))
        self.pairs = deal(self.rng, node_pairs(topology), self.per_cycle * cycles)
        self.new_links = deal(self.rng, node_pairs(topology, linked=False), cycles)
        self.network = self.build(topology)
        self.networks = [self.network]
        self.converge(recorder)
        self.rows = best_cost_rows(self.network)
        self.spec = SpecDescriptor(kind="polynomial", use_cache=True)
        self.thread = ServiceThread(self.network)
        host, port = self.thread.start()
        started = clock()
        self.client = ServiceClient(host, port, timeout=OP_TIMEOUT_S)
        recorder.lap("connect", started)

    def requests(self, cycle: int) -> List[Tuple[str, str, Dict[str, Any]]]:
        """The ``(kind, op, params)`` list of one cycle."""
        pairs = iter(self.pairs[cycle * self.per_cycle : (cycle + 1) * self.per_cycle])
        plan: List[Tuple[str, str, Dict[str, Any]]] = []
        for kind in self.block * 2:
            if kind == "ping":
                plan.append((kind, "ping", {}))
            elif kind == "tuples":
                plan.append((kind, "tuples", {"table": "bestPathCost"}))
            else:
                fact = wire_fact("bestPathCost", self.rows[next(pairs)])
                if kind == "query":
                    plan.append((kind, "query", {"fact": fact, "spec": self.spec.to_dict()}))
                else:
                    plan.append((kind, "prov", {"fact": fact, "depth": 4}))
        a, b = self.new_links[cycle % len(self.new_links)]
        link = wire_fact("link", (a, b, 1))
        plan.append(("update", "insert", {"fact": link}))
        plan.append(("update", "fixpoint", {}))
        plan.append(("update", "delete", {"fact": link}))
        plan.append(("update", "fixpoint", {}))
        return plan

    def measure(self, recorder: Recorder) -> None:
        call = self.client.call
        kept = recorder.kept
        for cycle in range(self.count("cycles")):
            plan = self.requests(cycle)
            checked = cycle % self.check_every == 0
            with recorder.op() as op:
                for kind, name, params in plan:
                    started = clock()
                    reply = call(name, **params)
                    op.lap("rpc." + kind, started)
                    if kept is not None and len(kept["frames"]) < 1024:
                        kept["frames"].append((name, params, reply))
                    if checked and kind == "query":
                        # Closed loop: the server is idle between our calls,
                        # so the driver thread may read the network here.
                        fact = Fact(params["fact"]["name"], tuple(params["fact"]["values"]))
                        twin = self.network.execute(QueryRequest(fact=fact, spec=self.spec))
                        recorder.check(checks.check_socket_body(reply, twin.canonical_bytes()))

    def verify(self, recorder: Recorder) -> None:
        self.stop()
        verify_costs(self.network, recorder)

    def stop(self) -> None:
        """Close the client and reap the server thread (idempotent)."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.thread is not None:
            self.thread.stop()
            self.thread = None

    def close(self) -> None:
        self.stop()
        super().close()


# ---------------------------------------------------------------------- #
# 6: the durable backend
# ---------------------------------------------------------------------- #
class DurableSqlite(Workload):
    name = "durable_sqlite"
    why = (
        "workload 1's inputs on the sqlite backend with flush, SQL provenance, "
        "checkpoint and restore: the only load on storage.sqlite/checkpoint"
    )
    full = {"shape": (3, 3, 3), "flaps": 54, "sql": 150}
    toy = {"shape": (2, 2, 3), "flaps": 3, "sql": 10}
    restored: Optional[ExspanNetwork] = None

    def setup(self, recorder: Recorder) -> None:
        topology = transit_stub(*self.size["shape"])
        self.flaps = deal(self.rng, flappable_links(topology), self.count("flaps"))
        self.sql_pairs = deal(self.rng, node_pairs(topology), self.count("sql"))
        self.database = self.scratch.file("provenance.sqlite")
        self.network = self.build(topology, storage=f"sqlite:{self.database}")
        self.networks = [self.network]

    def program(self) -> Any:
        return pathvector_program()

    def cold(self, recorder: Recorder) -> None:
        self.converge(recorder)
        self.flush(recorder)
        verify_costs(self.network, recorder)

    def flush(self, lap_into: Any) -> None:
        started = clock()
        self.network.storage_flush()
        lap_into.lap("flush", started)

    def measure(self, recorder: Recorder) -> None:
        network = self.network
        for link in self.flaps:
            with recorder.op() as op:
                flap(network, link, op, lambda: self.flush(op))
                self.flush(op)
        rows = best_cost_rows(network)
        for index, pair in enumerate(self.sql_pairs):
            kind = SQL_KINDS[index % len(SQL_KINDS)]
            fact = Fact("bestPathCost", rows[pair])
            with recorder.op("sql_first" if index == 0 else "sql." + kind):
                answer = network.sql_provenance(kind, fact)
            if kind == "nodeset":
                distributed = network.execute(
                    QueryRequest(fact=fact, spec=SpecDescriptor(kind="nodeset"))
                )
                recorder.check(checks.check_sql_nodeset(fact, answer, distributed.annotation))
        self.checkpoint_path = self.scratch.file("checkpoint.json")
        with recorder.op("checkpoint"):
            self.checkpoint = network.checkpoint(self.checkpoint_path)
        with recorder.op("restore"):
            self.restored = ExspanNetwork.restore(
                self.checkpoint_path,
                network.topology,
                self.program(),
                storage=f"sqlite:{self.scratch.file('restored.sqlite')}",
            )

    def verify(self, recorder: Recorder) -> None:
        verify_costs(self.network, recorder)
        live, restored = self.network, self.restored
        tables = sorted(set(live.predicates()) | set(restored.predicates()))
        recorder.check(
            checks.check_restored(
                {name: live.tuples(name) for name in tables},
                {name: restored.tuples(name) for name in tables},
            )
        )

    def close(self) -> None:
        super().close()
        if self.restored is not None:
            self.restored.close_storage()


# ---------------------------------------------------------------------- #
# 7: the sharded engine
# ---------------------------------------------------------------------- #
class Shard2Fixpoint(Workload):
    name = "shard2_fixpoint"
    why = (
        "PATHVECTOR on a clustered topology under two shard processes: the "
        "only load that crosses net.sharding pipes and barriers"
    )
    full = {"shape": (4, 10), "runs": 12}
    toy = {"shape": (2, 6), "runs": 2}
    shards = 2

    def program(self) -> Any:
        return pathvector_program()

    def setup(self, recorder: Recorder) -> None:
        clusters, members = self.size["shape"]
        self.topology = cluster_topology(clusters, members, seed=0)
        self.parsed = self.program()
        self.partition = partition_topology(self.topology, self.shards)
        self.bytes_on_wire = 0
        self.summary: Dict[str, Any] = {}
        self.report: Dict[str, Any] = {}
        # One untimed run: shard workers fork from this process and inherit
        # its SHA-1/VID and plan caches, so the first fork of a process is
        # ~40 % slower than the rest.  Every measured run starts equally warm.
        with self.sharded() as network:
            network.seed_links()
            network.run_to_fixpoint()

    def sharded(self) -> ShardedExspanNetwork:
        # ``seed`` only feeds the network's own RNG: a cold sharded fixpoint
        # has no schedule for the seed to draw.
        return ShardedExspanNetwork(
            self.topology, self.parsed, partition=self.partition, seed=self.seed
        )

    def measure(self, recorder: Recorder) -> None:
        runs = self.count("runs")
        for run in range(runs):
            with recorder.op() as op:
                started = clock()
                network = self.sharded()
                try:
                    converging = clock()
                    network.seed_links()
                    network.run_to_fixpoint()
                    recorder.lap("fixpoint", converging)
                    self.summary = network.summary()
                    op.lap("run", started)
                    self.bytes_on_wire += self.summary["traffic"]["total_bytes"]
                    if run == runs - 1:
                        self.report = network.parallelism_report()
                        self.tables = {
                            node: state["tables"] for node, state in network.digest().items()
                        }
                finally:
                    started = clock()
                    network.close()
                    op.lap("run", started)

    def verify(self, recorder: Recorder) -> None:
        rows = [
            ast.literal_eval(row)
            for tables in self.tables.values()
            for row in tables.get("bestPathCost", ())
        ]
        recorder.check(
            checks.check_best_costs(rows, self.topology.nodes, topology_links(self.topology))
        )

    def wire_bytes(self) -> int:
        return self.bytes_on_wire

    def counters(self) -> Dict[str, float]:
        """The last run's merged ``summary()``, under the serial counter names."""
        if not self.summary:
            return {}
        traffic = self.summary["traffic"]
        flat = {f"engine.{name}": value for name, value in self.summary["planner"].items()}
        flat.update({f"query.{name}": value for name, value in self.summary["query_stats"].items()})
        flat.update(
            {
                "net.messages{kind=delta}": traffic["total_messages"],
                "net.bytes{kind=delta}": traffic["maintenance_bytes"],
                "net.bytes{kind=prov}": traffic["query_bytes"],
                "sim.events_executed": self.report.get("events_total", 0),
                "sim.now": self.summary["fixpoint_time"],
            }
        )
        return flat


WORKLOADS: Tuple[type, ...] = (
    MaintPvRef,
    MaintMcValue,
    QueryRead,
    QueryChurn,
    ServiceMixed,
    DurableSqlite,
    Shard2Fixpoint,
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}
