"""The ExSPAN facade: a provenance-aware declarative network.

:class:`ExspanNetwork` wires every piece of the reproduction together:

* a :class:`~repro.net.topology.Topology` and the event-driven
  :class:`~repro.net.network.Network` built on it;
* one :class:`~repro.datalog.engine.NDlogEngine` per node running the
  protocol program prepared for the chosen
  :class:`~repro.core.modes.ProvenanceMode` (none / reference / value /
  centralized);
* one :class:`~repro.core.query.ProvenanceQueryService` per node for
  distributed provenance queries with pluggable
  :class:`~repro.core.query.QuerySpec` customizations.

Typical usage (see ``examples/quickstart.py``)::

    topology = ring_topology(20, seed=1)
    net = ExspanNetwork(topology, mincost_program(),
                        config=ExspanConfig(mode=ProvenanceMode.REFERENCE))
    net.seed_links()
    net.run_to_fixpoint()
    answer = net.execute(QueryRequest(fact=Fact("bestPathCost", ("n0", "n5", 3)),
                                      spec=SpecDescriptor(kind="polynomial")))
    print(answer.result)

Construction knobs live in one validated, frozen
:class:`~repro.core.config.ExspanConfig`.  Provenance queries go through
the one typed request/response entry point (:meth:`ExspanNetwork.execute`
/ :meth:`ExspanNetwork.submit`, both taking a
:class:`~repro.core.requests.QueryRequest`); :meth:`ExspanNetwork.register_spec`
installs a customization ahead of time.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..datalog.ast import Fact, Program
from ..datalog.engine import Delta, NDlogEngine
from ..net.errors import UnknownNodeError
from ..net.host import Host
from ..net.message import HEADER_OVERHEAD, Message, payload_size
from ..net.network import Network
from ..net.simulator import Simulator
from ..net.topology import LinkSpec, Topology
from ..obs import runtime as obs_runtime
from .config import ExspanConfig
from .errors import ProvenanceError, QueryError, QueryTimeoutError
from .modes import PreparedProgram, ProvenanceMode, prepare_program
from .provenance_graph import ProvenanceGraph, build_global_graph, build_rooted_graph
from .query import ProvenanceQueryService, QueryOutcome, QuerySpec
from .requests import QueryRequest, QueryResult, SpecDescriptor
from .provenance_store import ProvenanceStore
from ..storage.backend import StorageBackend, make_backend, parse_storage_spec
from .vid import fact_vid

__all__ = ["ExspanNode", "ExspanNetwork", "DELTA_MESSAGE_KIND"]

DELTA_MESSAGE_KIND = "delta"


@dataclass
class ExspanNode:
    """Everything ExSPAN runs at one network node."""

    address: Any
    host: Host
    engine: NDlogEngine
    store: ProvenanceStore
    query_service: ProvenanceQueryService


class ExspanNetwork:
    """A provenance-aware declarative network over a simulated topology."""

    def __init__(
        self,
        topology: Topology,
        program: Program,
        config: Optional[ExspanConfig] = None,
        *,
        tracer: Any = None,
    ):
        """Build a network from *topology*, *program* and one *config*.

        ``config`` carries every construction knob (see
        :class:`~repro.core.config.ExspanConfig`); omitting it uses the
        documented defaults, and anything else is a :class:`TypeError`.

        ``tracer`` stays a direct keyword because it is runtime wiring,
        not configuration: it installs an observability tracer across the
        simulator, every engine and every query service.  When ``None``
        and a process-wide trace session is active (see
        :func:`repro.obs.runtime.enable_tracing`) one is registered
        automatically.  Tracing never perturbs results: fixpoints, VIDs,
        counters and traffic bytes are identical with it on or off.
        """
        if config is None:
            config = ExspanConfig()
        elif not isinstance(config, ExspanConfig):
            raise TypeError(f"config must be an ExspanConfig, got {config!r}")
        self.config = config
        self.topology = topology
        self.mode = config.mode
        self._rng = random.Random(config.seed)
        #: Where centralized provenance collects: the topology's first node.
        self.collector = topology.nodes[0] if config.mode is ProvenanceMode.CENTRALIZED else None
        self.prepared: PreparedProgram = prepare_program(
            program, config.mode, collector=self.collector, value_policy=config.value_policy
        )
        self.network = Network(
            topology,
            local_nodes=config.local_addresses,
            shard_map=config.shard_map,
        )
        self.simulator: Simulator = self.network.simulator
        if tracer is None:
            session = obs_runtime.active_session()
            if session is not None:
                tracer = session.new_tracer()
        self.tracer = tracer
        if tracer is not None:
            tracer.set_clock(lambda: self.simulator.now)
            self.simulator.tracer = tracer
        #: Specs built from :class:`SpecDescriptor`, keyed by descriptor,
        #: so repeated requests reuse one live spec (and one BDD manager /
        #: cache namespace) instead of rebuilding per query.
        self._descriptor_specs: Dict[SpecDescriptor, QuerySpec] = {}
        #: The spec object installed on every node under each name, so an
        #: installed spec is not reinstalled per query.
        self._installed_specs: Dict[str, QuerySpec] = {}
        self.storage: StorageBackend = make_backend(
            self._resolve_storage_spec(config)
        )
        self.nodes: Dict[Any, ExspanNode] = {}
        members = (
            topology.nodes
            if config.local_addresses is None
            else list(config.local_addresses)
        )
        for address in members:
            self.nodes[address] = self._build_node(address)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_storage_spec(config: ExspanConfig) -> str:
        """The storage spec this instance uses (``None`` in the config means memory).

        A sharded worker with an explicit sqlite path gets a per-shard
        suffix (``<path>.shard<N>``) so forked processes never contend on
        one WAL; the whole-network restore helpers reassemble per shard.
        """
        spec = config.storage if config.storage is not None else "memory"
        kind, path = parse_storage_spec(spec)
        if (
            kind == "sqlite"
            and path is not None
            and config.local_addresses
            and config.shard_map
        ):
            shard = config.shard_map[config.local_addresses[0]]
            spec = f"sqlite:{path}.shard{shard}"
        return spec

    def _build_node(self, address: Any) -> ExspanNode:
        host = self.network.host(address)
        policy = None
        if self.prepared.annotation_policy_factory is not None:
            policy = self.prepared.annotation_policy_factory(address)
        engine = NDlogEngine(address, annotation_policy=policy)
        engine.tracer = self.tracer
        engine.set_send(self._make_sender(host, engine))
        engine.load_program(self.prepared.program)
        store = ProvenanceStore(engine)
        self.storage.attach_node(address, engine, store)
        query_service = ProvenanceQueryService(
            host,
            store,
            clock=lambda: self.simulator.now,
            tracer=self.tracer,
        )
        host.register_handler(DELTA_MESSAGE_KIND, partial(self._deliver_delta, engine))
        return ExspanNode(
            address=address,
            host=host,
            engine=engine,
            store=store,
            query_service=query_service,
        )

    def _make_sender(self, host: Host, engine: NDlogEngine) -> Callable[[Any, Delta], None]:
        transmit = self.network.transmit
        source = host.address
        policy = engine.annotation_policy
        annotation_size = None if policy is None else policy.size

        def send(destination: Any, delta: Delta) -> None:
            # Bytes charged: header, the insert/delete flag, the tuple's
            # content and (value-based provenance) its annotation.
            fact = delta.fact
            size = HEADER_OVERHEAD + 1 + len(fact.name) + payload_size(fact.values)
            if annotation_size is not None and delta.annotation is not None:
                size += annotation_size(delta.annotation)
            transmit(Message(source, destination, DELTA_MESSAGE_KIND, delta, size))

        return send

    @staticmethod
    def _deliver_delta(engine: NDlogEngine, message: Message) -> None:
        engine.stats["deltas_received"] += 1
        engine.enqueue(message.payload)
        engine.run()

    # ------------------------------------------------------------------ #
    # node / table access
    # ------------------------------------------------------------------ #
    def node(self, address: Any) -> ExspanNode:
        try:
            return self.nodes[address]
        except KeyError:
            raise UnknownNodeError(address) from None

    def addresses(self) -> List[Any]:
        return list(self.nodes)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def engine(self, address: Any) -> NDlogEngine:
        return self.node(address).engine

    def tuples(self, table: str) -> List[Tuple[Any, Tuple[Any, ...]]]:
        """All rows of *table* across every node, as ``(node, row)`` pairs."""
        rows: List[Tuple[Any, Tuple[Any, ...]]] = []
        for address, node in self.nodes.items():
            stored = node.engine.catalog.get(table)  # a read creates nothing
            if stored is not None:
                rows.extend((address, row) for row in stored.rows())
        return rows

    def random_tuple(self, table: str) -> Optional[Tuple[Any, Fact]]:
        """A uniformly random row of *table*, as ``(node, Fact)``."""
        rows = self.tuples(table)
        if not rows:
            return None
        address, row = self._rng.choice(rows)
        return address, Fact(table, row)

    # ------------------------------------------------------------------ #
    # base-fact management
    # ------------------------------------------------------------------ #
    def insert_fact(self, fact: Fact, process: bool = True) -> None:
        """Insert a base fact at the node named by its location specifier."""
        engine = self.node(fact.location).engine
        injector = self.network.fault_injector
        if injector is not None:
            injector.note_local_op(fact.location, "insert", fact)
        engine.insert(fact)
        if process:
            engine.run()

    def delete_fact(self, fact: Fact, process: bool = True) -> None:
        engine = self.node(fact.location).engine
        injector = self.network.fault_injector
        if injector is not None:
            injector.note_local_op(fact.location, "delete", fact)
        engine.delete(fact)
        if process:
            engine.run()

    def seed_links(self, cost: Optional[int] = None) -> int:
        """Insert one ``link`` fact per direction of every topology link.

        Returns the number of facts inserted.  This mirrors the evaluation
        setup: "each node is initialized with a link tuple for each of its
        neighbors".
        """
        inserted = 0
        for source, destination, topology_cost in self.topology.link_facts():
            if source not in self.nodes:
                # Sharded instance: this fact belongs to another shard.
                continue
            value = cost if cost is not None else topology_cost
            self.insert_fact(Fact("link", (source, destination, value)), process=False)
            inserted += 1
        for node in self.nodes.values():
            node.engine.run()
        return inserted

    def add_link(self, a: Any, b: Any, cost: Optional[int] = None) -> None:
        """Add a symmetric link at runtime (churn): topology + link tuples.

        Re-adding an existing link updates its cost (the ``link`` rows are
        keyed on their endpoints) and keeps its latency and tier.
        """
        value = cost if cost is not None else LinkSpec().cost
        topology = self.topology
        if not topology.has_link(a, b):
            topology.add_link(a, b, LinkSpec(cost=value))
        elif topology.link(a, b).cost != value:
            topology.add_link(a, b, replace(topology.link(a, b), cost=value))
        if a in self.nodes:
            self.insert_fact(Fact("link", (a, b, value)))
        if b in self.nodes:
            self.insert_fact(Fact("link", (b, a, value)))

    def remove_link(self, a: Any, b: Any) -> None:
        """Remove a symmetric link at runtime (churn)."""
        if self.topology.has_link(a, b):
            spec = self.topology.link(a, b)
            cost = spec.cost
            self.topology.remove_link(a, b)
        else:
            cost = LinkSpec().cost
        if a in self.nodes:
            self.delete_fact(Fact("link", (a, b, cost)))
        if b in self.nodes:
            self.delete_fact(Fact("link", (b, a, cost)))

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run_to_fixpoint(self, max_events: Optional[int] = None) -> float:
        """Run the simulation until quiescence; returns the fixpoint time."""
        tracer = self.tracer
        if tracer is None:
            self.network.run_to_fixpoint(max_events=max_events)
        else:
            with tracer.span("net.fixpoint", cat="net") as span:
                self.network.run_to_fixpoint(max_events=max_events)
                span.add(events=self.simulator.events_executed)
        return self.simulator.now

    @property
    def now(self) -> float:
        return self.simulator.now

    # ------------------------------------------------------------------ #
    # fault injection
    # ------------------------------------------------------------------ #
    @property
    def fault_injector(self):
        """The installed :class:`~repro.faults.injector.FaultInjector`,
        or ``None`` (the fault-free fast path)."""
        return self.network.fault_injector

    def install_faults(self, plan) -> Optional[Any]:
        """Install a fault plan; returns the injector (``None`` if empty).

        *plan* is a :class:`~repro.faults.plan.FaultPlan`, a spec string
        for :func:`~repro.faults.plan.parse_fault_spec`, or ``None``.
        An empty plan installs nothing at all — the run stays on the
        exact fault-free code path, which is what makes the empty-plan
        byte-identity guarantee hold by construction.  Install before
        driving the simulation; one plan per network.
        """
        from ..faults import FaultInjector, FaultPlan, parse_fault_spec

        if plan is None:
            return None
        if isinstance(plan, str):
            plan = parse_fault_spec(plan)
        if not isinstance(plan, FaultPlan):
            raise ProvenanceError(
                f"install_faults takes a FaultPlan or spec string, got {plan!r}"
            )
        if plan.is_empty():
            return None
        if self.network.fault_injector is not None:
            raise ProvenanceError("a fault plan is already installed")
        return FaultInjector(self, plan).install()

    # ------------------------------------------------------------------ #
    # provenance queries — the unified request/response API
    # ------------------------------------------------------------------ #
    def register_spec(self, spec: Union[QuerySpec, SpecDescriptor]) -> str:
        """Install a query customization on every node; returns its name.

        Accepts a live :class:`QuerySpec` (the last registration under a
        name wins) or a declarative :class:`SpecDescriptor`, built once and
        memoized: an equal descriptor reuses the live spec, and a different
        descriptor under a name one already holds raises
        :class:`QueryError`, so a name denotes one spec and one cache
        namespace.  Registering the spec installed under its name is one
        dict probe.
        """
        if isinstance(spec, SpecDescriptor):
            built = self._descriptor_specs.get(spec)
            if built is None:
                name = spec.canonical_name
                if any(other.name == name for other in self._descriptor_specs.values()):
                    raise QueryError(f"spec name {name!r} is bound to another descriptor")
                built = self._descriptor_specs[spec] = spec.build()
            spec = built
        name = spec.name
        if self._installed_specs.get(name) is not spec:
            for node in self.nodes.values():
                node.query_service.register_spec(spec)
            self._installed_specs[name] = spec
        return name

    def spec_names(self) -> List[str]:
        """Names of every registered query spec (sorted)."""
        names: set = set()
        for node in self.nodes.values():
            names.update(node.query_service.spec_names())
        return sorted(names)

    def predicates(self) -> List[str]:
        """All table names known to any node's engine (sorted)."""
        names: set = set()
        for node in self.nodes.values():
            names.update(node.engine.catalog.names())
        return sorted(names)

    def submit(
        self,
        request: QueryRequest,
        on_complete: Callable[[QueryResult], None],
    ) -> str:
        """Asynchronously issue *request*; returns the engine query id.

        ``on_complete`` receives the typed :class:`QueryResult` once the
        distributed resolution finishes (drive the simulator to make that
        happen).  ``target`` defaults to the node named by the fact's
        location specifier (where the tuple and its ``prov`` entries
        live); ``issuer`` defaults to the target itself.
        """
        spec_name = self._ensure_spec(request.spec)
        fact = request.fact
        target_node = request.target if request.target is not None else fact.location
        issuer_node = request.issuer if request.issuer is not None else target_node
        service = self.node(issuer_node).query_service

        def finish(outcome: QueryOutcome) -> None:
            on_complete(QueryResult.from_outcome(outcome, request, spec_name))

        return service.query(
            fact_vid(fact), target_node, spec_name, finish,
            deadline=request.deadline,
        )

    def execute(
        self, request: QueryRequest, max_events: Optional[int] = None
    ) -> QueryResult:
        """Issue *request* and run the simulation until it completes.

        The synchronous entry point shared by in-process callers, the
        wire-protocol service and the shell (the experiment trials issue
        through the query service's ``query_fact`` instead).
        """
        results: List[QueryResult] = []
        tracer = self.tracer
        if tracer is None:
            self.submit(request, results.append)
            self.simulator.run_until_idle(max_events=max_events)
        else:
            with tracer.span(
                "api.execute", cat="api", spec=request.spec_name
            ) as span:
                self.submit(request, results.append)
                self.simulator.run_until_idle(max_events=max_events)
                span.add(completed=bool(results))
        if not results:
            raise QueryTimeoutError(
                f"provenance query for {request.fact} did not complete"
            )
        return results[0]

    def _ensure_spec(self, spec: Union[QuerySpec, SpecDescriptor, str]) -> str:
        if isinstance(spec, str):
            return spec
        return self.register_spec(spec)

    # ------------------------------------------------------------------ #
    # analysis / statistics
    # ------------------------------------------------------------------ #
    @property
    def stats(self):
        """The live :class:`~repro.net.stats.TrafficStats` collector.

        Internal consumers (trials, benchmarks) use this for ``reset()``
        and the record-shaped views; anything crossing a trust boundary
        should use :meth:`stats_snapshot` instead.
        """
        return self.network.stats

    def stats_snapshot(self) -> Dict[str, Any]:
        """Deep-copied, JSON-able traffic statistics.

        Unlike the live :attr:`stats` collector, mutating the returned
        dict can never corrupt the network's counters — this is what the
        query service serves to remote clients polling ``stats``.
        """
        return copy.deepcopy(self.network.stats.snapshot())

    def maintenance_bytes(self) -> int:
        """Bytes spent maintaining the protocol (and its provenance)."""
        return self.network.stats.total_bytes(kinds=[DELTA_MESSAGE_KIND])

    def query_bytes(self) -> int:
        """Bytes spent answering provenance queries."""
        return self.network.stats.total_bytes(kinds=["prov"])

    def average_maintenance_bytes_per_node(self) -> float:
        return self.network.stats.average_bytes_per_node(
            self.node_count, kinds=[DELTA_MESSAGE_KIND]
        )

    def provenance_graph(
        self, root: Optional[Fact] = None, max_depth: Optional[int] = None
    ) -> ProvenanceGraph:
        """The provenance graph under *root*, or the whole graph without one.

        With *root*, walked outward from that tuple for *max_depth* tuple
        hops (``None``: unbounded) at the cost of its derivation subtree —
        what serves ``prov`` requests.  Without, every row of every node is
        copied: the offline analysis helper and the walk's test oracle.
        """
        if root is None:
            return build_global_graph(node.store for node in self.nodes.values())
        stores = {address: node.store for address, node in self.nodes.items()}
        return build_rooted_graph(stores, root, max_depth)

    def provenance_row_counts(self) -> Dict[str, int]:
        """Total prov / ruleExec rows across the network."""
        prov_rows = sum(node.store.prov_row_count() for node in self.nodes.values())
        rule_rows = sum(node.store.rule_exec_row_count() for node in self.nodes.values())
        return {"prov": prov_rows, "ruleExec": rule_rows}

    # ------------------------------------------------------------------ #
    # persistence & SQL queries (the pluggable storage backend)
    # ------------------------------------------------------------------ #
    def storage_flush(self) -> int:
        """Drain the backend's write-behind journal; returns ops flushed."""
        tracer = self.tracer
        if tracer is None:
            return self.storage.flush()
        with tracer.span("storage.flush", cat="storage") as span:
            flushed = self.storage.flush()
            span.add(ops=flushed)
        return flushed

    def checkpoint(self, path: str) -> Dict[str, Any]:
        """Quiesce the network and write a snapshot-consistent checkpoint.

        Runs the simulator to fixpoint first (scheduled events hold
        closures a checkpoint cannot carry), flushes the storage backend,
        then writes one canonical-JSON file atomically.  Restore with
        :meth:`ExspanNetwork.restore`.  Returns a summary dict
        (``path``/``nodes``/``bytes``/``now``).
        """
        from ..storage.checkpoint import save_checkpoint

        self.run_to_fixpoint()
        tracer = self.tracer
        if tracer is None:
            summary = save_checkpoint(self, path)
        else:
            with tracer.span("storage.checkpoint", cat="storage") as span:
                summary = save_checkpoint(self, path)
                span.add(nodes=summary["nodes"], bytes=summary["bytes"])
        self.storage.flush()
        self.storage.counters["checkpoints"] += 1
        return summary

    @classmethod
    def restore(
        cls,
        path: str,
        topology: Topology,
        program: Program,
        *,
        config: Optional[ExspanConfig] = None,
        storage: Optional[str] = None,
        tracer: Any = None,
    ) -> "ExspanNetwork":
        """Rebuild a network from a checkpoint written by :meth:`checkpoint`.

        *topology* and *program* must match the checkpointed network
        (checkpoints deliberately carry no user callables).  ``storage``
        overrides just the storage spec — the backend is an
        execution-environment knob, never part of the snapshot state.
        """
        from ..storage.checkpoint import restore_network

        return restore_network(
            path, topology, program, config=config, storage=storage, tracer=tracer
        )

    def sql_provenance(
        self,
        kind: str,
        fact: Optional[Fact] = None,
        *,
        vid: Optional[str] = None,
    ) -> List[Any]:
        """Answer a provenance query through the backend's SQL path.

        The second, independent oracle: the sqlite backend walks its
        mirrored ``prov``/``ruleExec`` rows from the root with one recursive
        CTE (see ``docs/STORAGE.md``).  *kind* is one of
        ``repro.storage.SQL_QUERY_KINDS``; address the root tuple by
        *fact* or *vid*.  Requires ``storage='sqlite'``.
        """
        if (fact is None) == (vid is None):
            raise ProvenanceError("sql_provenance takes exactly one of fact= or vid=")
        root = vid if vid is not None else fact_vid(fact)
        tracer = self.tracer
        if tracer is None:
            return self.storage.sql_query(kind, root)
        with tracer.span("storage.sql", cat="storage") as span:
            rows = self.storage.sql_query(kind, root)
            span.add(kind=kind, rows=len(rows) if isinstance(rows, list) else 1)
        return rows

    def storage_stats(self) -> Dict[str, Any]:
        """The storage backend's introspection snapshot (kind, rows, counters)."""
        return self.storage.stats()

    def close_storage(self) -> None:
        """Release the storage backend's resources (connections, temp files)."""
        self.storage.close()

    def planner_stats(self) -> Dict[str, int]:
        """Aggregated planner / evaluation counters across every engine.

        Includes plans compiled and recompiled, secondary indexes
        registered, index vs full-scan lookups, and tuples scanned — the
        numbers benchmark reports use to show scan-count reductions.
        """
        from ..net.stats import aggregate_engine_stats

        return aggregate_engine_stats(
            node.engine.stats for node in self.nodes.values()
        )

    def explain(self, rule_label: str, address: Optional[Any] = None) -> str:
        """Render the compiled plans for *rule_label* at one node."""
        target = address if address is not None else next(iter(self.nodes))
        return self.node(target).engine.explain(rule_label)

    def cache_stats(self) -> Dict[str, int]:
        """Aggregated query-cache statistics across all nodes."""
        totals: Dict[str, int] = {}
        for node in self.nodes.values():
            for key, value in node.query_service.cache.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def query_service_stats(self) -> Dict[str, int]:
        """Aggregated query-engine counters across every node.

        Includes queries started/completed, in-flight and root coalescing
        counts, stale-result drops, cache hit/miss/eviction counters and
        per-destination batching counters — the numbers the multi-querier
        scenarios report alongside raw prov-kind traffic.
        """
        from ..net.stats import aggregate_query_stats

        return aggregate_query_stats(
            node.query_service.query_stats() for node in self.nodes.values()
        )

    def query_messages(self) -> int:
        """Messages spent answering provenance queries."""
        return self.network.stats.total_messages(kinds=["prov"])

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One canonical metrics snapshot covering every counter family.

        Folds the engine/planner counters, the query-engine counters and
        the per-kind traffic totals into a
        :class:`~repro.obs.metrics.MetricsRegistry` snapshot — the unified
        view the observability layer exposes on top of the legacy
        ``planner_stats()`` / ``query_service_stats()`` dicts (which remain
        available unchanged).
        """
        from ..obs.metrics import MetricsRegistry

        from ..datalog.functions import sha1_cache_stats

        registry = MetricsRegistry()
        registry.absorb_counters(self.planner_stats(), prefix="engine.")
        registry.absorb_counters(self.query_service_stats(), prefix="query.")
        for kind, (messages, size) in sorted(self.stats.kind_totals().items()):
            registry.inc("net.messages", messages, kind=kind)
            registry.inc("net.bytes", size, kind=kind)
        # The process-global f_sha1 memo every VID and RID goes through:
        # hits/misses are counters, entries and bound gauges.
        stats = sha1_cache_stats()
        registry.inc("cache.sha1.hits", stats["hits"])
        registry.inc("cache.sha1.misses", stats["misses"])
        registry.set_gauge("cache.sha1.entries", stats["entries"])
        registry.set_gauge("cache.sha1.limit", stats["limit"])
        # Storage-backend counters, only when a persistent backend is in
        # play: the memory default emits nothing here, keeping the default
        # metrics snapshot (and golden shell transcripts) byte-identical.
        if self.storage.persistent:
            storage_stats = self.storage.stats()
            for key in (
                "journal_appends",
                "journal_pending",
                "flushes",
                "flushed_ops",
                "cancelled_ops",
                "sql_queries",
                "checkpoints",
                "restores",
            ):
                registry.inc(f"cache.storage.{key}", storage_stats.get(key, 0))
            registry.set_gauge("cache.storage.rows", storage_stats["rows"])
        # Fault/transport counters, only when an injector is installed:
        # fault-free runs (the default) emit nothing here, keeping the
        # default metrics snapshot and golden transcripts byte-identical.
        injector = self.network.fault_injector
        if injector is not None:
            registry.absorb_counters(injector.stats(), prefix="fault.")
        registry.set_gauge("sim.now", self.simulator.now)
        registry.set_gauge("sim.events_executed", self.simulator.events_executed)
        # Deep copy so a service client polling metrics can never reach the
        # registry's internals through shared sub-dicts.
        return copy.deepcopy(registry.snapshot())
