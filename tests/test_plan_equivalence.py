"""Engine-level equivalence: the engine must match its oracles bit-for-bit.

The engine (greedy plans, batched drain, closure-compiled and generated
executors) is compared against the two interpreters in ``tests/oracle/``:

* :class:`~oracle.NestedLoopEngine` (left-to-right nested loops over full
  scans).  Planning may only change *how many tuples are scanned*, never
  what is derived.
* :class:`~oracle.InterpretedEngine` (one delta at a time, term trees
  walked over the planner's join order).  The compiled executors may only
  change dispatch cost, never processing order or any counter.

Fixpoints, provenance tables (prov / ruleExec with their VIDs), and
value-based annotations all feed the paper's results and must be identical
across every combination — including equal-cost tie-breaks, which depend
on row enumeration order, and under ``PYTHONHASHSEED`` variation.

Covered here for all three protocols (MINCOST, PATHVECTOR, PACKETFORWARD):
steady-state fixpoints, churn (link deletion cascades, figs 9/10),
reference-based provenance, value-based polynomial annotations, and
randomized insert/delete/refresh interleavings (hypothesis).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExspanConfig,
    ExspanNetwork,
    ProvenanceMode,
    QueryRequest,
    polynomial_query,
)
from repro.datalog import Fact, StandaloneNetwork
from repro.datalog.engine import AnnotationPolicy, NDlogEngine
from repro.datalog.parser import parse_program
from repro.net import ring_topology
from repro.protocols import (
    mincost_program,
    packet_event,
    packetforward_program,
    pathvector_program,
)

from oracle import ENGINES, NestedLoopEngine, built_with

#: The nested-loop oracle and the planned engine.
PLANNERS = {"naive": NestedLoopEngine, "greedy": NDlogEngine}


def _standalone_snapshot(net: StandaloneNetwork) -> dict:
    names = set()
    for engine in net.engines.values():
        names.update(engine.catalog.names())
    return {name: net.all_rows(name) for name in sorted(names)}


def _run_standalone(program, planner: str, topology, deletions=()):
    with built_with(PLANNERS[planner]):
        net = StandaloneNetwork(topology.nodes, program)
    for source, destination, cost in topology.link_facts():
        net.insert(Fact("link", (source, destination, cost)))
    net.run()
    for source, destination, cost in deletions:
        net.delete(Fact("link", (source, destination, cost)))
        net.delete(Fact("link", (destination, source, cost)))
    net.run()
    return net


class TestStandaloneFixpointEquivalence:
    @pytest.mark.parametrize(
        "program_factory", [mincost_program, pathvector_program]
    )
    def test_steady_state_fixpoints_are_identical(self, program_factory):
        topology = ring_topology(10, seed=3)
        snapshots = {}
        for planner in PLANNERS:
            net = _run_standalone(program_factory(), planner, topology)
            snapshots[planner] = _standalone_snapshot(net)
        assert snapshots["naive"] == snapshots["greedy"]
        assert len(snapshots["greedy"]["bestPathCost"]) == 10 * 9  # every pair routed

    @pytest.mark.parametrize(
        "program_factory",
        [lambda: mincost_program(max_cost=16), pathvector_program],
    )
    def test_deletion_cascades_are_identical(self, program_factory):
        topology = ring_topology(8, seed=5)
        # delete one ring link: the network stays connected, routes shift
        source, destination, cost = topology.link_facts()[0]
        snapshots = {}
        for planner in PLANNERS:
            net = _run_standalone(
                program_factory(),
                planner,
                topology,
                deletions=[(source, destination, cost)],
            )
            snapshots[planner] = _standalone_snapshot(net)
        assert snapshots["naive"] == snapshots["greedy"]

    def test_packetforward_deliveries_are_identical(self):
        topology = ring_topology(8, seed=7)
        program = pathvector_program().extended(
            packetforward_program(), name="pv+fwd"
        )
        snapshots = {}
        for planner in PLANNERS:
            net = _run_standalone(program, planner, topology)
            for index, node in enumerate(topology.nodes):
                target = topology.nodes[(index + 3) % len(topology.nodes)]
                net.insert(packet_event(node, node, target, f"payload-{index}"))
            net.run()
            snapshots[planner] = _standalone_snapshot(net)
        assert snapshots["naive"] == snapshots["greedy"]
        assert len(snapshots["greedy"]["recvPacket"]) == len(topology.nodes)


def _network_snapshot(network: ExspanNetwork) -> dict:
    tables = set()
    for node in network.nodes.values():
        tables.update(node.engine.catalog.names())
    snapshot = {}
    for table in sorted(tables):
        snapshot[table] = sorted(network.tuples(table), key=repr)
    return snapshot


class TestProvenanceEquivalence:
    @pytest.mark.parametrize(
        "program_factory,queried",
        [
            (mincost_program, "bestPathCost"),
            (pathvector_program, "bestPathCost"),
        ],
    )
    def test_reference_provenance_and_query_results_match(
        self, program_factory, queried
    ):
        results = {}
        for planner, engine_class in PLANNERS.items():
            with built_with(engine_class):
                network = ExspanNetwork(
                    ring_topology(8, seed=11),
                    program_factory(),
                    config=ExspanConfig(mode=ProvenanceMode.REFERENCE),
                )
            network.seed_links()
            network.run_to_fixpoint()
            snapshot = _network_snapshot(network)
            # query the provenance polynomial of a deterministic tuple
            row = snapshot[queried][0]
            outcome = network.execute(
                QueryRequest(Fact(queried, row[1]), polynomial_query(name=f"poly-{planner}"))
            )
            results[planner] = (snapshot, str(outcome.result))
        naive_snapshot, naive_poly = results["naive"]
        greedy_snapshot, greedy_poly = results["greedy"]
        assert naive_snapshot == greedy_snapshot  # includes prov / ruleExec VIDs
        assert naive_poly == greedy_poly

    def test_value_based_annotations_match(self):
        results = {}
        for planner, engine_class in PLANNERS.items():
            with built_with(engine_class):
                network = ExspanNetwork(
                    ring_topology(6, seed=13),
                    mincost_program(),
                    config=ExspanConfig(mode=ProvenanceMode.VALUE, value_policy="polynomial"),
                )
            network.seed_links()
            network.run_to_fixpoint()
            annotations = {}
            for address, node in sorted(network.nodes.items(), key=repr):
                engine = node.engine
                for row in engine.table_rows("bestPathCost"):
                    annotation = engine.annotation_of(Fact("bestPathCost", row))
                    annotations[(address, row)] = str(annotation)
            results[planner] = (_network_snapshot(network), annotations)
        assert results["naive"] == results["greedy"]


def _standalone(engine_class, program, topology):
    with built_with(engine_class):
        return StandaloneNetwork(topology.nodes, program)


class TestBatchedPipelineEquivalence:
    """The engine vs :class:`~oracle.InterpretedEngine`: byte-identical.

    The interpreter exists so this sweep can prove the batched drain and
    the compiled/generated executors change nothing but wall-clock.
    """

    @pytest.mark.parametrize(
        "program_factory",
        [mincost_program, pathvector_program],
        ids=["mincost", "pathvector"],
    )
    def test_fixpoints_identical_across_pipelines(self, program_factory):
        topology = ring_topology(10, seed=3)
        snapshots = {}
        for name, engine_class in ENGINES.items():
            net = _standalone(engine_class, program_factory(), topology)
            for source, destination, cost in topology.link_facts():
                net.insert(Fact("link", (source, destination, cost)))
            net.run()
            snapshots[name] = (_standalone_snapshot(net), net.planner_stats())
        # Same fixpoints AND the same evaluation counters: compiling must not
        # change tuples_scanned / index_lookups (they feed BENCH artifacts).
        assert snapshots["compiled"] == snapshots["interpreted"]

    @pytest.mark.parametrize(
        "program_factory",
        [lambda: mincost_program(max_cost=16), pathvector_program],
        ids=["mincost", "pathvector"],
    )
    def test_churn_cascades_identical_across_pipelines(self, program_factory):
        """The figs 9/10 workload shape: insert, fixpoint, delete, refixpoint."""
        topology = ring_topology(8, seed=5)
        source, destination, cost = topology.link_facts()[0]
        snapshots = {}
        for name, engine_class in ENGINES.items():
            net = _standalone(engine_class, program_factory(), topology)
            for s, d, c in topology.link_facts():
                net.insert(Fact("link", (s, d, c)))
            net.run()
            net.delete(Fact("link", (source, destination, cost)))
            net.delete(Fact("link", (destination, source, cost)))
            net.run()
            snapshots[name] = _standalone_snapshot(net)
        assert snapshots["compiled"] == snapshots["interpreted"]

    def test_packetforward_identical_across_pipelines(self):
        topology = ring_topology(8, seed=7)
        program = pathvector_program().extended(
            packetforward_program(), name="pv+fwd"
        )
        snapshots = {}
        for name, engine_class in ENGINES.items():
            net = _standalone(engine_class, program, topology)
            for s, d, c in topology.link_facts():
                net.insert(Fact("link", (s, d, c)))
            net.run()
            for index, node in enumerate(topology.nodes):
                target = topology.nodes[(index + 3) % len(topology.nodes)]
                net.insert(packet_event(node, node, target, f"payload-{index}"))
            net.run()
            snapshots[name] = _standalone_snapshot(net)
        assert snapshots["compiled"] == snapshots["interpreted"]
        assert len(snapshots["compiled"]["recvPacket"]) == len(topology.nodes)

    @pytest.mark.parametrize("mode", [ProvenanceMode.REFERENCE, ProvenanceMode.VALUE])
    def test_provenance_identical_across_pipelines(self, mode):
        """prov / ruleExec VIDs and value annotations match exactly."""
        results = {}
        for name, engine_class in ENGINES.items():
            kwargs = {"value_policy": "polynomial"} if mode is ProvenanceMode.VALUE else {}
            with built_with(engine_class):
                network = ExspanNetwork(
                    ring_topology(8, seed=11),
                    mincost_program(),
                    config=ExspanConfig(mode=mode, **kwargs),
                )
            network.seed_links()
            network.run_to_fixpoint()
            snapshot = _network_snapshot(network)
            annotations = {}
            if mode is ProvenanceMode.VALUE:
                for address, node in sorted(network.nodes.items(), key=repr):
                    engine = node.engine
                    for row in engine.table_rows("bestPathCost"):
                        annotation = engine.annotation_of(Fact("bestPathCost", row))
                        annotations[(address, row)] = str(annotation)
            results[name] = (snapshot, annotations)
        assert results["compiled"] == results["interpreted"]

    def test_equivalence_invariant_under_hash_seed(self):
        """Snapshot digests agree with the interpreter AND across hash seeds."""
        script = (
            "import hashlib, json\n"
            "from repro.datalog import Fact, StandaloneNetwork\n"
            "from repro.core.rewrite import rewrite_program\n"
            "from repro.protocols import pathvector_program\n"
            "from repro.net import ring_topology\n"
            "from oracle import ENGINES, built_with\n"
            "topology = ring_topology(6, seed=2)\n"
            "for engine_class in ENGINES.values():\n"
            "    with built_with(engine_class):\n"
            "        net = StandaloneNetwork(topology.nodes,\n"
            "            rewrite_program(pathvector_program()))\n"
            "    for s, d, c in topology.link_facts():\n"
            "        net.insert(Fact('link', (s, d, c)))\n"
            "    net.run()\n"
            "    names = set()\n"
            "    for engine in net.engines.values():\n"
            "        names.update(engine.catalog.names())\n"
            "    snapshot = {name: [repr(r) for r in net.all_rows(name)]\n"
            "                for name in sorted(names)}\n"
            "    payload = json.dumps(snapshot, sort_keys=True)\n"
            "    print(hashlib.sha256(payload.encode()).hexdigest())\n"
        )
        digests = set()
        for seed in ("0", "1", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
            env["PYTHONPATH"] = os.pathsep.join(
                [
                    os.path.abspath(src_dir),
                    os.path.dirname(os.path.abspath(__file__)),  # the oracle
                    env.get("PYTHONPATH", ""),
                ]
            )
            output = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.split()
            assert len(output) == 2
            digests.update(output)
        # one digest: engine and interpreter, all three hash seeds, same bytes
        assert len(digests) == 1


class _MergeCountPolicy(AnnotationPolicy):
    """Deterministic annotation policy exercising merge + refresh cascades."""

    propagate_updates = True

    def base(self, fact):
        return frozenset({str(fact)})

    def combine(self, rule, body_annotations, node):
        combined = frozenset()
        for annotation in body_annotations:
            if annotation:
                combined |= annotation
        return combined

    def merge(self, existing, new):
        return existing | new

    def size(self, annotation):
        return sum(len(item) for item in annotation)


_PROPERTY_PROGRAM = """
    r1 mid(@S,D) :- red(@S,D).
    r2 mid(@S,D) :- blue(@S,D).
    r3 top(@S,D) :- mid(@S,D).
"""

_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "refresh"]),
        st.sampled_from(["red", "blue"]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=24,
)


class TestRandomInterleavings:
    @settings(max_examples=40, deadline=None)
    @given(operations=_ops)
    def test_batched_equals_delta_on_random_interleavings(self, operations):
        """Random insert/delete/refresh sequences agree with the interpreter."""
        states = {}
        for name, engine_class in ENGINES.items():
            engine = engine_class(
                "n",
                parse_program(_PROPERTY_PROGRAM),
                annotation_policy=_MergeCountPolicy(),
            )
            for action, relation, key in operations:
                fact = Fact(relation, ("n", f"d{key}"))
                if action == "insert":
                    engine.insert(fact)
                elif action == "delete":
                    engine.delete(fact)
                else:
                    # A refresh racing ahead of (or following) inserts; the
                    # annotation carries the op index via the fact itself.
                    from repro.datalog.engine import Delta, REFRESH

                    engine.enqueue(
                        Delta(REFRESH, fact, frozenset({f"r:{relation}:{key}"}))
                    )
                engine.run()
            tables = {
                name: engine.table_rows(name)
                for name in ("red", "blue", "mid", "top")
            }
            annotations = {
                (name, row): str(engine.annotation_of(Fact(name, row)))
                for name in ("mid", "top")
                for row in engine.table_rows(name)
            }
            states[name] = (tables, annotations, dict(engine.stats))
        assert states["compiled"] == states["interpreted"]

    @settings(max_examples=40, deadline=None)
    @given(operations=_ops)
    def test_pipelines_agree_without_a_policy(self, operations):
        """No annotation policy: the engine applies singletons in its run loop.

        One ``run()`` per operation keeps every delta a singleton, so the
        engine takes its fused apply-and-fire path throughout; the
        interpreter stays the oracle for it (tests/test_engine_dispatch.py
        probes the same path with keyed tables, events, joins and
        listeners).
        """
        from repro.datalog.engine import Delta, REFRESH

        states = {}
        for name, engine_class in ENGINES.items():
            engine = engine_class("n", parse_program(_PROPERTY_PROGRAM))
            for action, relation, key in operations:
                fact = Fact(relation, ("n", f"d{key}"))
                if action == "insert":
                    engine.insert(fact)
                elif action == "delete":
                    engine.delete(fact)
                else:
                    engine.enqueue(Delta(REFRESH, fact))
                engine.run()
            states[name] = (
                {
                    table: engine.catalog.table(table).rows_with_counts()
                    for table in ("red", "blue", "mid", "top")
                },
                dict(engine.stats),
            )
        assert states["compiled"] == states["interpreted"]


class TestScanReduction:
    def test_planner_scans_at_least_2x_fewer_tuples_on_pathvector(self):
        """The acceptance bar: >= 2x fewer tuples scanned on path-vector."""
        topology = ring_topology(12, seed=1)
        scanned = {}
        for planner in PLANNERS:
            net = _run_standalone(pathvector_program(), planner, topology)
            scanned[planner] = net.planner_stats()["tuples_scanned"]
        assert scanned["greedy"] * 2 <= scanned["naive"]

    def test_stats_expose_planner_counters(self):
        net = _run_standalone(
            pathvector_program(), "greedy", ring_topology(6, seed=2)
        )
        stats = net.planner_stats()
        assert stats["plans_compiled"] > 0
        assert stats["indexes_registered"] > 0
        assert stats["index_lookups"] > 0
        assert stats["tuples_scanned"] > 0
