"""Engine-level equivalence: the engine must match its oracles bit-for-bit.

The engine (static plans, one delta at a time, one generated executor per plan)
is compared against the two interpreters in ``tests/oracle/``:

* :class:`~oracle.NestedLoopEngine` (left-to-right nested loops over full
  scans).  Planning may only change *how many tuples are scanned*, never
  what is derived.
* :class:`~oracle.InterpretedEngine` (one delta at a time, term trees
  walked over the planner's join order).  The generated executor may only
  change dispatch cost, never processing order or any counter.

Fixpoints, provenance tables (prov / ruleExec with their VIDs), and
value-based annotations all feed the paper's results and must be identical
across every combination — including equal-cost tie-breaks, which depend
on row enumeration order, and under ``PYTHONHASHSEED`` variation.

Covered here for all three protocols (MINCOST, PATHVECTOR, PACKETFORWARD):
steady-state fixpoints, churn (link deletion cascades, figs 9/10),
reference-based provenance, value-based polynomial annotations, and
randomized insert/delete/refresh interleavings (hypothesis).  Beyond the
shipped programs, random small programs (multi-step joins, pushed-down
conditions, aggregates, recursion) are checked against both oracles, and
a table of rules whose literals or heads raise must raise the same error
(or derive the same rows) under all three engines.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
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
from repro.datalog.functions import FunctionRegistry, default_registry
from repro.datalog.parser import parse_program
from repro.net import ring_topology
from repro.protocols import (
    mincost_program,
    packet_event,
    packetforward_program,
    pathvector_program,
)

from oracle import ENGINES, InterpretedEngine, NestedLoopEngine, built_with, table_state
from helpers import annotation_of, delete, table_rows

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
        delete(net, Fact("link", (source, destination, cost)))
        delete(net, Fact("link", (destination, source, cost)))
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
                for row in table_rows(engine, "bestPathCost"):
                    annotation = annotation_of(engine, Fact("bestPathCost", row))
                    annotations[(address, row)] = str(annotation)
            results[planner] = (_network_snapshot(network), annotations)
        assert results["naive"] == results["greedy"]


def _standalone(engine_class, program, topology):
    with built_with(engine_class):
        return StandaloneNetwork(topology.nodes, program)


class TestBatchedPipelineEquivalence:
    """The engine vs :class:`~oracle.InterpretedEngine`: byte-identical.

    The interpreter exists so this sweep can prove the batched drain and
    the generated executors change nothing but wall-clock.
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
            delete(net, Fact("link", (source, destination, cost)))
            delete(net, Fact("link", (destination, source, cost)))
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
                    for row in table_rows(engine, "bestPathCost"):
                        annotation = annotation_of(engine, Fact("bestPathCost", row))
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
                name: table_rows(engine, name)
                for name in ("red", "blue", "mid", "top")
            }
            annotations = {
                (name, row): str(annotation_of(engine, Fact(name, row)))
                for name in ("mid", "top")
                for row in table_rows(engine, name)
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


#: Base relations of the random programs (name -> arity), plus ``d``: derived
#: by one rule and read back by a recursive one.  Every argument after the
#: location holds a small int, so no literal can raise and recursion stays
#: inside a finite domain.
_BASE = {"e": 3, "f": 3, "g": 2}
_VALUES = st.integers(min_value=0, max_value=2)


@st.composite
def _body(draw, relations):
    """Body atoms (constants, repeats, wildcards), then assignments/conditions.

    Returns ``(literals, atom_vars, assigned)``; literals read only bound
    variables, so the rule is safe, and a condition over the variables of
    the first few atoms is what the planner pushes down.
    """
    atoms, atom_vars = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        name = draw(st.sampled_from(relations))
        args = ["@A"]
        for _ in range({**_BASE, "d": 3}[name] - 1):
            arg = draw(st.sampled_from(["X", "Y", "Z", "W", "X", "Y", "_", "0", "1"]))
            args.append(arg)
            if arg.isalpha() and arg not in atom_vars:
                atom_vars.append(arg)
        atoms.append(f"{name}({', '.join(args)})")
    literals, readable, assigned = [], list(atom_vars) or ["A"], []
    operand = st.sampled_from(readable + readable + ["0", "1", "2"])
    for index in range(draw(st.integers(min_value=0, max_value=2))):
        left, right = draw(operand), draw(operand)
        if readable == ["A"] or draw(st.booleans()):
            op = draw(st.sampled_from(["<", "<=", ">", "!=", "=="]))
            literals.append(f"{left} {op} {right}")
        else:
            target = ("P", "Q")[index]
            op = draw(st.sampled_from(["+", "-", "*"]))
            literals.append(f"{target} = {left} {op} {right}")
            assigned.append(target)
    if readable == ["A"]:  # "A" is a string: compare nothing against it
        literals = []
        assigned = []
    return atoms + literals, atom_vars, assigned


@st.composite
def _programs(draw):
    """1-3 rules with plain or MIN/MAX/COUNT heads, plus d's base and recursive rule."""
    rules = []
    relations = [*_BASE, "d"]
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        body, atom_vars, assigned = draw(_body(relations))
        head_vars = atom_vars + assigned or ["0"]
        kind = draw(st.sampled_from(["plain", "plain", "min", "max", "count"]))
        group = draw(st.sampled_from(head_vars))
        if kind == "plain":
            other = draw(st.sampled_from(head_vars))
            head = f"o{index}(@A, {group}, {other})"
        elif kind == "count":
            head = f"o{index}(@A, {group}, count<*>)"
        else:
            value = draw(st.sampled_from(atom_vars + assigned or ["A"]))
            head = f"o{index}(@A, {group}, {kind}<{value}>)"
        rules.append(f"r{index} {head} :- {', '.join(body)}.")
    base, base_vars, _ = draw(_body(list(_BASE)))
    recursive, rec_vars, _ = draw(_body(relations))
    recursive = ["d(@A, X, Y)", *recursive]
    for label, body, names in (
        ("dbase", base, base_vars or ["0"]),
        ("drec", recursive, rec_vars + ["X", "Y"]),
    ):
        first, second = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        rules.append(f"{label} d(@A, {first}, {second}) :- {', '.join(body)}.")
    return "\n".join(rules)


_SCRIPTS = st.lists(
    st.one_of(
        st.just(("run",)),
        st.tuples(
            st.sampled_from(["insert", "insert", "delete"]),
            st.sampled_from(sorted(_BASE)),
            st.lists(_VALUES, min_size=2, max_size=2),
        ),
    ),
    min_size=4,
    max_size=30,
)


def _support(annotation):
    """The base rows an annotation of :class:`_RecordingPolicy` names, sorted."""
    if isinstance(annotation, str):
        return (annotation,)
    if annotation[0] == "+":
        parts = [_support(alternative) for alternative in annotation[1]]
    else:
        parts = annotation[1]
    return tuple(sorted({base for part in parts for base in part}))


class _RecordingPolicy(AnnotationPolicy):
    """Order-sensitive annotations in a finite lattice.

    ``combine`` records the rule and, per body atom *in body order*, the
    base rows below it; ``merge`` keeps the sorted distinct alternatives.
    A wrong body order, a wrong input row or a missing refresh changes the
    annotation, and recursion with ``propagate_updates`` still converges
    (a body annotation enters a combination as its support, not nested).
    """

    def __init__(self, propagate_updates: bool):
        self.propagate_updates = propagate_updates

    def base(self, fact):
        return f"{fact.name}{fact.values}"

    def combine(self, rule, body_annotations, node):
        return (rule.label, tuple(_support(annotation) for annotation in body_annotations))

    def merge(self, existing, new):
        alternatives = {
            alternative
            for annotation in (existing, new)
            for alternative in (annotation[1] if annotation[0] == "+" else (annotation,))
        }
        return ("+", tuple(sorted(alternatives, key=repr)))

    def size(self, annotation):
        return len(repr(annotation))


#: Engine configurations of the random-program oracle: no policy (the
#: fused path), and an annotation policy without and with refresh
#: propagation.
_MODES = ["lean", "valued", "valued-propagating"]


def _play(engine_class, program_text, script, mode):
    policy = None
    if mode.startswith("valued"):
        policy = _RecordingPolicy(propagate_updates=mode == "valued-propagating")
    engine = engine_class("n", parse_program(program_text), annotation_policy=policy)
    for step in script:
        if step[0] == "run":
            engine.run()
            continue
        action, relation, values = step
        fact = Fact(relation, ("n", *values[: _BASE[relation] - 1]))
        getattr(engine, action)(fact)
    engine.run()
    return engine


def _annotations(engine):
    return {
        (name, row): annotation_of(engine, Fact(name, row))
        for name in sorted(engine.catalog.names())
        for row in table_rows(engine, name)
    }


class TestRandomPrograms:
    """Random small programs: the generated executor against both oracles."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(program_text=_programs(), script=_SCRIPTS)
    # The planner joins g(@A, 0) before g(@A, _): annotations combine in
    # body order, not join order.
    @example(
        program_text="r0 o0(@A, X, X) :- e(@A, X, X).\n"
        "dbase d(@A, X, X) :- f(@A, X, X), g(@A, _), g(@A, 0).\n"
        "drec d(@A, X, X) :- d(@A, X, Y), e(@A, X, X).",
        script=[("insert", "f", [0, 0]), ("insert", "g", [0, 0])],
    )
    # A self-join row other than the trigger row keeps its own annotation.
    @example(
        program_text="r0 o0(@A, X, X) :- f(@A, X, X), f(@A, Y, Y).\n"
        "dbase d(@A, X, X) :- e(@A, X, X).\n"
        "drec d(@A, X, X) :- d(@A, X, Y), e(@A, X, X).",
        script=[("insert", "f", [0, 0]), ("insert", "f", [1, 1])],
    )
    # A second derivation of e refreshes d, whose refresh reaches d again.
    @example(
        program_text="r0 o0(@A, X, X) :- e(@A, X, X).\n"
        "dbase d(@A, X, X) :- e(@A, X, X).\n"
        "drec d(@A, X, X) :- d(@A, X, Y), e(@A, X, X).",
        script=[("insert", "e", [0, 0]), ("insert", "e", [0, 0])],
    )
    @pytest.mark.parametrize("mode", _MODES)
    def test_random_programs_match_both_oracles(self, mode, program_text, script):
        engine = _play(NDlogEngine, program_text, script, mode)
        interpreted = _play(InterpretedEngine, program_text, script, mode)
        naive = _play(NestedLoopEngine, program_text, script, mode)
        names = sorted(engine.catalog.names())
        assert names == sorted(interpreted.catalog.names())
        for name in names:
            assert table_state(engine.catalog.table(name)) == table_state(
                interpreted.catalog.table(name)
            ), name
        # A counter the run loop touched but never bumped reads 0: same count.
        assert {k: v for k, v in engine.stats.items() if v} == {
            k: v for k, v in interpreted.stats.items() if v
        }
        assert _annotations(engine) == _annotations(interpreted)
        for name in sorted({*names, *naive.catalog.names()}):
            assert table_rows(engine, name) == table_rows(naive, name), name


#: One rule plus its inserts per row: every engine must raise the same
#: (type, message) or derive the same rows.  Generated code raises raw
#: Python errors; the replay must turn them into the interpreter's.
_ERROR_CASES = {
    "unknown-function-assignment": (
        "r1 out(@S,Z) :- a(@S,Y), Z = f_nosuch(Y).",
        [("a", ("n", 1))],
    ),
    "type-error-assignment": ('r1 out(@S,Z) :- a(@S,Y), Z = Y - "s".', [("a", ("n", 1))]),
    "type-error-condition": ('r1 out(@S,Y) :- a(@S,Y), Y < "s".', [("a", ("n", 1))]),
    "division-by-zero-condition": ("r1 out(@S,Y) :- a(@S,Y), Y / 0 > 1.", [("a", ("n", 1))]),
    # The condition is pushed down before the join with b: an error there
    # defers to finalization, which an empty b never reaches.
    "pushed-down-error-no-match": (
        "r1 out(@S,Y,Z) :- a(@S,Y), Y / 0 > 1, b(@S,Z).",
        [("a", ("n", 1))],
    ),
    "pushed-down-error-match": (
        "r1 out(@S,Y,Z) :- a(@S,Y), Y / 0 > 1, b(@S,Z).",
        [("b", ("n", 5)), ("a", ("n", 1))],
    ),
    "aggregate-group-key": ("r1 out(@S,Y % 0,min<Y>) :- a(@S,Y).", [("a", ("n", 1))]),
    "head-expression": ("r1 out(@S,Y / 0) :- a(@S,Y).", [("a", ("n", 1))]),
    "subtraction-type-error": ("r1 out(@S,Z) :- a(@S,Y), Z = 0 - Y.", [("a", ("n", "s"))]),
}


def _outcome(engine_class, program_text, inserts):
    engine = engine_class("n", parse_program(program_text))
    for name, values in inserts:
        engine.insert(Fact(name, values))
    try:
        engine.run()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return {name: table_rows(engine, name) for name in sorted(engine.catalog.names())}


@pytest.mark.parametrize("case", sorted(_ERROR_CASES))
def test_errors_are_exact_across_engines(case):
    program_text, inserts = _ERROR_CASES[case]
    outcomes = [
        _outcome(engine_class, program_text, inserts)
        for engine_class in (NDlogEngine, InterpretedEngine, NestedLoopEngine)
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("mode", ["lean", "valued"])
def test_a_replayed_finalization_emits_as_the_generated_one(mode):
    """A builtin that raises only under generated code forces every match
    through the replay, whose result the generated emission then routes:
    plain and aggregate heads, with and without a policy."""
    program_text = (
        "r1 hop(@S,D,Z) :- link(@S,D,C), Z = f_half(C).\n"
        "r2 best(@S,min<W>) :- hop(@S,D,Z), link(@S,D,C), W = Z + f_half(C)."
    )

    replayed = []

    def half(args):
        if sys._getframe(1).f_code.co_filename.startswith("<plan "):
            replayed.append(args)
            raise RuntimeError("only the interpreter may call this")
        return args[0] // 2

    script = [("insert", "link", ("n", "a", 4)), ("insert", "link", ("n", "b", 2))]
    script += [("delete", "link", ("n", "b", 2)), ("insert", "link", ("n", "b", 8))]
    states = {}
    for name, engine_class in ENGINES.items():
        policy = _RecordingPolicy(propagate_updates=False) if mode == "valued" else None
        functions = FunctionRegistry({**default_registry()._functions, "f_half": half})
        engine = engine_class(
            "n", parse_program(program_text), annotation_policy=policy, functions=functions
        )
        for action, relation, values in script:
            getattr(engine, action)(Fact(relation, values))
            engine.run()
        states[name] = (
            {table: table_state(engine.catalog.table(table)) for table in ("hop", "best")},
            dict(engine.stats),
            _annotations(engine),
        )
    assert states["compiled"] == states["interpreted"]
    assert replayed and states["compiled"][0]["best"][0] == [(("n", 4), 1)]


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
