"""The engine's fast paths equal the queued oracle, :class:`~oracle.InterpretedEngine`.

The engine pays for a derivation's rows once: a table row is a
plain tuple with its count in the table's dict, a *sink* table (a
materialised predicate no rule reads) is applied where its row is emitted,
generated code probes the ``f_sha1`` memo inline, and aggregate heads
emit from the generated code.  None of it may be observable.  The interpreter queues
every row, so it is the oracle for:

* every table's rows with counts in insertion order, its primary-key map
  and every index bucket in order;
* every table's update-listener sequence (the interleaving *across*
  tables may differ: a sink row is announced when it is emitted);
* the ordered ``(source, destination, action, fact)`` sends;
* ``engine.stats`` and the ``f_sha1`` / VID memo counters.

Derandomized: tier-1 must not flake.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode
from repro.core.vid import clear_vid_caches
from repro.datalog import Fact, StandaloneNetwork, TableDecl
from repro.datalog.engine import INSERT, AnnotationPolicy, Delta, NDlogEngine
from repro.datalog.functions import sha1_cache_stats
from repro.datalog.parser import parse_program
from repro.net.topology import grid_topology, ring_topology, transit_stub_topology
from repro.obs import Tracer
from repro.protocols import (
    mincost_program,
    packet_event,
    packetforward_program,
    pathvector_program,
)

from oracle import ENGINES, InterpretedEngine, NestedLoopEngine, built_with
from helpers import delete, table_state

PROPERTY = settings(derandomize=True, max_examples=4, deadline=None)


class Observer:
    """Every table's update-listener sequence and every send, in order."""

    def __init__(self, engines):
        self.updates = defaultdict(list)
        self.sends = []
        for engine in engines:
            self.attach(engine)

    def attach(self, engine: NDlogEngine) -> None:
        address = engine.address

        def listener(action, fact):
            self.updates[(address, fact.name)].append((action, fact))

        engine.add_update_listener(listener)
        send = engine._send

        def observed_send(destination, delta):
            self.sends.append((address, destination, delta.action, delta.fact))
            send(destination, delta)

        engine.set_send(observed_send)


def observed_state(engines, observer):
    memo = sha1_cache_stats()
    return {
        "tables": {
            engine.address: {
                name: table_state(engine.catalog.table(name))
                for name in engine.catalog.names()
            }
            for engine in engines
        },
        "stats": {engine.address: dict(engine.stats) for engine in engines},
        "updates": dict(observer.updates),
        "sends": observer.sends,
        "memo": (memo["hits"], memo["misses"]),
    }


def assert_all_equal_delta(states):
    for part in states["interpreted"]:
        assert states["compiled"][part] == states["interpreted"][part], part


# ---------------------------------------------------------------------- #
# the protocols, end to end
# ---------------------------------------------------------------------- #
PROGRAMS = {
    "mincost": lambda: mincost_program(max_cost=16),
    "pathvector": pathvector_program,
    "packetforward": lambda: pathvector_program().extended(
        packetforward_program(), name="pv+fwd"
    ),
}
TOPOLOGIES = {
    "grid": lambda: grid_topology(2, 3),
    "ring": lambda: ring_topology(5, seed=1),
    "transit-stub": lambda: transit_stub_topology(
        domains=1, transit_per_domain=2, stubs_per_transit=1, nodes_per_stub=2, seed=0
    ),
}
MODES = {"ref": ProvenanceMode.REFERENCE, "value": ProvenanceMode.VALUE}

script = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["flap", "down", "up"]), st.integers(0, 99)),
        st.tuples(st.just("cost"), st.integers(0, 99), st.integers(1, 4)),
        st.tuples(st.just("packet"), st.integers(0, 99), st.integers(0, 99)),
    ),
    min_size=1,
    max_size=5,
)


def drive(program, mode, topology_factory, ops, engine_class):
    clear_vid_caches()
    topology = topology_factory()
    links = sorted((a, b) for a, b, _ in topology.links())
    with built_with(engine_class):
        network = ExspanNetwork(topology, PROGRAMS[program](), config=ExspanConfig(mode=mode))
    engines = [node.engine for node in network.nodes.values()]
    observer = Observer(engines)
    network.seed_links()
    network.run_to_fixpoint()
    nodes = sorted(network.nodes)
    for op in ops:
        a, b = links[op[1] % len(links)]
        if op[0] in ("flap", "down") and topology.has_link(a, b):
            cost = topology.link(a, b).cost
            network.remove_link(a, b)
            if op[0] == "flap":
                network.run_to_fixpoint()
                network.add_link(a, b, cost)
        elif op[0] in ("flap", "up"):
            network.add_link(a, b, 1)
        elif op[0] == "cost":  # primary-key replacement of one direction
            network.insert_fact(Fact("link", (a, b, op[2])))
        elif program == "packetforward":
            source = nodes[op[1] % len(nodes)]
            target = nodes[op[2] % len(nodes)]
            network.insert_fact(packet_event(source, source, target, f"p{op[2]}"))
        network.run_to_fixpoint()
    return observed_state(engines, observer)


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("program", PROGRAMS)
@PROPERTY
@given(ops=script)
def test_protocols_equal_the_queued_oracle(program, mode, topology, ops):
    states = {
        name: drive(program, MODES[mode], TOPOLOGIES[topology], ops, engine_class)
        for name, engine_class in ENGINES.items()
    }
    assert_all_equal_delta(states)


# ---------------------------------------------------------------------- #
# a hand-written program: every sink shape on one page
# ---------------------------------------------------------------------- #
#: ``best`` is a primary-keyed sink (an ``offer`` at a new cost evicts the
#: old row), ``low`` a MIN aggregate that is itself a sink, ``cheapest`` a
#: MIN aggregate feeding the sink ``cheap``, and ``heard`` a sink derived
#: both locally and from other nodes, whose first remote delta queues it.
HAND_WRITTEN = """
    h0 hop(@S,D,C) :- offer(@S,D,C).
    h1 hop(@S,D,C) :- link(@S,D,C).
    h2 best(@S,D,C) :- hop(@S,D,C).
    h3 low(@S,min<C>) :- hop(@S,D,C).
    h4 cheapest(@S,min<C>) :- link(@S,D,C).
    h5 cheap(@S,C) :- cheapest(@S,C).
    h6 heard(@D,S) :- link(@S,D,C).
    h7 heard(@S,S) :- hop(@S,D,C).
"""
NODES = ("a", "b", "c")


def hand_written():
    """The program, ``link`` and ``best`` keyed on their first two columns."""
    program = parse_program(HAND_WRITTEN)
    program.add_declaration(TableDecl("link", 3, (0, 1)))
    program.add_declaration(TableDecl("best", 3, (0, 1)))
    return program

hand_op = st.one_of(
    st.tuples(
        st.sampled_from(["insert", "insert", "delete"]),
        st.sampled_from(["link", "offer"]),
        st.sampled_from(NODES),
        st.sampled_from(NODES),
        st.integers(1, 3),
    ),
    st.just(("run",)),
)


def drive_hand_written(ops, engine_class):
    clear_vid_caches()
    with built_with(engine_class):
        network = StandaloneNetwork(NODES, hand_written())
    engines = list(network.engines.values())
    observer = Observer(engines)
    for op in ops:
        if op[0] == "run":
            network.run()
        elif op[0] == "insert":
            network.insert(Fact(op[1], op[2:]))
        else:
            delete(network, Fact(op[1], op[2:]))
    network.run()
    return observed_state(engines, observer)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(ops=st.lists(hand_op, min_size=1, max_size=30))
def test_hand_written_sinks_equal_the_queued_oracle(ops):
    states = {name: drive_hand_written(ops, cls) for name, cls in ENGINES.items()}
    assert_all_equal_delta(states)


def test_sinks_are_the_unread_materialised_heads():
    engine = NDlogEngine("a", hand_written())
    assert sorted(engine._sinks) == ["best", "cheap", "heard", "low"]
    engine.receive(Delta(INSERT, Fact("heard", ("a", "b"))))  # a sink while none queued
    assert sorted(engine._sinks) == ["best", "cheap", "low"]
    engine.load_program(parse_program("h8 seen(@S,D) :- best(@S,D,C)."))
    assert sorted(engine._sinks) == ["cheap", "low", "seen"]
    engine.tracer = Tracer()  # a tracer keeps the sinks
    assert sorted(engine._sinks) == ["cheap", "low", "seen"]
    engine.run()
    engine.load_program(parse_program("h9 unseen(@S,D) :- seen(@S,D)."))
    assert sorted(engine._sinks) == ["cheap", "heard", "low", "unseen"]
    policy = {"annotation_policy": AnnotationPolicy()}
    assert NDlogEngine("a", hand_written(), **policy)._sinks == {}
    for oracle_class in (InterpretedEngine, NestedLoopEngine):
        assert oracle_class("a", hand_written())._sinks == {}
