"""Values are hashable from birth: the list builtins return tuples, so every
delta the engine enqueues or ships carries a value tuple that hashes as it
is — rows, memo keys and index keys never need freezing — and only facts
handed in from outside are frozen, once, at the engine boundary."""

from __future__ import annotations

import hashlib
import json
from collections import deque

import pytest

from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode
from repro.datalog import Fact, parse_program
from repro.net import ring_topology
from repro.net.sharding import collect_digest
from repro.protocols import (
    mincost_program,
    packet_event,
    packetforward_program,
    pathvector_program,
)

from oracle import ENGINES

PROGRAMS = {
    "mincost": mincost_program,
    "pathvector": pathvector_program,
    "packetforward": lambda: pathvector_program().extended(
        packetforward_program(), name="pv+fwd"
    ),
}

#: sha256 of the canonical per-node state (tables, annotations, counters)
#: after the fixpoint + 5 flaps below, recorded on the commit *before* the
#: list builtins returned tuples: the change is invisible in every result.
GOLDEN_DIGESTS = {
    ("mincost", "reference"): (
        "77fa6f49a7e40bf23fffcc772d82d2b136959ae02834ce9e2755a0a8d643352b"
    ),
    ("mincost", "value"): (
        "da3bbf93464a8cfd15293541b4b4d230bcbbf0b509cade34ca3fd36e819443c5"
    ),
    ("pathvector", "reference"): (
        "0dcdd6e3e9090bd364fd186e5debad223044e1626445bdbcac3c4cde6149d4f1"
    ),
    ("pathvector", "value"): (
        "d6db2e6ccdd86baa0bb0b3914f4655943c394bc9c85f15fb4cbc3c7cce84e90a"
    ),
    ("packetforward", "reference"): (
        "83fd2b90bc610e2d5fb61db7d99ba9b60472ce72dddbd8bd4a864ad0553d16b8"
    ),
    ("packetforward", "value"): (
        "aec7decec8f13e9f282190f4c830fd3a3ed84f482d35f3f4ad805b05c4c22461"
    ),
}


class _HashingQueue(deque):
    """An engine queue that hashes the values of every delta it is handed."""

    def append(self, delta):
        hash(delta.fact.values)
        super().append(delta)


def _watch(network: ExspanNetwork) -> None:
    for node in network.nodes.values():
        engine = node.engine
        engine._queue = _HashingQueue(engine._queue)
        send = engine._send

        def hashing_send(destination, delta, _send=send):
            hash(delta.fact.values)
            _send(destination, delta)

        engine.set_send(hashing_send)


def churned_network(program: str, mode: ProvenanceMode, watch: bool) -> ExspanNetwork:
    """Fixpoint, five link flaps and (PACKETFORWARD) a packet per node."""
    topology = ring_topology(6, seed=3)
    network = ExspanNetwork(topology, PROGRAMS[program](), config=ExspanConfig(mode=mode))
    if watch:
        _watch(network)
    network.seed_links()
    network.run_to_fixpoint()
    links = sorted((a, b, spec.cost) for a, b, spec in topology.links())[:5]
    for a, b, cost in links:
        network.remove_link(a, b)
        network.run_to_fixpoint()
        network.add_link(a, b, cost)
        network.run_to_fixpoint()
    if program == "packetforward":
        nodes = topology.nodes
        for index, node in enumerate(nodes):
            target = nodes[(index + 2) % len(nodes)]
            network.insert_fact(packet_event(node, node, target, f"payload-{index}"))
        network.run_to_fixpoint()
    return network


def state_digest(network: ExspanNetwork) -> str:
    canonical = json.dumps(
        {repr(address): digest for address, digest in collect_digest(network).items()},
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mode", [ProvenanceMode.REFERENCE, ProvenanceMode.VALUE])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_every_delta_is_hashable_and_state_matches_golden(program, mode):
    network = churned_network(program, mode, watch=True)
    assert network.planner_stats()["deltas_sent"] > 0
    assert state_digest(network) == GOLDEN_DIGESTS[(program, mode.value)]


class TestBoundaryFreeze:
    """Lists and sets handed in from outside are frozen once, on entry."""

    PROGRAM = """
        r1 seen(@N,L) :- t(@N,L).
        r2 copies(@N,L,count<*>) :- t(@N,L).
    """

    @pytest.mark.parametrize("engine_class", ENGINES.values(), ids=ENGINES)
    @pytest.mark.parametrize("value", [["x", "y"], {"y", "x"}, ["x", ["y"]]])
    def test_unhashable_attribute_stores_derives_and_deletes(self, value, engine_class):
        engine = engine_class("a", parse_program(self.PROGRAM))
        engine._queue = _HashingQueue(engine._queue)
        engine.insert(Fact("t", ("a", value)))
        engine.run()
        (stored,) = engine.table_rows("t")
        hash(stored)
        assert engine.table_rows("seen") == [stored]
        assert engine.table_rows("copies") == [stored + (1,)]  # grouped by it
        assert engine.has_fact("t", ("a", value))
        engine.delete(Fact("t", ("a", value)))
        engine.run()
        assert engine.table_rows("t") == []
        assert engine.table_rows("seen") == []

    def test_insert_fact_with_list_attribute_through_the_facade(self):
        network = ExspanNetwork(
            ring_topology(3, seed=1),
            parse_program("r1 seen(@N,L) :- t(@N,L)."),
            config=ExspanConfig(mode=ProvenanceMode.REFERENCE),
        )
        _watch(network)
        node = network.topology.nodes[0]
        fact = Fact("t", (node, ["x", "y"]))
        network.insert_fact(fact)
        assert network.tuples("seen") == [(node, (node, ("x", "y")))]
        network.delete_fact(fact)
        assert network.tuples("seen") == []
        assert network.tuples("t") == []
