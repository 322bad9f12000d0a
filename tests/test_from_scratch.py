"""Incremental maintenance equals recomputation from scratch.

The paper's contract (Section 4.2): after any sequence of link deletions,
insertions and cost changes, each run to quiescence, every relation of
every node — derived routes and the ``prov`` / ``ruleExec`` provenance
alike — holds exactly the rows, with the same derivation counts, that a
network converged from scratch on the final topology holds.

The fixed cases are the ones PATHVECTOR got wrong while ``bestPath``, keyed
on (source, destination), kept whichever equal-cost path arrived last: a
later tie evicted the winner, and retracting the survivor then lost the
route.  ``min<P>`` picks the winner by value instead.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode
from repro.net.topology import (
    Topology,
    grid_topology,
    ring_topology,
    transit_stub_topology,
)
from repro.protocols import mincost_program, pathvector_program

PROGRAMS = {
    "mincost": lambda: mincost_program(max_cost=16),
    "pathvector": pathvector_program,
}


def relations(network: ExspanNetwork) -> Dict[Any, Dict[str, Dict[tuple, int]]]:
    """Every node's tables as ``{name: {row: derivation count}}``."""
    return {
        address: {
            table.name: dict(table.rows_with_counts())
            for table in node.engine.catalog.tables()
            if len(table)
        }
        for address, node in network.nodes.items()
    }


def copy_topology(topology: Topology) -> Topology:
    fresh = Topology(topology.name)
    for node in topology.nodes:
        fresh.add_node(node, kind=topology.node_kind(node))
    for a, b, spec in topology.links():
        fresh.add_link(a, b, spec)
    return fresh


def converged(topology: Topology, program: str) -> ExspanNetwork:
    network = ExspanNetwork(
        topology, PROGRAMS[program](), config=ExspanConfig(mode=ProvenanceMode.REFERENCE)
    )
    network.seed_links()
    network.run_to_fixpoint()
    return network


def assert_equals_from_scratch(network: ExspanNetwork, program: str) -> None:
    fresh = converged(copy_topology(network.topology), program)
    maintained, scratch = relations(network), relations(fresh)
    assert maintained.keys() == scratch.keys()
    for address in maintained:
        assert maintained[address] == scratch[address], address


def test_grid_cut_keeps_every_route():
    network = converged(grid_topology(3, 3), "pathvector")
    network.remove_link("g0_0", "g1_0")
    network.run_to_fixpoint()
    assert_equals_from_scratch(network, "pathvector")


def test_transit_stub_cut_keeps_every_route():
    network = converged(transit_stub_topology(1, 2, 2, 4, seed=0), "pathvector")
    network.remove_link("s0_0_0_0", "s0_0_0_3")
    network.run_to_fixpoint()
    assert_equals_from_scratch(network, "pathvector")


def test_cost_update_replaces_the_winner():
    """``link(g1_1,g1_2,3)`` over cost 1, both directions: key replacement."""
    network = converged(grid_topology(3, 3), "pathvector")
    network.add_link("g1_1", "g1_2", 3)
    network.run_to_fixpoint()
    assert network.topology.link("g1_1", "g1_2").cost == 3
    assert_equals_from_scratch(network, "pathvector")


TOPOLOGIES = {
    "ring": lambda: ring_topology(5, seed=1),
    "grid": lambda: grid_topology(2, 3),
    "transit-stub": lambda: transit_stub_topology(1, 2, 1, 3, seed=0),
}

#: One step on link ``index`` (mod the link count): take it down if it is
#: up, bring it up at ``cost`` if it is down, or move it to ``cost`` in
#: both directions (a primary-key replacement).  A base row is never
#: inserted twice: that is a second derivation, not a topology change.
step = st.tuples(st.sampled_from(["down", "up", "cost"]), st.integers(0, 99), st.integers(1, 3))


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("program", PROGRAMS)
@settings(derandomize=True, max_examples=4, deadline=None)
@given(script=st.lists(step, min_size=1, max_size=4))
def test_any_script_equals_from_scratch(program, topology, script):
    network = converged(TOPOLOGIES[topology](), program)
    live = network.topology
    links = sorted((a, b) for a, b, _ in live.links())
    for action, index, cost in script:
        a, b = links[index % len(links)]
        if not live.has_link(a, b):
            if action == "up":
                network.add_link(a, b, cost)
        elif action == "down":
            network.remove_link(a, b)
        elif action == "cost" and live.link(a, b).cost != cost:
            network.add_link(a, b, cost)
        network.run_to_fixpoint()
    assert_equals_from_scratch(network, program)


def test_copy_topology_keeps_links_and_costs():
    topology = grid_topology(2, 2)
    topology.add_link("g0_0", "g0_1", replace(topology.link("g0_0", "g0_1"), cost=3))
    fresh = copy_topology(topology)
    assert sorted(fresh.link_facts()) == sorted(topology.link_facts())
    assert fresh.nodes == topology.nodes
