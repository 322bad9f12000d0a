"""Value-based (BDD) provenance: what an annotation may name.

An annotation is a boolean function over *base* tuples (Section 6.3), so
every variable of a MINCOST ``bestPathCost`` annotation must be the VID of
a ``link`` tuple — never the VID of a derived tuple.
"""

from __future__ import annotations

import pytest

from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode
from repro.core.vid import tuple_vid
from repro.datalog import Fact
from repro.net.topology import grid_topology
from repro.protocols import mincost_program, pathvector_program


@pytest.mark.xfail(
    strict=True,
    reason=(
        "a MIN winner re-elected by a deletion is annotated from the deleted "
        "trigger, whose cleared annotation falls back to policy.base: the "
        "derived pathCost becomes a variable (ROADMAP item 1)"
    ),
)
def test_min_winner_after_a_cut_names_only_link_tuples():
    """Cut g0_0-g0_1 on a 3x3 grid; four bestPathCost rows go wrong.

    ``bestPathCost(g0_0, g0_1, 3)`` reads as the lone variable
    ``pathCost(g0_0, g0_1, 1)``.  Links that are gone may still be named:
    without ``propagate_updates`` an annotation is not re-derived when an
    input disappears, which is the policy's documented trade-off.
    """
    topology = grid_topology(3, 3)
    network = ExspanNetwork(
        topology,
        mincost_program(max_cost=16),
        config=ExspanConfig(mode=ProvenanceMode.VALUE),
    )
    links = {tuple_vid("link", fact) for fact in topology.link_facts()}  # the cut one too
    network.seed_links()
    network.run_to_fixpoint()
    network.remove_link("g0_0", "g0_1")
    network.run_to_fixpoint()
    strays = {
        row: sorted(annotation.support() - links)
        for node, row in network.tuples("bestPathCost")
        if (annotation := network.engine(node).annotation_of(Fact("bestPathCost", row)))
        is not None
    }
    assert {row: names for row, names in strays.items() if names} == {}


@pytest.mark.xfail(
    strict=True,
    reason=(
        "PATHVECTOR's bestPath is a MIN aggregate (min<P>), so the same "
        "re-election after a deletion annotates its winner from the deleted "
        "trigger (ROADMAP item 1)"
    ),
)
def test_best_path_after_a_cut_names_only_link_tuples():
    """Cut g0_0-g0_1 on a 3x3 grid: 20 of 72 ``bestPath`` annotations name a
    derived tuple (4 while ``bestPath`` was a plain keyed join)."""
    topology = grid_topology(3, 3)
    network = ExspanNetwork(
        topology, pathvector_program(), config=ExspanConfig(mode=ProvenanceMode.VALUE)
    )
    links = {tuple_vid("link", fact) for fact in topology.link_facts()}  # the cut one too
    network.seed_links()
    network.run_to_fixpoint()
    network.remove_link("g0_0", "g0_1")
    network.run_to_fixpoint()
    strays = {
        row: sorted(annotation.support() - links)
        for node, row in network.tuples("bestPath")
        if (annotation := network.engine(node).annotation_of(Fact("bestPath", row)))
        is not None
    }
    assert {row: names for row, names in strays.items() if names} == {}
