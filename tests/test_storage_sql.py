"""SQL provenance path vs the in-RAM graph and the distributed engine.

The sqlite backend answers provenance questions with one root-anchored
recursive CTE over its mirrored ``prov``/``ruleExec`` rows.  That makes
it a *second, independent* oracle for the same questions the paper's
distributed query engine answers — so its kinds are cross-checked here
against both:

* the in-RAM :class:`~repro.core.provenance_graph.ProvenanceGraph`: every
  kind, for MINCOST and PATHVECTOR, at fixpoint and in the middle of a
  retraction (reachable tuples, base tuples, nodes, derivability and the
  ``(vid, rid, input)`` edges), and
* the distributed query engine itself
  (``net.execute(QueryRequest(..., SpecDescriptor(kind=...)))``).

PATHVECTOR's provenance is cyclic (mutually-derivable paths): the CTE's
``UNION`` dedup is what makes it terminate.
"""

import re

import pytest

from repro.core.api import ExspanNetwork
from repro.core.config import ExspanConfig
from repro.core.errors import ProvenanceError
from repro.core.requests import QueryRequest, SpecDescriptor
from repro.core.vid import fact_vid
from repro.datalog.ast import Fact
from repro.net.topology import ring_topology
from repro.protocols.mincost import mincost_program
from repro.protocols.pathvector import pathvector_program
from repro.storage import SQL_QUERY_KINDS, StorageError


@pytest.fixture(scope="module")
def mincost_net():
    network = ExspanNetwork(
        ring_topology(6, seed=1),
        mincost_program(),
        config=ExspanConfig(seed=0, storage="sqlite"),
    )
    network.seed_links()
    network.run_to_fixpoint()
    yield network
    network.close_storage()


def _query_facts(network, table="bestPathCost", limit=6):
    facts = sorted((node, values) for node, values in network.tuples(table))
    return [Fact(table, values) for _node, values in facts[:limit]]


# ---------------------------------------------------------------------- #
# vs the in-RAM provenance graph
# ---------------------------------------------------------------------- #
#: program -> (topology, program, the derived table whose facts are queried)
_PROGRAMS = {
    "mincost": (lambda: ring_topology(6, seed=1), mincost_program, "bestPathCost"),
    "pathvector": (lambda: ring_topology(5, seed=2), pathvector_program, "path"),
}


def _graph_answers(graph, vid):
    """What each SQL kind must answer for *vid*, read off the in-RAM graph."""
    vertices, _rules = graph._subgraph(vid)
    edges = {
        (parent, rule.rid, child)
        for parent in vertices
        for rule in graph.derivations_of(parent)
        for child in rule.input_vids
    }
    return {
        "reachable": sorted(vertices),
        "reachable_base": sorted(graph.reachable_base_tuples(vid)),
        "nodeset": sorted(graph.nodes_involved(vid)),
        "derivability": vid in graph.tuples,
        "subgraph": sorted(edges),
    }


@pytest.mark.parametrize("moment", ["fixpoint", "mid_churn"])
@pytest.mark.parametrize("program", sorted(_PROGRAMS))
def test_sql_matches_graph_oracle(program, moment):
    topology, build, table = _PROGRAMS[program]
    network = ExspanNetwork(topology(), build(), config=ExspanConfig(seed=0, storage="sqlite"))
    try:
        network.seed_links()
        network.run_to_fixpoint()
        if moment == "mid_churn":
            # Stop while the retraction is still in flight: some prov rows
            # name a ruleExec row its node has already retracted.
            network.remove_link("n0", "n1")
            network.run_for(0.001)
            assert network.simulator.pending_events, "the window must end mid-churn"
            network.storage_flush()
        graph = network.provenance_graph()
        vids = [fact_vid(fact) for fact in _query_facts(network, table, limit=8)]
        for vid in vids + ["0" * 40]:
            expected = _graph_answers(graph, vid)
            assert set(expected) == set(SQL_QUERY_KINDS)
            for kind, answer in expected.items():
                assert network.sql_provenance(kind, vid=vid) == answer, (kind, vid)
    finally:
        network.close_storage()


def test_sql_reachable_superset_of_bases(mincost_net):
    fact = _query_facts(mincost_net, limit=1)[0]
    vid = fact_vid(fact)
    reachable = mincost_net.sql_provenance("reachable", fact)
    bases = mincost_net.sql_provenance("reachable_base", fact)
    assert vid in reachable
    assert set(bases) <= set(reachable)
    # Base tuples of a mincost derivation are links.
    for base_vid in bases:
        resolved = mincost_net.storage.fact_for_vid(base_vid)
        assert resolved is not None and resolved.name == "link"


def test_sql_subgraph_edges_consistent(mincost_net):
    fact = _query_facts(mincost_net, limit=1)[0]
    vid = fact_vid(fact)
    reachable = set(mincost_net.sql_provenance("reachable", fact))
    edges = mincost_net.sql_provenance("subgraph", fact)
    assert edges, "a derived tuple must have derivation edges"
    for parent, rid, child in edges:
        assert parent in reachable
        assert child in reachable
        assert isinstance(rid, str) and rid
    # The subgraph spans the root: every reachable non-root vertex is
    # some edge's child.
    children = {child for _parent, _rid, child in edges}
    assert reachable - children == {vid} or vid in children


# ---------------------------------------------------------------------- #
# vs the distributed query engine
# ---------------------------------------------------------------------- #
def test_sql_nodeset_matches_distributed_engine(mincost_net):
    for fact in _query_facts(mincost_net):
        result = mincost_net.execute(
            QueryRequest(fact=fact, spec=SpecDescriptor(kind="nodeset"))
        )
        distributed = sorted(result.result)
        sql = mincost_net.sql_provenance("nodeset", fact)
        assert sql == distributed


def test_sql_derivability_matches_distributed_engine(mincost_net):
    facts = _query_facts(mincost_net, limit=3)
    for fact in facts:
        result = mincost_net.execute(
            QueryRequest(fact=fact, spec=SpecDescriptor(kind="derivability"))
        )
        assert mincost_net.sql_provenance("derivability", fact) == bool(result.result)


# ---------------------------------------------------------------------- #
# error surface
# ---------------------------------------------------------------------- #
def test_sql_provenance_argument_validation(mincost_net):
    fact = _query_facts(mincost_net, limit=1)[0]
    with pytest.raises(ProvenanceError):
        mincost_net.sql_provenance("nodeset")
    with pytest.raises(ProvenanceError):
        mincost_net.sql_provenance("nodeset", fact, vid="deadbeef")
    with pytest.raises(StorageError):
        mincost_net.sql_provenance("frobnicate", fact)


def test_closed_backend_raises_storage_error(tmp_path):
    network = ExspanNetwork(
        ring_topology(4, seed=0),
        mincost_program(),
        config=ExspanConfig(seed=0, storage="sqlite"),
    )
    network.seed_links()
    network.run_to_fixpoint()
    fact = _query_facts(network, limit=1)[0]
    assert network.sql_provenance("reachable", fact)
    network.close_storage()
    closed = re.escape(f"sqlite backend is closed: {network.storage.path}")
    with pytest.raises(StorageError, match=closed):
        network.sql_provenance("reachable", fact)
    # The engines keep journaling after the close; draining that fails too.
    network.remove_link("n0", "n1")
    network.run_to_fixpoint()
    assert network.storage_stats()["journal_pending"] > 0
    with pytest.raises(StorageError, match=closed):
        network.storage_flush()
    with pytest.raises(StorageError, match=closed):
        network.checkpoint(str(tmp_path / "after-close.json"))
    with pytest.raises(StorageError, match=closed):
        network.sql_provenance("nodeset", fact)
    # Only the query that ran is counted.
    assert network.storage_stats()["sql_queries"] == 1


def test_sql_requires_persistent_backend():
    network = ExspanNetwork(
        ring_topology(4, seed=0), mincost_program(), config=ExspanConfig(seed=0)
    )
    network.seed_links()
    network.run_to_fixpoint()
    fact = _query_facts(network, limit=1)[0]
    with pytest.raises(StorageError):
        network.sql_provenance("nodeset", fact)


def test_sql_query_kinds_registry():
    assert SQL_QUERY_KINDS == (
        "reachable",
        "reachable_base",
        "nodeset",
        "derivability",
        "subgraph",
    )
