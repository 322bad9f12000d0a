"""Tests for the distributed provenance query engine and its customizations."""

from __future__ import annotations

import pytest

from paper_example import figure3_topology
from repro.core import (
    ExspanConfig,
    ExspanNetwork,
    Granularity,
    GranularitySpec,
    ProvenanceMode,
    QueryError,
    QueryRequest,
    TraversalOrder,
    bdd_query,
    count_derivations,
    derivability_query,
    derivation_count_query,
    node_set_query,
    polynomial_query,
    tuple_vid,
)
from repro.datalog import Fact
from repro.net import grid_topology
from repro.protocols import mincost_program


@pytest.fixture(scope="module")
def figure3_network():
    network = ExspanNetwork(
        figure3_topology(),
        mincost_program(),
        config=ExspanConfig(mode=ProvenanceMode.REFERENCE),
    )
    network.seed_links()
    network.run_to_fixpoint()
    return network


@pytest.fixture(scope="module")
def grid_network():
    network = ExspanNetwork(
        grid_topology(4, 4),
        mincost_program(),
        config=ExspanConfig(mode=ProvenanceMode.REFERENCE),
    )
    network.seed_links()
    network.run_to_fixpoint()
    return network


BEST_AC = Fact("bestPathCost", ("a", "c", 5))


class TestPolynomialQuery:
    def test_polynomial_for_paper_example(self, figure3_network):
        outcome = figure3_network.execute(QueryRequest(BEST_AC, polynomial_query(name="p1")))
        expression = outcome.result
        # two alternative derivations: direct link and via b (Figure 4)
        assert count_derivations(expression) == 2
        literals = set(expression.literals())
        assert literals == {"link(a,c,5)", "link(b,a,3)", "link(b,c,2)"}

    def test_node_level_granularity(self, figure3_network):
        spec = polynomial_query(
            name="p-node", granularity=GranularitySpec(Granularity.NODE)
        )
        outcome = figure3_network.execute(QueryRequest(BEST_AC, spec))
        # node-level provenance of bestPathCost(@a,c,5) is <a + a*b>
        assert set(outcome.result.literals()) == {"a", "b"}
        assert count_derivations(outcome.result) == 2

    def test_rule_annotations_present_in_rendering(self, figure3_network):
        outcome = figure3_network.execute(QueryRequest(BEST_AC, polynomial_query(name="p2")))
        text = str(outcome.result)
        assert "sp3@a" in text
        assert "sp2@b" in text

    def test_query_latency_positive_when_remote_hops_needed(self, figure3_network):
        outcome = figure3_network.execute(QueryRequest(BEST_AC, polynomial_query(name="p3")))
        assert outcome.latency > 0.0

    def test_query_from_remote_issuer(self, figure3_network):
        outcome = figure3_network.execute(
            QueryRequest(BEST_AC, polynomial_query(name="p4"), issuer="d")
        )
        assert count_derivations(outcome.result) == 2
        assert outcome.issuer == "d"

    def test_query_for_base_tuple(self, figure3_network):
        outcome = figure3_network.execute(
            QueryRequest(Fact("link", ("a", "b", 3)), polynomial_query(name="p5"))
        )
        assert set(outcome.result.literals()) == {"link(a,b,3)"}
        assert count_derivations(outcome.result) == 1

    def test_query_for_unknown_tuple_returns_empty(self, figure3_network):
        outcome = figure3_network.execute(
            QueryRequest(Fact("bestPathCost", ("a", "zzz", 1)), polynomial_query(name="p6"))
        )
        assert count_derivations(outcome.result) == 0

    def test_unregistered_spec_name_raises(self, figure3_network):
        with pytest.raises(QueryError):
            figure3_network.node("a").query_service.query(
                tuple_vid("bestPathCost", ("a", "c", 5)), "a", "never-registered",
                lambda outcome: None,
            )


class TestOtherCustomizations:
    def test_derivation_count_matches_polynomial(self, figure3_network):
        poly = figure3_network.execute(QueryRequest(BEST_AC, polynomial_query(name="c1")))
        count = figure3_network.execute(QueryRequest(BEST_AC, derivation_count_query(name="c2")))
        assert count.result == count_derivations(poly.result)

    def test_node_set_query_matches_graph(self, figure3_network):
        outcome = figure3_network.execute(QueryRequest(BEST_AC, node_set_query(name="n1")))
        assert outcome.result == frozenset({"a", "b"})

    def test_derivability_query_default_true(self, figure3_network):
        outcome = figure3_network.execute(QueryRequest(BEST_AC, derivability_query(name="d1")))
        assert outcome.result is True

    def test_derivability_with_trusted_nodes(self, figure3_network):
        granularity = GranularitySpec(Granularity.NODE)
        trusting_a = figure3_network.execute(
            QueryRequest(
                BEST_AC,
                derivability_query(name="d2", trusted={"a"}, granularity=granularity),
            )
        )
        # the direct derivation only involves node a, so trusting a suffices
        assert trusting_a.result is True
        trusting_b = figure3_network.execute(
            QueryRequest(
                BEST_AC,
                derivability_query(name="d3", trusted={"b"}, granularity=granularity),
            )
        )
        assert trusting_b.result is False

    def test_bdd_query_condenses_to_polynomial_dnf(self, figure3_network):
        poly = figure3_network.execute(QueryRequest(BEST_AC, polynomial_query(name="b1")))
        bdd = figure3_network.execute(QueryRequest(BEST_AC, bdd_query(name="b2")))
        assert bdd.result.satisfying_products() == poly.result.to_dnf()

    def test_bdd_query_node_granularity_absorbs(self, figure3_network):
        spec = bdd_query(name="b3", granularity=GranularitySpec(Granularity.NODE))
        outcome = figure3_network.execute(QueryRequest(BEST_AC, spec))
        # <a + a*b> condenses to <a> (Section 3, Representation)
        assert outcome.result.support() == frozenset({"a"})


class TestTraversalOrders:
    def test_all_orders_agree_on_result(self, grid_network):
        target = None
        for node, row in grid_network.tuples("bestPathCost"):
            fact = Fact("bestPathCost", row)
            outcome = grid_network.execute(QueryRequest(fact, derivation_count_query(name="probe")))
            if outcome.result >= 3:
                target = fact
                break
        assert target is not None, "expected a multi-derivation tuple on the grid"
        bfs = grid_network.execute(
            QueryRequest(target, derivation_count_query(name="t-bfs", traversal=TraversalOrder.BFS))
        )
        dfs = grid_network.execute(
            QueryRequest(target, derivation_count_query(name="t-dfs", traversal=TraversalOrder.DFS))
        )
        assert bfs.result == dfs.result

    def test_threshold_query_can_undercount_but_saves_messages(self, grid_network):
        target = None
        for node, row in grid_network.tuples("bestPathCost"):
            fact = Fact("bestPathCost", row)
            probe = grid_network.execute(QueryRequest(fact, derivation_count_query(name="probe2")))
            if probe.result > 3:
                target = fact
                exact = probe.result
                break
        assert target is not None
        grid_network.stats.reset()
        full = grid_network.execute(
            QueryRequest(target, derivation_count_query(name="full", traversal=TraversalOrder.BFS))
        )
        full_messages = grid_network.stats.total_messages(["prov"])
        grid_network.stats.reset()
        thresholded = grid_network.execute(
            QueryRequest(
                target,
                derivation_count_query(
                    name="thr", traversal=TraversalOrder.DFS_THRESHOLD, threshold=3
                ),
            )
        )
        threshold_messages = grid_network.stats.total_messages(["prov"])
        assert full.result == exact
        assert thresholded.result >= 3
        assert threshold_messages <= full_messages

    def test_random_moonwalk_explores_subset(self, grid_network):
        target = None
        for node, row in grid_network.tuples("bestPathCost"):
            fact = Fact("bestPathCost", row)
            probe = grid_network.execute(QueryRequest(fact, derivation_count_query(name="probe3")))
            if probe.result >= 3:
                target = fact
                exact = probe.result
                break
        assert target is not None
        moonwalk = grid_network.execute(
            QueryRequest(
                target,
                derivation_count_query(
                    name="moon", traversal=TraversalOrder.RANDOM_MOONWALK, moonwalk_width=1
                ),
            )
        )
        # a single random walk explores at most one derivation per vertex
        assert 1 <= moonwalk.result <= exact

    def test_node_set_threshold_query(self, grid_network):
        node, row = grid_network.tuples("bestPathCost")[0]
        spec = node_set_query(
            name="ns-thr", traversal=TraversalOrder.DFS_THRESHOLD, threshold=2
        )
        outcome = grid_network.execute(QueryRequest(Fact("bestPathCost", row), spec))
        assert len(outcome.result) >= 1
