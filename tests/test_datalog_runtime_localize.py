"""Tests for the standalone multi-node runtime and rule localization checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from paper_example import FIGURE3_BEST_COSTS, FIGURE3_LINKS, FIGURE3_NODES, insert_symmetric_links
from repro.datalog import (
    Fact,
    StandaloneNetwork,
    ValidationError,
    parse_program,
)
from repro.datalog.errors import EvaluationError
from repro.datalog.localize import body_location
from repro.protocols import mincost_program, pathvector_program
from helpers import delete, parse_rule, table_rows


class TestLocalization:
    def test_localized_rule_single_body_location(self):
        rule = parse_rule("sp2 pathCost(@S,D,C) :- link(@Z,S,C1), bestPathCost(@Z,D,C2), C=C1+C2.")
        assert body_location(rule) == "Z"

    def test_non_localized_rule_detected(self):
        rule = parse_rule("bad out(@S,D) :- link(@S,D,C), other(@D,S).")
        with pytest.raises(ValidationError, match="not localized"):
            body_location(rule)

    def test_paper_programs_are_localized(self):
        for program in (mincost_program(), pathvector_program()):
            for rule in program.rules:
                assert body_location(rule) is not None

    def test_only_sp2_ships_its_head_in_mincost(self):
        remote = [
            (rule.label, body_location(rule), rule.head.location_term.name)
            for rule in mincost_program().rules
            if body_location(rule) != rule.head.location_term.name
        ]
        assert remote == [("sp2", "Z", "S")]

    def test_constant_location_is_named_by_its_value(self):
        rule = parse_rule('r1 out(@S,D) :- link(@"n0",S,D), peer(@"n0",S).')
        assert body_location(rule) == "<'n0'>"

    def test_rule_without_body_atoms_has_no_location(self):
        rule = parse_rule("r1 out(@X,1) :- X==X.")
        # Rule is unsafe (X unbound) but body_location alone returns None.
        assert body_location(rule) is None


class TestStandaloneNetworkMincost:
    def test_best_path_costs_match_expected(self, figure3_standalone_mincost):
        rows = figure3_standalone_mincost.all_rows("bestPathCost")
        for (source, destination), cost in FIGURE3_BEST_COSTS.items():
            assert (source, destination, cost) in rows
            assert (destination, source, cost) in rows

    def test_best_costs_stored_at_source_node(self, figure3_standalone_mincost):
        rows = table_rows(figure3_standalone_mincost.engine("a"), "bestPathCost")
        assert all(row[0] == "a" for row in rows)

    def test_link_deletion_reroutes(self, figure3_standalone_mincost):
        network = figure3_standalone_mincost
        delete(network, Fact("link", ("b", "c", 2)))
        delete(network, Fact("link", ("c", "b", 2)))
        network.run()
        rows = network.all_rows("bestPathCost")
        assert ("b", "c", 8) in rows  # rerouted: b -> a -> c (3+5) or b -> d -> c (5+3)
        assert ("a", "c", 5) in rows  # direct link unaffected

    def test_link_insertion_improves_cost(self, figure3_standalone_mincost):
        network = figure3_standalone_mincost
        network.insert(Fact("link", ("a", "d", 1)))
        network.insert(Fact("link", ("d", "a", 1)))
        network.run()
        rows = network.all_rows("bestPathCost")
        assert ("a", "d", 1) in rows
        assert ("a", "c", 4) in rows  # a -> d -> c = 1 + 3

    def test_unknown_destination_node_raises(self):
        network = StandaloneNetwork(["a"], mincost_program())
        with pytest.raises(EvaluationError):
            network.insert(Fact("link", ("zzz", "a", 1)))

    def test_messages_are_counted(self, figure3_standalone_mincost):
        assert figure3_standalone_mincost.messages_sent > 0


class TestStandaloneNetworkPathvector:
    @pytest.fixture
    def network(self):
        network = StandaloneNetwork(FIGURE3_NODES, pathvector_program())
        insert_symmetric_links(network)
        network.run()
        return network

    def test_best_path_for_a_to_c_goes_through_b(self, network):
        rows = [row for row in network.all_rows("bestPath") if row[0] == "a" and row[1] == "c"]
        assert len(rows) == 1
        assert rows[0][2] == 5
        assert list(rows[0][3]) == ["a", "b", "c"]

    def test_best_hop_matches_path(self, network):
        rows = [row for row in network.all_rows("bestHop") if row[0] == "a" and row[1] == "c"]
        assert rows == [("a", "c", "b")]

    def test_paths_are_loop_free(self, network):
        for row in network.all_rows("bestPath"):
            path = list(row[3])
            assert len(path) == len(set(path))

    def test_path_costs_agree_with_mincost(self, network, figure3_standalone_mincost):
        pv_costs = {
            (row[0], row[1]): row[2] for row in network.all_rows("bestPathCost")
        }
        mc_costs = {
            (row[0], row[1]): row[2]
            for row in figure3_standalone_mincost.all_rows("bestPathCost")
        }
        assert pv_costs == mc_costs


class TestAgainstNetworkxReference:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 10_000))
    def test_mincost_matches_dijkstra_on_random_graphs(self, seed):
        """MINCOST agrees with networkx shortest paths on random graphs."""
        import random

        import networkx as nx

        rng = random.Random(seed)
        node_count = rng.randint(4, 8)
        nodes = [f"v{i}" for i in range(node_count)]
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        # random connected graph: spanning chain plus extra edges
        for i in range(1, node_count):
            graph.add_edge(nodes[i - 1], nodes[i], weight=rng.randint(1, 5))
        for _ in range(node_count):
            a, b = rng.sample(nodes, 2)
            if not graph.has_edge(a, b):
                graph.add_edge(a, b, weight=rng.randint(1, 5))

        network = StandaloneNetwork(nodes, mincost_program())
        for a, b, data in graph.edges(data=True):
            network.insert(Fact("link", (a, b, data["weight"])))
            network.insert(Fact("link", (b, a, data["weight"])))
        network.run()

        lengths = dict(nx.all_pairs_dijkstra_path_length(graph))
        computed = {
            (row[0], row[1]): row[2] for row in network.all_rows("bestPathCost")
        }
        for source in nodes:
            for destination in nodes:
                if source == destination:
                    continue
                expected = lengths[source].get(destination)
                assert computed.get((source, destination)) == expected
