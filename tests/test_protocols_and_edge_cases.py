"""Additional coverage: protocol variants and query edge cases."""

from __future__ import annotations

import pytest

from paper_example import FIGURE3_NODES, figure3_topology, insert_symmetric_links
from repro.core import (
    ExspanConfig,
    ExspanNetwork,
    ProvenanceMode,
    QueryRequest,
    QueryTimeoutError,
    TraversalOrder,
    derivation_count_query,
    polynomial_query,
    count_derivations,
)
from repro.core.query import QuerySpec
from repro.datalog import Condition, Fact, StandaloneNetwork
from repro.net import line_topology, ring_topology
from repro.protocols import (
    mincost_program,
    packet_event,
    packetforward_program,
    pathvector_program,
)


class TestProtocolHelpers:
    def test_packet_event_helper(self):
        event = packet_event("a", "a", "d", "xyz")
        assert event.name == "ePacket"
        assert event.location == "a"
        assert event.values == ("a", "a", "d", "xyz")

    def test_bounded_mincost_contains_cost_condition(self):
        program = mincost_program(max_cost=16)
        (sp2,) = [rule for rule in program.rules if rule.label == "sp2"]
        assert len([lit for lit in sp2.body if isinstance(lit, Condition)]) == 2  # S != D, C < 16

    def test_bounded_mincost_limits_path_costs(self):
        # a long chain: with max_cost=3 far-away destinations are not derived
        nodes = [f"n{i}" for i in range(6)]
        network = StandaloneNetwork(nodes, mincost_program(max_cost=3))
        for i in range(5):
            network.insert(Fact("link", (nodes[i], nodes[i + 1], 1)))
            network.insert(Fact("link", (nodes[i + 1], nodes[i], 1)))
        network.run()
        costs = {(row[0], row[1]): row[2] for row in network.all_rows("bestPathCost")}
        assert costs[("n0", "n2")] == 2
        assert ("n0", "n5") not in costs  # would require cost 5 >= bound

    def test_bounded_and_unbounded_agree_within_bound(self):
        topology = ring_topology(8)
        unbounded = StandaloneNetwork(topology.nodes, mincost_program())
        bounded = StandaloneNetwork(topology.nodes, mincost_program(max_cost=100))
        for source, destination, cost in topology.link_facts():
            unbounded.insert(Fact("link", (source, destination, cost)))
            bounded.insert(Fact("link", (source, destination, cost)))
        unbounded.run()
        bounded.run()
        assert unbounded.all_rows("bestPathCost") == bounded.all_rows("bestPathCost")

    def test_packetforward_drops_packet_without_route(self):
        network = StandaloneNetwork(FIGURE3_NODES, packetforward_program())
        # no bestHop tuples installed: the event triggers nothing
        network.insert(Fact("ePacket", ("a", "a", "d", "x")))
        network.run()
        assert network.all_rows("recvPacket") == []

    def test_packet_to_self_is_received_immediately(self):
        program = pathvector_program().extended(packetforward_program(), "pv+fwd")
        network = StandaloneNetwork(FIGURE3_NODES, program)
        insert_symmetric_links(network)
        network.run()
        network.insert(Fact("ePacket", ("a", "a", "a", "self")))
        network.run()
        assert ("a", "a", "a", "self") in network.all_rows("recvPacket")


class TestQueryEdgeCases:
    @pytest.fixture(scope="class")
    def network(self):
        network = ExspanNetwork(
            figure3_topology(),
            mincost_program(),
            config=ExspanConfig(mode=ProvenanceMode.REFERENCE),
        )
        network.seed_links()
        network.run_to_fixpoint()
        return network

    def test_max_depth_truncates_traversal(self, network):
        fact = Fact("bestPathCost", ("a", "d", 8))
        full = network.execute(QueryRequest(fact, polynomial_query(name="deep")))
        shallow_spec = polynomial_query(name="shallow")
        shallow_spec.max_depth = 2
        shallow = network.execute(QueryRequest(fact, shallow_spec))
        assert count_derivations(full.result) >= count_derivations(shallow.result)

    def test_missing_result_for_zero_depth(self, network):
        spec = derivation_count_query(name="zero-depth")
        spec.max_depth = 0
        outcome = network.execute(QueryRequest(Fact("bestPathCost", ("a", "c", 5)), spec))
        assert outcome.result == 0

    def test_query_outcome_metadata(self, network):
        fact = Fact("bestPathCost", ("a", "c", 5))
        outcome = network.execute(QueryRequest(fact, polynomial_query(name="meta"), issuer="d"))
        assert outcome.issuer == "d"
        assert outcome.target == "a"
        assert outcome.completed_at >= outcome.issued_at
        assert outcome.query_id.startswith("d#")

    def test_spec_registration_is_idempotent(self, network):
        spec = polynomial_query(name="idempotent")
        network.register_spec(spec)
        network.register_spec(spec)
        outcome = network.execute(QueryRequest(Fact("bestPathCost", ("a", "c", 5)), "idempotent"))
        assert outcome.result is not None

    def test_moonwalk_width_larger_than_derivations(self, network):
        spec = derivation_count_query(
            name="wide-moon", traversal=TraversalOrder.RANDOM_MOONWALK, moonwalk_width=50
        )
        outcome = network.execute(QueryRequest(Fact("bestPathCost", ("a", "c", 5)), spec))
        # width larger than the number of derivations explores all of them
        assert outcome.result == 2

    def test_query_spec_defaults(self):
        spec = QuerySpec(
            name="defaults",
            f_edb=lambda vid, fact, node: 1,
            f_idb=lambda results, vid, node: sum(results),
            f_rule=lambda results, rule, node: 1,
        )
        assert spec.traversal is TraversalOrder.BFS
        assert spec.moonwalk_width == 1
        assert spec.use_cache is False
        assert spec.missing() is None


class TestSimulatedNetworkSmallTopologies:
    def test_line_topology_fixpoint_latency_proportional_to_length(self):
        config = ExspanConfig(mode=ProvenanceMode.NONE)
        short = ExspanNetwork(line_topology(3), mincost_program(), config=config)
        short.seed_links()
        short_time = short.run_to_fixpoint()
        long = ExspanNetwork(line_topology(7), mincost_program(), config=config)
        long.seed_links()
        long_time = long.run_to_fixpoint()
        assert long_time > short_time

    def test_two_node_network(self):
        network = ExspanNetwork(
            line_topology(2),
            mincost_program(),
            config=ExspanConfig(mode=ProvenanceMode.REFERENCE),
        )
        network.seed_links()
        network.run_to_fixpoint()
        costs = {(row[0], row[1]): row[2] for _, row in network.tuples("bestPathCost")}
        assert costs == {("n0", "n1"): 1, ("n1", "n0"): 1}
        outcome = network.execute(
            QueryRequest(Fact("bestPathCost", ("n0", "n1", 1)), polynomial_query(name="tiny"))
        )
        assert count_derivations(outcome.result) == 1
