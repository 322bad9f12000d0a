"""Tests for topologies: the generic graph model and the paper's generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    LinkSpec,
    Topology,
    grid_topology,
    line_topology,
    ring_topology,
    transit_stub_topology,
)
from repro.net.errors import NoRouteError
from repro.net.topology import TIER_STUB, TIER_TRANSIT, TIER_TRANSIT_STUB


class TestTopologyModel:
    def test_add_link_creates_nodes(self):
        topology = Topology()
        topology.add_link("a", "b", LinkSpec(latency=0.01))
        assert "a" in topology.nodes
        assert topology.has_link("a", "b")
        assert topology.has_link("b", "a")  # symmetric
        assert topology.degree("a") == 1

    def test_self_link_rejected(self):
        topology = Topology()
        with pytest.raises(ValueError):
            topology.add_link("a", "a")

    def test_remove_link(self):
        topology = Topology()
        topology.add_link("a", "b")
        assert topology.remove_link("b", "a")
        assert not topology.has_link("a", "b")
        assert not topology.remove_link("a", "b")

    def test_link_facts_emit_both_directions(self):
        topology = Topology()
        topology.add_link("a", "b", LinkSpec(cost=3))
        facts = topology.link_facts()
        assert ("a", "b", 3) in facts
        assert ("b", "a", 3) in facts
        assert len(facts) == 2

    def test_neighbors_sorted(self):
        topology = Topology()
        topology.add_link("a", "c")
        topology.add_link("a", "b")
        assert topology.neighbors("a") == ["b", "c"]

    def test_latency_between_uses_shortest_path(self):
        topology = Topology()
        topology.add_link("a", "b", LinkSpec(latency=0.010))
        topology.add_link("b", "c", LinkSpec(latency=0.010))
        topology.add_link("a", "c", LinkSpec(latency=0.050))
        assert topology.latency_between("a", "c") == pytest.approx(0.020)
        assert topology.latency_between("a", "a") == 0.0

    def test_latency_between_disconnected_raises(self):
        topology = Topology()
        topology.add_node("a")
        topology.add_node("z")
        with pytest.raises(NoRouteError):
            topology.latency_between("a", "z")

    def test_route_cache_invalidated_on_change(self):
        topology = Topology()
        topology.add_link("a", "b", LinkSpec(latency=0.010))
        topology.add_link("b", "c", LinkSpec(latency=0.010))
        assert topology.latency_between("a", "c") == pytest.approx(0.020)
        topology.add_link("a", "c", LinkSpec(latency=0.001))
        assert topology.latency_between("a", "c") == pytest.approx(0.001)

    def test_is_connected(self):
        topology = Topology()
        topology.add_link("a", "b")
        assert topology.is_connected()
        topology.add_node("isolated")
        assert not topology.is_connected()

    def test_links_by_tier(self):
        topology = Topology()
        topology.add_link("a", "b", LinkSpec(tier=TIER_STUB))
        topology.add_link("b", "c", LinkSpec(tier=TIER_TRANSIT))
        assert len(topology.links_by_tier(TIER_STUB)) == 1
        assert len(topology.links_by_tier(TIER_TRANSIT)) == 1


class TestGenerators:
    def test_transit_stub_paper_parameters_give_100_nodes_per_domain(self):
        topology = transit_stub_topology(domains=1, seed=1)
        assert topology.node_count() == 4 * (1 + 3 * 8)
        assert topology.is_connected()

    def test_transit_stub_scales_with_domains(self):
        two = transit_stub_topology(domains=2, seed=1)
        assert two.node_count() == 200
        assert two.is_connected()

    def test_transit_stub_node_kinds(self):
        topology = transit_stub_topology(domains=1, seed=1)
        kinds = {topology.node_kind(node) for node in topology.nodes}
        assert kinds == {"transit", "stub"}

    def test_transit_stub_tier_latencies_match_paper(self):
        topology = transit_stub_topology(domains=1, seed=1)
        latencies = {
            spec.tier: spec.latency for _, _, spec in topology.links()
        }
        assert latencies[TIER_TRANSIT] == pytest.approx(0.050)
        assert latencies[TIER_TRANSIT_STUB] == pytest.approx(0.010)
        assert latencies[TIER_STUB] == pytest.approx(0.002)

    def test_transit_stub_deterministic_for_seed(self):
        a = transit_stub_topology(domains=1, seed=42)
        b = transit_stub_topology(domains=1, seed=42)
        assert sorted(map(str, a.nodes)) == sorted(map(str, b.nodes))
        assert a.link_count() == b.link_count()

    def test_transit_stub_small_stubs_supported(self):
        topology = transit_stub_topology(domains=1, nodes_per_stub=2, seed=0)
        assert topology.is_connected()

    def test_ring_topology_structure(self):
        topology = ring_topology(3)  # too small for a random peer
        assert topology.node_count() == 3
        assert all(topology.degree(node) == 2 for node in topology.nodes)
        topology = ring_topology(10)
        assert topology.node_count() == 10
        assert all(topology.has_link(f"n{i}", f"n{(i + 1) % 10}") for i in range(10))
        assert topology.is_connected()

    def test_ring_topology_random_peers_respect_the_degree_cap(self):
        topology = ring_topology(40, seed=2)
        assert topology.is_connected()
        assert all(topology.degree(node) <= 3 for node in topology.nodes)
        assert any(topology.degree(node) == 3 for node in topology.nodes)

    def test_line_topology(self):
        topology = line_topology(5)
        assert topology.node_count() == 5
        assert topology.link_count() == 4
        assert topology.latency_between("n0", "n4") == pytest.approx(4 * 0.010)

    def test_grid_topology(self):
        topology = grid_topology(3, 4)
        assert topology.node_count() == 12
        assert topology.link_count() == 3 * 3 + 2 * 4
        assert topology.is_connected()

    @settings(deadline=None, max_examples=15)
    @given(st.integers(4, 60), st.integers(0, 1000))
    def test_ring_topologies_always_connected(self, size, seed):
        topology = ring_topology(size, seed=seed)
        assert topology.is_connected()
        assert all(topology.degree(node) <= 3 for node in topology.nodes)

    @settings(deadline=None, max_examples=6)
    @given(st.integers(2, 8), st.integers(0, 100))
    def test_scaled_transit_stub_always_connected(self, nodes_per_stub, seed):
        topology = transit_stub_topology(
            domains=1, nodes_per_stub=nodes_per_stub, seed=seed
        )
        assert topology.is_connected()
