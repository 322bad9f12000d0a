"""Tests for hosts, the network layer, traffic statistics and churn."""

from __future__ import annotations

import pytest

from repro.net import (
    ChurnGenerator,
    LinkSpec,
    Network,
    Simulator,
    Topology,
    TrafficStats,
    cdf_points,
    line_topology,
    ring_topology,
    transit_stub_topology,
)
from repro.net.errors import NetworkError, UnknownNodeError
from repro.net.network import DEFAULT_LATENCY
from repro.net.stats import LatencyStats


def two_node_network() -> Network:
    topology = Topology()
    topology.add_link("a", "b", LinkSpec(latency=0.010))
    return Network(topology)


class TestNetworkDelivery:
    def test_message_delivered_after_link_latency(self):
        network = two_node_network()
        received = []
        network.host("b").register_handler("ping", lambda message: received.append(message))
        network.send("a", "b", "ping", {"x": 1})
        assert received == []
        network.run_to_fixpoint()
        assert len(received) == 1
        assert received[0].payload == {"x": 1}
        assert network.simulator.now == pytest.approx(0.010)

    def test_multi_hop_latency_used_for_non_adjacent_nodes(self):
        topology = line_topology(3, latency=0.010)
        network = Network(topology)
        received_at = []
        network.host("n2").register_handler(
            "ping", lambda message: received_at.append(network.simulator.now)
        )
        network.send("n0", "n2", "ping", "payload")
        network.run_to_fixpoint()
        assert received_at[0] == pytest.approx(0.020)

    def test_send_to_unknown_node_raises(self):
        network = two_node_network()
        with pytest.raises(UnknownNodeError):
            network.send("a", "zzz", "ping", None)

    def test_missing_handler_raises(self):
        network = two_node_network()
        network.send("a", "b", "unhandled", None)
        with pytest.raises(NetworkError):
            network.run_to_fixpoint()

    def test_bytes_recorded_per_message(self):
        network = two_node_network()
        network.host("b").register_handler("ping", lambda message: None)
        message = network.send("a", "b", "ping", "x" * 100)
        assert message.size > 100
        assert network.stats.total_bytes() == message.size
        assert network.stats.total_messages() == 1

    def test_self_message_has_zero_latency(self):
        network = two_node_network()
        received = []
        network.host("a").register_handler("loop", lambda message: received.append(1))
        network.send("a", "a", "loop", None)
        network.run_to_fixpoint()
        assert received == [1]
        assert network.simulator.now == 0.0

    def test_host_down_drops_messages(self):
        network = two_node_network()
        received = []
        network.host("b").register_handler("ping", lambda message: received.append(1))
        network.host("b").up = False
        network.send("a", "b", "ping", None)
        network.run_to_fixpoint()
        assert received == []


class TestLatencyCharge:
    """Delivery time is the routed latency alone, or DEFAULT_LATENCY without a route."""

    def test_every_pair_and_size_arrives_at_the_routed_latency(self):
        topology = transit_stub_topology(
            domains=1, transit_per_domain=2, stubs_per_transit=1, nodes_per_stub=5
        )
        assert topology.node_count() == 12
        network = Network(topology)
        for source in topology.nodes:
            for destination in topology.nodes:
                expected = (
                    0.0 if source == destination else topology.latency_between(source, destination)
                )
                for size in (1, 1500, 1_000_000):
                    # The clock is at 0.0, so a send arrives at its latency.
                    message = network.send(source, destination, "ping", None, size=size)
                    assert message.delivered_at == expected

    def test_a_message_with_no_route_arrives_after_the_default_latency(self):
        topology = Topology()
        topology.add_link("a", "b", LinkSpec(latency=0.010))
        topology.add_node("island")
        network = Network(topology)
        received_at = []
        network.host("island").register_handler(
            "ping", lambda message: received_at.append(network.simulator.now)
        )
        network.send("a", "island", "ping", None, size=1_000_000)
        network.run_to_fixpoint()
        assert received_at == [DEFAULT_LATENCY]


class TestTrafficStats:
    def test_totals_and_filters(self):
        stats = TrafficStats()
        stats.record(0.0, "a", "b", 100, "delta")
        stats.record(1.0, "a", "c", 50, "prov")
        stats.record(2.0, "b", "c", 25, "delta")
        assert stats.total_bytes() == 175
        assert stats.total_bytes(["delta"]) == 125
        assert stats.total_messages(["prov"]) == 1
        assert stats.bytes_by_sender(["delta"]) == {"a": 100, "b": 25}
        assert stats.average_bytes_per_node(5) == pytest.approx(35.0)
        assert stats.last_activity_time() == 2.0

    def test_reset(self):
        stats = TrafficStats()
        stats.record(0.0, "a", "b", 10, "delta")
        stats.reset()
        assert stats.total_bytes() == 0
        assert len(stats) == 0

    def test_bandwidth_timeseries_buckets(self):
        stats = TrafficStats()
        stats.record(0.1, "a", "b", 100, "delta")
        stats.record(0.2, "a", "b", 100, "delta")
        stats.record(1.5, "a", "b", 300, "delta")
        series = stats.bandwidth_timeseries(bucket=1.0, node_count=2, start=0.0, end=2.0)
        assert len(series) == 2
        assert series[0][1] == pytest.approx(200 / (1.0 * 2))
        assert series[1][1] == pytest.approx(300 / (1.0 * 2))

    def test_average_per_node_zero_nodes(self):
        assert TrafficStats().average_bytes_per_node(0) == 0.0


class TestLatencyStats:
    def test_percentiles_and_mean(self):
        stats = LatencyStats()
        stats.extend([0.1, 0.2, 0.3, 0.4, 0.5])
        assert stats.mean() == pytest.approx(0.3)
        assert stats.percentile(0.0) == pytest.approx(0.1)
        assert stats.percentile(0.8) == pytest.approx(0.5)
        assert stats.count() == 5

    def test_empty_stats(self):
        # mean/percentile on an empty sample set used to silently return
        # 0.0 — indistinguishable from a real zero-latency measurement.
        # They now raise; cdf() stays [] (an empty curve is well-defined).
        stats = LatencyStats()
        with pytest.raises(ValueError, match="empty sample set"):
            stats.mean()
        with pytest.raises(ValueError, match="empty sample set"):
            stats.percentile(0.5)
        assert stats.cdf() == []

    def test_percentile_fraction_out_of_range(self):
        stats = LatencyStats()
        stats.extend([0.1, 0.2])
        with pytest.raises(ValueError, match="fraction"):
            stats.percentile(1.5)
        with pytest.raises(ValueError, match="fraction"):
            stats.percentile(-0.1)

    def test_cdf_points_monotone(self):
        points = cdf_points([0.1, 0.4, 0.4, 0.9], points=10)
        fractions = [fraction for _, fraction in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_cdf_points_single_value(self):
        assert cdf_points([2.0, 2.0]) == [(2.0, 1.0)]


class TestChurn:
    def _network_callbacks(self):
        added, removed = [], []
        return added, removed

    def test_churn_applies_requested_rounds(self):
        topology = transit_stub_topology(domains=1, nodes_per_stub=4, seed=0)
        simulator = Simulator()
        added, removed = [], []
        churn = ChurnGenerator(
            topology,
            simulator,
            add_link=lambda a, b: added.append((a, b)),
            remove_link=lambda a, b: removed.append((a, b)),
            links_per_round=5,
            interval=0.5,
            seed=1,
        )
        churn.start(rounds=3)
        simulator.run_until_idle()
        assert len(churn.events) == 15
        assert len(added) == len(churn.additions())
        assert len(removed) == len(churn.deletions())
        assert simulator.now == pytest.approx(1.5)

    def test_churn_only_touches_stub_nodes(self):
        topology = transit_stub_topology(domains=1, nodes_per_stub=4, seed=0)
        simulator = Simulator()
        churn = ChurnGenerator(
            topology,
            simulator,
            add_link=lambda a, b: None,
            remove_link=lambda a, b: None,
            links_per_round=10,
            seed=3,
        )
        churn.start(rounds=2)
        simulator.run_until_idle()
        for event in churn.additions():
            assert topology.node_kind(event.endpoint_a) == "stub"
            assert topology.node_kind(event.endpoint_b) == "stub"

    def test_churn_stop(self):
        topology = ring_topology(10, seed=0)
        simulator = Simulator()
        events = []
        churn = ChurnGenerator(
            topology,
            simulator,
            add_link=lambda a, b: events.append("add"),
            remove_link=lambda a, b: events.append("del"),
            links_per_round=2,
            seed=0,
        )
        churn.start(rounds=5)
        churn.stop()
        simulator.run_until_idle()
        assert events == []
