"""Tests for the experiment harness: metrics, workloads, figure runs, reporting."""

from __future__ import annotations

import pytest

from repro.core import ExspanNetwork, ProvenanceMode, polynomial_query
from repro.experiments import (
    FigureResult,
    MODE_LABELS,
    PacketWorkload,
    QueryWorkload,
    Series,
    build_network,
    check_shape,
    format_table,
    make_churn,
    paper_expectations,
    render_report,
    run_figure,
    scenario_for_figure,
)
from repro.experiments.trials import size_topology
from repro.net import ring_topology
from repro.protocols import mincost_program, packetforward_program, pathvector_program


class TestMetrics:
    def test_series_accumulates_points(self):
        series = Series("x")
        series.add(1, 10.0)
        series.add(2, 20.0)
        assert series.xs() == [1, 2]
        assert series.mean_y() == 15.0
        assert series.ys() == [10.0, 20.0]
        assert series.y_at(1) == 10.0
        assert series.y_at(99) is None

    def test_figure_result_table_rendering(self):
        result = FigureResult("Figure X", "title", "Nodes", "MB")
        result.add_point("A", 10, 1.0)
        result.add_point("B", 10, 2.0)
        result.add_point("A", 20, 3.0)
        rows = result.to_rows()
        assert rows[0] == ["Nodes", "A", "B"]
        assert len(rows) == 3
        rendered = result.render()
        assert "Figure X" in rendered and "Nodes" in rendered
        assert result.summary()["A"] == 2.0

    def test_format_table_alignment(self):
        text = format_table([["a", "bb"], ["ccc", "d"]])
        lines = text.splitlines()
        assert len(lines) == 3
        assert "-+-" in lines[1]

    def test_empty_table(self):
        assert format_table([]) == ""


class TestWorkloads:
    @pytest.fixture
    def small_network(self):
        return build_network(
            ring_topology(6, seed=2), mincost_program(), ProvenanceMode.REFERENCE
        )

    def test_query_workload_issues_and_completes(self, small_network):
        workload = QueryWorkload(
            small_network,
            polynomial_query(name="wl"),
            queries_per_second=4.0,
            duration=0.5,
            seed=1,
        )
        outcomes = workload.run()
        assert len(outcomes) > 0
        latencies = [outcome.latency for outcome in outcomes]
        assert workload.latency_stats().mean() == pytest.approx(
            sum(latencies) / len(latencies)
        )
        assert all(outcome.latency >= 0 for outcome in outcomes)

    def test_query_workload_scheduled_count_matches_rate(self, small_network):
        workload = QueryWorkload(
            small_network,
            polynomial_query(name="wl2"),
            queries_per_second=2.0,
            duration=1.0,
            seed=1,
        )
        scheduled = workload.schedule()
        # 6 nodes x 2 queries/s x 1 s
        assert scheduled == 12
        small_network.simulator.run_until_idle()
        assert len(workload.outcomes) == scheduled

    def test_query_workload_over_an_unknown_table_creates_no_table(self, small_network):
        before = small_network.predicates()
        workload = QueryWorkload(small_network, polynomial_query(name="wl3"), table="nosuch")
        assert workload.run() == []
        assert small_network.predicates() == before

    def test_packet_workload_delivers_packets(self):
        program = pathvector_program().extended(packetforward_program(), "pv+fwd")
        network = build_network(ring_topology(6, seed=2), program, ProvenanceMode.NONE)
        network.stats.reset()
        workload = PacketWorkload(
            network, payload_bytes=256, packets_per_second=4.0, duration=0.5, seed=3
        )
        sent = workload.run()
        assert sent > 0
        assert workload.delivered() == sent
        assert network.stats.total_bytes() > sent * 256

    def test_make_churn_wires_network_callbacks(self):
        network = build_network(
            size_topology(24, 0), mincost_program(max_cost=16), ProvenanceMode.NONE
        )
        before_links = network.topology.link_count()
        churn = make_churn(network, links_per_round=2, interval=0.1, seed=4)
        churn.start(rounds=2)
        network.simulator.run_until_idle()
        assert len(churn.events) == 4
        added = len([e for e in churn.events if e.action == "add"])
        deleted = len([e for e in churn.events if e.action == "delete"])
        assert network.topology.link_count() == before_links + added - deleted


class TestFigureRunners:
    def test_mode_labels_cover_three_modes(self):
        assert set(MODE_LABELS.values()) == {
            "Value-based Prov. (BDD)",
            "Ref-based Prov.",
            "No Prov.",
        }

    def test_figure_17_small(self):
        result = run_figure("fig17_testbed_fixpoint", sizes=(6, 10))
        assert result.figure_id == "Figure 17"
        assert set(result.series) == set(MODE_LABELS.values())
        for series in result.series.values():
            assert len(series.points) == 2
        checks = check_shape(result)
        assert all(holds for _, holds in checks)

    def test_figure_16_small(self):
        result = run_figure("fig16_testbed_bandwidth", size=8)
        assert len(result.series) == 3
        assert any("total KB per node" in key for key in result.notes)

    def test_figure_13_small(self):
        result = run_figure("fig13_traversal_bandwidth", grid_side=3, duration=0.5)
        assert set(result.series) == {"BFS", "DFS", "DFS-Threshold"}

    def test_run_figures_selection_and_unknown_id(self):
        result = run_figure(scenario_for_figure("17").name, sizes=(6,))
        assert result.figure_id == "Figure 17"
        with pytest.raises(KeyError):
            scenario_for_figure("99")

    def test_all_figures_have_runners_and_expectations(self):
        expectations = paper_expectations()
        for figure_number in range(6, 18):
            assert scenario_for_figure(str(figure_number)).figure == str(figure_number)
            assert f"Figure {figure_number}" in expectations

    def test_render_report_includes_checks(self):
        result = run_figure("fig17_testbed_fixpoint", sizes=(6,))
        report = render_report([result])
        assert "Figure 17" in report
        assert "[OK " in report or "[FAIL" in report


class TestShapeChecks:
    def test_check_shape_unknown_figure_returns_empty(self):
        result = FigureResult("Figure 99", "t", "x", "y")
        assert check_shape(result) == []

    def test_shape_check_failure_detected(self):
        result = FigureResult("Figure 11", "t", "x", "y")
        result.add_point("With caching", 0.0, 10.0)
        result.add_point("Without caching", 0.0, 1.0)
        checks = dict(check_shape(result))
        assert checks["caching reduces query bandwidth"] is False
