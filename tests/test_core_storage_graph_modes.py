"""Tests for provenance storage access, the graph view, modes and granularity."""

from __future__ import annotations

import pytest

from paper_example import FIGURE3_NODES, insert_symmetric_links
from repro.core import (
    BddManager,
    BddValuePolicy,
    Granularity,
    GranularitySpec,
    PolynomialValuePolicy,
    ProvenanceError,
    ProvenanceGraph,
    ProvenanceMode,
    ProvenanceStore,
    build_global_graph,
    count_derivations,
    prefix_domain_map,
    prepare_program,
    rewrite_program,
    tuple_vid,
)
from repro.core.modes import CENTRAL_PROV_TABLE, CENTRAL_RULE_EXEC_TABLE
from repro.core.rewrite import PROV_TABLE, RULE_EXEC_TABLE
from repro.datalog import Fact, StandaloneNetwork, parse_program
from repro.protocols import mincost_program
from helpers import delete, table_rows


@pytest.fixture
def rewritten_network():
    network = StandaloneNetwork(FIGURE3_NODES, rewrite_program(mincost_program()))
    insert_symmetric_links(network)
    network.run()
    return network


class TestProvenanceStore:
    def test_fact_for_vid_resolves_local_tuples(self, rewritten_network):
        store = ProvenanceStore(rewritten_network.engine("a"))
        vid = tuple_vid("bestPathCost", ("a", "c", 5))
        fact = store.fact_for_vid(vid)
        assert fact is not None
        assert fact.name == "bestPathCost"
        assert fact.values == ("a", "c", 5)

    def test_fact_for_vid_unknown_returns_none(self, rewritten_network):
        store = ProvenanceStore(rewritten_network.engine("a"))
        assert store.fact_for_vid("0" * 20) is None

    def test_fact_for_vid_reflects_deletion(self, rewritten_network):
        store = ProvenanceStore(rewritten_network.engine("a"))
        vid = tuple_vid("link", ("a", "b", 3))
        assert store.fact_for_vid(vid) is not None
        delete(rewritten_network, Fact("link", ("a", "b", 3)))
        rewritten_network.run()
        assert store.fact_for_vid(vid) is None

    def test_derivation_count(self, rewritten_network):
        store = ProvenanceStore(rewritten_network.engine("a"))
        vid = tuple_vid("pathCost", ("a", "c", 5))
        assert len(store.probe(PROV_TABLE, vid)) == 2
        assert all(row[2] is not None for row in store.probe(PROV_TABLE, vid))
        base = tuple_vid("link", ("a", "c", 5))
        assert any(row[2] is None for row in store.probe(PROV_TABLE, base))

    def test_rule_exec_missing_returns_none(self, rewritten_network):
        store = ProvenanceStore(rewritten_network.engine("a"))
        assert not store.probe(RULE_EXEC_TABLE, "f" * 20)


class TestProvenanceGraph:
    def test_empty_graph(self):
        graph = ProvenanceGraph()
        assert len(graph) == 0
        assert graph.is_acyclic()
        assert graph.derivations_of("missing") == []
        assert graph.reachable_base_tuples("missing") == frozenset()

    def test_to_dot_contains_labels(self, rewritten_network):
        stores = [ProvenanceStore(rewritten_network.engine(n)) for n in FIGURE3_NODES]
        graph = build_global_graph(stores)
        vid = tuple_vid("bestPathCost", ("a", "c", 5))
        dot = graph.to_dot(root=vid)
        assert "digraph provenance" in dot
        assert "sp3@a" in dot
        assert "link" in dot

    def test_full_graph_dot_larger_than_subgraph(self, rewritten_network):
        stores = [ProvenanceStore(rewritten_network.engine(n)) for n in FIGURE3_NODES]
        graph = build_global_graph(stores)
        vid = tuple_vid("bestPathCost", ("a", "c", 5))
        assert len(graph.to_dot()) > len(graph.to_dot(root=vid))

    def test_base_vids(self, rewritten_network):
        stores = [ProvenanceStore(rewritten_network.engine(n)) for n in FIGURE3_NODES]
        graph = build_global_graph(stores)
        assert graph.tuples[tuple_vid("link", ("a", "b", 3))].is_base

    def test_cycle_detection(self):
        graph = ProvenanceGraph()
        graph.add_prov_entry(("a", "v1", "r1", "a"))
        graph.add_prov_entry(("a", "v2", "r2", "a"))
        graph.add_rule_exec(("a", "r1", "x", ("v2",)))
        graph.add_rule_exec(("a", "r2", "y", ("v1",)))
        assert not graph.is_acyclic()


class TestGranularity:
    def test_tuple_level_uses_fact_rendering(self):
        spec = GranularitySpec(Granularity.TUPLE)
        fact = Fact("link", ("a", "b", 3))
        assert spec.leaf_label(fact, "vid", "a") == "link(a,b,3)"

    def test_tuple_level_falls_back_to_vid(self):
        spec = GranularitySpec(Granularity.TUPLE)
        assert spec.leaf_label(None, "deadbeef", "a") == "deadbeef"

    def test_node_level(self):
        spec = GranularitySpec(Granularity.NODE)
        assert spec.leaf_label(Fact("link", ("a", "b", 3)), "vid", "a") == "a"

    def test_trust_domain_level_with_prefix_map(self):
        spec = GranularitySpec(Granularity.TRUST_DOMAIN)
        assert spec.leaf_label(None, "vid", "s0_1_2_3") == "s0"
        assert spec.leaf_label(None, "vid", "t1_2") == "t1"

    def test_custom_domain_map(self):
        spec = GranularitySpec(
            Granularity.TRUST_DOMAIN, domain_of=lambda node: "domainX"
        )
        assert spec.leaf_label(None, "vid", "anything") == "domainX"

    def test_prefix_domain_map_keeps_what_precedes_the_first_underscore(self):
        mapper = prefix_domain_map()
        assert mapper("east-5") == "east-5"
        assert mapper("s3_1_2_0") == "s3"


class TestModes:
    def test_none_mode_returns_original_program(self):
        program = mincost_program()
        prepared = prepare_program(program, ProvenanceMode.NONE)
        assert prepared.program is program
        assert prepared.annotation_policy_factory is None

    def test_reference_mode_rewrites(self):
        prepared = prepare_program(mincost_program(), ProvenanceMode.REFERENCE)
        labels = {rule.label for rule in prepared.program.rules}
        assert any(label.endswith("_pprov") for label in labels)

    def test_value_mode_provides_policy_factory(self):
        prepared = prepare_program(mincost_program(), ProvenanceMode.VALUE)
        policy = prepared.annotation_policy_factory("n1")
        assert isinstance(policy, BddValuePolicy)
        # all nodes share the same manager
        other = prepared.annotation_policy_factory("n2")
        assert other.manager is policy.manager

    def test_value_mode_polynomial_policy(self):
        prepared = prepare_program(
            mincost_program(), ProvenanceMode.VALUE, value_policy="polynomial"
        )
        assert isinstance(prepared.annotation_policy_factory("n"), PolynomialValuePolicy)

    def test_value_mode_unknown_policy_rejected(self):
        with pytest.raises(ProvenanceError):
            prepare_program(mincost_program(), ProvenanceMode.VALUE, value_policy="xml")

    def test_centralized_mode_requires_collector(self):
        with pytest.raises(ProvenanceError):
            prepare_program(mincost_program(), ProvenanceMode.CENTRALIZED)

    def test_centralized_mode_adds_relay_rules(self):
        prepared = prepare_program(
            mincost_program(), ProvenanceMode.CENTRALIZED, collector="hub"
        )
        labels = {rule.label for rule in prepared.program.rules}
        assert "cent_prov" in labels
        assert "cent_ruleexec" in labels
        table_names = {decl.name for decl in prepared.program.declarations}
        assert CENTRAL_PROV_TABLE in table_names
        assert CENTRAL_RULE_EXEC_TABLE in table_names

    def test_centralized_execution_collects_at_hub(self):
        prepared = prepare_program(
            mincost_program(), ProvenanceMode.CENTRALIZED, collector="a"
        )
        network = StandaloneNetwork(FIGURE3_NODES, prepared.program)
        insert_symmetric_links(network)
        network.run()
        hub_engine = network.engine("a")
        central_rows = table_rows(hub_engine, CENTRAL_PROV_TABLE)
        assert len(central_rows) > 0
        # entries from remote nodes are present at the hub
        assert any(row[1] != "a" for row in central_rows)


class TestValuePolicies:
    def test_bdd_policy_combines_and_merges(self):
        policy = BddValuePolicy(BddManager())
        left = policy.base(Fact("link", ("a", "b", 1)))
        right = policy.base(Fact("link", ("b", "c", 1)))
        rule = parse_program("r1 x(@A) :- y(@A).").rules[0]
        joined = policy.combine(rule, [left, right], "a")
        assert joined.support() == left.support() | right.support()
        merged = policy.merge(left, joined)
        assert merged == left  # absorption: a + a*b = a
        assert policy.size(joined) > 0
        assert policy.size(None) == 0

    def test_polynomial_policy_merge_is_idempotent(self):
        policy = PolynomialValuePolicy()
        base = policy.base(Fact("link", ("a", "b", 1)))
        merged_once = policy.merge(base, base)
        assert merged_once == base
        rule = parse_program("r1 x(@A) :- y(@A).").rules[0]
        combined = policy.combine(rule, [base], "a")
        merged = policy.merge(base, combined)
        again = policy.merge(merged, combined)
        assert merged == again
        assert count_derivations(merged) == 2
