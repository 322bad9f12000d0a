"""Tests for the provenance-maintenance rewrite (Algorithm 1)."""

from __future__ import annotations

import pytest

from paper_example import FIGURE3_BEST_COSTS, FIGURE3_NODES, insert_symmetric_links
from repro.core import (
    PROV_TABLE,
    RULE_EXEC_TABLE,
    ProvenanceStore,
    RewriteError,
    build_global_graph,
    rewrite_program,
    rule_rid,
    tuple_vid,
)
from repro.core.provenance_store import rule_inputs
from repro.core.rewrite import ProvenanceRewriter
from repro.datalog import Fact, StandaloneNetwork, parse_program
from repro.protocols import mincost_program, packetforward_program, pathvector_program
from helpers import delete


class TestRewriteStructure:
    def test_non_aggregate_rule_produces_five_rules(self):
        program = parse_program("r1 reach(@D,S) :- link(@S,D,C).")
        rewritten = rewrite_program(program)
        labels = [rule.label for rule in rewritten.rules]
        for suffix in ("_ptmp", "_pexec", "_pmsg", "_phead", "_pprov"):
            assert f"r1{suffix}" in labels
        # plus one EDB prov rule for link
        assert "edb_link_pprov" in labels
        assert len(rewritten.rules) == 6

    def test_aggregate_rule_keeps_original_and_adds_three(self):
        rewritten = rewrite_program(mincost_program())
        labels = [rule.label for rule in rewritten.rules]
        assert "sp3" in labels           # original aggregate rule kept
        assert "sp3_ptmp" in labels
        assert "sp3_pexec" in labels
        assert "sp3_pprov" in labels
        assert "sp3_pmsg" not in labels  # aggregates are local: no message rule

    def test_prov_and_rule_exec_tables_declared(self):
        rewritten = rewrite_program(mincost_program())
        names = {decl.name for decl in rewritten.declarations}
        assert PROV_TABLE in names
        assert RULE_EXEC_TABLE in names

    def test_rewritten_program_validates(self):
        rewrite_program(mincost_program()).validate()
        rewrite_program(pathvector_program()).validate()
        rewrite_program(packetforward_program()).validate()

    def test_message_event_carries_only_rid_and_rloc_extra(self):
        program = parse_program("r1 reach(@D,S) :- link(@S,D,C).")
        rewritten = rewrite_program(program)
        (message_rule,) = [rule for rule in rewritten.rules if rule.label == "r1_pmsg"]
        # original head has 2 attributes; message event has 2 + RID + RLoc
        assert message_rule.head.arity == 4

    def test_unsupported_aggregate_rejected(self):
        program = parse_program("c1 total(@S,sum<C>) :- link(@S,D,C).")
        with pytest.raises(RewriteError):
            rewrite_program(program)

    def test_rule_without_body_atoms_rejected(self):
        program = parse_program("r1 one(@X,1) :- other(@X).")
        # remove the body atom to simulate a degenerate rule
        from repro.datalog.ast import Program, Rule

        degenerate = Program(rules=[Rule("r1", program.rules[0].head, [])])
        with pytest.raises(RewriteError):
            rewrite_program(degenerate)

    def test_constant_location_rule_rejected(self):
        program = parse_program('r1 out(@D,S) :- link(@"a",S,D).')
        with pytest.raises(RewriteError):
            rewrite_program(program)

    def test_fresh_variables_avoid_collisions(self):
        # The original rule already uses ProvRLoc as a variable name.
        program = parse_program(
            "r1 out(@S,ProvRLoc) :- link(@S,ProvRLoc,C)."
        )
        rewritten = rewrite_program(program)
        rewritten.validate()

    def test_declarations_carried_over(self):
        rewritten = rewrite_program(mincost_program())
        assert {decl.name for decl in rewritten.declarations} >= {"link", "pathCost"}


class TestRewriteExecution:
    """The rewritten program must derive the same tuples plus provenance."""

    @pytest.fixture
    def rewritten_network(self):
        network = StandaloneNetwork(FIGURE3_NODES, rewrite_program(mincost_program()))
        insert_symmetric_links(network)
        network.run()
        return network

    def test_same_best_path_costs_as_original(self, rewritten_network):
        rows = rewritten_network.all_rows("bestPathCost")
        for (source, destination), cost in FIGURE3_BEST_COSTS.items():
            assert (source, destination, cost) in rows

    def test_prov_entries_created_for_base_tuples(self, rewritten_network):
        store = ProvenanceStore(rewritten_network.engine("a"))
        vid = tuple_vid("link", ("a", "b", 3))
        rows = list(store.probe(PROV_TABLE, vid))
        assert len(rows) == 1
        assert rows[0][2] is None  # a base tuple's null RID

    def test_prov_entries_for_derived_tuple_match_paper_example(self, rewritten_network):
        """pathCost(@a,c,5) has two derivations: sp1@a and sp2@b (Table 1)."""
        store = ProvenanceStore(rewritten_network.engine("a"))
        vid = tuple_vid("pathCost", ("a", "c", 5))
        rows = [row for row in store.probe(PROV_TABLE, vid) if row[2] is not None]
        assert len(rows) == 2
        locations = sorted(row[3] for row in rows)
        assert locations == ["a", "b"]

    def test_rule_exec_rid_matches_paper_hash_formula(self, rewritten_network):
        """RID2 = SHA1("sp1" + a + VID3) for pathCost(@a,c,5) via sp1@a (Figure 5)."""
        store_a = ProvenanceStore(rewritten_network.engine("a"))
        vid_link = tuple_vid("link", ("a", "c", 5))
        expected_rid = rule_rid("sp1", "a", [vid_link])
        (row,) = store_a.probe(RULE_EXEC_TABLE, expected_rid)
        assert row[2] == "sp1"
        assert list(rule_inputs(row)) == [vid_link]

    def test_sp2_rule_exec_references_both_inputs(self, rewritten_network):
        """RID3 = SHA1("sp2" + b + VID_link(b,a,3) + VID_bestPathCost(b,c,2))."""
        store_b = ProvenanceStore(rewritten_network.engine("b"))
        vid_link = tuple_vid("link", ("b", "a", 3))
        vid_best = tuple_vid("bestPathCost", ("b", "c", 2))
        expected_rid = rule_rid("sp2", "b", [vid_link, vid_best])
        (row,) = store_b.probe(RULE_EXEC_TABLE, expected_rid)
        assert row[2] == "sp2"
        assert set(rule_inputs(row)) == {vid_link, vid_best}

    def test_aggregate_provenance_attributed_to_winning_tuple(self, rewritten_network):
        """bestPathCost(@a,c,5) derives from the winning pathCost(@a,c,5) via sp3@a."""
        store_a = ProvenanceStore(rewritten_network.engine("a"))
        vid_best = tuple_vid("bestPathCost", ("a", "c", 5))
        rids = [row[2] for row in store_a.probe(PROV_TABLE, vid_best) if row[2] is not None]
        assert len(rids) >= 1
        (rule_row,) = store_a.probe(RULE_EXEC_TABLE, rids[0])
        assert rule_row[2] == "sp3"
        assert tuple_vid("pathCost", ("a", "c", 5)) in rule_inputs(rule_row)

    def test_global_graph_matches_figure5(self, rewritten_network):
        stores = [
            ProvenanceStore(rewritten_network.engine(node)) for node in FIGURE3_NODES
        ]
        graph = build_global_graph(stores)
        assert graph.is_acyclic()
        vid = tuple_vid("bestPathCost", ("a", "c", 5))
        bases = graph.reachable_base_tuples(vid)
        base_tuples = {
            (graph.tuples[b].fact.name, graph.tuples[b].fact.values) for b in bases
        }
        assert base_tuples == {
            ("link", ("a", "c", 5)),
            ("link", ("b", "a", 3)),
            ("link", ("b", "c", 2)),
        }
        assert graph.nodes_involved(vid) == frozenset({"a", "b"})

    def test_deletion_cascades_to_prov_tables(self, rewritten_network):
        network = rewritten_network
        store_a = ProvenanceStore(network.engine("a"))
        vid_pc = tuple_vid("pathCost", ("a", "c", 5))
        assert len([row for row in store_a.probe(PROV_TABLE, vid_pc) if row[2] is not None]) == 2
        delete(network, Fact("link", ("a", "c", 5)))
        delete(network, Fact("link", ("c", "a", 5)))
        network.run()
        remaining = [row for row in store_a.probe(PROV_TABLE, vid_pc) if row[2] is not None]
        assert len(remaining) == 1  # only the derivation through b survives
        # the link's own base prov row is gone as well
        assert not store_a.probe(PROV_TABLE, tuple_vid("link", ("a", "c", 5)))

    def test_prov_row_counts_are_positive_everywhere(self, rewritten_network):
        for node in FIGURE3_NODES:
            store = ProvenanceStore(rewritten_network.engine(node))
            assert store.prov_row_count() > 0
            assert store.rule_exec_row_count() > 0


class TestPathvectorRewriteExecution:
    def test_pathvector_rewrite_preserves_routes(self):
        network = StandaloneNetwork(FIGURE3_NODES, rewrite_program(pathvector_program()))
        insert_symmetric_links(network)
        network.run()
        rows = [row for row in network.all_rows("bestPath") if row[0] == "a" and row[1] == "c"]
        assert len(rows) == 1
        assert list(rows[0][3]) == ["a", "b", "c"]

    def test_packetforward_rewrite_executes(self):
        program = pathvector_program().extended(packetforward_program(), "combined")
        network = StandaloneNetwork(FIGURE3_NODES, rewrite_program(program))
        insert_symmetric_links(network)
        network.run()
        network.insert(Fact("ePacket", ("a", "a", "d", "payload")))
        network.run()
        received = network.all_rows("recvPacket")
        assert ("d", "a", "d", "payload") in received
