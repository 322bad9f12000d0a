"""Unit tests for the cost-based planner subsystem (repro.datalog.plan)."""

from __future__ import annotations

import pytest

from repro.datalog import Fact, NDlogEngine, parse_program, parse_rule
from repro.datalog.ast import Atom, Rule, TableDecl
from repro.storage.memory import Catalog, Table
from repro.datalog.errors import SchemaError, ValidationError
from repro.datalog.plan import (
    CatalogStatistics,
    CostModel,
    GreedyOptimizer,
    IndexManager,
    PlanCompiler,
    construct_join_graph,
    explain_plan,
    normalize_rule,
)
from repro.datalog.terms import BinaryOp, Constant, Variable

from oracle import ENGINES, InterpretedEngine, NestedLoopEngine, built_with


# ---------------------------------------------------------------------- #
# normalization
# ---------------------------------------------------------------------- #
class TestNormalize:
    def test_variable_constant_and_wildcard_positions(self):
        rule = parse_rule('t1 head(@A,D) :- edge(@A,B,5), path(@B,D,_), D != A.')
        normalized = normalize_rule(rule)
        assert normalized.atom_count == 2
        edge, path = normalized.atoms
        assert edge.name == "edge" and edge.position == 0
        assert edge.var_positions == {"A": (0,), "B": (1,)}
        assert edge.const_positions == {2: 5}
        assert path.var_positions == {"B": (0,), "D": (1,)}
        # the wildcard in position 2 binds nothing
        assert "_" not in path.var_positions
        assert path.const_positions == {}

    def test_repeated_variable_records_both_positions(self):
        rule = parse_rule("t2 out(@A) :- loop(@A,A).")
        signature = normalize_rule(rule).atoms[0]
        assert signature.var_positions == {"A": (0, 1)}

    def test_expression_argument_positions(self):
        head = Atom("out", (Variable("A"),))
        body_atom = Atom("t", (Variable("A"), Variable("B")))
        expr_atom = Atom(
            "q", (Variable("A"), BinaryOp("+", Variable("B"), Constant(1)))
        )
        rule = Rule("t3", head, (body_atom, expr_atom))
        signature = normalize_rule(rule).atoms[1]
        assert signature.expr_positions == {1: frozenset({"B"})}

    def test_literals_in_body_order_with_reads_and_binds(self):
        rule = parse_rule(
            "t4 out(@A,C) :- t(@A,B), C = B + 1, C < 10, u(@A,C)."
        )
        normalized = normalize_rule(rule)
        assignment, condition = normalized.literals
        assert assignment.binds == "C" and assignment.reads == {"B"}
        assert condition.binds is None and condition.reads == {"C"}

    def test_evaluable_literal_prefix_stops_at_first_blocked_literal(self):
        rule = parse_rule(
            "t5 out(@A,C) :- t(@A,B), C = D + 1, B < 9, u(@A,D)."
        )
        normalized = normalize_rule(rule)
        # D is not bound after the trigger atom, so nothing is evaluable even
        # though the later condition B < 9 would be: literals apply in order.
        assert normalized.evaluable_literal_prefix(frozenset({"A", "B"})) == 0
        assert normalized.evaluable_literal_prefix(frozenset({"A", "B", "D"})) == 2


# ---------------------------------------------------------------------- #
# join graph
# ---------------------------------------------------------------------- #
class TestJoinGraph:
    def test_edges_label_shared_variables(self):
        rule = parse_rule("j1 out(@A,D) :- t(@A,B), p(@B,C), q(@C,D).")
        graph = construct_join_graph(normalize_rule(rule))
        assert graph.shared_variables(0, 1) == {"B"}
        assert graph.shared_variables(1, 2) == {"C"}
        assert graph.shared_variables(0, 2) == frozenset()
        assert graph.neighbors(1) == {0, 2}
        assert graph.is_connected()

    def test_disconnected_body_reports_components(self):
        rule = parse_rule("j2 out(@A,C) :- t(@A,B), lonely(@C,D).")
        graph = construct_join_graph(normalize_rule(rule))
        assert not graph.is_connected()
        assert graph.components() == [frozenset({0}), frozenset({1})]
        assert not graph.is_connected_to(1, {0})


# ---------------------------------------------------------------------- #
# cost model
# ---------------------------------------------------------------------- #
def _catalog_with(name: str, rows: int, arity: int = 2, keys=()) -> Catalog:
    catalog = Catalog()
    catalog.declare(TableDecl(name, arity, keys))
    table = catalog.table(name)
    for i in range(rows):
        table.insert(tuple(f"v{i}-{j}" for j in range(arity)))
    return catalog


class TestCostModel:
    def test_unbound_lookup_is_a_full_scan(self):
        catalog = _catalog_with("r", 40)
        model = CostModel(CatalogStatistics(catalog))
        signature = normalize_rule(parse_rule("c1 out(@A) :- t(@A,B), r(@C,D).")).atoms[1]
        estimate = model.estimate(signature, frozenset({"A", "B"}))
        assert estimate.full_scan and estimate.rows == 40.0

    def test_each_bound_position_applies_selectivity(self):
        catalog = _catalog_with("r", 100)
        model = CostModel(CatalogStatistics(catalog), selectivity=0.1)
        signature = normalize_rule(parse_rule("c2 out(@A) :- t(@A,B), r(@A,B).")).atoms[1]
        one = model.estimate(signature, frozenset({"A"}))
        both = model.estimate(signature, frozenset({"A", "B"}))
        assert one.bound_positions == (0,) and one.rows == pytest.approx(10.0)
        assert both.bound_positions == (0, 1) and both.rows == pytest.approx(1.0)

    def test_primary_key_coverage_caps_the_estimate_at_one(self):
        catalog = _catalog_with("r", 500, arity=3, keys=(0, 1))
        model = CostModel(CatalogStatistics(catalog))
        signature = normalize_rule(
            parse_rule("c3 out(@A) :- t(@A,B), r(@A,B,C).")
        ).atoms[1]
        estimate = model.estimate(signature, frozenset({"A", "B"}))
        assert estimate.key_covered and estimate.rows == 1.0

    def test_rejects_nonsense_selectivity(self):
        catalog = Catalog()
        with pytest.raises(ValueError):
            CostModel(CatalogStatistics(catalog), selectivity=0.0)


# ---------------------------------------------------------------------- #
# greedy ordering
# ---------------------------------------------------------------------- #
class TestGreedyOrdering:
    RULE = "g1 out(@A,D) :- t(@A,B,C), big(@B,D), small(@C,D)."

    def _optimizer(self, big_rows: int, small_rows: int):
        catalog = Catalog()
        catalog.declare(TableDecl("t", 3))
        catalog.declare(TableDecl("big", 2))
        catalog.declare(TableDecl("small", 2))
        for i in range(big_rows):
            catalog.table("big").insert((f"b{i}", f"d{i}"))
        for i in range(small_rows):
            catalog.table("small").insert((f"c{i}", f"d{i}"))
        statistics = CatalogStatistics(catalog)
        return GreedyOptimizer(CostModel(statistics)), catalog

    def test_skewed_cardinalities_put_the_small_relation_first(self):
        optimizer, _ = self._optimizer(big_rows=200, small_rows=3)
        rule = parse_rule(self.RULE)
        normalized = normalize_rule(rule)
        graph = construct_join_graph(normalized)
        order = optimizer.order(normalized, graph, 0)
        # naive body order would scan `big` first; greedy flips the order
        assert order.positions == (2, 1)

    def test_reversed_skew_reverses_the_order(self):
        optimizer, _ = self._optimizer(big_rows=3, small_rows=200)
        rule = parse_rule(self.RULE)
        normalized = normalize_rule(rule)
        graph = construct_join_graph(normalized)
        order = optimizer.order(normalized, graph, 0)
        assert order.positions == (1, 2)

    def test_connected_atoms_beat_disconnected_ones(self):
        rule = parse_rule("g2 out(@A,B,C) :- t(@A,B), lonely(@C,D), near(@B,E).")
        catalog = Catalog()
        for name, arity in (("t", 2), ("lonely", 2), ("near", 2)):
            catalog.declare(TableDecl(name, arity))
        catalog.table("lonely").insert(("c", "d"))  # tiny but disconnected
        for i in range(50):
            catalog.table("near").insert((f"b{i}", f"e{i}"))
        optimizer = GreedyOptimizer(CostModel(CatalogStatistics(catalog)))
        normalized = normalize_rule(rule)
        order = optimizer.order(normalized, construct_join_graph(normalized), 0)
        assert order.positions == (2, 1)
        assert order.steps[0].connected and not order.steps[1].connected

    def test_ties_fall_back_to_body_order(self):
        optimizer, _ = self._optimizer(big_rows=0, small_rows=0)
        rule = parse_rule(self.RULE)
        normalized = normalize_rule(rule)
        order = optimizer.order(normalized, construct_join_graph(normalized), 0)
        assert order.positions == (1, 2)


# ---------------------------------------------------------------------- #
# secondary indexes
# ---------------------------------------------------------------------- #
class TestIndexMaintenance:
    def test_require_builds_once_and_counts(self):
        catalog = Catalog()
        catalog.declare(TableDecl("r", 2))
        manager = IndexManager(catalog)
        assert manager.require("r", (1, 0)) == (0, 1)
        assert manager.require("r", (0, 1)) == (0, 1)
        assert manager.counters["indexes_registered"] == 1
        assert catalog.table("r").has_index((0, 1))

    def test_index_stays_consistent_under_derivation_counted_deletes(self):
        table = Table("r", 2)
        table.ensure_index((0,))
        table.insert(("a", 1))
        table.insert(("a", 1))  # second derivation of the same fact
        table.insert(("a", 2))
        assert sorted(table.lookup({0: "a"})) == [("a", 1), ("a", 2)]
        table.delete(("a", 1))  # count 2 -> 1: still visible
        assert sorted(table.lookup({0: "a"})) == [("a", 1), ("a", 2)]
        table.delete(("a", 1))  # count 1 -> 0: gone from the index too
        assert sorted(table.lookup({0: "a"})) == [("a", 2)]
        table.delete(("a", 2))
        assert list(table.lookup({0: "a"})) == []
        assert table.index_size((0,)) == 0

    def test_primary_key_replacement_updates_the_index(self):
        table = Table("r", 3, key_positions=(0, 1))
        table.ensure_index((0,))
        table.insert(("a", "b", 1))
        outcome = table.insert(("a", "b", 2))
        assert outcome.replaced is not None
        assert list(table.lookup({0: "a"})) == [("a", "b", 2)]

    def test_indexed_lookup_preserves_insertion_order(self):
        # Planned (indexed) and naive (full scan) evaluation must enumerate
        # candidate rows identically, or equal-cost ties break differently.
        table = Table("r", 2)
        table.ensure_index((0,))
        rows = [("a", i) for i in (3, 1, 2, 0)]
        for row in rows:
            table.insert(row)
        assert list(table.lookup({0: "a"})) == rows
        table.delete(("a", 1))
        table.insert(("a", 1))  # re-insertion moves the row to the end
        assert list(table.lookup({0: "a"})) == [("a", 3), ("a", 2), ("a", 0), ("a", 1)]
        assert list(table.lookup({0: "a"})) == [r for r in table.rows() if r[0] == "a"]

    def test_ensure_index_validates_positions(self):
        table = Table("r", 2)
        with pytest.raises(SchemaError):
            table.ensure_index((5,))
        with pytest.raises(SchemaError):
            table.ensure_index((-1,))


# ---------------------------------------------------------------------- #
# compiled plans and the engine integration
# ---------------------------------------------------------------------- #
class TestCompiledPlans:
    def test_engine_compiles_one_plan_per_rule_and_position(self):
        engine = NDlogEngine("a")
        engine.load_program(
            parse_program("p1 out(@A,C) :- t(@A,B), u(@B,C).")
        )
        assert engine.stats["plans_compiled"] == 2
        assert engine.stats["indexes_registered"] >= 1

    def test_invalid_planner_name_is_rejected(self):
        # One executor: there is no strategy to name.
        with pytest.raises(TypeError):
            NDlogEngine("a", planner="greedy")
        with pytest.raises(TypeError):
            NDlogEngine("a", pipeline="batched")

    def test_stale_plan_is_recompiled_when_cardinalities_drift(self):
        engine = NDlogEngine("a")
        engine.load_program(
            parse_program("p2 out(@A,D) :- t(@A,B), u(@B,C), v(@C,D).")
        )
        # fill u far beyond the (empty) compile-time snapshot, bypassing the
        # evaluation loop so no plan executes while we do it
        for i in range(64):
            engine.catalog.table("u").insert((f"b{i}", f"c{i}"))
        engine.insert(Fact("t", ("a", "b0")))
        engine.run()
        assert engine.stats["plans_recompiled"] >= 1

    def test_condition_pushdown_skips_doomed_scans(self):
        program = parse_program("p3 out(@A,B) :- t(@A,C), u(@A,B), C < 5.")
        greedy = NDlogEngine("a", program=program)
        naive = NestedLoopEngine("a", program=program)
        for engine in (greedy, naive):
            for i in range(20):
                engine.catalog.table("u").insert(("a", f"b{i}"))
            engine.insert(Fact("t", ("a", 99)))  # fails C < 5
            engine.run()
        assert greedy.table_rows("out") == naive.table_rows("out") == []
        # the pushed-down condition prunes before u is ever scanned
        assert greedy.stats["tuples_scanned"] == 0
        assert naive.stats["tuples_scanned"] == 20

    def test_expression_arguments_become_lookup_constraints(self):
        program = parse_program("p4 out(@A,B) :- t(@A,B), u(@A, B + 1).")
        greedy = NDlogEngine("a", program=program)
        naive = NestedLoopEngine("a", program=program)
        for engine in (greedy, naive):
            for i in range(10):
                engine.catalog.table("u").insert(("a", i))
            engine.insert(Fact("t", ("a", 3)))
            engine.run()
        assert greedy.table_rows("out") == naive.table_rows("out") == [("a", 3)]
        # greedy looks up u on both positions; naive examines all ten rows
        assert greedy.stats["tuples_scanned"] == 1
        assert naive.stats["tuples_scanned"] == 10

    def test_failing_expression_constraint_falls_back_to_registered_index(self):
        # B / 2 raises EvaluationError for a string B: the lookup must fall
        # back to the var-only constraint set — whose index the compiler
        # pre-registered — and reject rows per-row exactly like naive.
        program = parse_program("p7 out(@A,B) :- t(@A,B), u(@A, B / 2).")
        greedy = NDlogEngine("a", program=program)
        naive = NestedLoopEngine("a", program=program)
        assert greedy.index_manager.is_registered("u", (0, 1))
        assert greedy.index_manager.is_registered("u", (0,))  # the fallback
        for engine in (greedy, naive):
            for i in range(4):
                engine.catalog.table("u").insert(("a", i))
            engine.insert(Fact("t", ("a", "oops")))
            engine.run()
        assert greedy.table_rows("out") == naive.table_rows("out") == []
        # no untracked index appeared beyond the two the planner registered
        assert greedy.catalog.table("u").index_position_sets() == [(0,), (0, 1)]

    def test_assignment_only_prefixes_are_not_pushed_down(self):
        # An evaluable prefix of pure assignments cannot prune, and finalize
        # re-evaluates literals anyway — the compiler must not schedule it.
        engine = NDlogEngine("a")
        engine.load_program(
            parse_program("p8 out(@A,C) :- t(@A,B), C = B + 1, u(@A,C).")
        )
        plan = next(
            p for p in engine._plans.values() if p.trigger_position == 0
        )
        assert plan.initial_literal_prefix == 0

    def test_explain_describes_the_chosen_plan(self):
        engine = NDlogEngine("a")
        engine.load_program(
            parse_program("p5 out(@A,C) :- t(@A,B), u(@B,C), C != A.")
        )
        text = engine.explain("p5")
        assert "rule p5" in text
        assert "delta on t" in text and "delta on u" in text
        assert "index(0,)" in text
        assert "est_rows" in text
        # unknown labels degrade gracefully
        assert "no compiled plans" in engine.explain("nope")

    def test_duplicate_rule_labels_across_programs_keep_separate_plans(self):
        # load_program may be called more than once; two distinct rules that
        # happen to share a label must not clobber each other's plans.
        for engine_class in (NDlogEngine, InterpretedEngine, NestedLoopEngine):
            engine = engine_class("a")
            engine.load_program(parse_program("r1 out1(@A,B) :- t(@A,B)."))
            engine.load_program(parse_program("r1 out2(@A,B) :- t(@A,B)."))
            engine.insert(Fact("t", ("a", "x")))
            engine.run()
            assert engine.table_rows("out1") == [("a", "x")], engine_class
            assert engine.table_rows("out2") == [("a", "x")], engine_class

    @pytest.mark.parametrize(
        "first, second",
        [
            ("r1 best(@S,min<C>) :- cost(@S,C).", "r1 most(@S,max<D>) :- load(@S,D)."),
            ("r1 best(@S,min<C>) :- t(@S,C).", "r1 copy(@S,C,X) :- t(@S,C), X = C + 1."),
            ("r1 copy(@S,C) :- t(@S,C).", "r1 best(@S,min<C>) :- t(@S,C)."),
        ],
        ids=["aggregate-then-aggregate", "aggregate-then-plain", "plain-then-aggregate"],
    )
    def test_label_shared_with_an_aggregate_rule_is_rejected(self, first, second):
        # Aggregate state is keyed by rule label: a second rule under an
        # aggregate rule's label would read (or be routed into) its groups.
        engine = NDlogEngine("a", parse_program(first))
        with pytest.raises(ValidationError, match="aggregate"):
            engine.load_program(parse_program(second))

    def test_generated_code_is_labelled_per_rule_and_trigger_position(self):
        # Profilers key a function by (co_filename, first line, name): with
        # one shared filename every generated executor collapses into one
        # row and cProfile's snapshot keeps whichever it saw last.
        engine = NDlogEngine("a")
        engine.load_program(
            parse_program(
                """
                q1 out(@A,C) :- t(@A,B), u(@B,C).
                q2 copy(@A,B) :- t(@A,B).
                """
            )
        )
        plans = {
            (plan.rule.label, plan.trigger_position): plan
            for plan in engine._plans.values()
        }
        for attribute in ("fused_exec", "_finalize_c"):
            filenames = {
                key: getattr(plan, attribute).__code__.co_filename
                for key, plan in plans.items()
            }
            assert len(set(filenames.values())) == len(plans) == 3, filenames
        assert plans[("q1", 1)].fused_exec.__code__.co_filename == "<plan-one-step q1@1>"
        assert plans[("q2", 0)].fused_exec.__code__.co_filename == "<plan-zero-step q2@0>"

    def test_plan_compiler_is_reusable_across_positions(self):
        catalog = Catalog()
        catalog.declare(TableDecl("t", 2))
        catalog.declare(TableDecl("u", 2))
        statistics = CatalogStatistics(catalog)
        compiler = PlanCompiler(statistics, IndexManager(catalog))
        rule = parse_rule("p6 out(@A,C) :- t(@A,B), u(@B,C).")
        plan0 = compiler.compile(rule, 0)
        plan1 = compiler.compile(rule, 1)
        assert plan0.steps[0].atom.name == "u"
        assert plan1.steps[0].atom.name == "t"
        assert "emit" in explain_plan(plan0)


# ---------------------------------------------------------------------- #
# re-registered builtins in generated code
# ---------------------------------------------------------------------- #
def _ring_rows(functions=None, engine_class=NDlogEngine):
    """Rewritten PATHVECTOR to fixpoint on a six-node ring: every row."""
    from repro.core.rewrite import rewrite_program
    from repro.datalog import StandaloneNetwork
    from repro.net import ring_topology
    from repro.protocols import pathvector_program

    topology = ring_topology(6, seed=0)
    with built_with(engine_class):
        network = StandaloneNetwork(
            topology.nodes, rewrite_program(pathvector_program()), functions=functions
        )
    for source, destination, cost in topology.link_facts():
        network.insert(Fact("link", (source, destination, cost)))
    network.run()
    names = set()
    for engine in network.engines.values():
        names.update(engine.catalog.names())
    return {name: network.all_rows(name) for name in sorted(names)}


def _registry_with_sha1(function):
    from repro.datalog.functions import default_registry

    functions = default_registry()
    functions.register("f_sha1", function)
    return functions


def test_reregistered_builtin_falls_back_to_the_registered_function():
    """Generated code resolves builtins per call; the result must not change.

    Re-registering ``f_sha1`` with an equal implementation takes generated
    code off its inline memo probe and through the registry on every call.
    """
    from repro.datalog.functions import _f_sha1

    reference = _ring_rows()
    assert _ring_rows(_registry_with_sha1(lambda args: _f_sha1(args))) == reference


def test_reregistered_f_sha1_wins_over_the_inline_memo_probe():
    """A different ``f_sha1`` must reach every VID, even with a warm memo."""
    from repro.datalog.functions import sha1_hex

    default = _ring_rows()  # warms the process-wide memo with default digests

    def salted(args):
        return sha1_hex("salt" + "".join(map(str, args)))

    rows = {
        name: _ring_rows(_registry_with_sha1(salted), engine_class)
        for name, engine_class in ENGINES.items()
    }
    assert rows["compiled"] == rows["interpreted"]
    assert rows["compiled"]["prov"] != default["prov"]


def test_inline_memo_probe_counts_like_the_builtin():
    """Hits and misses per run are the interpreter's, caching on or off."""
    from repro.core.vid import clear_vid_caches, set_vid_caching
    from repro.datalog.functions import sha1_cache_stats

    counts = {}
    try:
        for caching in (True, False):
            set_vid_caching(caching)
            for name, engine_class in ENGINES.items():
                clear_vid_caches()
                _ring_rows(engine_class=engine_class)
                stats = sha1_cache_stats()
                counts[caching, name] = (stats["hits"], stats["misses"], stats["entries"])
    finally:
        set_vid_caching(True)
    assert counts[True, "compiled"] == counts[True, "interpreted"]
    assert counts[True, "compiled"][0] > 0  # the rewrite does hit the memo
    assert counts[False, "compiled"] == counts[False, "interpreted"] == (0, 0, 0)


def test_metrics_snapshot_exposes_sha1_and_vid_cache_counters():
    from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode
    from repro.net import ring_topology
    from repro.protocols import mincost_program

    network = ExspanNetwork(
        ring_topology(5, seed=0),
        mincost_program(),
        config=ExspanConfig(mode=ProvenanceMode.REFERENCE),
    )
    network.seed_links()
    network.run_to_fixpoint()
    snapshot = network.metrics_snapshot()
    counters = snapshot["counters"]
    for layer in ("sha1", "vid"):
        assert f"cache.{layer}.hits" in counters
        assert f"cache.{layer}.misses" in counters
        assert snapshot["gauges"][f"cache.{layer}.limit"] > 0
    # the rewrite workload actually exercises the sha1 memo
    assert counters["cache.sha1.hits"] + counters["cache.sha1.misses"] > 0


@pytest.mark.parametrize("head", ["there", "eThere"])
def test_remote_derivation_without_send_callback_raises(head):
    """Generated emission reports a remote head it cannot ship, sink or not."""
    from repro.datalog.errors import EvaluationError

    engine = NDlogEngine("n", parse_program(f"r1 {head}(@D,S) :- here(@S,D)."))
    engine.insert(Fact("here", ("n", "m")))
    with pytest.raises(EvaluationError, match="no .*send callback"):
        engine.run()
