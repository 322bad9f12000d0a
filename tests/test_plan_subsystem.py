"""Unit tests for the rule planner subsystem (repro.datalog.plan)."""

from __future__ import annotations

import pytest

from repro.datalog import Fact, NDlogEngine, parse_program
from repro.datalog.ast import TableDecl
from repro.storage.memory import Catalog, Table
from repro.datalog.errors import SchemaError, ValidationError
from repro.datalog.plan import IndexManager, PlanCompiler, explain_plan, normalize_rule
from repro.datalog.plan.compiler import _bound_positions
from helpers import delete, parse_rule, table_rows

from oracle import ENGINES, InterpretedEngine, NestedLoopEngine, built_with


# ---------------------------------------------------------------------- #
# normalization
# ---------------------------------------------------------------------- #
class TestNormalize:
    def test_variable_constant_and_wildcard_positions(self):
        rule = parse_rule('t1 head(@A,D) :- edge(@A,B,5), path(@B,D,_), D != A.')
        normalized = normalize_rule(rule)
        assert len(normalized.atoms) == 2
        edge, path = normalized.atoms
        assert edge.atom.name == "edge" and edge.position == 0
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
# static join order
# ---------------------------------------------------------------------- #
def _step_positions(text: str):
    plan = PlanCompiler(IndexManager(Catalog())).compile(parse_rule(text), 0)
    return [step.body_position for step in plan.steps], plan


class TestStaticJoinOrder:
    RULE = "g1 out(@A,D) :- t(@A,B,C), big(@B,D), small(@C,D)."

    def test_plan_depends_only_on_its_rule(self):
        # Compiled on an empty catalog and on a skewed one, the plan and its
        # EXPLAIN text are the same: nothing in a plan reads a table.
        rule = parse_rule(self.RULE)
        plans = []
        for big_rows, small_rows in ((0, 0), (200, 3)):
            catalog = Catalog()
            for name, arity in (("t", 3), ("big", 2), ("small", 2)):
                catalog.declare(TableDecl(name, arity))
            for i in range(big_rows):
                catalog.table("big").insert((f"b{i}", f"d{i}"))
            for i in range(small_rows):
                catalog.table("small").insert((f"c{i}", f"d{i}"))
            plans.append(PlanCompiler(IndexManager(catalog)).compile(rule, 0))
        empty, skewed = plans
        assert [s.body_position for s in empty.steps] == [s.body_position for s in skewed.steps]
        assert explain_plan(empty) == explain_plan(skewed)

    def test_connected_atoms_beat_disconnected_ones(self):
        positions, plan = _step_positions("g2 out(@A,B,C) :- t(@A,B), lonely(@C,D), near(@B,E).")
        assert positions == [2, 1]
        assert [step.connected for step in plan.steps] == [True, False]
        assert "cross product lonely" in explain_plan(plan)

    def test_more_constrained_positions_go_first(self):
        positions, plan = _step_positions("g3 out(@A,D) :- t(@A,B), one(@B,D), two(@A,B,E).")
        assert positions == [2, 1]
        assert [step.index_positions for step in plan.steps] == [(0, 1), (0,)]

    def test_ties_fall_back_to_body_order(self):
        positions, _ = _step_positions(self.RULE)
        assert positions == [1, 2]

    def test_constants_count_as_constrained_positions(self):
        positions, plan = _step_positions("g4 out(@A,D) :- t(@A,B), loose(@B,D), pinned(@B,E,7).")
        assert positions == [2, 1]
        assert [step.index_positions for step in plan.steps] == [(0, 2), (0,)]
        assert "[2]=7" in explain_plan(plan)

    def test_a_cross_product_binds_what_follows_it(self):
        positions, plan = _step_positions("g5 out(@A,E) :- t(@A,B), lonely(@C,D), after(@D,E).")
        assert positions == [1, 2]
        assert [step.connected for step in plan.steps] == [False, True]
        assert [step.index_positions for step in plan.steps] == [(), (0,)]

    def test_a_middle_trigger_joins_outward(self):
        rule = parse_rule("g6 out(@A,D) :- t(@A,B), u(@B,C), v(@C,D).")
        plan = PlanCompiler(IndexManager(Catalog())).compile(rule, 1)
        assert [step.body_position for step in plan.steps] == [0, 2]
        assert [step.connected for step in plan.steps] == [True, True]
        # body order is kept for the facts whatever the join order
        assert [position for position, _ in plan.body_order] == [0, 2]


class TestBoundPositions:
    @staticmethod
    def _signature(text: str, position: int):
        return normalize_rule(parse_rule(text)).atoms[position]

    def test_constants_are_constrained_before_anything_is_bound(self):
        signature = self._signature("b1 out(@A) :- t(@A,B), r(@C,5).", 1)
        assert _bound_positions(signature, frozenset()) == (1,)
        assert _bound_positions(signature, frozenset({"C"})) == (0, 1)

    def test_a_repeated_variable_constrains_every_position(self):
        signature = self._signature("b2 out(@A) :- t(@A,B), r(@B,C,B).", 1)
        assert _bound_positions(signature, frozenset({"A", "B"})) == (0, 2)

    def test_wildcards_and_unrelated_variables_constrain_nothing(self):
        signature = self._signature("b3 out(@A) :- t(@A,B), r(@A,_).", 1)
        assert _bound_positions(signature, frozenset({"A", "B"})) == (0,)
        assert _bound_positions(signature, frozenset({"B", "X"})) == ()


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
        assert (0, 1) in catalog.table("r")._indexes

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
        assert table._indexes[(0,)] == {}

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

    def test_plans_are_never_recompiled_mid_run(self):
        engine = NDlogEngine("a")
        engine.load_program(
            parse_program("p2 out(@A,D) :- t(@A,B), u(@B,C), v(@C,D).")
        )
        before = dict(engine._plans)
        text = engine.explain("p2")
        # fill u far beyond its size at compile time, bypassing the
        # evaluation loop, then fire every plan of the rule
        for i in range(64):
            engine.catalog.table("u").insert((f"b{i}", f"c{i}"))
        engine.insert(Fact("t", ("a", "b0")))
        engine.insert(Fact("v", ("c0", "d")))
        engine.run()
        assert table_rows(engine, "out") == [("a", "d")]
        assert "plans_recompiled" not in engine.stats
        assert engine._plans.keys() == before.keys()
        assert all(engine._plans[key] is plan for key, plan in before.items())
        assert engine.explain("p2") == text

    def test_condition_pushdown_skips_doomed_scans(self):
        program = parse_program("p3 out(@A,B) :- t(@A,C), u(@A,B), C < 5.")
        greedy = NDlogEngine("a", program=program)
        naive = NestedLoopEngine("a", program=program)
        for engine in (greedy, naive):
            for i in range(20):
                engine.catalog.table("u").insert(("a", f"b{i}"))
            engine.insert(Fact("t", ("a", 99)))  # fails C < 5
            engine.run()
        assert table_rows(greedy, "out") == table_rows(naive, "out") == []
        # the pushed-down condition prunes before u is ever scanned
        assert greedy.stats["tuples_scanned"] == 0
        assert naive.stats["tuples_scanned"] == 20

    def test_an_atom_of_another_arity_matches_nothing(self):
        """``u`` holds rows of arity 3 under two-argument ``u`` atoms: the
        probe, the full scan and the trigger match nothing, and the counters
        move as the interpreter moves them."""
        program = parse_program(
            "p9 out(@A,C) :- t(@A,B), u(@B,C).\n"
            "p10 all(@A,C) :- t(@A,B), u(@C,D)."
        )
        results = {}
        for name, engine_class in ENGINES.items():
            engine = engine_class("a", program=program)
            for i in range(3):
                engine.catalog.table("u").insert(("b", f"c{i}", i))
            engine.insert(Fact("t", ("a", "b")))
            engine.insert(Fact("u", ("b", "c9", 9)))
            engine.run()
            rows = (table_rows(engine, "out"), table_rows(engine, "all"))
            results[name] = (rows, dict(engine.stats))
        assert results["compiled"] == results["interpreted"]
        rows, stats = results["compiled"]
        assert rows == ([], [])
        assert stats["index_lookups"] == 1 and stats["full_scans"] == 1
        assert stats["tuples_scanned"] == 6

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
        assert "join u(@B, C) via index(0,)" in text
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
            assert table_rows(engine, "out1") == [("a", "x")], engine_class
            assert table_rows(engine, "out2") == [("a", "x")], engine_class

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
        filenames = {key: plan.fused_exec.__code__.co_filename for key, plan in plans.items()}
        assert len(set(filenames.values())) == len(plans) == 3, filenames
        assert filenames[("q1", 1)] == "<plan q1@1>"
        assert filenames[("q2", 0)] == "<plan q2@0>"

    def test_a_converged_network_keeps_its_compile_time_plans(self):
        # Every node compiled its plans before any row existed; after
        # convergence and a link-deletion cascade a fresh engine compiles
        # the same plans, and no counter records a recompile.
        from repro.datalog import StandaloneNetwork
        from repro.net import ring_topology
        from repro.protocols import pathvector_program

        program = pathvector_program()
        topology = ring_topology(6, seed=1)
        net = StandaloneNetwork(topology.nodes, program)
        links = list(topology.link_facts())
        for source, destination, cost in links:
            net.insert(Fact("link", (source, destination, cost)))
        net.run()
        source, destination, cost = links[0]
        delete(net, Fact("link", (source, destination, cost)))
        delete(net, Fact("link", (destination, source, cost)))
        net.run()
        assert net.all_rows("path")
        assert "plans_recompiled" not in net.planner_stats()
        fresh = NDlogEngine("fresh", program=program).explain()
        for engine in net.engines.values():
            assert engine.explain() == fresh

    def test_cost_based_planner_is_gone(self):
        import importlib

        import repro.datalog
        import repro.datalog.plan

        for name in (
            "CostModel",
            "GreedyOptimizer",
            "construct_join_graph",
            "CatalogStatistics",
            "CostEstimate",
            "JoinGraph",
            "JoinEdge",
            "JoinOrder",
            "OrderedStep",
            "DEFAULT_SELECTIVITY",
        ):
            assert not hasattr(repro.datalog.plan, name), name
            assert not hasattr(repro.datalog, name), name
        for module in ("cost", "join_graph", "optimizer"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(f"repro.datalog.plan.{module}")
        with pytest.raises(TypeError):
            PlanCompiler(IndexManager(Catalog()), statistics=None)

    def test_plan_compiler_is_reusable_across_positions(self):
        catalog = Catalog()
        catalog.declare(TableDecl("t", 2))
        catalog.declare(TableDecl("u", 2))
        compiler = PlanCompiler(IndexManager(catalog))
        rule = parse_rule("p6 out(@A,C) :- t(@A,B), u(@B,C).")
        plan0 = compiler.compile(rule, 0)
        plan1 = compiler.compile(rule, 1)
        assert plan0.steps[0].atom.name == "u"
        assert plan1.steps[0].atom.name == "t"
        assert "emit" in explain_plan(plan0)


# ---------------------------------------------------------------------- #
# expression arguments in body atoms
# ---------------------------------------------------------------------- #
_EXPRESSION_ARGUMENT = "r1 out(@A,B,C) :- t(@A,B), u(@A,B + 1,C)."
_EQUALITY_CONDITION = "r1 out(@A,B,C) :- t(@A,B), u(@A,X,C), X == B + 1."


@pytest.mark.parametrize("engine_class", [NDlogEngine, InterpretedEngine, NestedLoopEngine])
@pytest.mark.parametrize("order", [("u", "t"), ("t", "u")], ids=["u-first", "t-first"])
def test_fixpoint_does_not_depend_on_arrival_order(engine_class, order):
    """Either form of the rule is refused or derives the same row either way.

    Matching ``u(@A,B + 1,C)`` on a ``u`` delta would evaluate ``B + 1``
    with ``B`` unbound and drop the match, so only the arrival order that
    binds ``B`` first could derive anything.
    """
    facts = {"t": Fact("t", ("a", 1)), "u": Fact("u", ("a", 2, 7))}
    derived = set()
    for text in (_EXPRESSION_ARGUMENT, _EQUALITY_CONDITION):
        try:
            engine = engine_class("a", parse_program(text))
        except ValidationError:
            continue
        for name in order:
            engine.insert(facts[name])
            engine.run()
        derived.add(tuple(table_rows(engine, "out")))
    assert derived == {(("a", 1, 7),)}


def test_expression_argument_in_a_body_atom_is_rejected():
    expected = r"rule r1: body atom u\(@A, \(B \+ 1\), C\) .* u\(@A, X, C\), X == \(B \+ 1\)"
    with pytest.raises(ValidationError, match=expected):
        parse_program(_EXPRESSION_ARGUMENT).validate()
    with pytest.raises(ValidationError, match="expression argument"):
        NDlogEngine("a").load_program(parse_program("r2 out(@A) :- t(@A, f_size(A))."))
    # The fresh variable is named so it cannot capture one of the rule's own.
    with pytest.raises(ValidationError, match=r"u\(@A, X1\), X1 == \(X \+ 1\)"):
        parse_rule("r3 out(@A) :- t(@A,X), u(@A,X + 1).").validate()


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
    from repro.datalog.functions import FunctionRegistry, default_registry

    return FunctionRegistry({**default_registry()._functions, "f_sha1": function})


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
    """Hits and misses per run are the interpreter's."""
    from repro.core.vid import clear_vid_caches
    from repro.datalog.functions import sha1_cache_stats

    counts = {}
    for name, engine_class in ENGINES.items():
        clear_vid_caches()
        _ring_rows(engine_class=engine_class)
        stats = sha1_cache_stats()
        counts[name] = (stats["hits"], stats["misses"], stats["entries"])
    assert counts["compiled"] == counts["interpreted"]
    assert counts["compiled"][0] > 0  # the rewrite does hit the memo


def test_metrics_snapshot_exposes_sha1_and_vid_cache_counters():
    """VIDs and RIDs share the one ``f_sha1`` memo: one ``cache.sha1`` layer."""
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
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    layers = {name.split(".")[1] for name in (*counters, *gauges) if name.startswith("cache.")}
    assert layers == {"sha1"}
    assert gauges["cache.sha1.limit"] > 0
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


class TestSupportFedJoinBacks:
    """Section 4.2.2's join-back twins read their MIN/MAX rule's record."""

    @staticmethod
    def fed(program, policy=None):
        from repro.core.rewrite import rewrite_program

        engine = NDlogEngine("a", program=rewrite_program(program), annotation_policy=policy)
        return {
            (plan.rule.label, plan.trigger_position): plan.fed_by.label
            for plan in engine._plans.values()
            if plan.fed_by is not None
        }, engine

    def test_shipped_min_rules_feed_every_position_and_explain_says_so(self):
        from repro.protocols import mincost_program, pathvector_program

        fed, engine = self.fed(pathvector_program())
        assert fed == {
            ("pv3_ptmp", 0): "pv3",
            ("pv3_ptmp", 1): "pv3",
            ("pv4_ptmp", 0): "pv4",
            ("pv4_ptmp", 1): "pv4",
            ("pv4_ptmp", 2): "pv4",
        }
        assert "via pv4's support record" in engine.explain("pv4_ptmp")
        assert "index" not in engine.explain("pv4_ptmp")
        assert set(self.fed(mincost_program())[0].values()) == {"sp3"}

    def test_a_twin_the_record_cannot_order_still_joins(self):
        # Two body atoms with a variable (Z) outside the head: a derived row
        # may have several matches, whose join order the record does not keep.
        program = parse_program("m1 best(@S,min<C>) :- hop(@S,Z,C), cost(@S,Z).")
        program.add_declaration(TableDecl("best", 2, (0,)))
        assert self.fed(program)[0] == {}

    def test_an_engine_with_a_policy_joins(self):
        from repro.core.modes import PolynomialValuePolicy
        from repro.protocols import mincost_program

        assert self.fed(mincost_program(), PolynomialValuePolicy())[0] == {}
