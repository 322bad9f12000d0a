"""Unit tests for the per-node NDlog evaluation engine."""

from __future__ import annotations

import pytest

from repro.datalog import (
    DELETE,
    INSERT,
    AnnotationPolicy,
    Delta,
    Fact,
    NDlogEngine,
    parse_program,
)
from repro.datalog.engine import REFRESH
from repro.datalog.errors import EvaluationError
from helpers import annotation_of, has_fact, table_rows

from oracle import ENGINES


def single_node_engine(source: str, address: str = "n") -> NDlogEngine:
    """An engine whose remote sends loop back locally (single-node tests)."""
    engine = NDlogEngine(address, parse_program(source))
    engine.set_send(lambda destination, delta: engine.enqueue(delta))
    return engine


class TestLocalDerivation:
    def test_single_rule_projection(self):
        engine = single_node_engine("r1 reach(@S,D) :- link(@S,D,C).")
        engine.insert(Fact("link", ("n", "m", 1)))
        engine.run()
        assert has_fact(engine, "reach", ("n", "m"))

    def test_join_two_relations(self):
        engine = single_node_engine(
            "r1 twoHop(@S,D) :- link(@S,Z,C1), hop(@S,Z,D)."
        )
        engine.insert(Fact("link", ("n", "z", 1)))
        engine.insert(Fact("hop", ("n", "z", "d")))
        engine.run()
        assert has_fact(engine, "twoHop", ("n", "d"))

    def test_join_order_independent(self):
        engine = single_node_engine(
            "r1 twoHop(@S,D) :- link(@S,Z,C1), hop(@S,Z,D)."
        )
        engine.insert(Fact("hop", ("n", "z", "d")))
        engine.insert(Fact("link", ("n", "z", 1)))
        engine.run()
        assert has_fact(engine, "twoHop", ("n", "d"))

    def test_condition_filters(self):
        engine = single_node_engine("r1 cheap(@S,D) :- link(@S,D,C), C<3.")
        engine.insert(Fact("link", ("n", "a", 5)))
        engine.insert(Fact("link", ("n", "b", 1)))
        engine.run()
        assert not has_fact(engine, "cheap", ("n", "a"))
        assert has_fact(engine, "cheap", ("n", "b"))

    def test_assignment_computes_head_value(self):
        engine = single_node_engine(
            "r1 total(@S,T) :- link(@S,D,C), other(@S,D,C2), T=C+C2."
        )
        engine.insert(Fact("link", ("n", "d", 3)))
        engine.insert(Fact("other", ("n", "d", 4)))
        engine.run()
        assert has_fact(engine, "total", ("n", 7))

    def test_expression_in_head(self):
        engine = single_node_engine("r1 double(@S,C*2) :- link(@S,D,C).")
        engine.insert(Fact("link", ("n", "d", 3)))
        engine.run()
        assert has_fact(engine, "double", ("n", 6))

    def test_constant_in_body_atom_filters(self):
        engine = single_node_engine('r1 toA(@S) :- link(@S,"a",C).')
        engine.insert(Fact("link", ("n", "a", 1)))
        engine.insert(Fact("link", ("n", "b", 1)))
        engine.run()
        assert len(table_rows(engine, "toA")) == 1

    def test_wildcard_argument_matches_anything(self):
        engine = single_node_engine("r1 hasLink(@S) :- link(@S,_,_).")
        engine.insert(Fact("link", ("n", "a", 1)))
        engine.run()
        assert has_fact(engine, "hasLink", ("n",))

    def test_repeated_variable_in_atom_requires_equality(self):
        engine = single_node_engine("r1 selfLoop(@S) :- link(@S,S,C).")
        engine.insert(Fact("link", ("n", "m", 1)))
        engine.insert(Fact("link", ("n", "n", 1)))
        engine.run()
        assert table_rows(engine, "selfLoop") == [("n",)]

    def test_unknown_function_in_rule_raises(self):
        engine = single_node_engine("r1 out(@S,V) :- link(@S,D,C), V=f_bogus(C).")
        engine.insert(Fact("link", ("n", "d", 1)))
        with pytest.raises(EvaluationError):
            engine.run()


class TestEvents:
    def test_event_triggers_rule_but_is_not_materialized(self):
        engine = single_node_engine(
            "r1 seen(@N,P) :- ePing(@N,P)."
        )
        engine.insert(Fact("ePing", ("n", "hello")))
        engine.run()
        assert has_fact(engine, "seen", ("n", "hello"))
        assert len(engine.catalog.table("ePing")) == 0

    def test_event_chain(self):
        engine = single_node_engine(
            """
            r1 eSecond(@N,P) :- eFirst(@N,P).
            r2 result(@N,P) :- eSecond(@N,P).
            """
        )
        engine.insert(Fact("eFirst", ("n", 1)))
        engine.run()
        assert has_fact(engine, "result", ("n", 1))

    def test_event_deletion_delta_cascades(self):
        engine = single_node_engine(
            """
            r1 eMid(@N,P) :- base(@N,P).
            r2 derived(@N,P) :- eMid(@N,P).
            """
        )
        engine.insert(Fact("base", ("n", 1)))
        engine.run()
        assert has_fact(engine, "derived", ("n", 1))
        engine.delete(Fact("base", ("n", 1)))
        engine.run()
        assert not has_fact(engine, "derived", ("n", 1))


class TestDeletionCascades:
    def test_simple_cascade(self):
        engine = single_node_engine("r1 reach(@S,D) :- link(@S,D,C).")
        engine.insert(Fact("link", ("n", "m", 1)))
        engine.run()
        engine.delete(Fact("link", ("n", "m", 1)))
        engine.run()
        assert not has_fact(engine, "reach", ("n", "m"))

    def test_tuple_with_two_derivations_survives_one_deletion(self):
        engine = single_node_engine(
            """
            r1 reach(@S,D) :- red(@S,D).
            r2 reach(@S,D) :- blue(@S,D).
            """
        )
        engine.insert(Fact("red", ("n", "m")))
        engine.insert(Fact("blue", ("n", "m")))
        engine.run()
        engine.delete(Fact("red", ("n", "m")))
        engine.run()
        assert has_fact(engine, "reach", ("n", "m"))
        engine.delete(Fact("blue", ("n", "m")))
        engine.run()
        assert not has_fact(engine, "reach", ("n", "m"))

    def test_transitive_cascade(self):
        engine = single_node_engine(
            """
            r1 mid(@S,D) :- base(@S,D).
            r2 top(@S,D) :- mid(@S,D).
            """
        )
        engine.insert(Fact("base", ("n", "x")))
        engine.run()
        engine.delete(Fact("base", ("n", "x")))
        engine.run()
        assert not has_fact(engine, "mid", ("n", "x"))
        assert not has_fact(engine, "top", ("n", "x"))


class TestAggregates:
    MIN_PROGRAM = """
        a1 best(@S,D,min<C>) :- pathCost(@S,D,C).
    """

    def test_min_aggregate_tracks_group_minimum(self):
        engine = single_node_engine(self.MIN_PROGRAM)
        engine.insert(Fact("pathCost", ("n", "d", 5)))
        engine.run()
        assert has_fact(engine, "best", ("n", "d", 5))
        engine.insert(Fact("pathCost", ("n", "d", 3)))
        engine.run()
        assert has_fact(engine, "best", ("n", "d", 3))
        assert not has_fact(engine, "best", ("n", "d", 5))

    def test_min_aggregate_recovers_after_delete(self):
        engine = single_node_engine(self.MIN_PROGRAM)
        engine.insert(Fact("pathCost", ("n", "d", 5)))
        engine.insert(Fact("pathCost", ("n", "d", 3)))
        engine.run()
        engine.delete(Fact("pathCost", ("n", "d", 3)))
        engine.run()
        assert has_fact(engine, "best", ("n", "d", 5))

    def test_min_aggregate_group_disappears_when_empty(self):
        engine = single_node_engine(self.MIN_PROGRAM)
        engine.insert(Fact("pathCost", ("n", "d", 5)))
        engine.run()
        engine.delete(Fact("pathCost", ("n", "d", 5)))
        engine.run()
        assert table_rows(engine, "best") == []

    def test_separate_groups_are_independent(self):
        engine = single_node_engine(self.MIN_PROGRAM)
        engine.insert(Fact("pathCost", ("n", "d", 5)))
        engine.insert(Fact("pathCost", ("n", "e", 2)))
        engine.run()
        assert has_fact(engine, "best", ("n", "d", 5))
        assert has_fact(engine, "best", ("n", "e", 2))

    def test_count_star_aggregate(self):
        engine = single_node_engine("c1 numChild(@X,V,count<*>) :- prov(@X,V,R).")
        engine.insert(Fact("prov", ("n", "v1", "r1")))
        engine.insert(Fact("prov", ("n", "v1", "r2")))
        engine.run()
        assert has_fact(engine, "numChild", ("n", "v1", 2))
        engine.delete(Fact("prov", ("n", "v1", "r2")))
        engine.run()
        assert has_fact(engine, "numChild", ("n", "v1", 1))

    def test_agglist_aggregate_collects_pairs(self):
        engine = single_node_engine(
            "l1 pQList(@X,V,agglist<R,L>) :- prov(@X,V,R,L)."
        )
        engine.insert(Fact("prov", ("n", "v1", "r1", "a")))
        engine.insert(Fact("prov", ("n", "v1", "r2", "b")))
        engine.run()
        rows = table_rows(engine, "pQList")
        assert len(rows) == 1
        collected = rows[0][2]
        assert sorted(collected) == [("r1", "a"), ("r2", "b")]

    def test_duplicate_contributions_do_not_duplicate_aggregate(self):
        # pathCost derivable twice with the same value: best stays stable.
        engine = single_node_engine(
            """
            d1 pathCost(@S,D,C) :- red(@S,D,C).
            d2 pathCost(@S,D,C) :- blue(@S,D,C).
            a1 best(@S,D,min<C>) :- pathCost(@S,D,C).
            """
        )
        engine.insert(Fact("red", ("n", "d", 4)))
        engine.insert(Fact("blue", ("n", "d", 4)))
        engine.run()
        assert table_rows(engine, "best") == [("n", "d", 4)]
        engine.delete(Fact("red", ("n", "d", 4)))
        engine.run()
        assert table_rows(engine, "best") == [("n", "d", 4)]


class TestRemoteEmission:
    def test_remote_head_invokes_send_callback(self):
        sent = []
        engine = NDlogEngine(
            "a", parse_program("r1 reach(@D,S) :- link(@S,D,C)."),
            send=lambda destination, delta: sent.append((destination, delta)),
        )
        engine.insert(Fact("link", ("a", "b", 1)))
        engine.run()
        assert len(sent) == 1
        destination, delta = sent[0]
        assert destination == "b"
        assert delta.fact.values == ("b", "a")

    def test_missing_send_callback_raises(self):
        engine = NDlogEngine("a", parse_program("r1 reach(@D,S) :- link(@S,D,C)."))
        engine.insert(Fact("link", ("a", "b", 1)))
        with pytest.raises(EvaluationError):
            engine.run()

    def test_local_head_not_sent(self):
        sent = []
        engine = NDlogEngine(
            "a", parse_program("r1 reach(@S,D) :- link(@S,D,C)."),
            send=lambda destination, delta: sent.append(destination),
        )
        engine.insert(Fact("link", ("a", "b", 1)))
        engine.run()
        assert sent == []
        assert has_fact(engine, "reach", ("a", "b"))


class TestListeners:
    def test_update_listener_sees_insert_and_delete(self):
        updates = []
        engine = single_node_engine("r1 reach(@S,D) :- link(@S,D,C).")
        engine.add_update_listener(lambda action, fact: updates.append((action, fact.name)))
        engine.insert(Fact("link", ("n", "m", 1)))
        engine.run()
        engine.delete(Fact("link", ("n", "m", 1)))
        engine.run()
        names = [(action, name) for action, name in updates]
        assert (INSERT, "link") in names
        assert (INSERT, "reach") in names
        assert (DELETE, "reach") in names


class _SetAnnotationPolicy(AnnotationPolicy):
    """Simple annotation policy: sets of base-tuple identifiers."""

    propagate_updates = True

    def base(self, fact):
        return frozenset({str(fact)})

    def combine(self, rule, body_annotations, node):
        combined = frozenset()
        for annotation in body_annotations:
            if annotation:
                combined |= annotation
        return combined

    def merge(self, existing, new):
        return existing | new

    def size(self, annotation):
        return sum(len(item) for item in annotation)


class TestAnnotations:
    def test_annotations_combined_through_rules(self):
        engine = NDlogEngine(
            "n",
            parse_program("r1 pair(@S,A,B) :- left(@S,A), right(@S,B)."),
            annotation_policy=_SetAnnotationPolicy(),
        )
        engine.insert(Fact("left", ("n", 1)))
        engine.insert(Fact("right", ("n", 2)))
        engine.run()
        annotation = annotation_of(engine, Fact("pair", ("n", 1, 2)))
        assert len(annotation) == 2

    def test_alternative_derivations_merge_annotations(self):
        engine = NDlogEngine(
            "n",
            parse_program(
                """
                r1 reach(@S,D) :- red(@S,D).
                r2 reach(@S,D) :- blue(@S,D).
                """
            ),
            annotation_policy=_SetAnnotationPolicy(),
        )
        engine.insert(Fact("red", ("n", "m")))
        engine.insert(Fact("blue", ("n", "m")))
        engine.run()
        annotation = annotation_of(engine, Fact("reach", ("n", "m")))
        assert len(annotation) == 2

    def test_refresh_propagates_annotation_change_downstream(self):
        engine = NDlogEngine(
            "n",
            parse_program(
                """
                r1 mid(@S,D) :- red(@S,D).
                r2 mid(@S,D) :- blue(@S,D).
                r3 top(@S,D) :- mid(@S,D).
                """
            ),
            annotation_policy=_SetAnnotationPolicy(),
        )
        engine.insert(Fact("red", ("n", "m")))
        engine.run()
        assert len(annotation_of(engine, Fact("top", ("n", "m")))) == 1
        engine.insert(Fact("blue", ("n", "m")))
        engine.run()
        assert len(annotation_of(engine, Fact("top", ("n", "m")))) == 2

    def test_annotation_cleared_on_delete(self):
        engine = NDlogEngine(
            "n",
            parse_program("r1 reach(@S,D) :- red(@S,D)."),
            annotation_policy=_SetAnnotationPolicy(),
        )
        engine.insert(Fact("red", ("n", "m")))
        engine.run()
        engine.delete(Fact("red", ("n", "m")))
        engine.run()
        assert annotation_of(engine, Fact("reach", ("n", "m"))) is None


class TestRefreshRacesAheadOfInsert:
    """Regression: a REFRESH arriving before its INSERT must not jump the queue.

    The old fallback re-enqueued the converted INSERT at the *back* of the
    queue, letting deltas that arrived later (including the rest of the
    refresh's own batch) overtake it.  The fix applies the conversion at
    the refresh's own queue position, preserving FIFO arrival order — in
    the engine and in its interpreter oracle.
    """

    @pytest.mark.parametrize("engine_class", ENGINES.values(), ids=ENGINES)
    def test_converted_insert_keeps_its_queue_position(self, engine_class):
        engine = engine_class(
            "n",
            parse_program("r1 reach(@S,D) :- red(@S,D)."),
            annotation_policy=_SetAnnotationPolicy(),
        )
        seen = []
        engine.add_update_listener(
            lambda action, fact: seen.append(
                (action, fact.name, annotation_of(engine, fact))
            )
        )
        fact = Fact("red", ("n", "m"))
        # The refresh for `fact` arrives first (raced ahead of its insert),
        # then the insert carrying a different annotation.
        engine.enqueue(Delta(REFRESH, fact, frozenset({"from-refresh"})))
        engine.enqueue(Delta(INSERT, fact, frozenset({"from-insert"})))
        engine.run()
        # The tuple must become visible from the *refresh's* position with
        # the refresh's annotation; the later insert merges into it.  The
        # old behaviour surfaced "from-insert" first.
        visible = [entry for entry in seen if entry[:2] == (INSERT, "red")]
        assert visible and visible[0][2] == frozenset({"from-refresh"})
        assert annotation_of(engine, fact) == frozenset(
            {"from-refresh", "from-insert"}
        )
        assert has_fact(engine, "red", ("n", "m"))

    @pytest.mark.parametrize("engine_class", ENGINES.values(), ids=ENGINES)
    def test_refresh_without_policy_or_annotation_is_ignored(self, engine_class):
        engine = engine_class("n", parse_program("r1 reach(@S,D) :- red(@S,D)."))
        engine.enqueue(Delta(REFRESH, Fact("red", ("n", "m")), None))
        engine.run()
        assert not has_fact(engine, "red", ("n", "m"))


class TestDeltaValidation:
    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            Delta("upsert", Fact("x", (1,)))

    def test_engine_stats_track_processing(self):
        engine = single_node_engine("r1 reach(@S,D) :- link(@S,D,C).")
        engine.insert(Fact("link", ("n", "m", 1)))
        engine.run()
        assert engine.stats["deltas_processed"] >= 2
        assert engine.stats["rule_firings"] >= 1
