"""Unit and property-based tests for per-node relation storage."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.datalog.ast import TableDecl
from repro.storage.memory import Catalog, Table, freeze_value
from repro.datalog.errors import SchemaError

from helpers import derivations


class TestTableBasics:
    def test_insert_and_contains(self):
        table = Table("link")
        outcome = table.insert(("a", "b", 1))
        assert outcome.became_visible
        assert ("a", "b", 1) in table
        assert len(table) == 1

    def test_duplicate_insert_increments_count_without_visibility(self):
        table = Table("pathCost")
        assert table.insert(("a", "c", 5)).became_visible
        assert not table.insert(("a", "c", 5)).became_visible
        assert derivations(table, ("a", "c", 5)) == 2
        assert len(table) == 1

    def test_delete_decrements_until_invisible(self):
        table = Table("pathCost")
        table.insert(("a", "c", 5))
        table.insert(("a", "c", 5))
        assert not table.delete(("a", "c", 5)).became_invisible
        outcome = table.delete(("a", "c", 5))
        assert outcome.became_invisible
        assert ("a", "c", 5) not in table

    def test_delete_absent_row(self):
        table = Table("link")
        outcome = table.delete(("x", "y", 1))
        assert not outcome.was_present
        assert not outcome.became_invisible

    def test_arity_checked(self):
        table = Table("link", arity=3)
        with pytest.raises(SchemaError):
            table.insert(("a", "b"))

    def test_arity_inferred_from_first_insert(self):
        table = Table("link")
        table.insert(("a", "b", 1))
        with pytest.raises(SchemaError):
            table.insert(("a", "b"))

    def test_delete_of_absent_row_does_not_pin_arity(self):
        table = Table("link")
        assert not table.delete(("x", "y")).was_present
        assert table.arity is None
        assert table.insert(("a", "b", 1)).became_visible  # a different width
        assert table.arity == 3

    def test_insert_pins_arity_and_delete_of_other_width_is_just_absent(self):
        table = Table("link")
        table.insert(("a", "b", 1))
        assert not table.delete(("a", "b")).was_present
        assert table.arity == 3
        with pytest.raises(SchemaError):
            table.insert(("a", "b"))

    def test_set_and_nested_list_attributes_store_and_delete(self):
        table = Table("t")
        assert table.insert(("a", {"y", "x"}, ["p", ["q"]])).became_visible
        assert list(table.rows()) == [("a", ("x", "y"), ("p", ("q",)))]
        # the outside spelling and the stored spelling name the same row
        assert ("a", {"x", "y"}, ["p", ["q"]]) in table
        assert not table.insert(["a", ("x", "y"), ("p", ("q",))]).became_visible
        assert derivations(table, ("a", {"x", "y"}, ["p", ["q"]])) == 2
        table.delete(("a", {"x", "y"}, ["p", ["q"]]))
        assert table.delete(("a", ("x", "y"), ("p", ("q",)))).became_invisible
        assert len(table) == 0

    def test_lists_are_frozen_for_storage(self):
        table = Table("path")
        table.insert(("a", "b", ["a", "x", "b"]))
        rows = list(table.rows())
        assert rows[0][2] == ("a", "x", "b")

    def test_a_hashable_tuple_is_its_own_frozen_image(self):
        value = ("a", ("b", ("c", 1)), frozenset({2}))
        assert freeze_value(value) is value

    def test_tuples_holding_a_list_or_a_set_are_still_frozen(self):
        assert freeze_value(("a", ["b", ["c"]])) == ("a", ("b", ("c",)))
        assert freeze_value(("a", ("b", {"y", "x"}))) == ("a", ("b", ("x", "y")))
        hash(freeze_value(("a", ["b", {"x"}])))

class TestPrimaryKeys:
    def test_key_update_replaces_row(self):
        table = Table("bestHop", key_positions=(0, 1))
        table.insert(("a", "d", "b"))
        outcome = table.insert(("a", "d", "c"))
        assert outcome.became_visible
        assert outcome.replaced is not None
        assert outcome.replaced.values == ("a", "d", "b")
        assert ("a", "d", "b") not in table
        assert ("a", "d", "c") in table
        assert len(table) == 1

    def test_same_row_reinsert_does_not_replace(self):
        table = Table("bestHop", key_positions=(0, 1))
        table.insert(("a", "d", "b"))
        outcome = table.insert(("a", "d", "b"))
        assert outcome.replaced is None
        assert not outcome.became_visible

    def test_different_keys_coexist(self):
        table = Table("bestHop", key_positions=(0, 1))
        table.insert(("a", "d", "b"))
        table.insert(("a", "e", "c"))
        assert len(table) == 2

    def test_delete_clears_key_index(self):
        table = Table("bestHop", key_positions=(0, 1))
        table.insert(("a", "d", "b"))
        table.delete(("a", "d", "b"))
        outcome = table.insert(("a", "d", "c"))
        assert outcome.replaced is None


class TestLookup:
    def test_lookup_by_position(self):
        table = Table("prov")
        table.insert(("a", "vid1", "rid1", "a"))
        table.insert(("a", "vid1", "rid2", "b"))
        table.insert(("a", "vid2", "rid3", "a"))
        rows = list(table.lookup({1: "vid1"}))
        assert len(rows) == 2

    def test_lookup_multiple_positions(self):
        table = Table("link")
        table.insert(("a", "b", 1))
        table.insert(("a", "c", 1))
        rows = list(table.lookup({0: "a", 1: "c"}))
        assert rows == [("a", "c", 1)]

    def test_lookup_without_constraints_returns_all(self):
        table = Table("link")
        table.insert(("a", "b", 1))
        table.insert(("b", "c", 1))
        assert len(list(table.lookup({}))) == 2

    def test_index_maintained_across_insert_delete(self):
        table = Table("prov")
        table.insert(("a", "v1", "r1", "a"))
        list(table.lookup({1: "v1"}))  # force index creation
        table.insert(("a", "v1", "r2", "b"))
        table.delete(("a", "v1", "r1", "a"))
        rows = list(table.lookup({1: "v1"}))
        assert rows == [("a", "v1", "r2", "b")]

    def test_lookup_list_valued_constraint(self):
        table = Table("ruleExec")
        table.insert(("a", "r1", "sp1", ["v1", "v2"]))
        rows = list(table.lookup({3: ["v1", "v2"]}))
        assert len(rows) == 1


class TestCatalog:
    def test_table_created_on_demand(self):
        catalog = Catalog()
        table = catalog.table("link", 3)
        assert catalog.has_table("link")
        assert catalog.table("link") is table

    def test_declared_tables_respect_keys(self):
        catalog = Catalog([TableDecl("bestHop", 3, (0, 1))])
        table = catalog.table("bestHop")
        assert table.key_positions == (0, 1)

    def test_total_rows_and_names(self):
        catalog = Catalog()
        catalog.table("a").insert((1,))
        catalog.table("b").insert((1, 2))
        catalog.table("b").insert((3, 4))
        assert catalog.total_rows() == 3
        assert catalog.names() == ["a", "b"]
        assert catalog.has_table("a")


class TestPropertyBased:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=60))
    def test_count_matches_multiset_semantics(self, operations):
        """Random insert sequences: table count equals multiset count."""
        from collections import Counter

        table = Table("t", arity=2)
        reference: Counter = Counter()
        for row in operations:
            table.insert(row)
            reference[row] += 1
        for row, count in reference.items():
            assert derivations(table, row) == count
        assert len(table) == len(reference)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 3)),
            max_size=80,
        )
    )
    def test_visibility_transitions_match_reference_counter(self, operations):
        from collections import Counter

        table = Table("t", arity=1)
        reference: Counter = Counter()
        for action, value in operations:
            row = (value,)
            if action == "insert":
                outcome = table.insert(row)
                assert outcome.became_visible == (reference[row] == 0)
                reference[row] += 1
            else:
                outcome = table.delete(row)
                if reference[row] == 0:
                    assert not outcome.was_present
                else:
                    reference[row] -= 1
                    assert outcome.became_invisible == (reference[row] == 0)
        visible = {row for row, count in reference.items() if count > 0}
        assert set(table.rows()) == visible
