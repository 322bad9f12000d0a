"""Unit and property-based tests for incremental aggregates."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.datalog.aggregates import SUPPORTED_AGGREGATES, AggregateState
from repro.datalog.errors import EvaluationError


class TestBasics:
    def test_unsupported_aggregate_rejected(self):
        with pytest.raises(EvaluationError):
            AggregateState("median")

    @pytest.mark.parametrize("func", SUPPORTED_AGGREGATES)
    def test_empty_state(self, func):
        state = AggregateState(func)
        assert state._count == 0
        assert len(state) == 0

    def test_min_incremental(self):
        state = AggregateState("min")
        state.insert(5)
        assert state.current() == 5
        state.insert(3)
        assert state.current() == 3
        state.insert(7)
        assert state.current() == 3
        state.delete(3)
        assert state.current() == 5

    def test_max_incremental(self):
        state = AggregateState("max")
        for value in (1, 9, 4):
            state.insert(value)
        assert state.current() == 9
        state.delete(9)
        assert state.current() == 4

    def test_count(self):
        state = AggregateState("count")
        assert state.current() == 0
        state.insert(1)
        state.insert(1)
        state.insert(2)
        assert state.current() == 3
        state.delete(1)
        assert state.current() == 2

    def test_sum(self):
        state = AggregateState("sum")
        state.insert(4)
        state.insert(6)
        assert state.current() == 10
        state.delete(4)
        assert state.current() == 6

    def test_agglist_contains_duplicates(self):
        state = AggregateState("agglist")
        state.insert("a")
        state.insert("a")
        state.insert("b")
        result = state.current()
        assert sorted(result) == ["a", "a", "b"]

    def test_agglist_with_tuple_values(self):
        state = AggregateState("agglist")
        state.insert(("rid1", "a"))
        state.insert(("rid2", "b"))
        assert sorted(state.current()) == [["rid1", "a"], ["rid2", "b"]]

    def test_delete_unknown_value_is_ignored(self):
        state = AggregateState("min")
        state.insert(2)
        state.delete(99)
        assert state.current() == 2

    def test_duplicate_values_tracked_with_multiplicity(self):
        state = AggregateState("min")
        state.insert(2)
        state.insert(2)
        state.delete(2)
        assert state._count
        assert state.current() == 2
        state.delete(2)
        assert state._count == 0

    def test_current_on_empty_min_raises(self):
        with pytest.raises(EvaluationError):
            AggregateState("min").current()

    def test_duplicate_values_keep_multiplicity(self):
        state = AggregateState("max")
        state.insert(1)
        state.insert(1)
        state.insert(3)
        state.delete(3)
        state.delete(1)
        assert state.current() == 1
        assert len(state) == 1

    def test_list_values_normalized(self):
        state = AggregateState("agglist")
        state.insert(["x", "y"])
        state.delete(["x", "y"])
        assert state._count == 0


class TestPropertyBased:
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=40))
    def test_min_matches_builtin(self, values):
        state = AggregateState("min")
        for value in values:
            state.insert(value)
        assert state.current() == min(values)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=40))
    def test_max_matches_builtin(self, values):
        state = AggregateState("max")
        for value in values:
            state.insert(value)
        assert state.current() == max(values)

    @given(st.lists(st.integers(-100, 100), max_size=40))
    def test_sum_and_count_match_builtin(self, values):
        sum_state = AggregateState("sum")
        count_state = AggregateState("count")
        for value in values:
            sum_state.insert(value)
            count_state.insert(value)
        assert sum_state.current() == sum(values)
        assert count_state.current() == len(values)

    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=30),
        st.data(),
    )
    def test_insert_then_delete_subset_matches_recompute(self, values, data):
        state = AggregateState("min")
        for value in values:
            state.insert(value)
        to_delete = data.draw(
            st.lists(st.sampled_from(values), max_size=len(values), unique_by=id)
        )
        remaining = list(values)
        for value in to_delete:
            if value in remaining:
                remaining.remove(value)
                state.delete(value)
        if remaining:
            assert state.current() == min(remaining)
        else:
            assert state._count == 0

    @given(st.lists(st.integers(0, 10), max_size=30))
    def test_interleaved_insert_delete_never_negative_count(self, values):
        state = AggregateState("count")
        for value in values:
            state.insert(value)
            state.delete(value)
            state.delete(value)  # extra delete must be ignored
        assert state.current() == 0
        assert state._count == 0
