"""Unit tests for the builtin function registry (repro.datalog.functions)."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.datalog.errors import EvaluationError, UnknownFunctionError
from repro.datalog.functions import DIGEST_LENGTH, FunctionRegistry, default_registry, sha1_hex

REGISTRY = default_registry()


class TestSha1:
    def test_digest_is_truncated_sha1(self):
        full = hashlib.sha1(b"hello").hexdigest()
        assert sha1_hex("hello") == full[:DIGEST_LENGTH]

    def test_digest_length_matches_paper_pointer_size(self):
        assert len(sha1_hex("anything")) == 20

    def test_f_sha1_concatenates_arguments(self):
        assert REGISTRY.call("f_sha1", ["link", "a", "c", 5]) == sha1_hex("linkac5")

    def test_f_sha1_renders_floats_like_ints(self):
        assert REGISTRY.call("f_sha1", ["c", 5.0]) == sha1_hex("c5")

    def test_f_sha1_flattens_lists(self):
        assert REGISTRY.call("f_sha1", ["r", ["x", "y"]]) == sha1_hex("rxy")

    def test_f_sha1_none_renders_empty(self):
        assert REGISTRY.call("f_sha1", ["a", None, "b"]) == sha1_hex("ab")

    @given(st.text(max_size=50), st.text(max_size=50))
    def test_distinct_inputs_rarely_collide(self, a, b):
        if a != b:
            assert sha1_hex(a) != sha1_hex(b) or a == b


class TestListFunctions:
    # NDlog lists are tuples: values are hashable from birth (see f_concat).
    def test_f_concat_flattens(self):
        assert REGISTRY.call("f_concat", [["a"], "b", ("c", "d")]) == ("a", "b", "c", "d")

    def test_f_append_builds_list(self):
        assert REGISTRY.call("f_append", ["x", "y"]) == ("x", "y")

    def test_f_empty(self):
        assert REGISTRY.call("f_empty", []) == ()

    def test_f_empty_rejects_arguments(self):
        with pytest.raises(EvaluationError):
            REGISTRY.call("f_empty", [1])

    def test_f_size(self):
        assert REGISTRY.call("f_size", [[1, 2, 3]]) == 3
        assert REGISTRY.call("f_size", ["abcd"]) == 4
        assert REGISTRY.call("f_size", [None]) == 0

    def test_f_size_requires_one_argument(self):
        with pytest.raises(EvaluationError):
            REGISTRY.call("f_size", [[1], [2]])

    def test_f_item_default_and_indexed(self):
        assert REGISTRY.call("f_item", [["a", "b", "c"]]) == "a"
        assert REGISTRY.call("f_item", [["a", "b", "c"], 1]) == "b"
        assert REGISTRY.call("f_item", [["a", "b", "c"], -1]) == "c"

    def test_f_item_out_of_range(self):
        with pytest.raises(EvaluationError):
            REGISTRY.call("f_item", [["a"], 5])

    def test_f_member(self):
        assert REGISTRY.call("f_member", [["a", "b"], "a"]) is True
        assert REGISTRY.call("f_member", [["a", "b"], "z"]) is False
        assert REGISTRY.call("f_member", [None, "z"]) is False

    def test_f_first_and_last(self):
        assert REGISTRY.call("f_first", [["a", "b"]]) == "a"
        assert REGISTRY.call("f_last", [["a", "b"]]) == "b"

    def test_works_with_tuples_from_table_storage(self):
        assert REGISTRY.call("f_size", [("a", "b")]) == 2
        assert REGISTRY.call("f_member", [("a", "b"), "b"]) is True


class TestScalarHelpers:
    def test_f_min_max(self):
        assert REGISTRY.call("f_min", [3, 1, 2]) == 1
        assert REGISTRY.call("f_max", [3, 1, 2]) == 3

    def test_f_min_requires_arguments(self):
        with pytest.raises(EvaluationError):
            REGISTRY.call("f_min", [])

    def test_f_tostr(self):
        assert REGISTRY.call("f_tostr", [5]) == "5"
        assert REGISTRY.call("f_tostr", [5.0]) == "5"


class TestRegistry:
    def test_unknown_function_raises(self):
        with pytest.raises(UnknownFunctionError):
            REGISTRY.call("f_missing", [])

    def test_register_and_call_custom_function(self):
        registry = default_registry()
        registry.register("f_double", lambda args: args[0] * 2)
        assert registry.call("f_double", [21]) == 42
        assert "f_double" in registry

    def test_unregister(self):
        registry = default_registry()
        registry.register("f_tmp", lambda args: 1)
        registry.unregister("f_tmp")
        assert "f_tmp" not in registry

    def test_copy_is_independent(self):
        registry = default_registry()
        clone = registry.copy()
        clone.register("f_only_in_clone", lambda args: 1)
        assert "f_only_in_clone" not in registry
        assert "f_only_in_clone" in clone

    def test_names_sorted(self):
        names = list(REGISTRY.names())
        assert names == sorted(names)
        assert "f_sha1" in names

    def test_empty_registry(self):
        registry = FunctionRegistry()
        with pytest.raises(UnknownFunctionError):
            registry.call("f_sha1", ["x"])
