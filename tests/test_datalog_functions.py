"""Unit tests for the builtin function table (repro.datalog.functions)."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.datalog.errors import EvaluationError, UnknownFunctionError
from repro.datalog import functions
from repro.datalog.functions import BUILTINS, DIGEST_LENGTH, sha1_hex
from repro.datalog.terms import FunctionCall


class TestSha1:
    def test_digest_is_truncated_sha1(self):
        full = hashlib.sha1(b"hello").hexdigest()
        assert sha1_hex("hello") == full[:DIGEST_LENGTH]

    def test_digest_length_matches_paper_pointer_size(self):
        assert len(sha1_hex("anything")) == 20

    def test_f_sha1_concatenates_arguments(self):
        assert BUILTINS["f_sha1"](["link", "a", "c", 5]) == sha1_hex("linkac5")

    def test_f_sha1_renders_floats_like_ints(self):
        assert BUILTINS["f_sha1"](["c", 5.0]) == sha1_hex("c5")

    def test_f_sha1_flattens_lists(self):
        assert BUILTINS["f_sha1"](["r", ["x", "y"]]) == sha1_hex("rxy")

    def test_f_sha1_none_renders_empty(self):
        assert BUILTINS["f_sha1"](["a", None, "b"]) == sha1_hex("ab")

    def test_full_memo_is_dropped_and_digests_stay_right(self, monkeypatch):
        monkeypatch.setattr(functions, "SHA1_CACHE_LIMIT", 2)
        functions.clear_sha1_cache()
        try:
            for text in ("a", "b", "c", "a"):
                assert BUILTINS["f_sha1"]([text]) == sha1_hex(text)
                assert functions.sha1_cache_stats()["entries"] <= 2
            # "c" found the memo full and dropped it, so "a" missed again
            assert functions.sha1_cache_stats()["misses"] == 4
        finally:
            functions.clear_sha1_cache()

    @given(st.text(max_size=50), st.text(max_size=50))
    def test_distinct_inputs_rarely_collide(self, a, b):
        if a != b:
            assert sha1_hex(a) != sha1_hex(b) or a == b


class TestListFunctions:
    # NDlog lists are tuples: values are hashable from birth (see f_concat).
    def test_f_concat_flattens(self):
        assert BUILTINS["f_concat"]([["a"], "b", ("c", "d")]) == ("a", "b", "c", "d")

    def test_f_append_builds_list(self):
        assert BUILTINS["f_append"](["x", "y"]) == ("x", "y")

    def test_f_item_default_and_indexed(self):
        assert BUILTINS["f_item"]([["a", "b", "c"]]) == "a"
        assert BUILTINS["f_item"]([["a", "b", "c"], 1]) == "b"
        assert BUILTINS["f_item"]([["a", "b", "c"], -1]) == "c"

    def test_f_item_out_of_range(self):
        with pytest.raises(EvaluationError):
            BUILTINS["f_item"]([["a"], 5])

    def test_f_item_requires_a_list_argument(self):
        with pytest.raises(EvaluationError, match="requires a list"):
            BUILTINS["f_item"]([])

    def test_f_item_of_a_scalar_raises(self):
        with pytest.raises(EvaluationError, match="cannot take item 0 of 5"):
            BUILTINS["f_item"]([5])

    def test_f_concat_of_nothing_is_the_empty_list(self):
        assert BUILTINS["f_concat"]([]) == ()

    @pytest.mark.parametrize("args", [[("a",)], [("a",), "a", "b"]], ids=["one", "three"])
    def test_f_member_takes_exactly_two_arguments(self, args):
        with pytest.raises(EvaluationError, match="exactly two"):
            BUILTINS["f_member"](args)

    def test_f_member(self):
        assert BUILTINS["f_member"]([["a", "b"], "a"]) is True
        assert BUILTINS["f_member"]([["a", "b"], "z"]) is False
        assert BUILTINS["f_member"]([None, "z"]) is False

    def test_works_with_tuples_from_table_storage(self):
        assert BUILTINS["f_item"]([("a", "b"), 1]) == "b"
        assert BUILTINS["f_member"]([("a", "b"), "b"]) is True


class TestBuiltinTable:
    def test_unknown_function_raises(self):
        with pytest.raises(UnknownFunctionError):
            FunctionCall("f_missing", []).evaluate({})

    def test_the_table_holds_algorithm_1s_builtins_and_the_list_builtins(self):
        assert sorted(BUILTINS) == ["f_append", "f_concat", "f_item", "f_member", "f_sha1"]
        assert BUILTINS["f_append"] is BUILTINS["f_concat"]
