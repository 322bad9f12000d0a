"""Unit tests for the NDlog term model (repro.datalog.terms)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.datalog.errors import EvaluationError
from repro.datalog.terms import (
    AggregateSpec,
    BinaryOp,
    Constant,
    FunctionCall,
    Variable,
)

def evaluate(term, **binding):
    return term.evaluate(binding)


class TestVariable:
    def test_evaluates_to_bound_value(self):
        assert evaluate(Variable("X"), X=42) == 42

    def test_unbound_variable_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(Variable("X"))

    def test_variables_yields_name(self):
        assert list(Variable("Cost").variables()) == ["Cost"]

    def test_wildcard_yields_no_variables(self):
        assert list(Variable("_").variables()) == []

    def test_wildcard_flag(self):
        assert Variable("_").is_wildcard
        assert not Variable("X").is_wildcard


class TestConstant:
    def test_evaluates_to_value(self):
        assert evaluate(Constant(7)) == 7
        assert evaluate(Constant("abc")) == "abc"
        assert evaluate(Constant(None)) is None

    def test_str_quotes_strings(self):
        assert str(Constant("x")) == '"x"'
        assert str(Constant(3)) == "3"


class TestBinaryOp:
    @pytest.mark.parametrize(
        "op, left, right, expected",
        [
            ("+", 2, 3, 5),
            ("-", 7, 2, 5),
            ("*", 4, 3, 12),
            ("/", 9, 3, 3),
            ("%", 9, 4, 1),
            ("==", 3, 3, True),
            ("!=", 3, 4, True),
            ("<", 2, 3, True),
            ("<=", 3, 3, True),
            (">", 4, 3, True),
            (">=", 2, 3, False),
            ("&&", True, False, False),
            ("||", False, True, True),
        ],
    )
    def test_arithmetic_and_comparison(self, op, left, right, expected):
        term = BinaryOp(op, Constant(left), Constant(right))
        assert evaluate(term) == expected

    def test_string_concatenation(self):
        term = BinaryOp("+", Constant("path"), Constant("Cost"))
        assert evaluate(term) == "pathCost"

    def test_mixed_string_concatenation_coerces(self):
        term = BinaryOp("+", Constant("cost"), Constant(5))
        assert evaluate(term) == "cost5"

    def test_float_integer_rendering_in_concatenation(self):
        term = BinaryOp("+", Constant("c"), Constant(5.0))
        assert evaluate(term) == "c5"

    def test_unknown_operator_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(BinaryOp("^^", Constant(1), Constant(2)))

    def test_type_error_wrapped(self):
        with pytest.raises(EvaluationError):
            evaluate(BinaryOp("-", Constant("a"), Constant(1)))

    def test_nested_expression_variables(self):
        term = BinaryOp("+", Variable("A"), BinaryOp("*", Variable("B"), Constant(2)))
        assert sorted(term.variables()) == ["A", "B"]
        assert evaluate(term, A=1, B=3) == 7


class TestFunctionCall:
    def test_calls_registered_function(self):
        term = FunctionCall("f_item", [Constant([1, 2, 3]), Constant(2)])
        assert evaluate(term) == 3

    def test_propagates_argument_variables(self):
        term = FunctionCall("f_concat", [Variable("A"), Variable("B")])
        assert sorted(term.variables()) == ["A", "B"]

    def test_unknown_function_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(FunctionCall("f_nope", []))

    def test_str_rendering(self):
        term = FunctionCall("f_sha1", [Constant("x"), Variable("Y")])
        assert str(term) == 'f_sha1("x", Y)'


class TestAggregateSpec:
    def test_lowercases_function_name(self):
        assert AggregateSpec("MIN", ["C"]).func == "min"

    def test_star_aggregate(self):
        spec = AggregateSpec("count", [])
        assert spec.is_star
        assert list(spec.variables()) == []

    def test_variables_listed(self):
        spec = AggregateSpec("agglist", ["RID", "RLoc"])
        assert list(spec.variables()) == ["RID", "RLoc"]

    def test_cannot_be_evaluated(self):
        with pytest.raises(EvaluationError):
            evaluate(AggregateSpec("min", ["C"]))

    def test_str(self):
        assert str(AggregateSpec("min", ["C"])) == "min<C>"
        assert str(AggregateSpec("count", [])) == "count<*>"


class TestPropertyBased:
    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_addition_matches_python(self, a, b):
        assert evaluate(BinaryOp("+", Constant(a), Constant(b))) == a + b

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_comparison_matches_python(self, a, b):
        assert evaluate(BinaryOp("<", Constant(a), Constant(b))) == (a < b)

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_string_concatenation_matches_python(self, a, b):
        assert evaluate(BinaryOp("+", Constant(a), Constant(b))) == a + b
