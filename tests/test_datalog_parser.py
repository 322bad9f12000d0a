"""Unit tests for the NDlog parser (repro.datalog.parser)."""

from __future__ import annotations

import pytest

from repro.datalog.ast import Assignment, Atom, Condition, Fact, Rule
from repro.datalog.errors import ParseError
from repro.datalog.parser import parse_program, parse_rule, parse_term, tokenize
from repro.datalog.terms import (
    AggregateSpec,
    BinaryOp,
    Constant,
    FunctionCall,
    Variable,
)
from repro.protocols import MINCOST_SOURCE, PACKETFORWARD_SOURCE, PATHVECTOR_SOURCE


class TestTokenizer:
    def test_basic_tokens(self):
        tokens = tokenize('sp1 pathCost(@S,D,C) :- link(@S,D,C).')
        kinds = [token.kind for token in tokens]
        assert "deduce" in kinds
        assert tokens[0].text == "sp1"

    def test_comments_are_skipped(self):
        tokens = tokenize("// comment line\nfoo(@A).\n# another\n")
        assert [token.text for token in tokens] == ["foo", "(", "@", "A", ")", "."]

    def test_line_numbers_tracked(self):
        tokens = tokenize("a(@X).\nb(@Y).")
        assert tokens[0].line == 1
        assert tokens[6].line == 2

    def test_unexpected_character_raises(self):
        with pytest.raises(ParseError):
            tokenize("foo(@A) $ bar.")

    def test_string_literal(self):
        tokens = tokenize('x(@A, "hello world").')
        assert any(token.kind == "string" for token in tokens)


class TestRuleParsing:
    def test_simple_rule(self):
        rule = parse_rule("sp1 pathCost(@S,D,C) :- link(@S,D,C).")
        assert rule.label == "sp1"
        assert rule.head.name == "pathCost"
        assert rule.head.location_index == 0
        assert len(rule.body_atoms) == 1

    def test_location_specifier_positions(self):
        rule = parse_rule("f1 ePacket(@Next,Src) :- ePacket(@N,Src), bestHop(@N,Next).")
        assert rule.head.location_index == 0
        assert all(atom.location_index == 0 for atom in rule.body_atoms)

    def test_location_specifier_not_first(self):
        rule = parse_rule("r1 foo(A, @B) :- bar(A, @B).")
        assert rule.head.location_index == 1

    def test_assignment_parsed(self):
        rule = parse_rule("r1 out(@S,C) :- in(@S,C1,C2), C=C1+C2.")
        assignments = rule.body_assignments
        assert len(assignments) == 1
        assert assignments[0].variable == Variable("C")
        assert isinstance(assignments[0].expression, BinaryOp)

    def test_condition_parsed(self):
        rule = parse_rule("r1 out(@S) :- in(@S,C), C<5, S!=C.")
        assert len(rule.body_conditions) == 2

    def test_equality_condition_with_double_equals(self):
        rule = parse_rule("r2 out(@N) :- in(@N,D), N==D.")
        condition = rule.body_conditions[0]
        assert isinstance(condition.expression, BinaryOp)
        assert condition.expression.op == "=="

    def test_function_call_in_assignment(self):
        rule = parse_rule('r1 out(@S,V) :- in(@S,A), V=f_sha1("link"+S+A).')
        assignment = rule.body_assignments[0]
        assert isinstance(assignment.expression, FunctionCall)

    def test_min_aggregate_in_head(self):
        rule = parse_rule("sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).")
        aggregate = rule.head.aggregate()
        assert aggregate is not None
        position, spec = aggregate
        assert position == 2
        assert spec.func == "min"
        assert spec.variables_ == ("C",)

    def test_count_star_aggregate(self):
        rule = parse_rule("c0 numChild(@X,V,COUNT<*>) :- prov(@X,V,R,L).")
        _, spec = rule.head.aggregate()
        assert spec.func == "count"
        assert spec.is_star

    def test_agglist_aggregate(self):
        rule = parse_rule("i1 pQList(@X,Q,AGGLIST<RID,RLoc>) :- prov(@X,Q,RID,RLoc).")
        _, spec = rule.head.aggregate()
        assert spec.func == "agglist"
        assert spec.variables_ == ("RID", "RLoc")

    def test_comparison_with_aggregate_like_name_not_confused(self):
        # `min` followed by `<` only forms an aggregate inside atom arguments.
        rule = parse_rule("r1 out(@S) :- in(@S,Min), Min<3.")
        assert len(rule.body_conditions) == 1

    def test_boolean_condition_function_equals_false(self):
        rule = parse_rule("pv2 p(@S,P) :- l(@S,P2), f_member(P2,S)==false, P=f_concat(S,P2).")
        condition = rule.body_conditions[0]
        assert condition.expression.op == "=="

    def test_null_constant(self):
        rule = parse_rule("e1 out(@X) :- prov(@X,V,RID,L), RID==NULL.")
        condition = rule.body_conditions[0]
        assert condition.expression.right == Constant(None)

    def test_multiple_rules_requires_parse_program(self):
        with pytest.raises(ParseError):
            parse_rule("a x(@A) :- y(@A). b z(@A) :- y(@A).")

    def test_missing_period_raises(self):
        with pytest.raises(ParseError):
            parse_rule("sp1 pathCost(@S,D,C) :- link(@S,D,C)")

    def test_string_round_trip_reparses(self):
        rule = parse_rule("sp2 pathCost(@S,D,C) :- link(@Z,S,C1), bestPathCost(@Z,D,C2), C=C1+C2.")
        reparsed = parse_rule(str(rule))
        assert reparsed.label == rule.label
        assert reparsed.head.name == rule.head.name
        assert len(reparsed.body) == len(rule.body)


class TestFactAndDeclarationParsing:
    def test_fact_with_string_and_int(self):
        program = parse_program('link(@"a", "b", 3).')
        assert len(program.facts) == 1
        fact = program.facts[0]
        assert fact.values == ("a", "b", 3)
        assert fact.location == "a"

    def test_fact_with_bare_symbol_constants(self):
        program = parse_program("link(@a, b, 3).")
        assert program.facts[0].values == ("a", "b", 3)

    def test_fact_with_non_constant_raises(self):
        with pytest.raises(ParseError):
            parse_program("link(@A, b, 3).")

    def test_materialize_declaration(self):
        program = parse_program("materialize(link, 3, keys(0, 1)).\n")
        assert len(program.declarations) == 1
        declaration = program.declarations[0]
        assert declaration.name == "link"
        assert declaration.arity == 3
        assert declaration.key_positions == (0, 1)

    def test_materialize_without_keys(self):
        program = parse_program("materialize(path, 4).")
        assert program.declarations[0].key_positions == ()

    def test_negative_number_in_fact_rejected(self):
        # -5 parses as a unary-minus expression, not a constant; facts only
        # accept constants, so the parser rejects it (negative costs do not
        # appear in the paper's programs).
        with pytest.raises(ParseError):
            parse_program("offset(@a, -5).")


class TestProgramParsing:
    def test_mincost_program_parses(self):
        program = parse_program(MINCOST_SOURCE)
        assert [rule.label for rule in program.rules] == ["sp1", "sp2", "sp3"]
        program.validate()

    def test_pathvector_program_parses(self):
        program = parse_program(PATHVECTOR_SOURCE)
        assert len(program.rules) == 5
        program.validate()

    def test_packetforward_program_parses(self):
        program = parse_program(PACKETFORWARD_SOURCE)
        assert len(program.rules) == 2
        program.validate()

    def test_predicates_derived(self):
        program = parse_program(MINCOST_SOURCE)
        assert program.predicates_derived() == ["bestPathCost", "pathCost"]

    def test_rule_by_label(self):
        program = parse_program(MINCOST_SOURCE)
        assert program.rule_by_label("sp2").head.name == "pathCost"
        with pytest.raises(KeyError):
            program.rule_by_label("nope")

    def test_unexpected_token_raises(self):
        with pytest.raises(ParseError):
            parse_program(":- foo(@A).")


class TestTermParsing:
    def test_parse_arithmetic_precedence(self):
        term = parse_term("1 + 2 * 3")
        assert isinstance(term, BinaryOp)
        assert term.op == "+"
        assert term.right.op == "*"

    def test_parse_parentheses(self):
        term = parse_term("(1 + 2) * 3")
        assert term.op == "*"

    def test_parse_boolean_operators(self):
        term = parse_term("A < 3 && B > 2 || C == 1")
        assert term.op == "||"

    def test_parse_unary_minus(self):
        term = parse_term("-X")
        assert isinstance(term, type(parse_term("-Y")))
