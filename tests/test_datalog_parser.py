"""Unit tests for the NDlog parser (repro.datalog.parser)."""

from __future__ import annotations

import pytest

from repro.datalog.ast import Assignment, Atom, Condition, Fact, Rule
from repro.datalog.errors import ParseError
from repro.datalog.parser import parse_program, tokenize
from repro.datalog.terms import (
    AggregateSpec,
    BinaryOp,
    Constant,
    FunctionCall,
    Variable,
)
from repro.core import rewrite_program
from repro.protocols import (
    MINCOST_SOURCE,
    PACKETFORWARD_SOURCE,
    PATHVECTOR_SOURCE,
    mincost_program,
    packetforward_program,
    pathvector_program,
)

from helpers import parse_rule


def parse_term(source: str):
    """*source* parsed as the right-hand side of an assignment."""
    return parse_rule(f"r t(@A) :- s(@A), X = {source}.").body[1].expression


def conditions_of(rule: Rule):
    return [literal for literal in rule.body if isinstance(literal, Condition)]


def assignments_of(rule: Rule):
    return [literal for literal in rule.body if isinstance(literal, Assignment)]


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
        assignments = assignments_of(rule)
        assert len(assignments) == 1
        assert assignments[0].variable == Variable("C")
        assert isinstance(assignments[0].expression, BinaryOp)

    def test_condition_parsed(self):
        rule = parse_rule("r1 out(@S) :- in(@S,C), C<5, S!=C.")
        assert len(conditions_of(rule)) == 2

    def test_equality_condition_with_double_equals(self):
        rule = parse_rule("r2 out(@N) :- in(@N,D), N==D.")
        condition = conditions_of(rule)[0]
        assert isinstance(condition.expression, BinaryOp)
        assert condition.expression.op == "=="

    def test_function_call_in_assignment(self):
        rule = parse_rule('r1 out(@S,V) :- in(@S,A), V=f_sha1("link"+S+A).')
        assignment = assignments_of(rule)[0]
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
        assert len(conditions_of(rule)) == 1

    def test_boolean_condition_function_equals_false(self):
        rule = parse_rule("pv2 p(@S,P) :- l(@S,P2), f_member(P2,S)==false, P=f_concat(S,P2).")
        condition = conditions_of(rule)[0]
        assert condition.expression.op == "=="

    def test_null_constant(self):
        rule = parse_rule("e1 out(@X) :- prov(@X,V,RID,L), RID==NULL.")
        condition = conditions_of(rule)[0]
        assert condition.expression.right == Constant(None)

    def test_missing_period_raises(self):
        with pytest.raises(ParseError):
            parse_rule("sp1 pathCost(@S,D,C) :- link(@S,D,C)")

    def test_string_round_trip_reparses(self):
        rule = parse_rule("sp2 pathCost(@S,D,C) :- link(@Z,S,C1), bestPathCost(@Z,D,C2), C=C1+C2.")
        reparsed = parse_rule(str(rule))
        assert reparsed.label == rule.label
        assert reparsed.head.name == rule.head.name
        assert len(reparsed.body) == len(rule.body)


class TestNoUnaryOperators:
    """NDlog terms have binary operators only: a prefix ``-`` or ``!`` is a
    parse error, not a value computed at run time."""

    @pytest.mark.parametrize("expression", ["X = -Y", "X = -5", "!Y"])
    def test_prefix_operator_is_rejected(self, expression):
        with pytest.raises(ParseError, match="unexpected token"):
            parse_program(f"r t(@A,X) :- s(@A,Y), {expression}.")

    def test_binary_minus_still_parses(self):
        rule = parse_rule("r t(@A,X) :- s(@A,Y), X = Y - 5.")
        assert str(rule) == "r t(@A, X) :- s(@A, Y), X = (Y - 5)."


class TestStatements:
    @pytest.mark.parametrize("text", ['link(@"a", "b", 3).', "materialize(link, 3, keys(0, 1))."])
    def test_facts_and_declarations_are_not_program_text(self, text):
        with pytest.raises(ParseError):
            parse_program(text)


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

    @pytest.mark.parametrize("rewritten", [False, True], ids=["ndlog", "rewritten"])
    @pytest.mark.parametrize(
        "program", [mincost_program, pathvector_program, packetforward_program]
    )
    def test_printed_rules_parse_back_to_the_same_text(self, program, rewritten):
        """``str(program)`` is the rules as NDlog text (declarations are not
        program text): parsing it back prints the same text, rule by rule."""
        original = rewrite_program(program()) if rewritten else program()
        text = str(original)
        reparsed = parse_program(text)
        assert [rule.label for rule in reparsed.rules] == [rule.label for rule in original.rules]
        assert str(reparsed) == text

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
