"""Parser for NDlog source text.

The accepted grammar covers the language used in the ExSPAN paper:

.. code-block:: none

    program     := rule*
    rule        := label head ":-" body "."
    head        := atom
    body        := literal ("," literal)*
    literal     := atom | assignment | condition
    atom        := name "(" arg ("," arg)* ")"
    arg         := ["@"] (aggregate | expression)
    aggregate   := ("min"|"max"|"count"|"sum"|"agglist") "<" ("*" | vars) ">"
    assignment  := Variable "=" expression
    condition   := expression            (boolean-valued)

Comments run from ``//`` or ``#`` to end of line.  Identifiers beginning
with an upper-case letter are variables; everything else is a predicate,
function or constant symbol.  Strings are double quoted; numbers may be
integers or floats; there is no unary operator (write ``0 - X``).  Table
declarations (primary keys) and base facts are not program text: a
protocol module declares its tables with
:meth:`~repro.datalog.ast.Program.add_declaration`, and facts are inserted
into a running network.

Example
-------
>>> from repro.datalog.parser import parse_program
>>> program = parse_program('''
...     sp1 pathCost(@S,D,C) :- link(@S,D,C).
...     sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).
... ''')
>>> len(program.rules)
2
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from .ast import Assignment, Atom, Condition, Program, Rule
from .errors import ParseError
from .terms import (
    AGGREGATE_NAMES,
    AggregateSpec,
    BinaryOp,
    Constant,
    FunctionCall,
    Term,
    Variable,
)

__all__ = ["parse_program", "tokenize", "Token"]


_TOKEN_REGEX = re.compile(
    r"""
    (?P<comment>//[^\n]*|\#[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>\d+\.\d+|\d+)
  | (?P<deduce>:-)
  | (?P<op>==|!=|<=|>=|&&|\|\||[-+*/%<>=!@(),.])
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ws>\s+)
  | (?P<error>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """A lexical token with its 1-based source position."""

    kind: str
    text: str
    line: int
    column: int


def tokenize(source: str) -> List[Token]:
    """Split *source* into tokens, dropping whitespace and comments."""
    tokens: List[Token] = []
    line = 1
    line_start = 0
    for match in _TOKEN_REGEX.finditer(source):
        kind = match.lastgroup
        text = match.group()
        column = match.start() - line_start + 1
        if kind in ("ws", "comment"):
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rfind("\n") + 1
            continue
        if kind == "error":
            raise ParseError(f"unexpected character {text!r}", line, column)
        tokens.append(Token(kind, text, line, column))
    return tokens


class _Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: Sequence[Token]):
        self._tokens = list(tokens)
        self._index = 0

    # ------------------------------------------------------------------ #
    # token helpers
    # ------------------------------------------------------------------ #
    def _peek(self, offset: int = 0) -> Optional[Token]:
        index = self._index + offset
        if index < len(self._tokens):
            return self._tokens[index]
        return None

    def _advance(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self._index += 1
        return token

    def _expect(self, text: str) -> Token:
        token = self._peek()
        if token is None or token.text != text:
            found = token.text if token else "end of input"
            line = token.line if token else 0
            column = token.column if token else 0
            raise ParseError(f"expected {text!r}, found {found!r}", line, column)
        return self._advance()

    def _match(self, text: str) -> bool:
        token = self._peek()
        if token is not None and token.text == text:
            self._advance()
            return True
        return False

    def _at_end(self) -> bool:
        return self._index >= len(self._tokens)

    # ------------------------------------------------------------------ #
    # grammar productions
    # ------------------------------------------------------------------ #
    def parse_program(self, name: str = "program") -> Program:
        program = Program(name=name)
        while not self._at_end():
            self._parse_statement(program)
        return program

    def _parse_statement(self, program: Program) -> None:
        token = self._peek()
        nxt = self._peek(1)
        if token is None:
            return
        if (
            token.kind == "name"
            and nxt is not None
            and nxt.kind == "name"
            and self._peek(2) is not None
            and self._peek(2).text == "("
        ):
            # label predicate( ...  => a rule
            program.add_rule(self._parse_rule())
            return
        raise ParseError(
            f"unexpected token {token.text!r}", token.line, token.column
        )

    def _parse_rule(self) -> Rule:
        label = self._advance().text
        head = self._parse_atom()
        self._expect(":-")
        body: List[Any] = []
        while True:
            body.append(self._parse_body_literal())
            if not self._match(","):
                break
        self._expect(".")
        return Rule(label, head, body)

    def _parse_body_literal(self) -> Any:
        token = self._peek()
        nxt = self._peek(1)
        if (
            token is not None
            and token.kind == "name"
            and not token.text.startswith("f_")
            and not token.text[0].isupper()
            and nxt is not None
            and nxt.text == "("
        ):
            return self._parse_atom()
        if (
            token is not None
            and token.kind == "name"
            and token.text[0].isupper()
            and nxt is not None
            and nxt.text == "="
            and (self._peek(2) is None or self._peek(2).text != "=")
        ):
            variable = Variable(self._advance().text)
            self._expect("=")
            expression = self._parse_expression()
            return Assignment(variable, expression)
        return Condition(self._parse_expression())

    def _parse_atom(self) -> Atom:
        name = self._advance().text
        self._expect("(")
        args: List[Term] = []
        location_index = 0
        location_seen = False
        index = 0
        while True:
            if self._match("@"):
                location_index = index
                location_seen = True
            args.append(self._parse_atom_argument())
            index += 1
            if not self._match(","):
                break
        self._expect(")")
        if not location_seen:
            location_index = 0
        return Atom(name, args, location_index)

    def _parse_atom_argument(self) -> Term:
        token = self._peek()
        nxt = self._peek(1)
        if (
            token is not None
            and token.kind == "name"
            and token.text.lower() in AGGREGATE_NAMES
            and nxt is not None
            and nxt.text == "<"
        ):
            return self._parse_aggregate()
        return self._parse_expression()

    def _parse_aggregate(self) -> AggregateSpec:
        func = self._advance().text.lower()
        self._expect("<")
        variables: List[str] = []
        if self._match("*"):
            pass
        else:
            while True:
                var_token = self._advance()
                variables.append(var_token.text)
                if not self._match(","):
                    break
        self._expect(">")
        return AggregateSpec(func, variables)

    # expressions, by precedence ---------------------------------------- #
    def _parse_expression(self) -> Term:
        return self._parse_or()

    def _parse_or(self) -> Term:
        left = self._parse_and()
        while self._peek() is not None and self._peek().text == "||":
            self._advance()
            right = self._parse_and()
            left = BinaryOp("||", left, right)
        return left

    def _parse_and(self) -> Term:
        left = self._parse_comparison()
        while self._peek() is not None and self._peek().text == "&&":
            self._advance()
            right = self._parse_comparison()
            left = BinaryOp("&&", left, right)
        return left

    _COMPARISON_OPS = ("==", "!=", "<=", ">=", "<", ">")

    def _parse_comparison(self) -> Term:
        left = self._parse_additive()
        token = self._peek()
        if token is not None and token.text in self._COMPARISON_OPS:
            op = self._advance().text
            right = self._parse_additive()
            return BinaryOp(op, left, right)
        if token is not None and token.text == "=":
            # Tolerate '=' used as equality inside conditions.
            self._advance()
            right = self._parse_additive()
            return BinaryOp("==", left, right)
        return left

    def _parse_additive(self) -> Term:
        left = self._parse_multiplicative()
        while self._peek() is not None and self._peek().text in ("+", "-"):
            op = self._advance().text
            right = self._parse_multiplicative()
            left = BinaryOp(op, left, right)
        return left

    def _parse_multiplicative(self) -> Term:
        left = self._parse_primary()
        while self._peek() is not None and self._peek().text in ("*", "/", "%"):
            op = self._advance().text
            right = self._parse_primary()
            left = BinaryOp(op, left, right)
        return left

    def _parse_primary(self) -> Term:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input in expression")
        if token.text == "(":
            self._advance()
            inner = self._parse_expression()
            self._expect(")")
            return inner
        if token.kind == "string":
            self._advance()
            body = token.text[1:-1]  # unquote, then undo the escapes
            return Constant(body.replace('\\"', '"').replace("\\\\", "\\").replace("\\n", "\n"))
        if token.kind == "number":
            self._advance()
            if "." in token.text:
                return Constant(float(token.text))
            return Constant(int(token.text))
        if token.kind == "name":
            nxt = self._peek(1)
            if nxt is not None and nxt.text == "(":
                return self._parse_function_call()
            self._advance()
            text = token.text
            if text == "NULL" or text == "null":
                return Constant(None)
            if text == "true":
                return Constant(True)
            if text == "false":
                return Constant(False)
            if text[0].isupper() or text == "_":
                return Variable(text)
            # lower-case bare identifiers act as symbolic constants
            # (node names such as ``a`` in the paper's examples).
            return Constant(text)
        raise ParseError(
            f"unexpected token {token.text!r} in expression", token.line, token.column
        )

    def _parse_function_call(self) -> FunctionCall:
        name = self._advance().text
        self._expect("(")
        args: List[Term] = []
        if not self._match(")"):
            while True:
                args.append(self._parse_expression())
                if not self._match(","):
                    break
            self._expect(")")
        return FunctionCall(name, args)


def parse_program(source: str, name: str = "program") -> Program:
    """Parse NDlog *source* into a :class:`~repro.datalog.ast.Program`."""
    parser = _Parser(tokenize(source))
    program = parser.parse_program(name=name)
    return program
