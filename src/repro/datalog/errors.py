"""Exception hierarchy for the NDlog language and runtime.

All errors raised by :mod:`repro.datalog` derive from :class:`DatalogError`
so callers can catch the whole family with a single ``except`` clause.
"""

from __future__ import annotations


class DatalogError(Exception):
    """Base class for all NDlog language and runtime errors."""


class ParseError(DatalogError):
    """Raised when NDlog source text cannot be parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending token in the source text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ValidationError(DatalogError):
    """Raised when a syntactically valid program violates NDlog semantics.

    Examples include unsafe rules (head variables not bound in the body),
    missing location specifiers, or aggregates in unsupported positions.
    """


class EvaluationError(DatalogError):
    """Raised when rule evaluation fails at runtime.

    Typical causes are unbound variables reaching an expression, type errors
    inside arithmetic, or unknown builtin functions.
    """


class UnknownFunctionError(EvaluationError):
    """Raised when a rule references a builtin function that is not registered."""

    def __init__(self, name: str):
        super().__init__(f"unknown builtin function: {name!r}")
        self.name = name


class SchemaError(DatalogError):
    """Raised when a fact does not match its relation's declared schema."""
