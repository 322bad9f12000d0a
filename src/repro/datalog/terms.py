"""Term model for NDlog rules.

A *term* is anything that may appear as an argument of a predicate or inside
a body expression: variables, constants, arithmetic / string expressions,
builtin function calls, and aggregate specifications (which may only appear
in rule heads).

Terms are immutable value objects.  Evaluation happens against a *binding*
(a ``dict`` mapping variable names to Python values); a function call goes
to the builtin of that name in :data:`~repro.datalog.functions.BUILTINS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence, Tuple

from .errors import EvaluationError, UnknownFunctionError
from .functions import BUILTINS

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "BinaryOp",
    "FunctionCall",
    "AggregateSpec",
    "AGGREGATE_NAMES",
]

#: Aggregate functions accepted in rule heads (lower-case canonical names).
AGGREGATE_NAMES = ("min", "max", "count", "sum", "agglist")


class Term:
    """Base class for all NDlog terms."""

    __slots__ = ()

    def variables(self) -> Iterator[str]:
        """Yield the names of all variables appearing in this term."""
        return iter(())


@dataclass(frozen=True, slots=True)
class Variable(Term):
    """A named variable.  NDlog variables start with an upper-case letter.

    The special name ``_`` (underscore) is a *wildcard*: it matches any value
    and never produces a binding.
    """

    name: str

    def variables(self) -> Iterator[str]:
        if self.name != "_":
            yield self.name

    @property
    def is_wildcard(self) -> bool:
        return self.name == "_"

    def evaluate(self, binding: Mapping[str, Any]) -> Any:
        try:
            return binding[self.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {self.name!r}") from None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True, slots=True)
class Constant(Term):
    """A literal constant: string, integer, float, bool, or None."""

    value: Any

    def evaluate(self, binding: Mapping[str, Any]) -> Any:
        return self.value

    def __str__(self) -> str:  # pragma: no cover - trivial
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


_BINARY_EVALUATORS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
}


@dataclass(frozen=True, slots=True)
class BinaryOp(Term):
    """A binary arithmetic, comparison or boolean operation.

    String concatenation reuses ``+`` following NDlog convention (the paper
    writes ``"pathCost" + S + D + C`` for SHA-1 preimages); mixed
    string/non-string operands are coerced to ``str`` for ``+``.
    """

    op: str
    left: Term
    right: Term

    def variables(self) -> Iterator[str]:
        yield from self.left.variables()
        yield from self.right.variables()

    def evaluate(self, binding: Mapping[str, Any]) -> Any:
        evaluator = _BINARY_EVALUATORS.get(self.op)
        if evaluator is None:
            raise EvaluationError(f"unknown binary operator {self.op!r}")
        left = self.left.evaluate(binding)
        right = self.right.evaluate(binding)
        if self.op == "+" and (isinstance(left, str) or isinstance(right, str)):
            return _as_text(left) + _as_text(right)
        try:
            return evaluator(left, right)
        except TypeError as exc:
            raise EvaluationError(
                f"type error evaluating {left!r} {self.op} {right!r}: {exc}"
            ) from exc
        except ArithmeticError as exc:
            raise EvaluationError(
                f"arithmetic error evaluating {left!r} {self.op} {right!r}: {exc}"
            ) from exc

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"({self.left} {self.op} {self.right})"


def _as_text(value: Any) -> str:
    """Render *value* the way NDlog string concatenation expects."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


@dataclass(frozen=True, slots=True)
class FunctionCall(Term):
    """A call to a builtin function, e.g. ``f_sha1("link" + S + D + C)``."""

    name: str
    args: Tuple[Term, ...]

    def __init__(self, name: str, args: Sequence[Term] = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))

    def variables(self) -> Iterator[str]:
        for arg in self.args:
            yield from arg.variables()

    def evaluate(self, binding: Mapping[str, Any]) -> Any:
        values = [arg.evaluate(binding) for arg in self.args]
        try:
            function = BUILTINS[self.name]
        except KeyError:
            raise UnknownFunctionError(self.name) from None
        return function(values)

    def __str__(self) -> str:  # pragma: no cover - trivial
        args = ", ".join(str(a) for a in self.args)
        return f"{self.name}({args})"


@dataclass(frozen=True, slots=True)
class AggregateSpec(Term):
    """An aggregate occupying a head-attribute position.

    Examples: ``min<C>``, ``count<*>``, ``AGGLIST<RID, RLoc>``.

    ``variables_`` holds the aggregated variable names; it is empty for
    ``count<*>``.  The remaining head attributes of an aggregate rule form
    the group-by key.
    """

    func: str
    variables_: Tuple[str, ...]

    def __init__(self, func: str, variables_: Sequence[str] = ()):
        object.__setattr__(self, "func", func.lower())
        object.__setattr__(self, "variables_", tuple(variables_))

    def variables(self) -> Iterator[str]:
        yield from self.variables_

    def evaluate(self, binding: Mapping[str, Any]) -> Any:
        raise EvaluationError(
            "aggregate specifications cannot be evaluated as scalar terms"
        )

    @property
    def is_star(self) -> bool:
        """True for ``count<*>`` style aggregates with no named variable."""
        return not self.variables_

    def __str__(self) -> str:  # pragma: no cover - trivial
        inner = ", ".join(self.variables_) if self.variables_ else "*"
        return f"{self.func}<{inner}>"
