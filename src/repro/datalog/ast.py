"""Abstract syntax tree for NDlog programs.

The AST mirrors the language used throughout the ExSPAN paper:

* a :class:`Program` is a list of :class:`Rule` objects plus optional
  :class:`TableDecl` declarations and ground :class:`Fact` statements;
* each rule has a *head* :class:`Atom` and a body made of positive
  :class:`Atom` literals, :class:`Condition` boolean expressions and
  :class:`Assignment` statements (``Var = expression``);
* every predicate carries a *location specifier*: the attribute prefixed
  with ``@`` denoting the node where the tuple lives;
* predicates whose name starts with ``e`` are *event* predicates — they are
  never materialized and exist only transiently to trigger rules.

The AST is deliberately constructible both from the parser
(:mod:`repro.datalog.parser`) and programmatically — the ExSPAN provenance
rewriter (:mod:`repro.core.rewrite`) builds rules directly from these
classes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import ValidationError
from .terms import AggregateSpec, Constant, Term, Variable

__all__ = [
    "Atom",
    "Condition",
    "Assignment",
    "BodyLiteral",
    "Rule",
    "Fact",
    "TableDecl",
    "Program",
    "is_event_predicate",
]


#: Rule lists already validated, keyed by the rules' ids (see
#: :meth:`Program.validate`); dropped wholesale at the limit.
_VALIDATED: Dict[Tuple[int, ...], Tuple["Rule", ...]] = {}
_VALIDATED_LIMIT = 256


def is_event_predicate(name: str) -> bool:
    """Return True when *name* denotes an event (transient) predicate.

    By NDlog convention event predicate names start with a lower-case ``e``
    followed by an upper-case letter, e.g. ``ePacket`` or ``ePathCost``.
    """
    return len(name) >= 2 and name[0] == "e" and name[1].isupper()


@dataclass(frozen=True)
class Atom:
    """A predicate occurrence, e.g. ``pathCost(@S, D, C)``.

    Parameters
    ----------
    name:
        Relation (predicate) name.
    args:
        Argument terms, in order.
    location_index:
        Index into ``args`` of the location-specifier attribute (the one
        written with ``@``).  ``None`` only for predicates that are purely
        local helper relations; the runtime treats a missing specifier as
        position 0.
    """

    name: str
    args: Tuple[Term, ...]
    location_index: int = 0

    def __init__(self, name: str, args: Sequence[Term], location_index: int = 0):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "location_index", location_index)

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def location_term(self) -> Term:
        """The term in the location-specifier position."""
        return self.args[self.location_index]

    @property
    def is_event(self) -> bool:
        return is_event_predicate(self.name)

    def variables(self) -> Iterator[str]:
        for arg in self.args:
            yield from arg.variables()

    def aggregate(self) -> Optional[Tuple[int, AggregateSpec]]:
        """Return ``(position, spec)`` if the atom has an aggregate argument."""
        for index, arg in enumerate(self.args):
            if isinstance(arg, AggregateSpec):
                return index, arg
        return None

    def __str__(self) -> str:
        rendered = []
        for index, arg in enumerate(self.args):
            prefix = "@" if index == self.location_index else ""
            rendered.append(f"{prefix}{arg}")
        return f"{self.name}({', '.join(rendered)})"


@dataclass(frozen=True)
class Condition:
    """A boolean constraint in a rule body, e.g. ``C < 5`` or ``Z != Y``."""

    expression: Term

    def variables(self) -> Iterator[str]:
        yield from self.expression.variables()

    def __str__(self) -> str:
        return str(self.expression)


@dataclass(frozen=True)
class Assignment:
    """A body assignment binding a new variable, e.g. ``C = C1 + C2``."""

    variable: Variable
    expression: Term

    def variables(self) -> Iterator[str]:
        yield from self.expression.variables()

    def __str__(self) -> str:
        return f"{self.variable} = {self.expression}"


#: The three kinds of literal allowed in a rule body.
BodyLiteral = Any  # Atom | Condition | Assignment


@dataclass(frozen=True)
class Rule:
    """A single NDlog rule: ``label head :- body.``

    ``label`` is the rule identifier (``sp1``, ``r20`` ...); it feeds into
    RID computation for provenance, so every rule in a provenance-enabled
    program must carry a distinct label.
    """

    label: str
    head: Atom
    body: Tuple[BodyLiteral, ...]

    def __init__(self, label: str, head: Atom, body: Sequence[BodyLiteral]):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", tuple(body))

    @property
    def body_atoms(self) -> Tuple[Atom, ...]:
        return tuple(lit for lit in self.body if isinstance(lit, Atom))

    @property
    def body_conditions(self) -> Tuple[Condition, ...]:
        return tuple(lit for lit in self.body if isinstance(lit, Condition))

    @property
    def body_assignments(self) -> Tuple[Assignment, ...]:
        return tuple(lit for lit in self.body if isinstance(lit, Assignment))

    @property
    def is_aggregate_rule(self) -> bool:
        return self.head.aggregate() is not None

    def variables(self) -> Iterator[str]:
        yield from self.head.variables()
        for literal in self.body:
            yield from literal.variables()

    def validate(self) -> None:
        """Check rule safety.

        Every body-atom argument is a variable or a constant, and every
        variable used in the head, in conditions and in assignment
        right-hand sides must be bound either by a body atom or by an earlier
        assignment.  Raises :class:`ValidationError` on violation.
        """
        bound: set[str] = set()
        for atom in self.body_atoms:
            for index, arg in enumerate(atom.args):
                if not isinstance(arg, (Variable, Constant)):
                    self._reject_expression_argument(atom, index)
            bound.update(atom.variables())
        for literal in self.body:
            if isinstance(literal, Assignment):
                for name in literal.expression.variables():
                    if name not in bound:
                        raise ValidationError(
                            f"rule {self.label}: variable {name!r} used before "
                            f"binding in assignment {literal}"
                        )
                bound.add(literal.variable.name)
            elif isinstance(literal, Condition):
                for name in literal.variables():
                    if name not in bound:
                        raise ValidationError(
                            f"rule {self.label}: unbound variable {name!r} in "
                            f"condition {literal}"
                        )
        for name in self.head.variables():
            if name not in bound:
                raise ValidationError(
                    f"rule {self.label}: head variable {name!r} is not bound "
                    "by the rule body"
                )

    def _reject_expression_argument(self, atom: Atom, index: int) -> None:
        """Refuse an expression inside a body atom, naming its rewrite.

        Matching such an atom would evaluate the expression under whatever
        the delta happened to bind, so the fixpoint would depend on arrival
        order; a fresh variable plus an equality condition does not.
        """
        names = set(self.variables())
        fresh, suffix = "X", 0
        while fresh in names:
            suffix += 1
            fresh = f"X{suffix}"
        args = list(atom.args)
        expression = args[index]
        args[index] = Variable(fresh)
        rewritten = Atom(atom.name, tuple(args), atom.location_index)
        raise ValidationError(
            f"rule {self.label}: body atom {atom} has the expression argument "
            f"{expression}; bind a fresh variable and compare it instead, "
            f"e.g. {rewritten}, {fresh} == {expression}"
        )

    def __str__(self) -> str:
        body = ", ".join(str(lit) for lit in self.body)
        return f"{self.label} {self.head} :- {body}."


class Fact:
    """A ground fact such as ``link(@a, b, 3).``

    Facts are stored as plain value tuples; the location value is
    ``values[location_index]``.  A plain slotted class rather than a frozen
    dataclass: the engine creates one Fact per derived head, so construction
    is three slot stores.  Facts are values — compared, hashed and printed
    by their three fields — and nothing mutates one after construction.
    """

    __slots__ = ("name", "values", "location_index")

    def __init__(self, name: str, values: Sequence[Any], location_index: int = 0):
        self.name = name
        self.values: Tuple[Any, ...] = (
            values if isinstance(values, tuple) else tuple(values)
        )
        self.location_index = location_index

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Fact:
            return NotImplemented
        return (
            self.name == other.name
            and self.values == other.values
            and self.location_index == other.location_index
        )

    def __hash__(self) -> int:
        return hash((self.name, self.values, self.location_index))

    def __repr__(self) -> str:
        return (
            f"Fact(name={self.name!r}, values={self.values!r}, "
            f"location_index={self.location_index!r})"
        )

    def __reduce__(self):
        # Shard pipes and checkpoints pickle facts; slots need this spelled out.
        return (Fact, (self.name, self.values, self.location_index))

    @property
    def arity(self) -> int:
        return len(self.values)

    @property
    def location(self) -> Any:
        return self.values[self.location_index]

    def __str__(self) -> str:
        rendered = []
        for index, value in enumerate(self.values):
            prefix = "@" if index == self.location_index else ""
            text = f'"{value}"' if isinstance(value, str) else str(value)
            rendered.append(f"{prefix}{text}")
        return f"{self.name}({', '.join(rendered)})"


@dataclass(frozen=True)
class TableDecl:
    """A ``materialize(name, arity, keys)`` style table declaration.

    Declarations are optional: relations referenced by rules are created on
    demand with all attributes forming the key.  Declaring a table lets the
    programmer fix the primary-key positions, which controls update (rather
    than multiset insert) semantics.
    """

    name: str
    arity: int
    key_positions: Tuple[int, ...] = ()

    def __init__(self, name: str, arity: int, key_positions: Sequence[int] = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "key_positions", tuple(key_positions))


@dataclass
class Program:
    """A complete NDlog program: declarations, rules and base facts."""

    rules: List[Rule] = field(default_factory=list)
    facts: List[Fact] = field(default_factory=list)
    declarations: List[TableDecl] = field(default_factory=list)
    name: str = "program"

    def add_rule(self, rule: Rule) -> None:
        self.rules.append(rule)

    def add_fact(self, fact: Fact) -> None:
        self.facts.append(fact)

    def add_declaration(self, declaration: TableDecl) -> None:
        self.declarations.append(declaration)

    def rule_by_label(self, label: str) -> Rule:
        for rule in self.rules:
            if rule.label == label:
                return rule
        raise KeyError(label)

    def relation_names(self) -> List[str]:
        """Return every relation name referenced by the program, sorted."""
        names = {decl.name for decl in self.declarations}
        names.update(fact.name for fact in self.facts)
        for rule in self.rules:
            names.add(rule.head.name)
            names.update(atom.name for atom in rule.body_atoms)
        return sorted(names)

    def predicates_derived(self) -> List[str]:
        """Return the names of predicates appearing in some rule head."""
        return sorted({rule.head.name for rule in self.rules})

    def base_predicates(self) -> List[str]:
        """Return relation names never derived by a rule (EDB relations)."""
        derived = set(self.predicates_derived())
        return [name for name in self.relation_names() if name not in derived]

    def validate(self) -> None:
        """Validate every rule and check label uniqueness.

        Memoised on the rules' identities (rules are immutable): every node
        of a network loads the same program, and only the first pays.
        """
        key = tuple(map(id, self.rules))
        validated = _VALIDATED.get(key)
        if validated is not None and all(map(operator.is_, validated, self.rules)):
            return
        seen: Dict[str, Rule] = {}
        for rule in self.rules:
            if rule.label in seen:
                raise ValidationError(f"duplicate rule label {rule.label!r}")
            seen[rule.label] = rule
            rule.validate()
        if len(_VALIDATED) >= _VALIDATED_LIMIT:
            _VALIDATED.clear()
        _VALIDATED[key] = tuple(self.rules)  # pins the ids against reuse

    def extended(self, other: "Program", name: Optional[str] = None) -> "Program":
        """Return a new program combining this program with *other*."""
        return Program(
            rules=[*self.rules, *other.rules],
            facts=[*self.facts, *other.facts],
            declarations=[*self.declarations, *other.declarations],
            name=name or self.name,
        )

    def __str__(self) -> str:
        lines = [str(rule) for rule in self.rules]
        lines.extend(f"{fact}." for fact in self.facts)
        return "\n".join(lines)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)
