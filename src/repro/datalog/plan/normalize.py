"""Rule normalization for the planner.

The planner does not work on :class:`~repro.datalog.ast.Rule` objects
directly: it first *normalizes* a rule into a shape that makes the
information a join optimizer needs explicit:

* per body atom, which argument positions are bound to which variables
  (:attr:`AtomSignature.var_positions`) and which hold constants
  (:attr:`AtomSignature.const_positions`) — ``Rule.validate`` admits
  nothing else in a body atom;
* the rule's non-atom literals (assignments and conditions) in body order,
  each with the set of variables it reads and — for assignments — the
  variable it binds.

Normalization is purely structural: it never changes the meaning of the
rule, so every plan built from a :class:`NormalizedRule` enumerates exactly
the same matches as the naive left-to-right evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from ..ast import Assignment, Atom, Condition, Rule
from ..terms import Variable

__all__ = ["AtomSignature", "LiteralInfo", "NormalizedRule", "normalize_rule"]


@dataclass(frozen=True)
class AtomSignature:
    """Planner view of one body atom.

    ``position`` is the atom's index within ``rule.body_atoms`` (the same
    index the engine uses as a delta trigger position).
    """

    atom: Atom
    position: int
    #: variable name -> argument positions where it occurs (non-wildcard).
    var_positions: Dict[str, Tuple[int, ...]]
    #: argument position -> constant value.
    const_positions: Dict[int, object]

    @property
    def variables(self) -> FrozenSet[str]:
        return frozenset(self.var_positions)

    @property
    def name(self) -> str:
        return self.atom.name


@dataclass(frozen=True)
class LiteralInfo:
    """One non-atom body literal (assignment or condition) in body order."""

    literal: object  # Assignment | Condition
    #: variables the literal's expression reads.
    reads: FrozenSet[str]
    #: variable an assignment binds (None for conditions).
    binds: Optional[str]

    @property
    def is_assignment(self) -> bool:
        return self.binds is not None


@dataclass(frozen=True)
class NormalizedRule:
    """A rule decomposed into the pieces the planner consumes."""

    rule: Rule
    atoms: Tuple[AtomSignature, ...]
    literals: Tuple[LiteralInfo, ...]

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    def signature(self, position: int) -> AtomSignature:
        return self.atoms[position]

    def evaluable_literal_prefix(self, atom_bound: FrozenSet[str]) -> int:
        """How many leading literals are evaluable given *atom_bound* vars.

        Literals must be applied in body order (assignments may overwrite
        variables), so the prefix stops at the first literal whose read set
        is not covered by the atom-bound variables plus the variables bound
        by earlier literals in the prefix.
        """
        available = set(atom_bound)
        count = 0
        for info in self.literals:
            if not info.reads <= available:
                break
            if info.binds is not None:
                available.add(info.binds)
            count += 1
        return count


def _atom_signature(atom: Atom, position: int) -> AtomSignature:
    var_positions: Dict[str, list] = {}
    const_positions: Dict[int, object] = {}
    for index, arg in enumerate(atom.args):
        if isinstance(arg, Variable):
            if not arg.is_wildcard:
                var_positions.setdefault(arg.name, []).append(index)
        else:
            const_positions[index] = arg.value
    return AtomSignature(
        atom=atom,
        position=position,
        var_positions={name: tuple(ps) for name, ps in var_positions.items()},
        const_positions=const_positions,
    )


def normalize_rule(rule: Rule) -> NormalizedRule:
    """Build the planner's normalized view of *rule*."""
    atoms = tuple(
        _atom_signature(atom, position)
        for position, atom in enumerate(rule.body_atoms)
    )
    literals = []
    for literal in rule.body:
        if isinstance(literal, Atom):
            continue
        if isinstance(literal, Assignment):
            literals.append(
                LiteralInfo(
                    literal=literal,
                    reads=frozenset(literal.expression.variables()),
                    binds=literal.variable.name,
                )
            )
        elif isinstance(literal, Condition):
            literals.append(
                LiteralInfo(
                    literal=literal,
                    reads=frozenset(literal.expression.variables()),
                    binds=None,
                )
            )
    return NormalizedRule(rule=rule, atoms=atoms, literals=tuple(literals))
