"""Compiled per-(rule, delta-position) evaluation plans.

For every rule and every body-atom position a delta can arrive at, the
:class:`PlanCompiler` produces a :class:`CompiledDeltaPlan`:

* the remaining body atoms in a static order read off the rule alone:
  atoms sharing a variable with what is bound before cross products, then
  more constrained argument positions first, then body order.  After
  localization no shipped rule has more than two body atoms, so no plan
  has more than one step to order and table sizes have nothing to steer;
* per step, a precomputed *lookup specification* — which argument positions
  are constrained at runtime and where each constraint value comes from
  (a bound variable or a constant);
* per step, how many leading non-atom body literals (assignments and
  conditions) become evaluable once the step's variables are bound, so
  conditions prune join branches as early as possible (selection pushdown);
* the secondary indexes each step needs, registered eagerly with the
  :class:`~repro.datalog.plan.indexes.IndexManager`.

A plan runs as one generated function,
:attr:`CompiledDeltaPlan.fused_exec` (see :mod:`.compiled_exec`).  It must
equal a left-to-right nested-loop join walked over term trees (the oracles
in ``tests/oracle/``), because the engine's results feed provenance VIDs
and annotations:

* lookup constraints are built only from variables bound by the trigger
  atom and earlier *atoms* — never from assignment-derived variables, which
  a nested-loop join also ignores during matching;
* pushed-down literals are evaluated with the same overwrite-in-body-order
  semantics as finalization, and any :class:`EvaluationError` defers the
  literal (and everything after it) back to finalization instead of
  pruning, so error behaviour is unchanged;
* body annotations are combined in body order (trigger first, then the
  remaining atoms) regardless of the join order, keeping provenance
  annotation combination bit-identical;
* the ``index_lookups`` / ``full_scans`` / ``tuples_scanned`` counters are
  stored in benchmark artifacts the CI regression gate byte-compares.

:func:`match_atom` and :func:`finalize` are the term-tree interpreter of
one match: the generated code replays through them on an exception, and
the oracles run every match through them.  They only evaluate; emitting
the result is the caller's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ast import Assignment, Atom, Rule
from ..errors import EvaluationError
from ..terms import Variable
from .compiled_exec import generate_executor
from .indexes import IndexManager
from .normalize import AtomSignature, LiteralInfo, NormalizedRule, normalize_rule

__all__ = [
    "LookupSpec",
    "CompiledStep",
    "CompiledDeltaPlan",
    "PlanCompiler",
    "finalize",
    "match_atom",
]

#: Process-wide memo of generated executors, keyed by (id(rule), trigger
#: position, annotated): every node of a network loads the same program,
#: a plan depends only on its rule and trigger position, and whether the
#: engine has an annotation policy fixes everything else its code depends on.
#: Values pin the rule object so a recycled id can never alias a different
#: rule; the cache is dropped wholesale at the (generous) limit to stay
#: bounded across long sweeps.
_EXECUTORS: Dict[Tuple[int, int, bool], Tuple[Rule, Any]] = {}
_EXECUTORS_LIMIT = 4096

#: Process-wide memo of a rule's normal form, keyed by id(rule) under the
#: same wholesale limit (the normal form pins its rule): rules are immutable
#: and every node's compiler analyses the same program.
_ANALYSES: Dict[int, NormalizedRule] = {}


@dataclass(frozen=True)
class LookupSpec:
    """How to compute the constraint value for one argument position."""

    position: int
    kind: str  # "var" | "const"
    source: Any  # variable name | constant value


@dataclass(frozen=True)
class CompiledStep:
    """One join step of a compiled plan."""

    atom: Atom
    body_position: int
    lookups: Tuple[LookupSpec, ...]
    #: canonical index position tuple ( () means full fragment scan ).
    index_positions: Tuple[int, ...]
    #: leading non-atom literals evaluable once this step has matched.
    literal_prefix: int
    #: the atom shares a variable with the atoms joined before it (a join,
    #: not a cross product); explain() only.
    connected: bool


@dataclass
class CompiledDeltaPlan:
    """A ready-to-run evaluation plan for one (rule, trigger position)."""

    rule: Rule
    trigger_position: int
    trigger_atom: Atom
    steps: Tuple[CompiledStep, ...]
    #: leading non-atom literals evaluable from the trigger binding alone.
    initial_literal_prefix: int
    #: non-trigger atom positions in body order (canonical fact ordering).
    body_order: Tuple[Tuple[int, Atom], ...]
    literals: Tuple[LiteralInfo, ...]
    #: the engine has an annotation policy: the executor combines annotations.
    annotated: bool = False

    def __post_init__(self) -> None:
        key = (id(self.rule), self.trigger_position, self.annotated)
        cached = _EXECUTORS.get(key)
        if cached is None or cached[0] is not self.rule:
            if len(_EXECUTORS) >= _EXECUTORS_LIMIT:
                _EXECUTORS.clear()
            cached = _EXECUTORS[key] = (self.rule, generate_executor(self))
        self.fused_exec = cached[1]

    # ------------------------------------------------------------------ #
    # interpreter replays (error paths of the generated executor)
    # ------------------------------------------------------------------ #
    def _finalize_replay(self, engine, rows) -> Any:
        """Re-run one finalization through the interpreter.

        The generated executor delegates here on *any* exception while
        finalizing: evaluation is pure, so replaying from a freshly
        reconstructed binding reproduces the interpreter's exact behaviour
        — including its wrapped error messages — without the generated code
        carrying per-literal error handling.  *rows* are the trigger row and
        each step's row, in join order, the order the interpreter binds
        them in.  Returns :func:`finalize`'s result, which the generated
        code emits as it emits its own.
        """
        binding: Optional[Dict[str, Any]] = {}
        for atom, row in zip((self.trigger_atom, *(step.atom for step in self.steps)), rows):
            binding = match_atom(atom, row, binding)
            if binding is None:  # pragma: no cover - rows matched moments ago
                raise EvaluationError(
                    f"rule {self.rule.label}: internal error re-matching body facts"
                )
        return finalize(self.rule, binding, engine.functions)

    def _prefix_replay(self, engine, env: Dict[str, Any], count: int) -> bool:
        """The first *count* literals over *env*: False prunes.

        The generated executor asks here when a pushed-down prefix raised.
        Literals run in body order, assignments overwrite; an
        :class:`EvaluationError` defers the rest to finalization (it never
        prunes), and any other exception propagates.
        """
        functions = engine.functions
        for info in self.literals[:count]:
            literal = info.literal
            try:
                if isinstance(literal, Assignment):
                    env[literal.variable.name] = literal.expression.evaluate(env, functions)
                elif not literal.expression.evaluate(env, functions):
                    return False
            except EvaluationError:
                return True
        return True


def match_atom(
    atom: Atom, values: Sequence[Any], binding: Mapping[str, Any]
) -> Optional[Dict[str, Any]]:
    """Unify *atom*'s arguments with *values*, extending *binding*."""
    if len(values) != len(atom.args):
        return None
    extended = dict(binding)
    for arg, value in zip(atom.args, values):
        if isinstance(arg, Variable):
            if arg.is_wildcard:
                continue
            bound = extended.get(arg.name, _UNBOUND)
            if bound is _UNBOUND:
                extended[arg.name] = value
            elif bound != value:
                return None
        elif arg.value != value:  # a constant (Rule.validate)
            return None
    return extended


def finalize(rule: Rule, binding: Mapping[str, Any], functions) -> Any:
    """Evaluate *rule*'s assignments, conditions and head over *binding*.

    Returns ``None`` when a condition fails, ``(group key, value)`` for an
    aggregate head, and the head row otherwise.  An error in an assignment
    or condition is re-raised naming the rule and the literal.
    """
    env = dict(binding)
    for literal in rule.body:
        if isinstance(literal, Atom):
            continue
        try:
            result = literal.expression.evaluate(env, functions)
        except EvaluationError as exc:
            raise EvaluationError(
                f"rule {rule.label}: failed to evaluate {literal}: {exc}"
            ) from exc
        if isinstance(literal, Assignment):
            env[literal.variable.name] = result
        elif not result:
            return None
    head = rule.head
    aggregate = head.aggregate()
    if aggregate is None:
        return tuple([arg.evaluate(env, functions) for arg in head.args])
    index, spec = aggregate
    key = tuple([arg.evaluate(env, functions) for i, arg in enumerate(head.args) if i != index])
    if spec.is_star:
        return key, 1
    if len(spec.variables_) == 1:
        return key, env[spec.variables_[0]]
    return key, tuple(env[name] for name in spec.variables_)


_UNBOUND = object()


class PlanCompiler:
    """Compiles (rule, delta position) pairs into executable plans.

    A plan is a pure function of its rule, trigger position and whether
    the engine annotates: nothing in it reads a table.
    """

    def __init__(self, index_manager: IndexManager, annotated: bool = False):
        self.index_manager = index_manager
        self.annotated = annotated

    @staticmethod
    def _analysis(rule: Rule) -> NormalizedRule:
        normalized = _ANALYSES.get(id(rule))
        if normalized is None or normalized.rule is not rule:
            normalized = normalize_rule(rule)
            if len(_ANALYSES) >= _EXECUTORS_LIMIT:
                _ANALYSES.clear()
            _ANALYSES[id(rule)] = normalized
        return normalized

    def compile(self, rule: Rule, trigger_position: int) -> CompiledDeltaPlan:
        """Compile the delta plan for *rule* triggered at *trigger_position*."""
        normalized = self._analysis(rule)
        trigger = normalized.signature(trigger_position)
        bound = set(trigger.variables)
        initial_prefix = self._pruning_prefix(normalized, frozenset(bound))
        remaining = [
            signature
            for signature in normalized.atoms
            if signature.position != trigger_position
        ]
        steps: List[CompiledStep] = []
        while remaining:
            # The static join order: an atom sharing a variable with what is
            # bound beats a cross product, then more constrained positions
            # beat fewer, then body order decides.
            signature = min(
                remaining,
                key=lambda s: (
                    s.variables.isdisjoint(bound),
                    -len(_bound_positions(s, bound)),
                    s.position,
                ),
            )
            remaining.remove(signature)
            positions = _bound_positions(signature, bound)
            connected = not signature.variables.isdisjoint(bound)
            bound.update(signature.variables)
            # Pushdown after the last step buys nothing: finalization runs
            # immediately afterwards and evaluates every literal anyway.
            prefix = self._pruning_prefix(normalized, frozenset(bound)) if remaining else 0
            steps.append(
                CompiledStep(
                    atom=signature.atom,
                    body_position=signature.position,
                    lookups=self._lookup_specs(signature, positions),
                    index_positions=self.index_manager.require(signature.name, positions),
                    literal_prefix=prefix,
                    connected=connected,
                )
            )
        body_order = tuple(
            (signature.position, signature.atom)
            for signature in normalized.atoms
            if signature.position != trigger_position
        )
        return CompiledDeltaPlan(
            rule=rule,
            trigger_position=trigger_position,
            trigger_atom=trigger.atom,
            steps=tuple(steps),
            initial_literal_prefix=initial_prefix if steps else 0,
            body_order=body_order,
            literals=normalized.literals,
            annotated=self.annotated,
        )

    @staticmethod
    def _pruning_prefix(normalized: NormalizedRule, bound: frozenset) -> int:
        """Evaluable literal prefix, but only when it can actually prune.

        A prefix made solely of assignments never rejects a binding, and
        finalization re-evaluates every literal anyway — so pushing it down
        would be pure re-computation.  Only prefixes containing at least one
        condition are worth evaluating early.
        """
        count = normalized.evaluable_literal_prefix(bound)
        if any(not info.is_assignment for info in normalized.literals[:count]):
            return count
        return 0

    @staticmethod
    def _lookup_specs(signature, bound_positions: Tuple[int, ...]) -> Tuple[LookupSpec, ...]:
        position_to_var = {
            position: name
            for name, positions in signature.var_positions.items()
            for position in positions
        }
        return tuple(
            LookupSpec(position, "const", signature.const_positions[position])
            if position in signature.const_positions
            else LookupSpec(position, "var", position_to_var[position])
            for position in bound_positions
        )


def _bound_positions(signature: AtomSignature, bound: AbstractSet[str]) -> Tuple[int, ...]:
    """Argument positions constrainable once the variables *bound* are known.

    Constants always are; a variable's positions are once it is bound.
    """
    positions = set(signature.const_positions)
    for name, var_positions in signature.var_positions.items():
        if name in bound:
            positions.update(var_positions)
    return tuple(sorted(positions))

