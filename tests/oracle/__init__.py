"""Test oracles for the NDlog engine: the two ways ``src/`` no longer runs a rule.

:class:`~repro.datalog.engine.NDlogEngine` has one executor — greedy plans
run through generated and closure-compiled code, deltas drained in
batches, sink tables applied at emission.  The engines here subclass it
and replace exactly that executor, so every equivalence test compares the
compiled path against an independent walk over :class:`Rule` ASTs and
plain tables:

* :class:`InterpretedEngine` processes one delta per step, queues every
  row (no sinks, no fused path) and runs each rule by walking term trees
  over the planner's join order, re-costing multi-step plans on the same
  schedule as the engine.  Tables, index buckets, listener sequences,
  sends and every ``engine.stats`` counter must equal the engine's.
* :class:`NestedLoopEngine` joins the body atoms strictly left to right
  over full scans, with no plan at all.  Derived rows must equal the
  engine's; ``tuples_scanned`` is what the planner saves.

Neither imports :mod:`repro.datalog.plan.compiled_exec`: matching,
finalization and head evaluation go through ``NDlogEngine._match_atom`` /
``_finalize_binding`` (``Term.evaluate``), which the compiled code must
reproduce.  Networks build their engines through the module attribute
``NDlogEngine``; :func:`built_with` swaps it for an oracle class.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Tuple

import repro.core.api
import repro.datalog.runtime
from repro.datalog.ast import Assignment, Atom, Fact, Rule
from repro.datalog.engine import Delta, NDlogEngine
from repro.datalog.errors import EvaluationError
from repro.datalog.plan.compiler import STALENESS_CHECK_PERIOD, CompiledDeltaPlan, CompiledStep

__all__ = ["ENGINES", "InterpretedEngine", "NestedLoopEngine", "built_with"]


class InterpretedEngine(NDlogEngine):
    """One delta per step, every row queued, rules walked as term trees."""

    def _refresh_sinks(self) -> None:
        self._sinks = {}
        self._lean = False

    def run(self, max_steps=None) -> int:
        steps = 0
        while self._queue:
            if max_steps is not None and steps >= max_steps:
                break
            delta = self._queue.popleft()
            # The class attribute, not a traced override: no batch span.
            NDlogEngine._process_batch(self, delta.fact.name, delta.action, (delta,))
            steps += 1
        return steps

    def _fire_rules(self, firings, delta: Delta) -> None:
        for firing in firings:
            rule, position = firing.rule, firing.position
            binding = self._match_atom(rule.body_atoms[position], delta.fact.values, {})
            if binding is not None:
                self._evaluate(rule, position, delta, binding)

    def _evaluate(self, rule: Rule, position: int, delta: Delta, binding) -> None:
        plan = self._plan_for(rule, position)
        plan.executions += 1
        if not plan.steps:
            self._finalize_binding(rule, binding, [(plan.trigger_atom, delta.fact)], delta)
            return
        if plan.initial_literal_prefix and not _prefix_passes(
            self, plan, binding, plan.initial_literal_prefix
        ):
            return
        self._join(plan, delta, binding, 0, {})

    def _plan_for(self, rule: Rule, position: int) -> CompiledDeltaPlan:
        """The rule's plan, recompiled when live cardinalities drifted.

        Checked after a trigger match, before the execution is counted, as
        the engine does.
        """
        key = (id(rule), position)
        plan = self._plans[key]
        if (
            len(plan.steps) >= 2
            and plan.executions % STALENESS_CHECK_PERIOD == 0
            and plan.is_stale(self._statistics)
        ):
            plan = self._plan_compiler.compile(rule, position)
            plan.executions = 1  # keep the staleness check period aligned
            self._plans[key] = plan
            self.stats["plans_recompiled"] += 1
        return plan

    def _join(
        self,
        plan: CompiledDeltaPlan,
        delta: Delta,
        binding: Dict[str, Any],
        step_index: int,
        facts: Dict[int, Fact],
    ) -> None:
        if step_index == len(plan.steps):
            matched = [(plan.trigger_atom, delta.fact)]
            for position, atom in plan.body_order:
                matched.append((atom, facts[position]))
            self._finalize_binding(plan.rule, binding, matched, delta)
            return
        step = plan.steps[step_index]
        constraints = _constraints(self, step, binding)
        self.stats["index_lookups" if constraints else "full_scans"] += 1
        scanned = 0
        for row in self.catalog.table(step.atom.name).lookup(constraints):
            scanned += 1
            extended = self._match_atom(step.atom, row, binding)
            if extended is None:
                continue
            if step.literal_prefix and not _prefix_passes(
                self, plan, extended, step.literal_prefix
            ):
                continue
            facts[step.body_position] = Fact(step.atom.name, row, step.atom.location_index)
            self._join(plan, delta, extended, step_index + 1, facts)
        self.stats["tuples_scanned"] += scanned


class NestedLoopEngine(InterpretedEngine):
    """Left-to-right nested loops over full scans: no plan, no index probe."""

    def _evaluate(self, rule: Rule, position: int, delta: Delta, binding) -> None:
        trigger = rule.body_atoms[position]
        self._join_left_to_right(rule, position, binding, [(trigger, delta.fact)], delta, 0)

    def _join_left_to_right(
        self,
        rule: Rule,
        trigger_position: int,
        binding: Dict[str, Any],
        matched: List[Tuple[Atom, Fact]],
        delta: Delta,
        index: int,
    ) -> None:
        atoms = rule.body_atoms
        if index == trigger_position:
            index += 1
        if index >= len(atoms):
            self._finalize_binding(rule, binding, matched, delta)
            return
        atom = atoms[index]
        self.stats["full_scans"] += 1
        scanned = 0
        for row in self.catalog.table(atom.name).rows():
            scanned += 1
            extended = self._match_atom(atom, row, binding)
            if extended is not None:
                fact = Fact(atom.name, row, atom.location_index)
                self._join_left_to_right(
                    rule, trigger_position, extended, matched + [(atom, fact)], delta, index + 1
                )
        self.stats["tuples_scanned"] += scanned


def _constraints(engine: NDlogEngine, step: CompiledStep, binding) -> Dict[int, Any]:
    """The ``{position: value}`` lookup of *step*.

    When an expression constraint fails to evaluate, every expression
    constraint is dropped and the rows are filtered by ``_match_atom``, as
    a full scan would; the compiler pre-registered that fallback index.
    """
    constraints: Dict[int, Any] = {}
    expressions = []
    for spec in step.lookups:
        if spec.kind == "var":
            constraints[spec.position] = binding[spec.source]
        elif spec.kind == "const":
            constraints[spec.position] = spec.source
        else:
            expressions.append(spec)
    for spec in expressions:
        try:
            constraints[spec.position] = spec.source.evaluate(binding, engine.functions)
        except EvaluationError:
            for dropped in expressions:
                constraints.pop(dropped.position, None)
            break
    return constraints


def _prefix_passes(
    engine: NDlogEngine, plan: CompiledDeltaPlan, binding: Mapping[str, Any], count: int
) -> bool:
    """Evaluate the first *count* non-atom literals; False prunes.

    Literals run in body order against a copy of the binding, assignments
    overwrite, as in finalization.  An :class:`EvaluationError` stops the
    pushdown (finalization owns error reporting); it never prunes.
    """
    env = dict(binding)
    for info in plan.literals[:count]:
        literal = info.literal
        try:
            if isinstance(literal, Assignment):
                env[literal.variable.name] = literal.expression.evaluate(env, engine.functions)
            elif not literal.expression.evaluate(env, engine.functions):
                return False
        except EvaluationError:
            return True
    return True


#: The engine and its interpreter, by the names the equivalence tests use;
#: every state must equal the ``"interpreted"`` one.
ENGINES = {"compiled": NDlogEngine, "interpreted": InterpretedEngine}


@contextmanager
def built_with(engine_class) -> Iterator[type]:
    """Build every network's engines as *engine_class* inside the block.

    ``ExspanNetwork`` and ``StandaloneNetwork`` construct their engines
    through their modules' ``NDlogEngine`` name; this swaps both and
    restores them on exit.
    """
    modules = (repro.core.api, repro.datalog.runtime)
    saved = [module.NDlogEngine for module in modules]
    for module in modules:
        module.NDlogEngine = engine_class
    try:
        yield engine_class
    finally:
        for module, original in zip(modules, saved):
            module.NDlogEngine = original
