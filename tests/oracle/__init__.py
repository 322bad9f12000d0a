"""Test oracles for the NDlog engine: the two ways ``src/`` no longer runs a rule.

:class:`~repro.datalog.engine.NDlogEngine` has one executor — every plan
runs as one generated function, every delta applied and fired in one
loop, sink tables applied at emission.  The engines here subclass it
and replace exactly that executor, so every equivalence test compares the
compiled path against an independent walk over :class:`Rule` ASTs and
plain tables:

* :class:`InterpretedEngine` dispatches each delta through its own
  ``_apply_insert`` / ``_apply_delete`` / ``_apply_refresh``, queues every
  row (no sinks, no fused path) and runs each rule by walking term trees
  over the planner's join order.
  Tables, index buckets, listener sequences, sends and every
  ``engine.stats`` counter must equal the engine's.
* :class:`NestedLoopEngine` joins the body atoms strictly left to right
  over full scans, with no plan at all.  Derived rows must equal the
  engine's; ``tuples_scanned`` is what the planner saves.

Neither imports :mod:`repro.datalog.plan.compiled_exec`: matching,
literals and head evaluation go through the planner's ``match_atom`` /
``finalize`` (``Term.evaluate``), which the generated code must reproduce
and which it replays through on an exception.  The emission is the
oracle's own: the aggregate update, the head annotation combined from
every body fact in body order, and ``NDlogEngine._route``.  Networks build
their engines through the module attribute ``NDlogEngine``;
:func:`built_with` swaps it for an oracle class.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Tuple

import repro.core.api
import repro.datalog.runtime
from repro.datalog.ast import Assignment, Atom, Fact, Rule
from repro.datalog.engine import DELETE, INSERT, REFRESH, Delta, NDlogEngine
from repro.datalog.errors import EvaluationError
from repro.datalog.plan.compiler import CompiledDeltaPlan, CompiledStep, finalize, match_atom

__all__ = ["ENGINES", "InterpretedEngine", "NestedLoopEngine", "built_with", "table_state"]


class InterpretedEngine(NDlogEngine):
    """One delta per step, every row queued, rules walked as term trees."""

    def _refresh_sinks(self) -> None:
        self._sinks = {}

    def run(self) -> int:
        steps = 0
        while self._queue:
            delta = self._queue.popleft()
            steps += 1
            self.stats["deltas_processed"] += 1
            fact = delta.fact
            is_event, table, firings = self._dispatch.get(fact.name) or self._resolve(
                fact.name, fact.arity
            )
            if is_event:
                self._fire_rules(firings, delta)
            elif delta.action == INSERT:
                self._apply_insert(table, firings, delta)
            elif delta.action == DELETE:
                self._apply_delete(table, firings, delta)
            else:
                self._apply_refresh(table, firings, delta)
        return steps

    def _apply_insert(self, table, firings, delta: Delta) -> None:
        fact = delta.fact
        outcome = table.insert(fact.values)
        if outcome.replaced is not None:
            self._retract_replaced(firings, outcome.replaced)
        annotation_changed = False
        if self.annotation_policy is not None and delta.annotation is not None:
            annotation_changed = self._store_annotation(fact, delta.annotation)
        if outcome.became_visible:
            if self._update_listeners:
                self._notify_update(INSERT, fact)
            self._fire_rules(firings, delta)
        elif annotation_changed and self.annotation_policy.propagate_updates:
            # A new alternative derivation changed this tuple's annotation:
            # propagate it to everything derived from it.
            self._fire_rules(firings, Delta(REFRESH, fact, self._lookup_annotation(fact)))

    def _apply_delete(self, table, firings, delta: Delta) -> None:
        fact = delta.fact
        if table.delete(fact.values).became_invisible:
            self._clear_annotation(fact)
            if self._update_listeners:
                self._notify_update(DELETE, fact)
            self._fire_rules(firings, delta)

    def _apply_refresh(self, table, firings, delta: Delta) -> None:
        if self.annotation_policy is None or delta.annotation is None:
            return
        fact = delta.fact
        if fact.values not in table:
            # The refresh raced ahead of the insert: apply it as an insert
            # at this queue position.
            self._apply_insert(table, firings, Delta(INSERT, fact, delta.annotation))
            return
        if self._store_annotation(fact, delta.annotation):
            self._fire_rules(firings, Delta(REFRESH, fact, self._lookup_annotation(fact)))

    def _fire_rules(self, firings, delta: Delta) -> None:
        for plan in firings:
            binding = match_atom(plan.trigger_atom, delta.fact.values, {})
            if binding is not None:
                self._evaluate(plan, delta, binding)

    def _evaluate(self, plan: CompiledDeltaPlan, delta: Delta, binding) -> None:
        if not plan.steps:
            self._finalize_binding(plan.rule, binding, [(plan.trigger_atom, delta.fact)], delta)
            return
        if plan.initial_literal_prefix and not _prefix_passes(
            self, plan, binding, plan.initial_literal_prefix
        ):
            return
        self._join(plan, delta, binding, 0, {})

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
        constraints = _constraints(step, binding)
        self.stats["index_lookups" if constraints else "full_scans"] += 1
        scanned = 0
        for row in self.catalog.table(step.atom.name).lookup(constraints):
            scanned += 1
            extended = match_atom(step.atom, row, binding)
            if extended is None:
                continue
            if step.literal_prefix and not _prefix_passes(
                self, plan, extended, step.literal_prefix
            ):
                continue
            facts[step.body_position] = Fact(step.atom.name, row, step.atom.location_index)
            self._join(plan, delta, extended, step_index + 1, facts)
        self.stats["tuples_scanned"] += scanned

    def _finalize_binding(
        self, rule: Rule, binding, matched: List[Tuple[Atom, Fact]], delta: Delta
    ) -> None:
        """Evaluate literals and head, then emit the head row."""
        result = finalize(rule, binding, self.functions)
        if result is None:
            return
        action = delta.action
        if rule.label in self._aggregate_rules:
            result = self._aggregate(rule, *result, delta)
            if result is None:
                return
            action = REFRESH if action == REFRESH else INSERT
        self.stats["rule_firings"] += 1
        annotation = None
        if self.annotation_policy is not None and action != DELETE:
            annotation = self.annotation_policy.combine(
                rule, [self._annotation_for(fact, delta) for _, fact in matched], self.address
            )
        head = rule.head
        self._route(rule, action, Fact(head.name, result, head.location_index), annotation)

    def _annotation_for(self, fact: Fact, source_delta: Delta) -> Any:
        """The trigger's annotation, else the stored one, else ``policy.base``."""
        trigger = source_delta.fact
        if (
            fact.name == trigger.name
            and fact.values == trigger.values
            and source_delta.annotation is not None
        ):
            return source_delta.annotation
        stored = self._lookup_annotation(fact)
        return stored if stored is not None else self.annotation_policy.base(fact)


class NestedLoopEngine(InterpretedEngine):
    """Left-to-right nested loops over full scans: no plan, no index probe."""

    def _evaluate(self, plan: CompiledDeltaPlan, delta: Delta, binding) -> None:
        matched = [(plan.trigger_atom, delta.fact)]
        self._join_left_to_right(plan.rule, plan.trigger_position, binding, matched, delta, 0)

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
            extended = match_atom(atom, row, binding)
            if extended is not None:
                fact = Fact(atom.name, row, atom.location_index)
                self._join_left_to_right(
                    rule, trigger_position, extended, matched + [(atom, fact)], delta, index + 1
                )
        self.stats["tuples_scanned"] += scanned


def _constraints(step: CompiledStep, binding) -> Dict[int, Any]:
    """The ``{position: value}`` lookup of *step*."""
    return {
        spec.position: binding[spec.source] if spec.kind == "var" else spec.source
        for spec in step.lookups
    }


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


def table_state(table) -> Tuple:
    """A table as the oracles compare it: rows with counts in insertion
    order, the primary-key map, every index bucket in order, the arity."""
    return (
        table.rows_with_counts(),
        list(table._by_key.items()),
        [
            (positions, [(key, list(bucket)) for key, bucket in index.items()])
            for positions, index in table._indexes.items()
        ],
        table.arity,
    )


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
