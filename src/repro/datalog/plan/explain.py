"""Pretty-printer for compiled evaluation plans.

``explain`` renders a :class:`~repro.datalog.plan.compiler.CompiledDeltaPlan`
in the spirit of SQL ``EXPLAIN``: one line per join step showing the scan
target, whether it joins or is a cross product, the index (or full scan)
it uses, where each constraint value comes from, and how many body
literals are pushed down after the step.  The engine exposes this through
:meth:`~repro.datalog.engine.NDlogEngine.explain`.
"""

from __future__ import annotations

from typing import Iterable, List

from .compiler import CompiledDeltaPlan, CompiledStep, LookupSpec

__all__ = ["explain_plan", "explain_plans"]


def _render_lookup(spec: LookupSpec) -> str:
    if spec.kind == "var":
        return f"[{spec.position}]={spec.source}"
    return f"[{spec.position}]={spec.source!r}"


def _render_step(number: int, step: CompiledStep) -> List[str]:
    access = f"index{step.index_positions}" if step.index_positions else "full scan"
    bindings = ", ".join(_render_lookup(spec) for spec in step.lookups)
    join_kind = "join" if step.connected else "cross product"
    lines = [f"  step {number}: {join_kind} {step.atom} via {access}"]
    if bindings:
        lines.append(f"          bind {bindings}")
    if step.literal_prefix:
        lines.append(
            f"          pushdown: first {step.literal_prefix} body literal(s)"
        )
    return lines


def explain_plan(plan: CompiledDeltaPlan) -> str:
    """Render one compiled delta plan as indented text."""
    rule = plan.rule
    lines = [
        f"rule {rule.label}: delta on {plan.trigger_atom.name}"
        f" (body position {plan.trigger_position})",
    ]
    if plan.initial_literal_prefix:
        lines.append(
            f"  pre-filter: first {plan.initial_literal_prefix} body literal(s)"
            " from the trigger binding"
        )
    if not plan.steps:
        lines.append("  no joins: finalize directly from the trigger tuple")
    for number, step in enumerate(plan.steps, start=1):
        lines.extend(_render_step(number, step))
    lines.append(f"  emit {rule.head}")
    return "\n".join(lines)


def explain_plans(plans: Iterable[CompiledDeltaPlan]) -> str:
    """Render several plans separated by blank lines."""
    return "\n\n".join(explain_plan(plan) for plan in plans)
