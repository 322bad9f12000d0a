"""Rule planner and compiled join subsystem.

This package turns NDlog rules into compiled per-(rule, delta-position)
evaluation plans:

* :mod:`~repro.datalog.plan.normalize` — structural view of a rule's body;
* :mod:`~repro.datalog.plan.indexes` — planner-selected secondary indexes;
* :mod:`~repro.datalog.plan.compiler` — executable compiled plans, each
  joining the remaining atoms in a static order read off its rule;
* :mod:`~repro.datalog.plan.explain` — human-readable plan rendering.

The subsystem sits entirely behind :class:`~repro.datalog.engine.NDlogEngine`,
which compiles a plan for every rule and runs nothing else; plans never
change what a rule derives, only how many tuples are scanned deriving it.
The left-to-right nested-loop join and the term-tree interpreter they are
checked against live in ``tests/oracle/``.
"""

from .compiler import CompiledDeltaPlan, CompiledStep, LookupSpec, PlanCompiler
from .explain import explain_plan, explain_plans
from .indexes import IndexManager
from .normalize import AtomSignature, LiteralInfo, NormalizedRule, normalize_rule

__all__ = [
    "AtomSignature",
    "CompiledDeltaPlan",
    "CompiledStep",
    "IndexManager",
    "LiteralInfo",
    "LookupSpec",
    "NormalizedRule",
    "PlanCompiler",
    "explain_plan",
    "explain_plans",
    "normalize_rule",
]
