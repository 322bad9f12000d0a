"""Cost-based rule planner and compiled join subsystem.

This package turns NDlog rules into compiled per-(rule, delta-position)
evaluation plans:

* :mod:`~repro.datalog.plan.normalize` — structural view of a rule's body;
* :mod:`~repro.datalog.plan.join_graph` — shared-variable graph over atoms;
* :mod:`~repro.datalog.plan.cost` — live-cardinality cost model;
* :mod:`~repro.datalog.plan.optimizer` — greedy join-order selection;
* :mod:`~repro.datalog.plan.indexes` — planner-selected secondary indexes;
* :mod:`~repro.datalog.plan.compiler` — executable compiled plans;
* :mod:`~repro.datalog.plan.explain` — human-readable plan rendering.

The subsystem sits entirely behind :class:`~repro.datalog.engine.NDlogEngine`,
which compiles a greedy plan for every rule and runs nothing else; plans
never change what a rule derives, only how many tuples are scanned deriving
it.  The left-to-right nested-loop join and the term-tree interpreter they
are checked against live in ``tests/oracle/``.
"""

from .compiled_exec import compile_term
from .compiler import CompiledDeltaPlan, CompiledStep, LookupSpec, PlanCompiler
from .cost import CatalogStatistics, CostEstimate, CostModel, DEFAULT_SELECTIVITY
from .explain import explain_plan, explain_plans
from .indexes import IndexManager
from .join_graph import JoinEdge, JoinGraph, construct_join_graph
from .normalize import AtomSignature, LiteralInfo, NormalizedRule, normalize_rule
from .optimizer import GreedyOptimizer, JoinOrder, OrderedStep

__all__ = [
    "AtomSignature",
    "CatalogStatistics",
    "CompiledDeltaPlan",
    "CompiledStep",
    "CostEstimate",
    "CostModel",
    "DEFAULT_SELECTIVITY",
    "GreedyOptimizer",
    "IndexManager",
    "JoinEdge",
    "JoinGraph",
    "JoinOrder",
    "LiteralInfo",
    "LookupSpec",
    "NormalizedRule",
    "OrderedStep",
    "compile_term",
    "construct_join_graph",
    "explain_plan",
    "explain_plans",
    "normalize_rule",
]
