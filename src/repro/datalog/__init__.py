"""NDlog: the declarative networking substrate used by ExSPAN.

The package provides the language front end (:mod:`repro.datalog.parser`,
:mod:`repro.datalog.ast`), builtin functions and aggregates, and the
pipelined semi-naive evaluation engine (:mod:`repro.datalog.engine`).  Each
engine keeps its tables in a :class:`repro.storage.memory.Catalog`.
"""

from .aggregates import AggregateState
from .ast import (
    Assignment,
    Atom,
    Condition,
    Fact,
    Program,
    Rule,
    TableDecl,
    is_event_predicate,
)
from .engine import (
    DELETE,
    INSERT,
    AnnotationPolicy,
    Delta,
    NDlogEngine,
)
from .plan import (
    CostModel,
    GreedyOptimizer,
    IndexManager,
    PlanCompiler,
    construct_join_graph,
    explain_plan,
    normalize_rule,
)
from .errors import (
    DatalogError,
    EvaluationError,
    ParseError,
    SchemaError,
    UnknownFunctionError,
    UnknownRelationError,
    ValidationError,
)
from .functions import FunctionRegistry, default_registry, sha1_hex
from .localize import check_localized, is_localized, remote_head_rules
from .parser import parse_program, parse_rule, parse_term
from .runtime import StandaloneNetwork
from .terms import (
    AggregateSpec,
    BinaryOp,
    Constant,
    FunctionCall,
    Term,
    UnaryOp,
    Variable,
)

__all__ = [
    "AggregateState",
    "Assignment",
    "Atom",
    "Condition",
    "Fact",
    "Program",
    "Rule",
    "TableDecl",
    "is_event_predicate",
    "DELETE",
    "INSERT",
    "AnnotationPolicy",
    "Delta",
    "NDlogEngine",
    "CostModel",
    "GreedyOptimizer",
    "IndexManager",
    "PlanCompiler",
    "construct_join_graph",
    "explain_plan",
    "normalize_rule",
    "DatalogError",
    "EvaluationError",
    "ParseError",
    "SchemaError",
    "UnknownFunctionError",
    "UnknownRelationError",
    "ValidationError",
    "FunctionRegistry",
    "default_registry",
    "sha1_hex",
    "check_localized",
    "is_localized",
    "remote_head_rules",
    "parse_program",
    "parse_rule",
    "parse_term",
    "StandaloneNetwork",
    "AggregateSpec",
    "BinaryOp",
    "Constant",
    "FunctionCall",
    "Term",
    "UnaryOp",
    "Variable",
]
