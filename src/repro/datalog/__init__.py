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
from .plan import IndexManager, PlanCompiler, explain_plan, normalize_rule
from .errors import (
    DatalogError,
    EvaluationError,
    ParseError,
    SchemaError,
    UnknownFunctionError,
    ValidationError,
)
from .functions import sha1_hex
from .parser import parse_program
from .runtime import StandaloneNetwork
from .terms import (
    AggregateSpec,
    BinaryOp,
    Constant,
    FunctionCall,
    Term,
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
    "IndexManager",
    "PlanCompiler",
    "explain_plan",
    "normalize_rule",
    "DatalogError",
    "EvaluationError",
    "ParseError",
    "SchemaError",
    "UnknownFunctionError",
    "ValidationError",
    "sha1_hex",
    "parse_program",
    "StandaloneNetwork",
    "AggregateSpec",
    "BinaryOp",
    "Constant",
    "FunctionCall",
    "Term",
    "Variable",
]
