"""ExSPAN core: the paper's primary contribution.

Provenance data model and storage (:mod:`repro.core.vid`,
:mod:`repro.core.provenance_store`), the automatic maintenance rewrite
(:mod:`repro.core.rewrite`), provenance distribution modes
(:mod:`repro.core.modes`), the distributed query engine and its
optimizations (:mod:`repro.core.query`, :mod:`repro.core.cache`),
provenance representations (:mod:`repro.core.semiring`,
:mod:`repro.core.bdd`), and the :class:`~repro.core.api.ExspanNetwork`
facade tying everything to the simulated network.
"""

from .api import DELTA_MESSAGE_KIND, ExspanNetwork, ExspanNode
from .bdd import Bdd, BddManager
from .cache import QueryResultCache
from .config import ExspanConfig
from .customizations import (
    bdd_query,
    derivability_query,
    derivation_count_query,
    domain_projection,
    node_set_query,
    polynomial_query,
)
from .errors import (
    ProvenanceError,
    QueryError,
    QueryTimeoutError,
    RewriteError,
    UnknownVertexError,
)
from .granularity import Granularity, GranularitySpec, prefix_domain_map
from .modes import (
    BddValuePolicy,
    PolynomialValuePolicy,
    PreparedProgram,
    ProvenanceMode,
    prepare_program,
)
from .provenance_graph import ProvenanceGraph, RuleVertex, TupleVertex, build_global_graph
from .query import (
    PROV_MESSAGE_KIND,
    ProvenanceQueryService,
    QueryOutcome,
    QuerySpec,
    TraversalOrder,
)
from .requests import QueryRequest, QueryResult, SpecDescriptor
from .rewrite import PROV_TABLE, RULE_EXEC_TABLE, ProvenanceRewriter, rewrite_program
from .semiring import (
    EMPTY,
    Literal,
    Product,
    ProvenanceExpression,
    Sum,
    absorb,
    count_derivations,
    is_derivable,
    node_set,
    product_of,
    sum_of,
    var,
)
from .provenance_store import ProvEntry, ProvenanceStore, RuleExecEntry
from .vid import NULL_RID, fact_vid, rule_rid, tuple_vid

__all__ = [
    "DELTA_MESSAGE_KIND",
    "ExspanConfig",
    "ExspanNetwork",
    "ExspanNode",
    "QueryRequest",
    "QueryResult",
    "SpecDescriptor",
    "Bdd",
    "BddManager",
    "QueryResultCache",
    "bdd_query",
    "derivability_query",
    "derivation_count_query",
    "domain_projection",
    "node_set_query",
    "polynomial_query",
    "ProvenanceError",
    "QueryError",
    "QueryTimeoutError",
    "RewriteError",
    "UnknownVertexError",
    "Granularity",
    "GranularitySpec",
    "prefix_domain_map",
    "BddValuePolicy",
    "PolynomialValuePolicy",
    "PreparedProgram",
    "ProvenanceMode",
    "prepare_program",
    "ProvenanceGraph",
    "RuleVertex",
    "TupleVertex",
    "build_global_graph",
    "PROV_MESSAGE_KIND",
    "ProvenanceQueryService",
    "QueryOutcome",
    "QuerySpec",
    "TraversalOrder",
    "PROV_TABLE",
    "RULE_EXEC_TABLE",
    "ProvenanceRewriter",
    "rewrite_program",
    "EMPTY",
    "Literal",
    "Product",
    "ProvenanceExpression",
    "Sum",
    "absorb",
    "count_derivations",
    "is_derivable",
    "node_set",
    "product_of",
    "sum_of",
    "var",
    "ProvEntry",
    "ProvenanceStore",
    "RuleExecEntry",
    "NULL_RID",
    "fact_vid",
    "rule_rid",
    "tuple_vid",
]
