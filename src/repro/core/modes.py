"""Provenance distribution modes (Section 3, "Distribution").

ExSPAN supports four ways of maintaining provenance for a running protocol:

* :attr:`ProvenanceMode.NONE` — run the original program unchanged (the
  "No Prov." baseline of every figure);
* :attr:`ProvenanceMode.REFERENCE` — the paper's contribution: rewrite the
  program with :mod:`repro.core.rewrite` so every node maintains its slice
  of the ``prov`` / ``ruleExec`` tables and messages carry only a (RID,
  RLoc) pointer pair;
* :attr:`ProvenanceMode.VALUE` — value-based distributed provenance: each
  tuple travels with its full provenance annotation.  Following the paper's
  evaluation ("Value-based Prov. (BDD)") the annotation is a BDD over base
  tuples; a polynomial-carrying policy is also provided for ablations;
* :attr:`ProvenanceMode.CENTRALIZED` — reference-based maintenance plus
  relaying every ``prov`` / ``ruleExec`` entry to a collector node, the
  traditional centralized approach the paper argues against.

:func:`prepare_program` converts a protocol program + mode into the program
actually loaded on every node and an optional per-node
:class:`~repro.datalog.engine.AnnotationPolicy` factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional, Sequence

from ..datalog.ast import Atom, Program, Rule, TableDecl
from ..datalog.engine import AnnotationPolicy
from ..datalog.ast import Fact
from ..datalog.terms import Constant, Variable
from .bdd import Bdd, BddManager
from .errors import ProvenanceError
from .rewrite import PROV_TABLE, RULE_EXEC_TABLE, rewrite_program
from .semiring import ProvenanceExpression, product_of, sum_of, var
from .vid import fact_vid

__all__ = [
    "ProvenanceMode",
    "BddValuePolicy",
    "PolynomialValuePolicy",
    "PreparedProgram",
    "prepare_program",
    "CENTRAL_PROV_TABLE",
    "CENTRAL_RULE_EXEC_TABLE",
]

CENTRAL_PROV_TABLE = "provCentral"
CENTRAL_RULE_EXEC_TABLE = "ruleExecCentral"


class ProvenanceMode(Enum):
    """How provenance is maintained and distributed."""

    NONE = "none"
    REFERENCE = "reference"
    VALUE = "value"
    CENTRALIZED = "centralized"


class BddValuePolicy(AnnotationPolicy):
    """Value-based provenance carried as BDDs over base-tuple variables.

    All nodes share one :class:`BddManager` — in a real deployment each node
    runs its own BDD library with an agreed variable naming (the VIDs), so a
    shared manager changes nothing observable while keeping the simulation
    simple.
    """

    def __init__(self, manager: Optional[BddManager] = None):
        self.manager = manager if manager is not None else BddManager()

    def base(self, fact: Fact) -> Bdd:
        return self.manager.var(fact_vid(fact))

    def combine(self, rule: Rule, body_annotations: Sequence[Bdd], node: Any) -> Bdd:
        # Fold node ids through the manager: one handle for the result.
        manager = self.manager
        result = BddManager.TRUE_ID
        for annotation in body_annotations:
            if annotation is None:
                continue
            if annotation.manager is not manager:
                raise ValueError("cannot combine BDDs from different managers")
            result = manager._apply("and", result, annotation.node_id)
        return Bdd(manager, result)

    def merge(self, existing: Bdd, new: Bdd) -> Bdd:
        # ``existing | new`` without the operator's frames.
        manager = existing.manager
        if new.manager is not manager:
            raise ValueError("cannot combine BDDs from different managers")
        return Bdd(manager, manager._apply("or", existing.node_id, new.node_id))

    def size(self, annotation: Bdd) -> int:
        return annotation.wire_size() if annotation is not None else 0


class PolynomialValuePolicy(AnnotationPolicy):
    """Value-based provenance carried as uncompressed provenance polynomials.

    This is the naive value-based scheme (no BDD condensation); it is used
    by the ablation benchmark comparing annotation encodings.
    """

    def base(self, fact: Fact) -> ProvenanceExpression:
        return var(fact_vid(fact))

    def combine(
        self, rule: Rule, body_annotations: Sequence[ProvenanceExpression], node: Any
    ) -> ProvenanceExpression:
        factors = [annotation for annotation in body_annotations if annotation is not None]
        return product_of(factors, rule=rule.label, location=str(node))

    def merge(
        self, existing: ProvenanceExpression, new: ProvenanceExpression
    ) -> ProvenanceExpression:
        # Deduplicate alternative derivations so that repeated refreshes of
        # the same provenance converge (the merge is idempotent).
        if new == existing:
            return existing
        from .semiring import Sum  # local import to avoid a cycle at module load

        if isinstance(existing, Sum) and new in existing.terms:
            return existing
        return sum_of([existing, new])

    def size(self, annotation: ProvenanceExpression) -> int:
        return annotation.wire_size() if annotation is not None else 0


@dataclass
class PreparedProgram:
    """The program to load on every node plus per-node annotation policies."""

    program: Program
    mode: ProvenanceMode
    annotation_policy_factory: Optional[Callable[[Any], AnnotationPolicy]] = None
    collector: Optional[Any] = None


def prepare_program(
    program: Program,
    mode: ProvenanceMode,
    collector: Optional[Any] = None,
    value_policy: str = "bdd",
) -> PreparedProgram:
    """Prepare *program* for execution under the given provenance *mode*.

    ``collector`` names the node that receives all provenance entries in
    CENTRALIZED mode.  ``value_policy`` selects ``"bdd"`` (default, matching
    the paper's evaluation) or ``"polynomial"`` annotations for VALUE mode.
    """
    if mode is ProvenanceMode.NONE:
        return PreparedProgram(program=program, mode=mode)

    if mode is ProvenanceMode.REFERENCE:
        return PreparedProgram(program=rewrite_program(program), mode=mode)

    if mode is ProvenanceMode.VALUE:
        if value_policy == "bdd":
            shared_manager = BddManager()

            def bdd_factory(_node: Any) -> AnnotationPolicy:
                return BddValuePolicy(shared_manager)

            factory: Callable[[Any], AnnotationPolicy] = bdd_factory
        elif value_policy == "polynomial":
            def polynomial_factory(_node: Any) -> AnnotationPolicy:
                return PolynomialValuePolicy()

            factory = polynomial_factory
        else:
            raise ProvenanceError(f"unknown value policy {value_policy!r}")
        return PreparedProgram(
            program=program, mode=mode, annotation_policy_factory=factory
        )

    if mode is ProvenanceMode.CENTRALIZED:
        if collector is None:
            raise ProvenanceError(
                "CENTRALIZED provenance requires a collector node address"
            )
        rewritten = rewrite_program(program)
        rewritten.add_declaration(TableDecl(CENTRAL_PROV_TABLE, 5, (1, 2, 3)))
        rewritten.add_declaration(TableDecl(CENTRAL_RULE_EXEC_TABLE, 5, (1, 2)))
        rewritten.add_rule(_central_prov_rule(collector))
        rewritten.add_rule(_central_rule_exec_rule(collector))
        return PreparedProgram(program=rewritten, mode=mode, collector=collector)

    raise ProvenanceError(f"unknown provenance mode {mode!r}")


def _central_prov_rule(collector: Any) -> Rule:
    """``provCentral(@Server, Loc, VID, RID, RLoc) :- prov(@Loc, VID, RID, RLoc).``"""
    return Rule(
        "cent_prov",
        Atom(
            CENTRAL_PROV_TABLE,
            [Constant(collector), Variable("Loc"), Variable("VID"),
             Variable("RID"), Variable("RLoc")],
            location_index=0,
        ),
        [
            Atom(
                PROV_TABLE,
                [Variable("Loc"), Variable("VID"), Variable("RID"), Variable("RLoc")],
                location_index=0,
            )
        ],
    )


def _central_rule_exec_rule(collector: Any) -> Rule:
    """``ruleExecCentral(@Server, RLoc, RID, R, L) :- ruleExec(@RLoc, RID, R, L).``"""
    return Rule(
        "cent_ruleexec",
        Atom(
            CENTRAL_RULE_EXEC_TABLE,
            [Constant(collector), Variable("RLoc"), Variable("RID"),
             Variable("R"), Variable("VIDList")],
            location_index=0,
        ),
        [
            Atom(
                RULE_EXEC_TABLE,
                [Variable("RLoc"), Variable("RID"), Variable("R"), Variable("VIDList")],
                location_index=0,
            )
        ],
    )
