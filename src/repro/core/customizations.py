"""Ready-made provenance query customizations (Section 5.2).

Each factory returns a :class:`~repro.core.query.QuerySpec` implementing one
of the customizations described in the paper:

* :func:`polynomial_query` — provenance polynomials (Section 5.2.1), the
  POLYNOMIAL query of the evaluation;
* :func:`bdd_query` — the same provenance condensed into a BDD (absorption
  provenance, Section 6.3), the BDD query of the evaluation;
* :func:`node_set_query` — the set of nodes participating in any derivation
  (Table 3, "Node Set");
* :func:`derivation_count_query` — the number of alternative derivations
  (Table 3, "# of Derivations"), used by the #DERIVATION experiments;
* :func:`derivability_query` — derivability test (Table 3), optionally
  restricted to a trusted set of base tuples / nodes.

All factories accept the traversal order, caching flag and granularity
(tuple / node / trust-domain level) so the experiment harness can sweep
them orthogonally.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable, Optional, Sequence, Set

from ..datalog.ast import Fact
from .bdd import Bdd, BddManager
from .granularity import Granularity, GranularitySpec
from .query import QuerySpec, TraversalOrder
from .semiring import EMPTY, ProvenanceExpression, product_of, sum_of, var

__all__ = [
    "polynomial_query",
    "bdd_query",
    "node_set_query",
    "derivation_count_query",
    "derivability_query",
]


def polynomial_query(
    name: str = "polynomial",
    traversal: TraversalOrder = TraversalOrder.BFS,
    use_cache: bool = False,
    granularity: Optional[GranularitySpec] = None,
    threshold_met: Optional[Callable[[ProvenanceExpression], bool]] = None,
    moonwalk_width: int = 1,
    node_filter: Optional[Callable[[Any], bool]] = None,
) -> QuerySpec:
    """Provenance polynomials: ``+`` across derivations, ``·`` across inputs.

    The result of a query is a
    :class:`~repro.core.semiring.ProvenanceExpression` whose leaves are
    chosen by *granularity* (default: the base tuples themselves).
    """
    spec_granularity = granularity or GranularitySpec(Granularity.TUPLE)

    def f_edb(vid: str, fact: Optional[Fact], node: Any) -> ProvenanceExpression:
        return var(spec_granularity.leaf_label(fact, vid, node))

    def f_idb(results: Sequence[ProvenanceExpression], vid: str, node: Any):
        return sum_of([result for result in results if result is not None],
                      location=str(node))

    def f_rule(results: Sequence[ProvenanceExpression], rule_label: str, node: Any):
        factors = [result for result in results if result is not None]
        if spec_granularity.level is not Granularity.TUPLE:
            # Node / trust-domain provenance tracks the nodes *involved* in a
            # derivation, which includes where each rule executed — this is
            # what makes the paper's example come out as <a + a*b>.
            factors.append(var(spec_granularity.leaf_label(None, "", node)))
        return product_of(factors, rule=rule_label, location=str(node))

    return QuerySpec(
        name=name,
        f_edb=f_edb,
        f_idb=f_idb,
        f_rule=f_rule,
        missing=lambda: EMPTY,
        traversal=traversal,
        threshold_met=threshold_met,
        moonwalk_width=moonwalk_width,
        node_filter=node_filter,
        use_cache=use_cache,
    )


def bdd_query(
    name: str = "bdd",
    manager: Optional[BddManager] = None,
    traversal: TraversalOrder = TraversalOrder.BFS,
    use_cache: bool = False,
    granularity: Optional[GranularitySpec] = None,
    node_filter: Optional[Callable[[Any], bool]] = None,
) -> QuerySpec:
    """Condensed (absorption) provenance carried as BDDs.

    Results returned between nodes are BDD handles; their wire size is the
    BDD node count, which is what makes the BDD query cheaper on bandwidth
    than POLYNOMIAL (Figure 15) at the cost of losing the rule / location
    annotations (lossy compression, Section 6.3).
    """
    bdd_manager = manager if manager is not None else BddManager()
    spec_granularity = granularity or GranularitySpec(Granularity.TUPLE)

    def f_edb(vid: str, fact: Optional[Fact], node: Any) -> Bdd:
        return bdd_manager.var(spec_granularity.leaf_label(fact, vid, node))

    def f_idb(results: Sequence[Bdd], vid: str, node: Any) -> Bdd:
        combined = bdd_manager.false()
        for result in results:
            if result is None:
                continue
            combined = combined | result
        return combined

    def f_rule(results: Sequence[Bdd], rule_label: str, node: Any) -> Bdd:
        combined = bdd_manager.true()
        for result in results:
            if result is None:
                return bdd_manager.false()
            combined = combined & result
        if spec_granularity.level is not Granularity.TUPLE:
            # As for polynomials: the executing node is involved in the
            # derivation at node / trust-domain granularity.
            combined = combined & bdd_manager.var(
                spec_granularity.leaf_label(None, "", node)
            )
        return combined

    return QuerySpec(
        name=name,
        f_edb=f_edb,
        f_idb=f_idb,
        f_rule=f_rule,
        missing=bdd_manager.false,
        traversal=traversal,
        node_filter=node_filter,
        use_cache=use_cache,
    )


def node_set_query(
    name: str = "nodeset",
    traversal: TraversalOrder = TraversalOrder.BFS,
    use_cache: bool = False,
    threshold: Optional[int] = None,
    node_filter: Optional[Callable[[Any], bool]] = None,
) -> QuerySpec:
    """The set of nodes participating in the derivation (Table 3, NodeSet).

    With *threshold* set and a DFS_THRESHOLD traversal, the query terminates
    as soon as at least ``threshold`` unique nodes have been discovered
    ("do fewer than T' unique nodes participate in the derivation").
    """

    def f_edb(vid: str, fact: Optional[Fact], node: Any) -> FrozenSet[Any]:
        return frozenset({node})

    def f_idb(results: Sequence[FrozenSet[Any]], vid: str, node: Any) -> FrozenSet[Any]:
        combined: Set[Any] = {node}
        for result in results:
            if result:
                combined.update(result)
        return frozenset(combined)

    def f_rule(results: Sequence[FrozenSet[Any]], rule_label: str, node: Any):
        combined: Set[Any] = {node}
        for result in results:
            if result:
                combined.update(result)
        return frozenset(combined)

    threshold_met = None
    if threshold is not None:
        threshold_met = lambda partial: len(partial) >= threshold  # noqa: E731

    return QuerySpec(
        name=name,
        f_edb=f_edb,
        f_idb=f_idb,
        f_rule=f_rule,
        missing=frozenset,
        traversal=traversal,
        threshold_met=threshold_met,
        node_filter=node_filter,
        use_cache=use_cache,
    )


def derivation_count_query(
    name: str = "derivations",
    traversal: TraversalOrder = TraversalOrder.BFS,
    use_cache: bool = False,
    threshold: Optional[int] = None,
    moonwalk_width: int = 1,
    node_filter: Optional[Callable[[Any], bool]] = None,
) -> QuerySpec:
    """Number of alternative derivations (Table 3, "# of Derivations").

    ``f_edb`` evaluates to 1, ``f_idb`` sums across alternative derivations
    and ``f_rule`` multiplies across rule inputs.  With *threshold* and the
    DFS_THRESHOLD traversal this becomes the paper's threshold query "does
    the tuple have more than T derivations", which can stop early
    (Figure 13 / 14, DFS-THRESHOLD).
    """

    def f_edb(vid: str, fact: Optional[Fact], node: Any) -> int:
        return 1

    def f_idb(results: Sequence[int], vid: str, node: Any) -> int:
        return sum(result for result in results if result)

    def f_rule(results: Sequence[int], rule_label: str, node: Any) -> int:
        product = 1
        for result in results:
            product *= result if result else 0
        return product

    threshold_met = None
    if threshold is not None:
        threshold_met = lambda partial: partial >= threshold  # noqa: E731

    return QuerySpec(
        name=name,
        f_edb=f_edb,
        f_idb=f_idb,
        f_rule=f_rule,
        missing=lambda: 0,
        traversal=traversal,
        threshold_met=threshold_met,
        moonwalk_width=moonwalk_width,
        node_filter=node_filter,
        use_cache=use_cache,
    )


def derivability_query(
    name: str = "derivability",
    trusted: Optional[Iterable[str]] = None,
    granularity: Optional[GranularitySpec] = None,
    traversal: TraversalOrder = TraversalOrder.BFS,
    use_cache: bool = False,
    node_filter: Optional[Callable[[Any], bool]] = None,
) -> QuerySpec:
    """Derivability test (Table 3): OR across derivations, AND across inputs.

    With *trusted* given, a base tuple only counts as available when its
    leaf label (at the selected granularity — tuple, node or domain) is in
    the trusted set; this is the paper's trust-management use case.
    """
    spec_granularity = granularity or GranularitySpec(Granularity.TUPLE)
    trusted_set = None if trusted is None else {str(item) for item in trusted}

    def f_edb(vid: str, fact: Optional[Fact], node: Any) -> bool:
        if trusted_set is None:
            return True
        return spec_granularity.leaf_label(fact, vid, node) in trusted_set

    def f_idb(results: Sequence[bool], vid: str, node: Any) -> bool:
        return any(bool(result) for result in results)

    def f_rule(results: Sequence[bool], rule_label: str, node: Any) -> bool:
        derivable = all(bool(result) for result in results) and bool(results)
        if (
            derivable
            and trusted_set is not None
            and spec_granularity.level is not Granularity.TUPLE
        ):
            # The executing node is involved, so it must be trusted too.
            derivable = spec_granularity.leaf_label(None, "", node) in trusted_set
        return derivable

    return QuerySpec(
        name=name,
        f_edb=f_edb,
        f_idb=f_idb,
        f_rule=f_rule,
        missing=lambda: False,
        traversal=traversal,
        threshold_met=(lambda partial: bool(partial))
        if traversal is TraversalOrder.DFS_THRESHOLD
        else None,
        node_filter=node_filter,
        use_cache=use_cache,
    )
