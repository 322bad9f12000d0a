"""Reduced Ordered Binary Decision Diagrams (ROBDDs).

Section 6.3 of the paper condenses algebraic provenance by encoding it as a
boolean expression stored in a BDD ("absorption provenance"): base tuples
become boolean variables, ``+`` becomes OR, ``·`` becomes AND, and the
canonical reduced form of the BDD applies absorption automatically —
``a · (a + b)`` collapses to ``a``.  The prototype used an off-the-shelf BDD
library; this module is a from-scratch pure-Python ROBDD with the standard
unique-table + computed-table construction.

The public entry point is :class:`BddManager`; :class:`Bdd` values are
immutable handles that support ``&``, ``|``, evaluation, support, node
counting and conversion back to a minimal DNF (provenance is monotone, so
there is no negation).  A :func:`Bdd.wire_size` estimate feeds the
bandwidth accounting of the BDD provenance-query experiments (Figure 15).

Canonical variable order
------------------------
Variables are ordered lexicographically by *name* (base-tuple VIDs), not by
allocation order.  Two managers that build the same boolean function —
even in different processes, interleaving variable discoveries differently
— therefore produce structurally identical reduced BDDs, with identical
node and wire-size counts.  The sharded engine depends on this: value-mode
annotations cross shard boundaries as exported structures
(:func:`export_bdd` / :func:`import_bdd`) and are re-interned into the
receiving shard's manager bit-identically.

Bounded computed table
----------------------
``_apply`` memoizes through a *bounded* computed table: when the table
reaches its capacity it is flushed wholesale (the classic BDD
package policy — cheap, deterministic, and result-invariant since the
table is pure memoization).  Long trials that re-walk shared DAG structure
on every apply (fig15's polynomial-vs-BDD sweeps) get the hit rate without
unbounded growth; per-handle ``node_count``/``wire_size`` walks are also
cached per node id (node ids are immutable and never recycled, so these
caches never invalidate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Set, Tuple

__all__ = [
    "BddManager",
    "Bdd",
    "BDD_NODE_BYTES",
    "APPLY_CACHE_LIMIT",
    "export_bdd",
    "import_bdd",
]

#: Serialized size charged per BDD node (variable index + two node pointers).
BDD_NODE_BYTES = 6

#: Default computed-table capacity (entries) before a wholesale flush.
APPLY_CACHE_LIMIT = 1 << 18


@dataclass(frozen=True)
class _Node:
    """An internal BDD node: variable name, low (else) and high (then) ids.

    ``var`` is the variable *name*; the ordering relation between variables
    is plain string comparison, which is what makes reduced forms canonical
    across managers (see module docstring).
    """

    var: str
    low: int
    high: int


class BddManager:
    """Owns the unique table, the computed table and the variable registry."""

    FALSE_ID = 0
    TRUE_ID = 1

    def __init__(self, apply_cache_limit: int = APPLY_CACHE_LIMIT) -> None:
        if apply_cache_limit < 1:
            raise ValueError("apply_cache_limit must be positive")
        # node id -> _Node; ids 0 and 1 are the terminal constants
        self._nodes: Dict[int, _Node] = {}
        self._unique: Dict[Tuple[str, int, int], int] = {}
        self._apply_cache: Dict[Tuple[str, int, int], int] = {}
        self._apply_cache_limit = apply_cache_limit
        self._next_id = 2
        self._vars: Set[str] = set()
        # node id -> (node count, wire size), measured in one walk.
        self._size_cache: Dict[int, Tuple[int, int]] = {}
        self._support_cache: Dict[int, FrozenSet[str]] = {}

    # ------------------------------------------------------------------ #
    # variables and terminals
    # ------------------------------------------------------------------ #
    def false(self) -> "Bdd":
        return Bdd(self, self.FALSE_ID)

    def true(self) -> "Bdd":
        return Bdd(self, self.TRUE_ID)

    def var(self, name: str) -> "Bdd":
        """Return the BDD for a single variable."""
        self._vars.add(name)
        return Bdd(self, self._make_node(name, self.FALSE_ID, self.TRUE_ID))

    # ------------------------------------------------------------------ #
    # node construction (reduction rules applied here)
    # ------------------------------------------------------------------ #
    def _make_node(self, var: str, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        node_id = self._unique.get(key)
        if node_id is None:
            node_id = self._next_id
            self._next_id += 1
            self._nodes[node_id] = _Node(var, low, high)
            self._unique[key] = node_id
        return node_id

    def _node(self, node_id: int) -> _Node:
        return self._nodes[node_id]

    def _is_terminal(self, node_id: int) -> bool:
        return node_id in (self.FALSE_ID, self.TRUE_ID)

    # ------------------------------------------------------------------ #
    # computed table
    # ------------------------------------------------------------------ #
    def _cache_put(self, key: Tuple[str, int, int], result: int) -> None:
        if len(self._apply_cache) >= self._apply_cache_limit:
            # Wholesale flush: bounded memory, deterministic results (the
            # table is pure memoization), standard BDD-package policy.
            self._apply_cache.clear()
        self._apply_cache[key] = result

    # ------------------------------------------------------------------ #
    # apply
    # ------------------------------------------------------------------ #
    def _apply(self, op: str, left: int, right: int) -> int:
        """``left op right`` (``"and"`` / ``"or"``) as a node id, in one frame per
        recursion: every annotation ``&`` / ``|`` runs here.  Terminals are
        ids 0 and 1; low is built before high, which fixes the id order."""
        if op == "and":
            if left == 0 or right == 0:
                return 0
            if left == 1:
                return right
            if right == 1 or left == right:
                return left
        else:
            if left == 1 or right == 1:
                return 1
            if left == 0:
                return right
            if right == 0 or left == right:
                return left
        key = (op, left, right) if left <= right else (op, right, left)
        result = self._apply_cache.get(key)
        if result is not None:
            return result
        nodes = self._nodes
        left_node = nodes[left]
        right_node = nodes[right]
        top = left_node.var
        right_var = right_node.var
        if top == right_var:
            low = self._apply(op, left_node.low, right_node.low)
            high = self._apply(op, left_node.high, right_node.high)
        elif top < right_var:
            low = self._apply(op, left_node.low, right)
            high = self._apply(op, left_node.high, right)
        else:
            top = right_var
            low = self._apply(op, left, right_node.low)
            high = self._apply(op, left, right_node.high)
        if low == high:
            result = low
        else:
            unique_key = (top, low, high)
            result = self._unique.get(unique_key)
            if result is None:
                result = self._next_id
                self._next_id += 1
                nodes[result] = _Node(top, low, high)
                self._unique[unique_key] = result
        self._cache_put(key, result)
        return result

    # ------------------------------------------------------------------ #
    # bulk constructors
    # ------------------------------------------------------------------ #
    def from_dnf(self, products: Iterable[Iterable[str]]) -> "Bdd":
        """Build the BDD of a monotone DNF (iterable of products of variables)."""
        result = self.FALSE_ID
        for product in products:
            term = self.TRUE_ID
            for name in product:
                term = self._apply("and", term, self.var(name).node_id)
            result = self._apply("or", result, term)
        return Bdd(self, result)


class Bdd:
    """An immutable handle onto a node in a :class:`BddManager`."""

    __slots__ = ("manager", "node_id")

    def __init__(self, manager: BddManager, node_id: int):
        self.manager = manager
        self.node_id = node_id

    # ------------------------------------------------------------------ #
    # boolean algebra
    # ------------------------------------------------------------------ #
    def __and__(self, other: "Bdd") -> "Bdd":
        self._check(other)
        return Bdd(self.manager, self.manager._apply("and", self.node_id, other.node_id))

    def __or__(self, other: "Bdd") -> "Bdd":
        self._check(other)
        return Bdd(self.manager, self.manager._apply("or", self.node_id, other.node_id))

    def _check(self, other: "Bdd") -> None:
        if other.manager is not self.manager:
            raise ValueError("cannot combine BDDs from different managers")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Bdd)
            and other.manager is self.manager
            and other.node_id == self.node_id
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        """Evaluate under a complete assignment (missing variables are False)."""
        node_id = self.node_id
        manager = self.manager
        while not manager._is_terminal(node_id):
            node = manager._node(node_id)
            node_id = node.high if assignment.get(node.var, False) else node.low
        return node_id == BddManager.TRUE_ID

    def support(self) -> FrozenSet[str]:
        """The set of variables this BDD actually depends on (cached)."""
        cached = self.manager._support_cache.get(self.node_id)
        if cached is None:
            cached = frozenset(node.var for node in self._reachable_nodes())
            self.manager._support_cache[self.node_id] = cached
        return cached

    def node_count(self) -> int:
        """Number of internal nodes, excluding the terminals (cached)."""
        return self._sizes()[0]

    def _sizes(self) -> Tuple[int, int]:
        """``(node count, wire size)`` from one walk, cached per node id."""
        cached = self.manager._size_cache.get(self.node_id)
        if cached is None:
            count = 0
            names: Set[str] = set()
            for node in self._reachable_nodes():
                count += 1
                names.add(node.var)
            cached = (count, 2 + BDD_NODE_BYTES * count + sum(map(len, names)))
            self.manager._size_cache[self.node_id] = cached
        return cached

    def _reachable_nodes(self) -> Iterable[_Node]:
        seen: Set[int] = set()
        stack = [self.node_id]
        while stack:
            node_id = stack.pop()
            if node_id in seen or self.manager._is_terminal(node_id):
                continue
            seen.add(node_id)
            node = self.manager._node(node_id)
            stack.append(node.low)
            stack.append(node.high)
            yield node

    def satisfying_products(self) -> FrozenSet[FrozenSet[str]]:
        """Return the minimal monotone DNF equivalent to this BDD.

        Only meaningful for monotone functions (which provenance always is);
        each product lists the variables that must be true.  Built bottom-up,
        once per node, so the cost follows the diagram and its minimal
        products rather than the number of its paths (exponential on a grid).
        """
        memo = {
            BddManager.FALSE_ID: frozenset(),
            BddManager.TRUE_ID: frozenset({frozenset()}),
        }
        return _minimal_products(self.manager, self.node_id, memo)

    def wire_size(self) -> int:
        """Bytes charged when this BDD is shipped in a message.

        A serialized BDD must carry, besides its node structure, the mapping
        from variable indices to the identifiers they stand for (base-tuple
        VIDs, node ids, ...), so the size grows with both the node count and
        the total length of the variable names in the BDD's support.  Every
        value-mode delta ships one, so it is cached with the node count.
        """
        return self._sizes()[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.node_id == BddManager.FALSE_ID:
            return "Bdd(False)"
        if self.node_id == BddManager.TRUE_ID:
            return "Bdd(True)"
        return f"Bdd(nodes={self.node_count()})"


def _minimal_products(
    manager: BddManager, node_id: int, memo: Dict[int, FrozenSet[FrozenSet[str]]]
) -> FrozenSet[FrozenSet[str]]:
    """Minimal products of *node_id*: the low branch's, plus the high
    branch's with the node's variable added unless a low product absorbs
    them.  The variable occurs nowhere below, so a low product is never
    absorbed by a high one, and each branch is minimal already."""
    products = memo.get(node_id)
    if products is None:
        node = manager._node(node_id)
        low = _minimal_products(manager, node.low, memo)
        high = _minimal_products(manager, node.high, memo)
        products = low.union(
            product | {node.var} for product in high if not any(kept <= product for kept in low)
        )
        memo[node_id] = products
    return products


# ---------------------------------------------------------------------- #
# cross-manager transport
# ---------------------------------------------------------------------- #
def export_bdd(bdd: Bdd) -> Tuple[Any, ...]:
    """Serialize a BDD to a manager-independent structure.

    The result is ``(root_ref, ((var, low_ref, high_ref), ...))`` where a
    *ref* is ``False``/``True`` for the terminals or an index into the node
    tuple.  Nodes are listed in deterministic bottom-up order, so equal
    functions export to equal structures regardless of the source manager —
    and the structure is plain picklable data, which is how value-mode
    annotations and their sizes survive a shard boundary.
    """
    refs: Dict[int, Any] = {BddManager.FALSE_ID: False, BddManager.TRUE_ID: True}
    nodes: List[Tuple[str, Any, Any]] = []
    root = _export_node(bdd.manager, bdd.node_id, refs, nodes)
    return (root, tuple(nodes))


def _export_node(
    manager: BddManager, node_id: int, refs: Dict[int, Any], nodes: List[Tuple[str, Any, Any]]
) -> Any:
    """Export *node_id* below its children; returns its ref.

    A module function, not a closure: a nested function that calls itself
    is a reference cycle, which left every export to the cycle collector.
    """
    ref = refs.get(node_id)
    if ref is not None or node_id in refs:
        return refs[node_id]
    node = manager._node(node_id)
    low = _export_node(manager, node.low, refs, nodes)
    high = _export_node(manager, node.high, refs, nodes)
    refs[node_id] = len(nodes)
    nodes.append((node.var, low, high))
    return refs[node_id]


def import_bdd(manager: BddManager, data: Tuple[Any, ...]) -> Bdd:
    """Rebuild an exported BDD inside *manager* (see :func:`export_bdd`).

    Because variable order is canonical (lexicographic by name), the
    rebuilt BDD is structurally identical to the exported one: same node
    count, same wire size, same semantics.
    """
    root, nodes = data
    ids: List[int] = []

    def resolve(ref: Any) -> int:
        if ref is False:
            return BddManager.FALSE_ID
        if ref is True:
            return BddManager.TRUE_ID
        return ids[ref]

    for var, low, high in nodes:
        manager._vars.add(var)
        ids.append(manager._make_node(var, resolve(low), resolve(high)))
    return Bdd(manager, resolve(root))
