"""An explicit, in-memory view of the (distributed) provenance graph.

The provenance data model of Section 4.1 is an acyclic graph whose vertices
are *tuple vertices* (VIDs) and *rule execution vertices* (RIDs), with edges
from input tuples to rule executions and from rule executions to the derived
tuple.  At runtime the graph only ever exists as rows of the distributed
``prov`` / ``ruleExec`` tables; this module materializes it as a Python
object for analysis, testing, visualization (Figure 5 style ``.dot``
output), and for the centralized-provenance baseline where a collector node
holds the whole graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..datalog.ast import Fact
from .provenance_store import ProvenanceStore, rule_inputs
from .rewrite import PROV_TABLE, RULE_EXEC_TABLE
from .vid import fact_vid

__all__ = [
    "TupleVertex",
    "RuleVertex",
    "ProvenanceGraph",
    "build_global_graph",
    "build_rooted_graph",
]


@dataclass
class TupleVertex:
    """A tuple vertex: the tuple's VID, its location, and (if known) the fact."""

    vid: str
    location: Any
    fact: Optional[Fact] = None
    derivations: List[str] = field(default_factory=list)  # RIDs deriving this tuple
    is_base: bool = False

    def label(self) -> str:
        if self.fact is not None:
            values = ",".join(str(value) for value in self.fact.values)
            return f"{self.fact.name}({values})"
        return self.vid[:10]


@dataclass
class RuleVertex:
    """A rule execution vertex: RID, rule label, location, input tuple VIDs."""

    rid: str
    rule_label: str
    location: Any
    input_vids: Tuple[str, ...] = ()

    def label(self) -> str:
        return f"{self.rule_label}@{self.location}"


class ProvenanceGraph:
    """A bipartite DAG of tuple vertices and rule execution vertices."""

    def __init__(self) -> None:
        self.tuples: Dict[str, TupleVertex] = {}
        self.rules: Dict[str, RuleVertex] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_prov_entry(self, row: Sequence[Any], fact: Optional[Fact] = None) -> None:
        """Add one ``prov`` row ``(loc, vid, rid, rloc)``; a null RID marks a base tuple."""
        location, vid, rid = row[0], row[1], row[2]
        vertex = self.tuples.get(vid)
        if vertex is None:
            vertex = TupleVertex(vid=vid, location=location, fact=fact)
            self.tuples[vid] = vertex
        elif fact is not None and vertex.fact is None:
            vertex.fact = fact
        if rid is None:
            vertex.is_base = True
        elif rid not in vertex.derivations:
            vertex.derivations.append(rid)

    def add_rule_exec(self, row: Sequence[Any]) -> None:
        """Add one ``ruleExec`` row ``(rloc, rid, rule, inputs)``."""
        self.rules[row[1]] = RuleVertex(
            rid=row[1], rule_label=row[2], location=row[0], input_vids=rule_inputs(row)
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def derivations_of(self, vid: str) -> List[RuleVertex]:
        vertex = self.tuples.get(vid)
        if vertex is None:
            return []
        return [self.rules[rid] for rid in vertex.derivations if rid in self.rules]

    def reachable_base_tuples(self, vid: str) -> FrozenSet[str]:
        """VIDs of all base tuples reachable from *vid* through its derivations."""
        tuples, _ = self._subgraph(vid)
        return frozenset(current for current in tuples if self.tuples[current].is_base)

    def nodes_involved(self, vid: str) -> FrozenSet[Any]:
        """All node locations participating in any derivation of *vid*."""
        tuples, rules = self._subgraph(vid)
        return frozenset(
            [self.tuples[current].location for current in tuples]
            + [self.rules[rid].location for rid in rules]
        )

    def is_acyclic(self) -> bool:
        """Verify the data-model invariant that the graph has no cycles."""
        colors: Dict[str, int] = {}
        return all(self._acyclic_below(vid, colors) for vid in list(self.tuples))

    def _acyclic_below(self, vid: str, colors: Dict[str, int]) -> bool:
        """One DFS step of :meth:`is_acyclic` (colour 1 = open, 2 = done).

        A method, not a closure: a nested function naming itself is a cycle.
        """
        state = colors.get(vid, 0)
        if state == 1:
            return False
        if state == 2:
            return True
        colors[vid] = 1
        vertex = self.tuples.get(vid)
        if vertex is not None:
            for rid in vertex.derivations:
                rule = self.rules.get(rid)
                if rule is None:
                    continue
                for child in rule.input_vids:
                    if not self._acyclic_below(child, colors):
                        return False
        colors[vid] = 2
        return True

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def to_dot(self, root: Optional[str] = None) -> str:
        """Render the graph (or the subgraph under *root*) in Graphviz dot."""
        if root is not None:
            keep_tuples, keep_rules = self._subgraph(root)
        else:
            keep_tuples, keep_rules = set(self.tuples), set(self.rules)
        lines = ["digraph provenance {", "  rankdir=BT;"]
        for vid in sorted(keep_tuples):
            vertex = self.tuples[vid]
            shape = "box"
            lines.append(
                f'  "{vid[:10]}" [shape={shape}, label="{vertex.label()}"];'
            )
        for rid in sorted(keep_rules):
            rule = self.rules[rid]
            lines.append(f'  "{rid[:10]}" [shape=ellipse, label="{rule.label()}"];')
        for vid in sorted(keep_tuples):
            vertex = self.tuples[vid]
            for rid in vertex.derivations:
                if rid in keep_rules:
                    lines.append(f'  "{rid[:10]}" -> "{vid[:10]}";')
        for rid in sorted(keep_rules):
            rule = self.rules[rid]
            for child in rule.input_vids:
                if child in keep_tuples:
                    lines.append(f'  "{child[:10]}" -> "{rid[:10]}";')
        lines.append("}")
        return "\n".join(lines)

    def to_text_tree(self, root: str, max_depth: int = 8) -> str:
        """Pretty-print the derivation tree under *root* as indented text.

        The operator-shell rendering of ``\\prov``: tuple vertices show
        their fact label and location, rule vertices the rule and where it
        fired.  Revisited tuples print as a back-reference instead of
        re-expanding (the graph is a DAG, the rendering is a tree), and
        ``max_depth`` bounds the expansion of deep derivations.  Output is
        deterministic: children follow the stored derivation order.
        """
        vertex = self.tuples.get(root)
        if vertex is None:
            return f"(no provenance recorded for {root[:10]})"
        lines: List[str] = []
        self._text_tree_lines(root, "", True, 0, max_depth, lines, set())
        return "\n".join(lines)

    def _text_tree_lines(
        self,
        vid: str,
        prefix: str,
        tail: bool,
        depth: int,
        max_depth: int,
        lines: List[str],
        expanded: Set[str],
    ) -> None:
        """Append the rendering of tuple *vid* to *lines* (see :meth:`to_text_tree`)."""
        vertex = self.tuples.get(vid)
        branch = "" if not prefix and not lines else ("`- " if tail else "|- ")
        indent = prefix + branch
        child_prefix = prefix + ("   " if tail else "|  ") if branch else prefix
        if vertex is None:
            lines.append(f"{indent}{vid[:10]} (remote / unknown)")
            return
        marker = " [base]" if vertex.is_base else ""
        label = f"{vertex.label()} @{vertex.location}{marker}"
        if vid in expanded and vertex.derivations:
            lines.append(f"{indent}{label} (see above)")
            return
        expanded.add(vid)
        lines.append(f"{indent}{label}")
        if depth >= max_depth:
            if vertex.derivations:
                lines.append(f"{child_prefix}`- ... (max depth {max_depth})")
            return
        rules = [rid for rid in vertex.derivations if rid in self.rules]
        for index, rid in enumerate(rules):
            rule = self.rules[rid]
            last = index == len(rules) - 1
            rule_branch = "`- " if last else "|- "
            lines.append(f"{child_prefix}{rule_branch}rule {rule.label()}")
            rule_prefix = child_prefix + ("   " if last else "|  ")
            inputs = list(rule.input_vids)
            for child_index, child in enumerate(inputs):
                final = child_index == len(inputs) - 1
                self._text_tree_lines(
                    child, rule_prefix, final, depth + 1, max_depth, lines, expanded
                )

    def _subgraph(self, root: str) -> Tuple[Set[str], Set[str]]:
        """The tuple and rule vertices reachable from *root* (the one closure walk)."""
        keep_tuples: Set[str] = set()
        keep_rules: Set[str] = set()
        queue = deque([root])
        while queue:
            current = queue.popleft()
            if current in keep_tuples:
                continue
            vertex = self.tuples.get(current)
            if vertex is None:
                continue
            keep_tuples.add(current)
            for rid in vertex.derivations:
                rule = self.rules.get(rid)
                if rule is None:
                    continue
                keep_rules.add(rid)
                queue.extend(rule.input_vids)
        return keep_tuples, keep_rules

    def __len__(self) -> int:
        return len(self.tuples) + len(self.rules)


def build_global_graph(stores: Iterable[ProvenanceStore]) -> ProvenanceGraph:
    """Assemble the global provenance graph from every node's local tables.

    This reads every store's ``prov`` and ``ruleExec`` tables whole
    (:meth:`ProvenanceStore.rows`: the raw rows the query service probes one
    VID or RID at a time) and copies each row in, so its cost is linear in
    the network.  It is the offline analysis helper, the centralized
    baseline's view and the oracle the tests compare
    :func:`build_rooted_graph` against; requests about one tuple are served
    by the rooted walk, and the distributed query engine needs neither.
    """
    graph = ProvenanceGraph()
    for store in stores:
        for row in store.rows(PROV_TABLE):
            graph.add_prov_entry(row, fact=store.fact_for_vid(row[1]))
        for row in store.rows(RULE_EXEC_TABLE):
            graph.add_rule_exec(row)
    return graph


def build_rooted_graph(
    stores: Mapping[Any, ProvenanceStore], root: Fact, max_depth: Optional[int] = None
) -> ProvenanceGraph:
    """The provenance graph within *max_depth* tuple hops of *root* (``None``: all of it).

    Reads the tables the way Section 5 traverses them — a tuple's ``prov``
    rows at its own node, each derivation's ``ruleExec`` row where the rule
    fired, whose inputs live there too (rule bodies are localized) — so the
    cost follows the derivation subtree, not the network.  This serves
    requests about one tuple; anything rendered from it, rooted at *root*
    and bounded by *max_depth*, equals what :func:`build_global_graph` gives.

    Breadth-first, so every vertex is loaded at its *minimum* depth:
    :meth:`ProvenanceGraph.to_text_tree` may first meet a vertex on a longer
    path and still expands it there.  *stores* maps node address to store.
    """
    graph = ProvenanceGraph()
    root_vid = fact_vid(root)
    seen = {root_vid}
    queue = deque([(root_vid, root.location, 0)])
    while queue:
        vid, location, depth = queue.popleft()
        try:
            store = stores.get(location)
        except TypeError:  # an unhashable value from outside names no node
            store = None
        if store is None:
            continue
        rows = store.probe(PROV_TABLE, vid)
        fact = store.fact_for_vid(vid) if rows else None
        for row in rows:
            graph.add_prov_entry(row, fact=fact)
            rid, rule_location = row[2], row[3]
            if depth == max_depth or rid is None or rid in graph.rules:
                continue
            rule_store = stores.get(rule_location)
            rule_rows = () if rule_store is None else rule_store.probe(RULE_EXEC_TABLE, rid)
            for rule_row in rule_rows:  # a RID names one execution
                graph.add_rule_exec(rule_row)
                for child in rule_inputs(rule_row):
                    if child not in seen:
                        seen.add(child)
                        queue.append((child, rule_location, depth + 1))
    return graph
