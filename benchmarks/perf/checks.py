"""Correctness oracles: is the program's answer *semantically* right?

Every oracle takes plain data (rows, dicts, bytes) — never a live network —
and returns a list of problems, empty when the answer is right.  None of
them compares against stored bytes: byte identity is already gated by
``benchmarks/baselines/``, and a golden file here would pin behaviour
(equal-cost tie-breaking, for one) that ROADMAP wants fixed.
"""

from __future__ import annotations

import heapq
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Link = Tuple[Any, Any, int]


def _brief(value: Any, limit: int = 160) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# ---------------------------------------------------------------------- #
# routing state against Dijkstra
# ---------------------------------------------------------------------- #
def shortest_costs(
    nodes: Iterable[Any], links: Iterable[Link], max_cost: Optional[int] = None
) -> Dict[Tuple[Any, Any], int]:
    """All-pairs least path cost over symmetric *links* (Dijkstra per source).

    Pairs whose least cost reaches *max_cost* are left out: the bounded
    MINCOST program never derives them (RIP's "infinity").
    """
    adjacency: Dict[Any, List[Tuple[Any, int]]] = {node: [] for node in nodes}
    for a, b, cost in links:
        adjacency[a].append((b, cost))
        adjacency[b].append((a, cost))
    costs: Dict[Tuple[Any, Any], int] = {}
    for source in adjacency:
        best = {source: 0}
        heap: List[Tuple[int, int, Any]] = [(0, 0, source)]
        pushed = 0
        while heap:
            distance, _, node = heapq.heappop(heap)
            if distance > best[node]:
                continue
            for neighbour, cost in adjacency[node]:
                candidate = distance + cost
                if candidate < best.get(neighbour, candidate + 1):
                    best[neighbour] = candidate
                    pushed += 1
                    heapq.heappush(heap, (candidate, pushed, neighbour))
        for destination, distance in best.items():
            if destination != source and (max_cost is None or distance < max_cost):
                costs[(source, destination)] = distance
    return costs


def check_best_costs(
    rows: Iterable[Sequence[Any]],
    nodes: Iterable[Any],
    links: Iterable[Link],
    max_cost: Optional[int] = None,
) -> List[str]:
    """``bestPathCost(S, D, C)`` rows must equal Dijkstra on the topology."""
    expected = shortest_costs(nodes, links, max_cost)
    seen: Dict[Tuple[Any, Any], int] = {}
    problems: List[str] = []
    for source, destination, cost in rows:
        if (source, destination) in seen:
            problems.append(f"duplicate best cost for {source}->{destination}")
        seen[(source, destination)] = cost
    for pair in expected.keys() - seen.keys():
        problems.append(f"no best cost for {pair[0]}->{pair[1]} (Dijkstra: {expected[pair]})")
    for pair, cost in seen.items():
        if pair not in expected:
            problems.append(
                f"best cost {cost} for {pair[0]}->{pair[1]}, which Dijkstra cannot reach"
            )
        elif expected[pair] != cost:
            problems.append(
                f"best cost {cost} for {pair[0]}->{pair[1]}, Dijkstra says {expected[pair]}"
            )
    return problems[:10]


# ---------------------------------------------------------------------- #
# provenance answers against each other
# ---------------------------------------------------------------------- #
def check_same_answer(label: str, left: Mapping[str, Any], right: Mapping[str, Any]) -> List[str]:
    """Two encoded annotations that must agree (cached/uncached, BFS/DFS)."""
    if left == right:
        return []
    return [f"{label}: {_brief(left)} != {_brief(right)}"]


def polynomial_derivations(tree: Mapping[str, Any]) -> int:
    """Number of derivations an encoded provenance polynomial stands for."""
    op = tree.get("op")
    if op == "lit":
        return 1
    if op == "sum":
        return sum(polynomial_derivations(term) for term in tree["terms"])
    if op == "prod":
        product = 1
        for factor in tree["factors"]:
            product *= polynomial_derivations(factor)
        return product
    if op == "empty":
        return 0
    raise ValueError(f"unknown polynomial node {op!r}")


def check_derivation_count(
    label: str,
    counted: Mapping[str, Any],
    polynomial: Mapping[str, Any],
    threshold: Optional[int] = None,
) -> List[str]:
    """A ``derivations`` answer must match the count its polynomial implies.

    A thresholded traversal may stop anywhere at or past *threshold*, so
    both sides are clipped to it before comparing.
    """
    if counted.get("kind") != "int" or polynomial.get("kind") != "polynomial":
        return [f"{label}: unexpected answer kinds {counted.get('kind')}/{polynomial.get('kind')}"]
    implied = polynomial_derivations(polynomial["tree"])
    value = counted["value"]
    if threshold is not None:
        implied, value = min(implied, threshold), min(value, threshold)
    if value == implied:
        return []
    return [f"{label}: counted {counted['value']} derivations, polynomial implies {implied}"]


# ---------------------------------------------------------------------- #
# the service, the store and the shards against the in-process network
# ---------------------------------------------------------------------- #
_BODY_KEYS = ("vid", "spec", "issuer", "target", "fact", "annotation")


def check_socket_body(wire_result: Mapping[str, Any], in_process: bytes) -> List[str]:
    """A ``query`` reply read off the socket must carry the in-process body."""
    body = {key: wire_result.get(key) for key in _BODY_KEYS}
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if encoded == in_process:
        return []
    return [f"socket body {_brief(encoded)} != in-process {_brief(in_process)}"]


def check_restored(
    live: Mapping[str, Sequence[Any]], restored: Mapping[str, Sequence[Any]]
) -> List[str]:
    """Every table of the restored network must hold the live network's rows."""
    problems: List[str] = []
    for name in sorted(live.keys() | restored.keys()):
        before = sorted(live.get(name, ()), key=repr)
        after = sorted(restored.get(name, ()), key=repr)
        if before != after:
            problems.append(
                f"restored table {name} differs: {len(after)} rows, live has {len(before)}"
            )
    return problems


def check_sql_nodeset(
    fact: Any, sql_rows: Sequence[Any], distributed: Mapping[str, Any]
) -> List[str]:
    """``sql_provenance('nodeset')`` must name the nodes the distributed query names."""
    expected = sorted(str(node) for node in distributed.get("values", ()))
    if distributed.get("kind") == "set" and sorted(str(node) for node in sql_rows) == expected:
        return []
    return [
        f"SQL nodeset of {fact} is {_brief(sql_rows)}, distributed query says {_brief(expected)}"
    ]


def check_sharded_summary(sharded: Mapping[str, Any], serial: Mapping[str, Any]) -> List[str]:
    """The merged sharded ``summary()`` must equal the serial twin's."""
    return [
        f"sharded summary[{key!r}] = {_brief(sharded.get(key))}, "
        f"serial twin has {_brief(serial.get(key))}"
        for key in sorted(sharded.keys() | serial.keys())
        if sharded.get(key) != serial.get(key)
    ]
