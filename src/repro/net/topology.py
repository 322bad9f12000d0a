"""Network topologies: generic graph model plus the paper's generators.

Two generators reproduce the evaluation setups of the paper:

* :func:`transit_stub_topology` mimics the GT-ITM transit-stub topologies of
  Section 7 ("eight nodes per stub, three stubs per transit node, and four
  nodes per transit domain"), with the paper's per-tier latencies and
  bandwidth capacities.  The number of nodes grows by adding domains: one
  domain is 4 transit nodes x (1 + 3 stubs x 8 nodes) = 100 nodes.
* :func:`ring_topology` mimics the 40-node testbed deployment of Section 7.4
  (a ring for reachability plus one random peer per node, maximum degree 3).

A :class:`Topology` holds named nodes and *symmetric* links annotated with
latency (seconds), bandwidth capacity (bytes/second) and a routing cost used
by the NDlog protocols (fixed at 1 in the paper, i.e. hop count).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import NoRouteError

__all__ = [
    "LinkSpec",
    "Topology",
    "transit_stub_topology",
    "ring_topology",
    "line_topology",
    "grid_topology",
    "cluster_topology",
    "partition_topology",
    "partition_cut_edges",
    "partition_lookahead",
    "TIER_TRANSIT",
    "TIER_TRANSIT_STUB",
    "TIER_STUB",
]

# Link tiers, matching the GT-ITM terminology used by the paper.
TIER_TRANSIT = "transit-transit"
TIER_TRANSIT_STUB = "transit-stub"
TIER_STUB = "stub-stub"

# Paper's link parameters: latency in seconds, bandwidth in bytes/second.
_TIER_LATENCY = {
    TIER_TRANSIT: 0.050,
    TIER_TRANSIT_STUB: 0.010,
    TIER_STUB: 0.002,
}
_TIER_BANDWIDTH = {
    TIER_TRANSIT: 1_000_000_000 / 8,
    TIER_TRANSIT_STUB: 100_000_000 / 8,
    TIER_STUB: 50_000_000 / 8,
}


@dataclass(frozen=True)
class LinkSpec:
    """Attributes of one (symmetric) link."""

    latency: float = 0.010
    bandwidth: float = 12_500_000.0
    cost: int = 1
    tier: str = TIER_STUB


_INFINITY = float("inf")
_NO_LINKS: Dict[Any, LinkSpec] = {}
_NO_TARGET = object()


class _RouteSearch:
    """One source's Dijkstra, suspended between :meth:`Topology.latency_between` calls."""

    __slots__ = ("settled", "tentative", "heap", "pushes")

    def __init__(self, source: Any) -> None:
        self.settled: Dict[Any, float] = {}
        self.tentative: Dict[Any, float] = {source: 0.0}
        self.heap: List[Tuple[float, int, Any]] = [(0.0, 0, source)]
        self.pushes = 0


class Topology:
    """An undirected graph of nodes with per-link attributes."""

    def __init__(self, name: str = "topology"):
        self.name = name
        self._nodes: List[Any] = []
        self._node_set: Set[Any] = set()
        self._node_kind: Dict[Any, str] = {}
        self._links: Dict[Tuple[Any, Any], LinkSpec] = {}
        # node -> {neighbour -> spec}: routing reads a link's spec straight
        # off the adjacency instead of re-deriving its canonical key.
        self._adjacency: Dict[Any, Dict[Any, LinkSpec]] = {}
        # source -> its resumable shortest-path search (latency_between).
        self._route_cache: Dict[Any, _RouteSearch] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: Any, kind: str = "stub") -> None:
        if node in self._node_set:
            return
        self._nodes.append(node)
        self._node_set.add(node)
        self._node_kind[node] = kind
        self._adjacency[node] = {}

    def add_link(self, a: Any, b: Any, spec: Optional[LinkSpec] = None) -> None:
        """Add a symmetric link between *a* and *b* (idempotent)."""
        if a == b:
            raise ValueError("self-links are not allowed")
        self.add_node(a)
        self.add_node(b)
        spec = spec or LinkSpec()
        self._links[self._key(a, b)] = spec
        self._adjacency[a][b] = spec
        self._adjacency[b][a] = spec
        self._route_cache.clear()

    def remove_link(self, a: Any, b: Any) -> bool:
        """Remove the link between *a* and *b*; returns False if absent."""
        key = self._key(a, b)
        if key not in self._links:
            return False
        del self._links[key]
        del self._adjacency[a][b]
        del self._adjacency[b][a]
        self._route_cache.clear()
        return True

    @staticmethod
    def _key(a: Any, b: Any) -> Tuple[Any, Any]:
        return (a, b) if repr(a) <= repr(b) else (b, a)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> List[Any]:
        return list(self._nodes)

    def node_kind(self, node: Any) -> str:
        return self._node_kind.get(node, "stub")

    def node_count(self) -> int:
        return len(self._nodes)

    def has_link(self, a: Any, b: Any) -> bool:
        return self._key(a, b) in self._links

    def link(self, a: Any, b: Any) -> LinkSpec:
        return self._links[self._key(a, b)]

    def links(self) -> Iterator[Tuple[Any, Any, LinkSpec]]:
        for (a, b), spec in self._links.items():
            yield a, b, spec

    def link_count(self) -> int:
        return len(self._links)

    def neighbors(self, node: Any) -> List[Any]:
        return sorted(self._adjacency.get(node, ()), key=repr)

    def degree(self, node: Any) -> int:
        return len(self._adjacency.get(node, ()))

    def links_by_tier(self, tier: str) -> List[Tuple[Any, Any, LinkSpec]]:
        return [(a, b, spec) for a, b, spec in self.links() if spec.tier == tier]

    # ------------------------------------------------------------------ #
    # link facts for the NDlog protocols
    # ------------------------------------------------------------------ #
    def link_facts(self) -> List[Tuple[Any, Any, int]]:
        """Return directed ``(src, dst, cost)`` triples for every link.

        Links are symmetric, so both directions are emitted — each node is
        "initialized with a link tuple for each of its neighbors".
        """
        facts: List[Tuple[Any, Any, int]] = []
        for a, b, spec in self.links():
            facts.append((a, b, spec.cost))
            facts.append((b, a, spec.cost))
        return facts

    # ------------------------------------------------------------------ #
    # routing (latency between arbitrary node pairs)
    # ------------------------------------------------------------------ #
    def latency_between(self, source: Any, destination: Any) -> float:
        """Shortest-path latency between two nodes (resumable Dijkstra).

        Each source keeps its search — settled distances, tentative
        distances, heap and push counter — in the route cache.  A lookup
        returns the settled distance when there is one and otherwise
        *resumes* the search until the destination is popped.  A popped
        node's distance is final and the heap evolves exactly as in a full
        run, so every answer is the float a full Dijkstra computes (same
        additions in the same order); a message to a neighbour settles a
        handful of nodes instead of the whole graph.  Any
        :meth:`add_link` / :meth:`remove_link` discards every search.
        """
        if source == destination:
            return 0.0
        search = self._route_cache.get(source)
        if search is None:
            search = self._route_cache[source] = _RouteSearch(source)
        distance = search.settled.get(destination)
        if distance is None:
            distance = self._settle(search, destination)
            if distance is None:
                raise NoRouteError(source, destination)
        return distance

    def _settle(self, search: "_RouteSearch", target: Any) -> Optional[float]:
        """Resume *search* until *target* is settled; ``None`` = unreachable."""
        settled = search.settled
        tentative = search.tentative
        heap = search.heap
        pushes = search.pushes
        adjacency = self._adjacency
        found = None
        while heap:
            distance, _, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled[node] = distance
            for neighbor, spec in adjacency.get(node, _NO_LINKS).items():
                candidate = distance + spec.latency
                if candidate < tentative.get(neighbor, _INFINITY):
                    tentative[neighbor] = candidate
                    pushes += 1
                    heapq.heappush(heap, (candidate, pushes, neighbor))
            if node == target:
                # Its edges are relaxed first, so the search resumes from a
                # state the uninterrupted run also passes through.
                found = distance
                break
        search.pushes = pushes
        return found

    def is_connected(self) -> bool:
        if not self._nodes:
            return True
        search = _RouteSearch(self._nodes[0])
        self._settle(search, _NO_TARGET)  # equals no node: runs the heap dry
        return len(search.settled) == len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.name!r}, nodes={self.node_count()}, "
            f"links={self.link_count()})"
        )


# ---------------------------------------------------------------------- #
# generators
# ---------------------------------------------------------------------- #
def transit_stub_topology(
    domains: int = 1,
    transit_per_domain: int = 4,
    stubs_per_transit: int = 3,
    nodes_per_stub: int = 8,
    seed: int = 0,
    link_cost: int = 1,
) -> Topology:
    """Generate a GT-ITM style transit-stub topology.

    With the paper's defaults one domain contains
    ``4 * (1 + 3 * 8) = 100`` nodes; the evaluation sweeps network size by
    increasing ``domains``.
    """
    rng = random.Random(seed)
    topology = Topology(name=f"transit-stub-{domains}d")
    transit_nodes: List[List[str]] = []

    for domain in range(domains):
        domain_transits: List[str] = []
        for index in range(transit_per_domain):
            node = f"t{domain}_{index}"
            topology.add_node(node, kind="transit")
            domain_transits.append(node)
        # Connect transit nodes within a domain as a ring plus one chord,
        # giving the dense transit core GT-ITM produces.
        count = len(domain_transits)
        for index in range(count):
            a = domain_transits[index]
            b = domain_transits[(index + 1) % count]
            if a != b and not topology.has_link(a, b):
                topology.add_link(a, b, _spec(TIER_TRANSIT, link_cost))
        if count > 3:
            topology.add_link(
                domain_transits[0], domain_transits[count // 2], _spec(TIER_TRANSIT, link_cost)
            )
        transit_nodes.append(domain_transits)

    # Interconnect domains through their first transit nodes (ring of domains).
    for domain in range(1, domains):
        topology.add_link(
            transit_nodes[domain - 1][0],
            transit_nodes[domain][0],
            _spec(TIER_TRANSIT, link_cost),
        )
    if domains > 2:
        topology.add_link(
            transit_nodes[-1][1 % transit_per_domain],
            transit_nodes[0][1 % transit_per_domain],
            _spec(TIER_TRANSIT, link_cost),
        )

    # Attach stubs.
    for domain, domain_transits in enumerate(transit_nodes):
        for transit_index, transit in enumerate(domain_transits):
            for stub_index in range(stubs_per_transit):
                stub_nodes: List[str] = []
                for node_index in range(nodes_per_stub):
                    node = f"s{domain}_{transit_index}_{stub_index}_{node_index}"
                    topology.add_node(node, kind="stub")
                    stub_nodes.append(node)
                # Stub internal structure: a ring plus a couple of random
                # chords, giving average degree ~2.6 like GT-ITM stubs.
                for index in range(len(stub_nodes)):
                    a = stub_nodes[index]
                    b = stub_nodes[(index + 1) % len(stub_nodes)]
                    if a != b and not topology.has_link(a, b):
                        topology.add_link(a, b, _spec(TIER_STUB, link_cost))
                if len(stub_nodes) >= 3:
                    extra_chords = max(1, nodes_per_stub // 4)
                    for _ in range(extra_chords):
                        a, b = rng.sample(stub_nodes, 2)
                        if not topology.has_link(a, b):
                            topology.add_link(a, b, _spec(TIER_STUB, link_cost))
                # Gateway stub node connects to the transit node.
                gateway = stub_nodes[0]
                topology.add_link(transit, gateway, _spec(TIER_TRANSIT_STUB, link_cost))
    return topology


#: Degree cap of :func:`ring_topology`'s random peer links: the paper's
#: "maximum degree of all nodes is three".
_RING_MAX_DEGREE = 3


def ring_topology(
    node_count: int,
    seed: int = 0,
    link_cost: int = 1,
    latency: float = 0.001,
    bandwidth: float = 125_000_000.0,
) -> Topology:
    """Generate the testbed topology of Section 7.4.

    Nodes are arranged in a ring, and each node of a ring of more than three
    also links to one random peer while both stay under the degree cap,
    giving the "maximum degree of all nodes is three" structure of the
    paper.
    """
    rng = random.Random(seed)
    topology = Topology(name=f"ring-{node_count}")
    nodes = [f"n{index}" for index in range(node_count)]
    for node in nodes:
        topology.add_node(node, kind="stub")
    spec = LinkSpec(latency=latency, bandwidth=bandwidth, cost=link_cost, tier=TIER_STUB)
    for index in range(node_count):
        topology.add_link(nodes[index], nodes[(index + 1) % node_count], spec)
    if node_count > 3:
        order = list(range(node_count))
        rng.shuffle(order)
        for index in order:
            node = nodes[index]
            if topology.degree(node) >= _RING_MAX_DEGREE:
                continue
            candidates = [
                other
                for other in nodes
                if other != node
                and not topology.has_link(node, other)
                and topology.degree(other) < _RING_MAX_DEGREE
            ]
            if not candidates:
                continue
            peer = rng.choice(candidates)
            topology.add_link(node, peer, spec)
    return topology


def line_topology(node_count: int, link_cost: int = 1, latency: float = 0.010) -> Topology:
    """A simple chain topology, useful for unit tests."""
    topology = Topology(name=f"line-{node_count}")
    nodes = [f"n{index}" for index in range(node_count)]
    for node in nodes:
        topology.add_node(node)
    for index in range(node_count - 1):
        topology.add_link(
            nodes[index],
            nodes[index + 1],
            LinkSpec(latency=latency, cost=link_cost, tier=TIER_STUB),
        )
    return topology


def grid_topology(rows: int, columns: int, link_cost: int = 1, latency: float = 0.005) -> Topology:
    """A rows x columns grid topology, useful for tests and examples."""
    topology = Topology(name=f"grid-{rows}x{columns}")
    spec = LinkSpec(latency=latency, cost=link_cost, tier=TIER_STUB)
    for row in range(rows):
        for column in range(columns):
            topology.add_node(f"g{row}_{column}")
    for row in range(rows):
        for column in range(columns):
            node = f"g{row}_{column}"
            if column + 1 < columns:
                topology.add_link(node, f"g{row}_{column + 1}", spec)
            if row + 1 < rows:
                topology.add_link(node, f"g{row + 1}_{column}", spec)
    return topology


def cluster_topology(
    clusters: int,
    nodes_per_cluster: int,
    seed: int = 0,
    link_cost: int = 1,
    intra_latency: float = 0.002,
    inter_latency: float = 0.050,
    chords_per_cluster: Optional[int] = None,
) -> Topology:
    """Generate a large clustered topology for the scale scenarios.

    ``clusters`` dense rings of ``nodes_per_cluster`` nodes (ring plus a few
    random chords each) are joined into a ring of clusters through gateway
    nodes, with one long chord across the cluster ring for shortcut routes.
    Intra-cluster links are fast (``intra_latency``); inter-cluster links are
    slow (``inter_latency``, transit tier).  The structure mirrors how
    Internet-scale deployments cluster by data center / AS — and it is what
    makes paper-scale topologies shardable: a partitioner that cuts only the
    sparse high-latency inter-cluster links gives the sharded engine a large
    conservative lookahead window (the window is the minimum cut-edge
    latency) with little cross-shard traffic.
    """
    if clusters < 1 or nodes_per_cluster < 1:
        raise ValueError("clusters and nodes_per_cluster must be positive")
    rng = random.Random(seed)
    topology = Topology(name=f"cluster-{clusters}x{nodes_per_cluster}")
    intra = LinkSpec(
        latency=intra_latency,
        bandwidth=_TIER_BANDWIDTH[TIER_STUB],
        cost=link_cost,
        tier=TIER_STUB,
    )
    inter = LinkSpec(
        latency=inter_latency,
        bandwidth=_TIER_BANDWIDTH[TIER_TRANSIT],
        cost=link_cost,
        tier=TIER_TRANSIT,
    )
    gateways: List[str] = []
    for cluster in range(clusters):
        members = [f"c{cluster}_{index}" for index in range(nodes_per_cluster)]
        for index, node in enumerate(members):
            topology.add_node(node, kind="transit" if index == 0 else "stub")
        for index in range(len(members)):
            a = members[index]
            b = members[(index + 1) % len(members)]
            if a != b and not topology.has_link(a, b):
                topology.add_link(a, b, intra)
        chords = (
            chords_per_cluster
            if chords_per_cluster is not None
            else max(1, nodes_per_cluster // 8)
        )
        if nodes_per_cluster >= 4:
            for _ in range(chords):
                a, b = rng.sample(members, 2)
                if not topology.has_link(a, b):
                    topology.add_link(a, b, intra)
        gateways.append(members[0])
    for cluster in range(1, clusters):
        topology.add_link(gateways[cluster - 1], gateways[cluster], inter)
    if clusters > 2:
        topology.add_link(gateways[-1], gateways[0], inter)
    if clusters > 5:
        topology.add_link(gateways[0], gateways[clusters // 2], inter)
    return topology


# ---------------------------------------------------------------------- #
# sharding support: latency-aware balanced partitioning
# ---------------------------------------------------------------------- #
def partition_topology(
    topology: Topology,
    shards: int,
    balance_tolerance: float = 0.25,
    refinement_passes: int = 8,
) -> Dict[Any, int]:
    """Partition the nodes into *shards* balanced, latency-aware parts.

    The goal is twofold: (1) balance — shard sizes differ by at most
    ``balance_tolerance`` of the ideal size (never below 1 node of it), so
    worker processes get comparable event load; (2) a *cheap cut* — the
    edges crossing shards should be few and slow, because every cut edge
    carries cross-shard envelopes and the **minimum cut-edge latency is the
    conservative lookahead window** of the sharded engine (cutting a fast
    link both shrinks the window and adds barrier traffic).

    The algorithm is deterministic (no RNG, no hash-order dependence):
    grow a Prim-style traversal that always absorbs the fastest link
    leaving the visited set — so tightly coupled clusters are swallowed
    whole before a slow inter-cluster link is crossed — chunk the visit
    order into contiguous balanced blocks, then run bounded
    Kernighan-Lin-style refinement passes moving boundary nodes when that
    strictly lowers the cut cost (sum of ``1/latency`` over cut edges)
    without violating balance.
    """
    nodes = topology.nodes
    count = len(nodes)
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    if shards == 1 or count <= 1:
        return {node: 0 for node in nodes}
    shards = min(shards, count)

    order = _prim_order(topology, nodes)
    assignment: Dict[Any, int] = {}
    # Contiguous chunks of the traversal order, sizes differing by <= 1.
    base, extra = divmod(count, shards)
    start = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        for node in order[start : start + size]:
            assignment[node] = shard
        start += size

    target = count / shards
    low = max(1, int(target - max(1, balance_tolerance * target)))
    high = max(low, int(target + max(1, balance_tolerance * target) + 0.5))
    sizes = [0] * shards
    for shard in assignment.values():
        sizes[shard] += 1

    def move_gain(node: Any, destination: int) -> float:
        """Cut-cost reduction of moving *node* to *destination*."""
        gain = 0.0
        here = assignment[node]
        for neighbor in topology.neighbors(node):
            spec = topology.link(node, neighbor)
            affinity = (1.0 / spec.latency) if spec.latency > 0 else float("inf")
            other = assignment[neighbor]
            if other == here:
                gain -= affinity  # this edge becomes cut
            elif other == destination:
                gain += affinity  # this cut edge heals
        return gain

    for _ in range(max(0, refinement_passes)):
        improved = False
        for node in nodes:
            here = assignment[node]
            if sizes[here] <= low:
                continue
            # Candidate destinations: shards of the node's neighbors, in
            # deterministic ascending shard order.
            candidates = sorted(
                {assignment[neighbor] for neighbor in topology.neighbors(node)}
                - {here}
            )
            best, best_gain = None, 0.0
            for destination in candidates:
                if sizes[destination] >= high:
                    continue
                gain = move_gain(node, destination)
                if gain > best_gain:
                    best, best_gain = destination, gain
            if best is not None:
                assignment[node] = best
                sizes[here] -= 1
                sizes[best] += 1
                improved = True
        if not improved:
            break
    return assignment


def _prim_order(topology: Topology, nodes: List[Any]) -> List[Any]:
    """Visit order absorbing the lowest-latency frontier link first."""
    index_of = {node: index for index, node in enumerate(nodes)}
    visited: Set[Any] = set()
    order: List[Any] = []
    for root in nodes:
        if root in visited:
            continue
        heap: List[Tuple[float, int, Any]] = [(0.0, index_of[root], root)]
        while heap:
            _, _, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            order.append(node)
            for neighbor in topology.neighbors(node):
                if neighbor not in visited:
                    spec = topology.link(node, neighbor)
                    heapq.heappush(
                        heap, (spec.latency, index_of[neighbor], neighbor)
                    )
    return order


def partition_cut_edges(
    topology: Topology, assignment: Dict[Any, int]
) -> List[Tuple[Any, Any, LinkSpec]]:
    """The links whose endpoints live in different shards."""
    return [
        (a, b, spec)
        for a, b, spec in topology.links()
        if assignment.get(a) != assignment.get(b)
    ]


def partition_lookahead(
    topology: Topology, assignment: Dict[Any, int]
) -> Optional[float]:
    """Conservative lookahead window: the minimum cut-edge latency.

    Any path between nodes in different shards crosses the cut at least
    once, so its end-to-end (shortest-path) latency is at least the
    minimum latency among cut edges — a message sent at time *t* to
    another shard can never arrive before ``t + lookahead``.  Returns
    ``None`` when no edge crosses the cut (the shards never interact).
    """
    latencies = [spec.latency for _, _, spec in partition_cut_edges(topology, assignment)]
    return min(latencies) if latencies else None


def _spec(tier: str, cost: int) -> LinkSpec:
    return LinkSpec(
        latency=_TIER_LATENCY[tier],
        bandwidth=_TIER_BANDWIDTH[tier],
        cost=cost,
        tier=tier,
    )
