"""Queries and maintenance leave no cyclic garbage behind.

A closure that refers to itself (directly, or through a sibling nested
function) is a reference cycle: everything it captured outlives the call
until the cycle collector runs.  On the query path that was every DFS
continuation chain, and the collector's passes over that garbage were a
measurable share of read-heavy runs.  These tests run with the collector
disabled and ``gc.DEBUG_SAVEALL`` set, so whatever a finished operation
leaves unreachable is counted (and kept for the failure message) instead
of silently freed.

The network object graph itself is cyclic (hosts and engines point back at
their network); every test therefore builds its network, collects the
set-up garbage, and only then measures the operation under test.
"""

from __future__ import annotations

import ast
import gc
from collections import Counter
from pathlib import Path

import pytest

from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode
from repro.core.requests import QueryRequest, SpecDescriptor
from repro.datalog import Fact
from repro.net import grid_topology
from repro.net.topology import TIER_STUB, transit_stub_topology
from repro.protocols import mincost_program, pathvector_program

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

KINDS = ("polynomial", "derivations", "nodeset", "derivability", "bdd")
TRAVERSALS = ("bfs", "dfs", "dfs-threshold", "random-moonwalk")

#: A corner-to-corner route on the 3x3 grid: several equal-cost
#: derivations spread over every node.
TARGET = Fact("bestPathCost", ("g0_0", "g2_2", 4))


def converged(topology, program, mode):
    network = ExspanNetwork(topology, program, config=ExspanConfig(mode=mode))
    network.seed_links()
    network.run_to_fixpoint()
    return network


def cyclic_garbage(operation) -> Counter:
    """Run *operation* with the collector off; count what it left cyclic."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            operation()
            found = gc.collect()
            leftovers = Counter(type(item).__name__ for item in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        if enabled:
            gc.enable()
    assert sum(leftovers.values()) == found
    return leftovers


@pytest.mark.parametrize("deadline", [None, 1e-9], ids=["no-deadline", "expires"])
@pytest.mark.parametrize("use_cache", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("traversal", TRAVERSALS)
@pytest.mark.parametrize("kind", KINDS)
def test_a_finished_query_is_freed_by_refcount(kind, traversal, use_cache, deadline):
    network = converged(grid_topology(3, 3), mincost_program(), ProvenanceMode.REFERENCE)
    assert TARGET.values in [row for _, row in network.tuples("bestPathCost")]
    descriptor = SpecDescriptor(
        kind=kind,
        traversal=traversal,
        use_cache=use_cache,
        threshold=1 if traversal == "dfs-threshold" else None,
    )
    network.register_spec(descriptor)
    outcomes = []

    def query_twice() -> None:
        # Sent from the far corner, so the root query itself is remote;
        # the second run is served (partly) from the cache when it is on.
        for _ in range(2):
            request = QueryRequest(TARGET, descriptor, issuer="g2_2", deadline=deadline)
            outcomes.append(network.execute(request))

    assert cyclic_garbage(query_twice) == Counter()
    assert all(outcome.partial for outcome in outcomes) == (deadline is not None)


def flap(network, topology, links: int) -> None:
    for a, b in sorted((a, b) for a, b, _ in topology.links_by_tier(TIER_STUB))[:links]:
        cost = topology.link(a, b).cost
        network.remove_link(a, b)
        network.run_to_fixpoint()
        network.add_link(a, b, cost)
        network.run_to_fixpoint()


@pytest.mark.parametrize(
    "program_factory, mode",
    [
        (pathvector_program, ProvenanceMode.REFERENCE),
        (lambda: mincost_program(max_cost=16), ProvenanceMode.VALUE),
    ],
    ids=["pathvector-ref", "mincost-value"],
)
def test_link_flaps_leave_no_cyclic_garbage(program_factory, mode):
    topology = transit_stub_topology(
        domains=1, transit_per_domain=2, stubs_per_transit=2, nodes_per_stub=3, seed=0
    )
    network = converged(topology, program_factory(), mode)
    assert cyclic_garbage(lambda: flap(network, topology, links=2)) == Counter()


# ---------------------------------------------------------------------- #
# the static guard: no nested function can reach itself
# ---------------------------------------------------------------------- #
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_reaching_closures(tree: ast.AST, filename: str):
    """Nested functions that can call themselves through enclosing names.

    A nested ``def`` is a closure over its enclosing functions' locals; when
    its body (including functions nested inside it) names itself, or a
    sibling that names it back, the function object and its cell form a
    cycle.  Returns ``"file:line name"`` for each such function.
    """
    definitions = {}  # (enclosing scope id, name) -> nested def
    chains = {}  # nested def id -> its enclosing function scopes, innermost first

    def collect(node: ast.AST, scopes) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                if scopes:
                    definitions[(id(scopes[0]), child.name)] = child
                    chains[id(child)] = scopes
                collect(child, (child,) + scopes)
            elif isinstance(child, ast.ClassDef):
                collect(child, ())  # methods do not close over the outer scope
            else:
                collect(child, scopes)

    collect(tree, ())
    nested = {id(node): node for node in definitions.values()}
    edges = {}
    for key, node in nested.items():
        names = {
            name.id
            for name in ast.walk(node)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        targets = set()
        for name in names:
            for scope in chains[key]:
                callee = definitions.get((id(scope), name))
                if callee is not None:
                    targets.add(id(callee))
                    break
        edges[key] = targets

    def reaches_itself(start: int) -> bool:
        seen, stack = set(), list(edges[start])
        while stack:
            current = stack.pop()
            if current == start:
                return True
            if current not in seen:
                seen.add(current)
                stack.extend(edges.get(current, ()))
        return False

    return sorted(
        f"{filename}:{nested[key].lineno} {nested[key].name}"
        for key in nested
        if reaches_itself(key)
    )


def test_the_scan_finds_self_and_mutual_recursion():
    source = """
def outer():
    def alone(n):
        return alone(n - 1)

    def ping():
        return pong()

    def pong():
        return ping()

    def loop():
        def step():
            loop()
        return step

    def fine():
        return alone

    return fine
"""
    found = self_reaching_closures(ast.parse(source), "x.py")
    assert found == ["x.py:12 loop", "x.py:3 alone", "x.py:6 ping", "x.py:9 pong"]


def test_no_nested_function_in_src_reaches_itself():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(self_reaching_closures(tree, str(path.relative_to(SRC))))
    assert found == []
