"""The rooted provenance walk against the whole-graph oracle.

``ExspanNetwork.provenance_graph(root=f, max_depth=d)`` serves ``prov``
requests by walking ``prov``/``ruleExec`` rows outward from one tuple;
``provenance_graph()`` copies every row of every node and is the oracle.
The contract: anything rendered from the walk, rooted at ``f`` and bounded
by ``d``, is byte for byte what the whole graph renders — through churn,
for stored tuples of every relation and for roots that name nothing.  The
property is shown to have teeth on seeded mutants of the walk's own source,
and a count-based guard (no wall clock) pins the cost to the subtree.
"""

import inspect
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import provenance_graph as graph_module
from repro.core.api import ExspanNetwork
from repro.core.config import ExspanConfig
from repro.core.requests import QueryRequest, SpecDescriptor
from repro.core.provenance_store import ProvenanceStore
from repro.core.vid import fact_vid
from repro.datalog.ast import Fact
from repro.datalog.parser import parse_program
from repro.net.topology import (
    grid_topology,
    line_topology,
    ring_topology,
    transit_stub_topology,
)
from repro.protocols.mincost import mincost_program
from repro.protocols.pathvector import pathvector_program

PROGRAMS = {
    # The cost bound is above every diameter here: it changes no converged
    # row and only stops count-to-infinity when a flap cuts a bridge.
    "mincost": lambda: mincost_program(max_cost=8),
    "pathvector": pathvector_program,
}
TOPOLOGIES = {
    "grid": lambda: grid_topology(3, 3),
    "ring": lambda: ring_topology(5, seed=1),
    "transit-stub": lambda: transit_stub_topology(
        domains=1, transit_per_domain=2, stubs_per_transit=1, nodes_per_stub=3, seed=1
    ),
}


def node_pairs(network):
    return list(itertools.combinations(sorted(network.addresses()), 2))


def churned_network(program, topology, mode, flaps):
    """A converged network after *flaps*: ``(pair index, undo)`` link toggles."""
    network = ExspanNetwork(
        TOPOLOGIES[topology](), PROGRAMS[program](), config=ExspanConfig(mode=mode, seed=0)
    )
    network.seed_links()
    network.run_to_fixpoint()
    pairs = node_pairs(network)
    for index, undo in flaps:
        a, b = pairs[index % len(pairs)]
        toggles = (network.remove_link, network.add_link)
        if not network.topology.has_link(a, b):
            toggles = toggles[::-1]
        for toggle in toggles[: 2 if undo else 1]:
            toggle(a, b)
            network.run_to_fixpoint()
    return network


def roots_of(network):
    """Every stored tuple of every relation, every possible link, three strangers.

    A unit link between each pair of nodes is a stored fact where the pair is
    linked, a deleted one where a flap removed the link, and never existed
    otherwise.
    """
    roots = [
        Fact(table, row) for table in network.predicates() for _, row in network.tuples(table)
    ]
    roots.extend(Fact("link", (a, b, 1)) for a, b in node_pairs(network))
    somewhere = network.addresses()[0]
    roots.append(Fact("bestPathCost", ("nowhere", somewhere, 1)))  # unknown node
    roots.append(Fact("noSuchRelation", (somewhere, 1)))  # unknown relation
    roots.append(Fact("bestPathCost", ([somewhere], somewhere, 1)))  # unhashable location
    return roots


def network_walk(network):
    return lambda root, depth: network.provenance_graph(root=root, max_depth=depth)


def direct_walk(network, build):
    stores = {address: node.store for address, node in network.nodes.items()}
    return lambda root, depth: build(stores, root, depth)


def mismatches(network, walk, depths):
    """Roots whose bounded rendering from *walk* is not the whole graph's."""
    whole = network.provenance_graph()
    wrong = []
    for root in roots_of(network):
        vid = fact_vid(root)
        for depth in depths:
            rooted = walk(root, depth)
            if rooted.to_text_tree(vid, depth) != whole.to_text_tree(vid, depth):
                wrong.append((str(root), depth))
    return wrong


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    program=st.sampled_from(sorted(PROGRAMS)),
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    mode=st.sampled_from(["ref", "value"]),
    flaps=st.lists(st.tuples(st.integers(0, 99), st.booleans()), max_size=3),
    depth=st.integers(1, 12),
)
def test_rooted_walk_renders_what_the_whole_graph_renders(program, topology, mode, flaps, depth):
    network = churned_network(program, topology, mode, flaps)
    assert mismatches(network, network_walk(network), (depth,)) == []

    # Unbounded, the walk is the whole subgraph under the root: every
    # root-relative reading agrees, not just the text tree.
    whole = network.provenance_graph()
    assert whole.is_acyclic()
    for root in roots_of(network)[::7]:
        vid = fact_vid(root)
        rooted = network.provenance_graph(root=root)
        assert rooted.to_text_tree(vid, 64) == whole.to_text_tree(vid, 64)
        assert rooted.to_dot(vid) == whole.to_dot(vid)
        assert rooted.reachable_base_tuples(vid) == whole.reachable_base_tuples(vid)
        assert rooted.nodes_involved(vid) == whole.nodes_involved(vid)
        assert rooted.is_acyclic()


def test_a_deleted_fact_has_no_provenance_either_way():
    network = churned_network("mincost", "grid", "ref", [])
    a, b = "g0_0", "g0_1"
    gone = Fact("link", (a, b, 1))
    assert "[base]" in network.provenance_graph(root=gone, max_depth=2).to_text_tree(fact_vid(gone))
    network.remove_link(a, b)
    network.run_to_fixpoint()
    for graph in (network.provenance_graph(root=gone, max_depth=2), network.provenance_graph()):
        assert graph.to_text_tree(fact_vid(gone)).startswith("(no provenance recorded for ")


def seeded_mutant(old, new):
    """``build_rooted_graph`` with one fragment of its source replaced."""
    source = inspect.getsource(graph_module.build_rooted_graph)
    assert source.count(old) == 1, f"the walk no longer reads {old!r}: reseed this mutant"
    namespace = dict(vars(graph_module))
    exec(source.replace(old, new), namespace)
    return namespace["build_rooted_graph"]


MUTANTS = {
    "rule executions loaded one level short": ("depth == max_depth", "depth + 1 == max_depth"),
    "depth-first loading": ("queue.popleft()", "queue.pop()"),
    "inputs sought at the tuple's node": (
        "queue.append((child, rule_location, depth + 1))",
        "queue.append((child, location, depth + 1))",
    ),
    "ruleExec sought at the tuple's node": (
        "stores.get(rule_location)",
        "stores.get(location)",
    ),
}


#: ``v`` sits two hops under ``t`` through ``x`` and three through ``z``, ``y``:
#: the shape where loading a vertex at the depth it is *first met* goes wrong.
#: Routing protocols rarely produce it (their shared vertices sit at equal
#: depths), so it is spelled out; ``s`` lists the long arm first, which makes
#: the renderer itself meet ``v`` deep before it meets it shallow.
LOPSIDED_DIAMOND = """
d1 t(@N) :- x(@N), z(@N).
d2 s(@N) :- z(@N), x(@N).
d3 x(@N) :- v(@N).
d4 z(@N) :- y(@N).
d5 y(@N) :- v(@N).
d6 v(@N) :- a(@N).
"""


@pytest.fixture(scope="module")
def scenarios():
    diamond = ExspanNetwork(
        line_topology(2), parse_program(LOPSIDED_DIAMOND), config=ExspanConfig(seed=0)
    )
    diamond.insert_fact(Fact("a", ("n0",)))
    diamond.run_to_fixpoint()
    return diamond, churned_network("mincost", "grid", "ref", [(3, False), (17, True)])


def test_the_walk_passes_the_check_its_mutants_fail(scenarios):
    for network in scenarios:
        real = direct_walk(network, graph_module.build_rooted_graph)
        assert mismatches(network, real, range(1, 7)) == []


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_seeded_mutants_fail_the_rendering_check(scenarios, name):
    build = seeded_mutant(*MUTANTS[name])
    caught = [mismatches(network, direct_walk(network, build), range(1, 7)) for network in scenarios]
    assert any(caught), name


def test_one_prov_costs_its_subtree_not_the_network(monkeypatch):
    """Counts, no wall clock: a depth-2 walk on 100 nodes reads a handful of rows."""
    network = ExspanNetwork(
        grid_topology(10, 10), mincost_program(max_cost=3), config=ExspanConfig(seed=0)
    )
    network.seed_links()
    network.run_to_fixpoint()
    _, row = max(sorted(network.tuples("bestPathCost")), key=lambda item: item[1][2])
    root = Fact("bestPathCost", row)  # the longest best path the cost bound admits

    def whole_table_read(self, name):
        raise AssertionError("a rooted walk must not scan a whole provenance table")

    monkeypatch.setattr(ProvenanceStore, "rows", whole_table_read)
    lookups = []
    store_probe = ProvenanceStore.probe
    monkeypatch.setattr(
        ProvenanceStore,
        "probe",
        lambda self, name, key: lookups.append(name) or store_probe(self, name, key),
    )
    graph = network.provenance_graph(root=root, max_depth=2)
    monkeypatch.undo()

    assert len(graph.derivations_of(fact_vid(root))) >= 1
    assert 0 < len(lookups) <= 2 * len(graph)
    visited = {vertex.location for vertex in graph.tuples.values()}
    indexed = {address for address, node in network.nodes.items() if node.store._vid_index_built}
    assert indexed <= visited
    assert len(visited) < 10


def test_a_query_indexes_vids_only_where_it_meets_base_tuples():
    """Only ``f_edb`` reads a tuple, so a node visited for derived tuples builds no VID index."""

    def converged():
        network = ExspanNetwork(
            line_topology(3), mincost_program(max_cost=8), config=ExspanConfig(seed=0)
        )
        network.seed_links()
        network.run_to_fixpoint()
        return network

    # At n0 the walk meets bestPathCost and pathCost, both derived; the
    # pathCost rule fired at n1, where the walk meets the base links.
    request = QueryRequest(
        fact=Fact("bestPathCost", ("n0", "n2", 2)), spec=SpecDescriptor(kind="polynomial")
    )
    network = converged()
    answer = network.execute(request)
    assert answer.annotation["kind"] == "polynomial"
    root = network.nodes["n0"]
    assert root.store._vid_index_built is False
    assert root.store._on_tuple_update not in root.engine._update_listeners
    assert network.nodes["n1"].store._vid_index_built

    # The same answer as when every visited tuple was resolved to its fact.
    indexed = converged()
    for node in indexed.nodes.values():
        node.store.fact_for_vid("")
    assert indexed.execute(request).canonical_bytes() == answer.canonical_bytes()


TWO_WAYS = """
r1 t(@N) :- a(@N).
r2 t(@N) :- b(@N).
"""


def test_the_walk_resolves_each_vertex_fact_once(monkeypatch):
    """A tuple with two derivations has two ``prov`` rows and one fact lookup."""
    network = ExspanNetwork(line_topology(1), parse_program(TWO_WAYS), config=ExspanConfig(seed=0))
    for name in ("a", "b"):
        network.insert_fact(Fact(name, ("n0",)))
    network.run_to_fixpoint()
    lookups = []
    store_lookup = ProvenanceStore.fact_for_vid
    monkeypatch.setattr(
        ProvenanceStore,
        "fact_for_vid",
        lambda self, vid: lookups.append(vid) or store_lookup(self, vid),
    )
    root = Fact("t", ("n0",))
    graph = network.provenance_graph(root=root)
    monkeypatch.undo()

    assert len(graph.derivations_of(fact_vid(root))) == 2
    assert sorted(lookups) == sorted(graph.tuples)  # t, a and b: once each
    assert graph.tuples[fact_vid(root)].fact == root


def test_the_whole_graph_resolves_each_vertex_fact_once(monkeypatch):
    """A grid route with two equal-cost derivations: two ``prov`` rows, one lookup."""
    network = ExspanNetwork(grid_topology(2, 2), mincost_program(), config=ExspanConfig(seed=0))
    network.seed_links()
    network.run_to_fixpoint()
    lookups = []
    store_lookup = ProvenanceStore.fact_for_vid
    monkeypatch.setattr(
        ProvenanceStore,
        "fact_for_vid",
        lambda self, vid: lookups.append(vid) or store_lookup(self, vid),
    )
    graph = network.provenance_graph()
    monkeypatch.undo()

    route = fact_vid(Fact("pathCost", ("g0_0", "g1_1", 2)))
    assert len(graph.tuples[route].derivations) == 2
    assert lookups.count(route) == 1
    assert sorted(lookups) == sorted(graph.tuples)  # every vertex once
    assert graph.tuples[route].fact == Fact("pathCost", ("g0_0", "g1_1", 2))
