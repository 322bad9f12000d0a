#!/usr/bin/env python3
"""Quickstart: run MINCOST with reference-based provenance and query it.

This walks through the paper's running example (Figures 3-5): the four-node
topology, the MINCOST program, the provenance graph of
``bestPathCost(@a,c,5)``, and several query customizations.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import (
    ExspanConfig,
    ExspanNetwork,
    Granularity,
    GranularitySpec,
    ProvenanceMode,
    QueryRequest,
    bdd_query,
    count_derivations,
    derivation_count_query,
    node_set_query,
    polynomial_query,
    tuple_vid,
)
from repro.datalog import Fact, StandaloneNetwork
from repro.net import LinkSpec, Topology
from repro.protocols import MINCOST_SOURCE, mincost_program, pathvector_program


def build_figure3_topology() -> Topology:
    """The example network of Figure 3: four nodes, five symmetric links."""
    topology = Topology(name="figure3")
    for source, destination, cost in [
        ("a", "b", 3),
        ("a", "c", 5),
        ("b", "c", 2),
        ("b", "d", 5),
        ("c", "d", 3),
    ]:
        topology.add_link(source, destination, LinkSpec(latency=0.001, cost=cost))
    return topology


def main() -> None:
    print("The MINCOST program (Figure 1):")
    print(MINCOST_SOURCE)

    # 1. Build a provenance-aware network: the program is automatically
    #    rewritten (Algorithm 1) so every node maintains prov / ruleExec.
    network = ExspanNetwork(
        build_figure3_topology(),
        mincost_program(),
        config=ExspanConfig(mode=ProvenanceMode.REFERENCE),
    )
    network.seed_links()
    fixpoint = network.run_to_fixpoint()
    print(f"Fixpoint reached at t={fixpoint * 1000:.1f} ms; "
          f"{network.maintenance_bytes()} bytes of protocol traffic")
    counts = network.provenance_row_counts()
    print(f"Provenance tables: {counts['prov']} prov rows, "
          f"{counts['ruleExec']} ruleExec rows across 4 nodes\n")

    # 2. Query the provenance of bestPathCost(@a,c,5) — the paper's Figure 5.
    best_ac = Fact("bestPathCost", ("a", "c", 5))
    polynomial = network.execute(QueryRequest(fact=best_ac, spec=polynomial_query(name="poly")))
    print("Provenance polynomial of bestPathCost(@a,c,5):")
    print(f"  {polynomial.result}")
    print(f"  derivations: {count_derivations(polynomial.result)}, "
          f"query latency {polynomial.latency * 1000:.1f} ms\n")

    # 3. Other customizations: node set, derivation count, condensed BDD.
    nodes = network.execute(QueryRequest(fact=best_ac, spec=node_set_query(name="nodes")))
    print(f"Nodes involved in the derivation: {sorted(nodes.result)}")

    count = network.execute(
        QueryRequest(fact=best_ac, spec=derivation_count_query(name="count"))
    )
    print(f"#DERIVATIONS: {count.result}")

    node_level = network.execute(
        QueryRequest(
            fact=best_ac,
            spec=bdd_query(name="bdd", granularity=GranularitySpec(Granularity.NODE)),
        )
    )
    print("Node-level absorption provenance (BDD support): "
          f"{sorted(node_level.result.support())}  "
          "(<a + a*b> condenses to <a>)\n")

    # 4. Dynamics: delete the direct a-c link and watch provenance change.
    print("Deleting link a-c ...")
    network.remove_link("a", "c")
    network.run_to_fixpoint()
    after = network.execute(QueryRequest(fact=best_ac, spec=polynomial_query(name="poly2")))
    print("Provenance after deletion (only the path through b remains):")
    print(f"  {after.result}")

    # 5. Inspect the provenance graph directly (Figure 5 rendering).
    graph = network.provenance_graph()
    vid = tuple_vid("bestPathCost", ("a", "c", 5))
    print("\nGraphviz rendering of the provenance graph rooted at "
          "bestPathCost(@a,c,5):")
    print(graph.to_dot(root=vid))

    # 6. EXPLAIN: how the planner evaluates a PATHVECTOR rule.
    #    Every engine compiles one plan per (rule, delta position); the plan
    #    below shows the join order and secondary-index usage for rule pv2
    #    (path extension), the hottest join of the PATHVECTOR fixpoint.
    standalone = StandaloneNetwork(["a", "b", "c", "d"], pathvector_program())
    for source, destination, cost in [
        ("a", "b", 3), ("b", "a", 3), ("b", "c", 2), ("c", "b", 2),
        ("c", "d", 3), ("d", "c", 3),
    ]:
        standalone.insert(Fact("link", (source, destination, cost)))
    standalone.run()
    engine = standalone.engine("a")
    print("\nCompiled join plans for PATHVECTOR rule pv2 "
          "(path(@S,D,C,P) :- link(@Z,S,C1), bestPath(@Z,D,C2,P2), ...):")
    print(engine.explain("pv2"))
    stats = standalone.planner_stats()
    print(f"\nPlanner counters across the 4 nodes: "
          f"{stats['plans_compiled']} plans compiled, "
          f"{stats['indexes_registered']} indexes registered, "
          f"{stats['index_lookups']} index lookups, "
          f"{stats['tuples_scanned']} tuples scanned")


if __name__ == "__main__":
    main()
