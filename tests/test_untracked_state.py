"""Per-row state the engine keeps long is no work for the cycle collector.

CPython stops tracking a tuple whose items are all untracked (strings,
ints, tuples of them) once a collection has looked at it, but it always
tracks a list and never stops tracking a non-empty dict that holds a
tracked value.  A table's index bucket and an aggregate's support record
exist once per stored row, so a per-row container the collector must
keep visiting multiplies into every full collection.  After a converged
network and two full collections (the second untracks a tuple whose
items the first untracked), no one-element bucket or record may still be
tracked: a new per-row list fails here.
"""

from __future__ import annotations

import gc

from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode
from repro.net.topology import transit_stub_topology
from repro.protocols import mincost_program


def tracked_singletons(network):
    """``(where, container)`` for each tracked one-element bucket or record."""
    found = []
    for address, node in network.nodes.items():
        engine = node.engine
        for table in engine.catalog.tables():
            for positions, index in table._indexes.items():
                for key, bucket in index.items():
                    if len(bucket) == 1 and gc.is_tracked(bucket):
                        found.append((f"{address} {table.name}{positions} {key}", bucket))
        for label, compiled in engine._aggregate_rules.items():
            for derived, matches in (compiled.support or {}).items():
                if len(matches) == 1 and gc.is_tracked(matches):
                    found.append((f"{address} {label} support {derived}", matches))
    return found


def test_no_one_element_bucket_or_support_record_is_tracked():
    topology = transit_stub_topology(
        domains=1, transit_per_domain=2, stubs_per_transit=2, nodes_per_stub=3, seed=1
    )
    network = ExspanNetwork(
        topology, mincost_program(), config=ExspanConfig(mode=ProvenanceMode.REFERENCE)
    )
    network.seed_links()
    network.run_to_fixpoint()
    gc.collect()
    gc.collect()

    supports = sum(
        len(compiled.support or ())
        for node in network.nodes.values()
        for compiled in node.engine._aggregate_rules.values()
    )
    assert supports > 0  # the MIN rule's join-back twin reads support records
    found = tracked_singletons(network)
    assert not found, f"{len(found)} tracked, e.g. {found[:3]}"
