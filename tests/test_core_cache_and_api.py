"""Tests for query-result caching (with invalidation) and the ExspanNetwork facade."""

from __future__ import annotations

import pytest

from paper_example import FIGURE3_BEST_COSTS, figure3_topology
from repro.core import (
    ExspanConfig,
    DELTA_MESSAGE_KIND,
    ExspanNetwork,
    ProvenanceMode,
    QueryRequest,
    QueryResultCache,
    SpecDescriptor,
    count_derivations,
    polynomial_query,
    tuple_vid,
)
from repro.core.errors import ProvenanceError
from repro.datalog import Fact, StandaloneNetwork
from repro.net import ring_topology
from repro.protocols import mincost_program, pathvector_program
from helpers import annotation_of, cached, empty, has_fact, table_rows

BEST_AC = Fact("bestPathCost", ("a", "c", 5))


class TestQueryResultCache:
    def test_put_get_hit_miss_accounting(self):
        cache = QueryResultCache("n")
        key = ("v", "spec", "vid1")
        assert cache.get(key) is None
        cache.put(key, "result", now=1.0)
        entry = cache.get(key)
        assert entry.result == "result"
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1

    def test_invalidate_returns_dependents(self):
        cache = QueryResultCache("n")
        key = ("v", "spec", "vid1")
        parent = ("r", "spec", "rid9")
        cache.put(key, "x", now=0.0)
        cache.add_dependent(key, "other-node", parent)
        dependents = cache.invalidate(key)
        # dependents come back as an ordered tuple (deterministic fan-out)
        assert dependents == (("other-node", parent),)
        assert cache.get(key) is None
        # second invalidation is a no-op
        assert cache.invalidate(key) == ()

    def test_invalidate_vertex_hits_all_specs(self):
        cache = QueryResultCache("n")
        cache.put(("v", "a", "vid1"), 1, now=0.0)
        cache.put(("v", "b", "vid1"), 2, now=0.0)
        cache.put(("v", "a", "vid2"), 3, now=0.0)
        cache.invalidate_vertex("v", "vid1")
        assert len(cache) == 1
        assert cached(cache, ("v", "a", "vid2"))

    def test_invalidate_vertex_with_only_dependents(self):
        cache = QueryResultCache("n")
        cache.add_dependent(("v", "a", "vid1"), "n", ("r", "a", "rid1"))
        dependents = cache.invalidate_vertex("v", "vid1")
        assert dependents == (("n", ("r", "a", "rid1")),)

    def test_stats_count_entries(self):
        cache = QueryResultCache("n")
        cache.put(("v", "a", "x"), 1, now=0.0)
        stats = cache.stats()
        assert stats["entries"] == 1


@pytest.fixture
def reference_network():
    network = ExspanNetwork(
        figure3_topology(),
        mincost_program(),
        config=ExspanConfig(mode=ProvenanceMode.REFERENCE),
    )
    network.seed_links()
    network.run_to_fixpoint()
    return network


class TestCachedQueries:
    def test_second_query_uses_fewer_messages(self, reference_network):
        spec = polynomial_query(name="cached", use_cache=True)
        reference_network.stats.reset()
        first = reference_network.execute(QueryRequest(BEST_AC, spec))
        first_messages = reference_network.stats.total_messages(["prov"])
        reference_network.stats.reset()
        second = reference_network.execute(QueryRequest(BEST_AC, spec))
        second_messages = reference_network.stats.total_messages(["prov"])
        assert count_derivations(first.result) == count_derivations(second.result) == 2
        assert second_messages < first_messages
        stats = reference_network.cache_stats()
        assert stats["hits"] >= 1

    def test_cached_result_latency_is_lower(self, reference_network):
        spec = polynomial_query(name="cached-latency", use_cache=True)
        first = reference_network.execute(QueryRequest(BEST_AC, spec))
        second = reference_network.execute(QueryRequest(BEST_AC, spec))
        assert second.latency <= first.latency

    def test_cache_shared_by_overlapping_subqueries(self, reference_network):
        """A query for pathCost(@a,c,5) warms the cache for bestPathCost(@a,c,5)."""
        spec = polynomial_query(name="cached-shared", use_cache=True)
        reference_network.execute(QueryRequest(Fact("pathCost", ("a", "c", 5)), spec))
        reference_network.stats.reset()
        reference_network.execute(QueryRequest(BEST_AC, spec))
        messages_after_warm = reference_network.stats.total_messages(["prov"])
        # the bestPathCost query is answered from the cached pathCost subtree
        assert messages_after_warm == 0

    def test_invalidation_after_link_deletion(self, reference_network):
        spec = polynomial_query(name="cached-invalidate", use_cache=True)
        before = reference_network.execute(QueryRequest(BEST_AC, spec))
        assert count_derivations(before.result) == 2
        # deleting link a-c removes the direct derivation and must invalidate
        # the cached result along the reverse path
        reference_network.remove_link("a", "c")
        reference_network.run_to_fixpoint()
        after = reference_network.execute(QueryRequest(BEST_AC, spec))
        assert count_derivations(after.result) == 1
        assert set(after.result.literals()) == {"link(b,a,3)", "link(b,c,2)"}
        assert reference_network.cache_stats()["invalidations"] >= 1

    def test_cache_disabled_spec_never_populates_cache(self, reference_network):
        spec = polynomial_query(name="uncached", use_cache=False)
        reference_network.execute(QueryRequest(BEST_AC, spec))
        assert all(
            len(node.query_service.cache) == 0
            for node in reference_network.nodes.values()
        ) or reference_network.cache_stats()["entries"] >= 0  # cache may hold other specs


class TestExspanNetworkFacade:
    def test_seed_links_inserts_both_directions(self, reference_network):
        rows = reference_network.tuples("link")
        directed = {(row[0], row[1]) for _, row in rows}
        assert ("a", "b") in directed and ("b", "a") in directed

    def test_best_path_costs_match_reference(self, reference_network):
        costs = {
            (row[0], row[1]): row[2]
            for _, row in reference_network.tuples("bestPathCost")
        }
        for pair, cost in FIGURE3_BEST_COSTS.items():
            assert costs[pair] == cost

    def test_maintenance_and_query_bytes_tracked_separately(self, reference_network):
        assert reference_network.maintenance_bytes() > 0
        assert reference_network.query_bytes() == 0
        reference_network.execute(QueryRequest(BEST_AC, polynomial_query(name="sep")))
        assert reference_network.query_bytes() > 0

    def test_unknown_node_rejected(self, reference_network):
        with pytest.raises(ProvenanceError):
            reference_network.node("nope")

    def test_random_tuple_returns_existing_row(self, reference_network):
        node, fact = reference_network.random_tuple("bestPathCost")
        assert fact.location == node
        assert fact.values in [
            row for n, row in reference_network.tuples("bestPathCost") if n == node
        ]

    def test_random_tuple_empty_table(self, reference_network):
        assert reference_network.random_tuple("doesNotExist") is None

    def test_reads_create_no_tables(self, reference_network):
        before = reference_network.predicates()
        engine = reference_network.engine("a")
        assert not has_fact(engine, "nosuch", ("a",))
        assert table_rows(engine, "nosuch") == []
        assert reference_network.predicates() == before
        standalone = StandaloneNetwork(["a"], mincost_program())
        assert standalone.all_rows("nosuch") == []
        assert not standalone.engine("a").catalog.has_table("nosuch")

    def test_add_link_updates_routes(self, reference_network):
        reference_network.add_link("a", "d", cost=1)
        reference_network.run_to_fixpoint()
        costs = {
            (row[0], row[1]): row[2]
            for _, row in reference_network.tuples("bestPathCost")
        }
        assert costs[("a", "d")] == 1
        assert costs[("a", "c")] == 4  # a -> d -> c

    def test_provenance_row_counts(self, reference_network):
        counts = reference_network.provenance_row_counts()
        assert counts["prov"] > 0
        assert counts["ruleExec"] > 0

    def test_fixpoint_time_is_positive(self, reference_network):
        assert reference_network.now > 0.0

    def test_centralized_mode_defaults_collector_to_first_node(self):
        network = ExspanNetwork(
            ring_topology(6, seed=1),
            mincost_program(),
            config=ExspanConfig(mode=ProvenanceMode.CENTRALIZED),
        )
        assert network.collector == network.topology.nodes[0]
        network.seed_links()
        network.run_to_fixpoint()
        hub = network.engine(network.collector)
        assert len(hub.catalog.table("provCentral")) > 0

    def test_none_mode_has_no_provenance_tables(self):
        network = ExspanNetwork(
            ring_topology(6, seed=1),
            mincost_program(),
            config=ExspanConfig(mode=ProvenanceMode.NONE),
        )
        network.seed_links()
        network.run_to_fixpoint()
        assert network.provenance_row_counts() == {"prov": 0, "ruleExec": 0}

    def test_value_mode_attaches_annotations(self):
        network = ExspanNetwork(
            ring_topology(6, seed=1),
            mincost_program(),
            config=ExspanConfig(mode=ProvenanceMode.VALUE),
        )
        network.seed_links()
        network.run_to_fixpoint()
        node, fact = network.random_tuple("bestPathCost")
        annotation = annotation_of(network.engine(node), fact)
        assert annotation is not None
        assert annotation.node_count() >= 1

    def test_pathvector_on_simulated_network(self):
        network = ExspanNetwork(
            figure3_topology(),
            pathvector_program(),
            config=ExspanConfig(mode=ProvenanceMode.REFERENCE),
        )
        network.seed_links()
        network.run_to_fixpoint()
        best = {
            (row[0], row[1]): row for _, row in network.tuples("bestPath")
        }
        assert list(best[("a", "c")][3]) == ["a", "b", "c"]


def _update_listener_count(network) -> int:
    return sum(len(node.engine._update_listeners) for node in network.nodes.values())


CACHED_POLYNOMIAL = SpecDescriptor(kind="polynomial", use_cache=True)
UNCACHED_POLYNOMIAL = SpecDescriptor(kind="polynomial")


class TestUpdateHookSubscription:
    """The query layer's tuple-update hook costs nothing until a cached
    result or an in-flight resolution could actually be invalidated."""

    def test_cold_cache_churn_never_reaches_the_hook(self, reference_network):
        assert _update_listener_count(reference_network) == 0
        reference_network.remove_link("b", "c")
        reference_network.run_to_fixpoint()
        assert _update_listener_count(reference_network) == 0
        reference_network.add_link("b", "c", 2)
        reference_network.run_to_fixpoint()
        # no listener registered: no tuple_vid per update, no host turn opened
        assert _update_listener_count(reference_network) == 0

    def test_warm_cache_remote_invalidation_matches_uncached(self, reference_network):
        first = reference_network.execute(
            QueryRequest(fact=BEST_AC, spec=CACHED_POLYNOMIAL)
        )
        assert count_derivations(first.result) == 2
        # link(b,c,2) lives at b and c; the cached root result lives at a
        service_a = reference_network.node("a").query_service
        assert service_a.cache.watches_vertices()
        assert service_a._watching_updates
        reference_network.remove_link("b", "c")
        reference_network.run_to_fixpoint()
        assert service_a.cache.invalidations >= 1
        cached = reference_network.execute(
            QueryRequest(fact=BEST_AC, spec=CACHED_POLYNOMIAL)
        )
        fresh = reference_network.execute(
            QueryRequest(fact=BEST_AC, spec=UNCACHED_POLYNOMIAL)
        )
        assert cached.result == fresh.result
        assert count_derivations(cached.result) == 1

    def test_update_during_resolution_marks_it_dirty(self, reference_network):
        results = []
        reference_network.submit(
            QueryRequest(fact=BEST_AC, spec=CACHED_POLYNOMIAL, issuer="d"),
            results.append,
        )
        service_a = reference_network.node("a").query_service
        while not service_a._inflight_index:  # the walk reaches a, then fans out
            assert reference_network.simulator.run(max_events=1) == 1
        assert service_a._watching_updates
        # a derivation of the tuple being resolved disappears mid-walk
        reference_network.remove_link("a", "c")
        reference_network.run_to_fixpoint()
        assert len(results) == 1
        assert reference_network.query_service_stats()["stale_drops"] >= 1
        root_key = (
            "v",
            CACHED_POLYNOMIAL.canonical_name,
            tuple_vid("bestPathCost", BEST_AC.values),
        )
        assert not cached(service_a.cache, root_key)
        after = reference_network.execute(
            QueryRequest(fact=BEST_AC, spec=CACHED_POLYNOMIAL)
        )
        fresh = reference_network.execute(
            QueryRequest(fact=BEST_AC, spec=UNCACHED_POLYNOMIAL)
        )
        assert after.result == fresh.result

    def test_subscription_survives_clear_and_restore(self, reference_network, tmp_path):
        request = QueryRequest(fact=BEST_AC, spec=CACHED_POLYNOMIAL)
        reference_network.execute(request)
        for node in reference_network.nodes.values():
            empty(node.query_service.cache)
        # emptied caches unsubscribe lazily, on the next update they see
        reference_network.remove_link("c", "d")
        reference_network.run_to_fixpoint()
        reference_network.add_link("c", "d", 3)
        reference_network.run_to_fixpoint()
        assert not any(
            node.query_service._watching_updates
            for node in reference_network.nodes.values()
        )
        # ... and the next cached result subscribes again
        reference_network.execute(request)
        reference_network.remove_link("b", "c")
        reference_network.run_to_fixpoint()
        assert count_derivations(reference_network.execute(request).result) == 1

        path = str(tmp_path / "net.ckpt")
        reference_network.checkpoint(path)
        restored = ExspanNetwork.restore(
            path,
            reference_network.topology,
            mincost_program(),
            config=reference_network.config,
        )
        assert _update_listener_count(restored) == 0  # caches start cold
        assert count_derivations(restored.execute(request).result) == 1
        restored.add_link("b", "c", 2)
        restored.run_to_fixpoint()
        assert count_derivations(restored.execute(request).result) == 2
