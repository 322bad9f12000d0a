"""Tests for the concurrent provenance query engine.

Covers the concurrency tentpole end to end:

* concurrent-vs-serial **equivalence sweep**: interleaved root queries with
  mixed specs (cached/uncached, all four traversal orders) are byte-identical
  to the same queries issued serially;
* a hypothesis test over random query/update interleavings exercising cache
  invalidation under concurrency;
* bounded-LRU cache semantics: eviction, the per-vertex key index,
  generation-exact dependents on re-put, and hit-count consistency;
* the stale-dependent fix: invalidations landing mid-resolution taint the
  in-flight result instead of letting caches retain pre-update state;
* per-destination batching at the host layer;
* the simulator's live-event counter and tombstone compaction under
  schedule/cancel churn.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper_example import figure3_topology
from repro.core import (
    ExspanConfig,
    ExspanNetwork,
    ProvenanceMode,
    QueryRequest,
    QueryResultCache,
    derivation_count_query,
    node_set_query,
    polynomial_query,
)
from repro.core.query import TraversalOrder
from repro.datalog import Fact
from repro.experiments.workloads import BurstQueryWorkload
from repro.net import Simulator, grid_topology, ring_topology
from repro.net.message import HEADER_OVERHEAD, batch_size, payload_size
from repro.protocols import mincost_program
from helpers import cached, cancelled, dependents


def _reference_network(topology, **knobs) -> ExspanNetwork:
    network = ExspanNetwork(
        topology,
        mincost_program(),
        config=ExspanConfig(mode=ProvenanceMode.REFERENCE, **knobs),
    )
    network.seed_links()
    network.run_to_fixpoint()
    return network


def _mixed_specs():
    """One spec per traversal order, mixing cached and uncached variants."""
    return [
        polynomial_query(name="sweep-poly-c", use_cache=True),
        polynomial_query(name="sweep-poly-u", use_cache=False),
        derivation_count_query(name="sweep-dfs-u", traversal=TraversalOrder.DFS),
        derivation_count_query(
            name="sweep-thr-c",
            traversal=TraversalOrder.DFS_THRESHOLD,
            threshold=3,
            use_cache=True,
        ),
        node_set_query(name="sweep-ns-u"),
        derivation_count_query(
            name="sweep-mw-u",
            traversal=TraversalOrder.RANDOM_MOONWALK,
            moonwalk_width=2,
        ),
    ]


def _plan_mixed_queries(network: ExspanNetwork, specs, count: int, seed: int):
    """Deterministic (issuer, target, fact, spec) plan over all specs."""
    rng = random.Random(seed)
    rows = network.tuples("bestPathCost")
    addresses = network.addresses()
    planned = []
    for index in range(count):
        target, row = rng.choice(rows)
        issuer = rng.choice(addresses)
        planned.append((issuer, target, Fact("bestPathCost", row), specs[index % len(specs)]))
    return planned


def _run_plan(network: ExspanNetwork, planned, serial: bool):
    """Issue the plan; returns [(spec name, vid, repr(result)), ...]."""
    for _, _, _, spec in planned:
        network.register_spec(spec)
    buckets = [[] for _ in planned]
    for index, (issuer, target, fact, spec) in enumerate(planned):
        def issue(issuer=issuer, target=target, fact=fact, spec=spec, bucket=buckets[index]):
            network.node(issuer).query_service.query_fact(
                fact, target, spec.name, bucket.append
            )
        if serial:
            issue()
            network.simulator.run_until_idle()
        else:
            network.simulator.schedule_at(network.now, issue)
    if not serial:
        network.simulator.run_until_idle()
    assert all(len(bucket) == 1 for bucket in buckets), "every query completes"
    return [
        (spec.name, bucket[0].vid, repr(bucket[0].result))
        for (_, _, _, spec), bucket in zip(planned, buckets)
    ]


class TestConcurrentSerialEquivalence:
    """Concurrent issuance must be bit-identical to serial resolution."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_spec_sweep_on_grid(self, seed):
        make = lambda: _reference_network(grid_topology(4, 4))  # noqa: E731
        concurrent = _run_plan(
            make(), _plan_mixed_queries(make(), _mixed_specs(), 18, seed), serial=False
        )
        serial = _run_plan(
            make(), _plan_mixed_queries(make(), _mixed_specs(), 18, seed), serial=True
        )
        assert concurrent == serial

    def test_mixed_spec_sweep_on_ring(self):
        make = lambda: _reference_network(ring_topology(10, seed=1))  # noqa: E731
        concurrent = _run_plan(
            make(), _plan_mixed_queries(make(), _mixed_specs(), 12, 7), serial=False
        )
        serial = _run_plan(
            make(), _plan_mixed_queries(make(), _mixed_specs(), 12, 7), serial=True
        )
        assert concurrent == serial

    def test_burst_workload_equivalence_and_savings(self):
        """The k-querier burst: identical results, strictly less traffic."""
        spec = lambda: derivation_count_query(name="bw-eq", use_cache=True)  # noqa: E731
        concurrent_net = _reference_network(grid_topology(4, 4))
        concurrent_net.stats.reset()
        concurrent = BurstQueryWorkload(
            concurrent_net, spec(), queriers=6, queries_per_querier=3, waves=2, seed=2
        )
        concurrent.run()
        serial_net = _reference_network(grid_topology(4, 4))
        serial_net.stats.reset()
        serial = BurstQueryWorkload(
            serial_net, spec(), queriers=6, queries_per_querier=3, waves=2, seed=2
        )
        serial.run(serial=True)
        assert [(o.vid, repr(o.result)) for o in concurrent.outcomes] == [
            (o.vid, repr(o.result)) for o in serial.outcomes
        ]
        # the concurrent engine answers the same queries with less traffic
        assert concurrent_net.query_messages() < serial_net.query_messages()
        assert concurrent_net.query_bytes() < serial_net.query_bytes()
        stats = concurrent_net.query_service_stats()
        assert stats["coalesced_inflight"] + stats["coalesced_roots"] > 0
        assert stats["cache_hits"] > 0

    @pytest.mark.parametrize("max_depth", [3, 5, 7])
    def test_equivalence_when_depth_budget_binds(self, max_depth):
        """Regression: depth-truncated results must not leak through the cache.

        With a binding ``max_depth``, a vertex reached under different
        remaining budgets resolves to different (truncated) values.  The
        cache stores only complete subgraphs tagged with their height and
        serves them only to requesters whose budget covers that height, so
        concurrent and serial issuance stay bit-identical even here.
        """

        def plan(network):
            rng = random.Random(4)
            rows = network.tuples("bestPathCost")
            addresses = network.addresses()
            spec = polynomial_query(name="deep", use_cache=True)
            spec.max_depth = max_depth
            planned = []
            for _ in range(8):
                target, row = rng.choice(rows)
                issuer = rng.choice(addresses)
                planned.append((issuer, target, Fact("bestPathCost", row), spec))
            return planned

        make = lambda: _reference_network(ring_topology(10, seed=1))  # noqa: E731
        concurrent = _run_plan(make(), plan(make()), serial=False)
        serial = _run_plan(make(), plan(make()), serial=True)
        assert concurrent == serial

    def test_truncated_results_are_never_cached(self):
        """A depth-0 truncation anywhere taints the whole resolution."""
        network = _reference_network(ring_topology(8, seed=2))
        spec = polynomial_query(name="shallow", use_cache=True)
        spec.max_depth = 2  # cannot cover any derived tuple's subgraph
        rows = network.tuples("bestPathCost")
        for _, row in rows[:5]:
            network.execute(QueryRequest(Fact("bestPathCost", row), spec))
        for node in network.nodes.values():
            for entry_key in list(node.query_service.cache._entries):
                entry = node.query_service.cache._entries[entry_key]
                assert entry.height <= spec.max_depth

    def test_concurrent_root_queries_share_one_remote_walk(self):
        """k queries for one remote vertex cost one walk and one answer."""
        spec = lambda: derivation_count_query(name="one-walk", use_cache=False)  # noqa: E731

        def issue(copies):
            network = _reference_network(grid_topology(4, 4))
            network.register_spec(spec())
            target, row = network.tuples("bestPathCost")[-1]
            issuer = network.addresses()[0]
            assert issuer != target
            network.stats.reset()
            outcomes = []
            service = network.node(issuer).query_service
            for _ in range(copies):
                service.query_fact(Fact("bestPathCost", row), target, "one-walk", outcomes.append)
            network.simulator.run_until_idle()
            return network, service, outcomes

        alone, _, [single] = issue(1)
        burst, service, outcomes = issue(4)
        assert [repr(outcome.result) for outcome in outcomes] == [repr(single.result)] * 4
        assert service.coalesced_roots == 3
        assert burst.query_messages() == alone.query_messages()
        assert burst.query_bytes() == alone.query_bytes()

    def test_burst_batches_prov_payloads_per_destination(self):
        # The query_concurrency scenario's k=8 BFS grid cell: one node's
        # turn produces several payloads for one destination.
        network = _reference_network(grid_topology(5, 5))
        workload = BurstQueryWorkload(
            network,
            derivation_count_query(name="batched", use_cache=False),
            queriers=8,
            queries_per_querier=4,
            hot_tuples=4,
            waves=2,
            seed=0,
        )
        workload.run()
        stats = network.query_service_stats()
        assert stats["batches_sent"] > 0
        assert stats["messages_batched"] >= 2 * stats["batches_sent"]


class TestInvalidationUnderConcurrency:
    """Random query/update interleavings must never leave a stale cache."""

    @staticmethod
    def _assert_cache_consistent(network: ExspanNetwork, facts, cached_spec) -> None:
        """Answers served through *cached_spec* must match a fresh traversal."""
        for index, fact in enumerate(facts):
            cached = network.execute(QueryRequest(fact, cached_spec))
            uncached = network.execute(
                QueryRequest(fact, polynomial_query(name=f"fresh-{index}", use_cache=False))
            )
            assert repr(cached.result) == repr(uncached.result)
        for node in network.nodes.values():
            stats = node.query_service.cache.stats()
            assert stats["hits"] == stats["live_hits"] + stats["retired_hits"]

    @settings(max_examples=10, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["query", "toggle", "drain"]), st.integers(0, 9)),
            min_size=2,
            max_size=8,
        )
    )
    def test_random_interleavings(self, ops):
        network = _reference_network(ring_topology(8, seed=3))
        spec = polynomial_query(name="hyp-cached", use_cache=True)
        network.register_spec(spec)
        rows = network.tuples("bestPathCost")
        addresses = network.addresses()
        chord = (addresses[0], addresses[4])
        chord_up = False
        queried = []
        for op, value in ops:
            if op == "query":
                target, row = rows[value % len(rows)]
                fact = Fact("bestPathCost", row)
                queried.append(fact)
                issuer = addresses[value % len(addresses)]
                network.node(issuer).query_service.query_fact(
                    fact, target, spec.name, lambda outcome: None
                )
            elif op == "toggle":
                # A link changes while queries are (possibly) in flight:
                # the invalidation wave races the ongoing traversals.
                if chord_up:
                    network.remove_link(*chord)
                else:
                    network.add_link(*chord, cost=1 + value % 3)
                chord_up = not chord_up
            else:
                network.simulator.run_until_idle()
        network.simulator.run_until_idle()
        self._assert_cache_consistent(network, queried[:4], spec)

    def test_midflight_invalidation_never_caches_stale(self):
        """Deterministic stale-dependent regression (the PR title's bugfix).

        A cached query is racing a link deletion: for a sweep of deletion
        times covering 'before the walk starts' through 'after it ends',
        caches must end consistent with a fresh traversal.  At least one
        timing in the sweep must actually hit the in-flight window (the
        engine counts a stale drop), proving the dirty path is exercised.
        """
        stale_drops_seen = 0
        target_fact = Fact("bestPathCost", ("a", "c", 5))
        for step in range(10):
            network = _reference_network(figure3_topology())
            spec = polynomial_query(name="race", use_cache=True)
            network.register_spec(spec)
            network.node("d").query_service.query_fact(
                target_fact, "a", spec.name, lambda outcome: None
            )
            # the cold walk spans ~6ms of simulated time; sweep the deletion
            # across (and beyond) that window
            delay = 0.0008 * step
            network.simulator.schedule(delay, lambda: network.remove_link("a", "c"))
            network.simulator.run_until_idle()
            stats = network.query_service_stats()
            stale_drops_seen += stats["stale_drops"]
            self._assert_cache_consistent(network, [target_fact], spec)
        assert stale_drops_seen > 0


class TestMissingVertexDependents:
    def test_missing_vertex_keeps_reverse_pointer_for_late_arrival(self):
        """An ancestor caching a missing-child answer must stay reachable:
        the missing key keeps the parent reverse pointer so a later-arriving
        prov/ruleExec row can invalidate the stale ancestor."""
        network = _reference_network(figure3_topology())
        spec = polynomial_query(name="miss-dep", use_cache=True)
        network.register_spec(spec)
        service = network.node("a").query_service
        parent = ("d", ("r", "miss-dep", "rid-parent"))
        results = []
        service._resolve_vid(
            "no-such-vid",
            spec,
            lambda result, height: results.append((result, height)),
            parent=parent,
            depth=8,
        )
        assert len(results) == 1  # missing answers resolve synchronously
        key = ("v", "miss-dep", "no-such-vid")
        assert dependents(service.cache, key) == (parent,)
        assert not cached(service.cache, key)  # the missing answer itself
        # when the vertex appears, invalidation reaches the registered parent
        assert service.cache.invalidate_vertex("v", "no-such-vid") == (parent,)


class TestBoundedCache:
    def test_capacity_bound_and_lru_order(self):
        cache = QueryResultCache("n", capacity=2)
        k1, k2, k3 = (
            ("v", "s", "vid1"),
            ("v", "s", "vid2"),
            ("v", "s", "vid3"),
        )
        cache.put(k1, 1, now=0.0)
        cache.put(k2, 2, now=1.0)
        assert cache.get(k1).result == 1  # refresh k1 -> k2 is now LRU
        cache.put(k3, 3, now=2.0)
        assert len(cache) == 2
        assert cached(cache, k1) and cached(cache, k3)
        assert not cached(cache, k2)
        assert cache.evictions == 1

    def test_eviction_displaces_dependents_for_notification(self):
        cache = QueryResultCache("n", capacity=1)
        k1, k2 = ("v", "s", "vid1"), ("v", "s", "vid2")
        parent = ("r", "s", "rid1")
        cache.put(k1, 1, now=0.0, dependents=[("other", parent)])
        displaced = cache.put(k2, 2, now=1.0)
        # k1 was evicted; its reverse pointer is returned for notification
        # and garbage-collected from the cache's bookkeeping.
        assert displaced == (("other", parent),)
        assert dependents(cache, k1) == ()
        assert cache.invalidate_vertex("v", "vid1") == ()

    def test_reput_resets_previous_generation_dependents(self):
        """Regression: invalidate -> re-query -> second invalidate must not
        notify dependents from before the first invalidation."""
        cache = QueryResultCache("n")
        key = ("v", "s", "vid1")
        old_parent = ("node-b", ("r", "s", "rid-old"))
        new_parent = ("node-c", ("r", "s", "rid-new"))
        cache.put(key, "gen1", now=0.0)
        cache.add_dependent(key, *old_parent)
        assert cache.invalidate(key) == (old_parent,)
        # a stale registration arrives from the dead generation (e.g. a
        # resolution that was in flight across the invalidation)
        cache.add_dependent(key, *old_parent)
        # re-query caches generation 2 with its own consumers
        cache.put(key, "gen2", now=1.0, dependents=[new_parent])
        assert dependents(cache, key) == (new_parent,)
        # the second invalidation notifies only generation 2's consumer
        assert cache.invalidate(key) == (new_parent,)

    def test_overwriting_live_entry_merges_dependents(self):
        """Two racing resolutions (coalescing disabled) both recorded
        consumers of the same value; neither set may be dropped."""
        cache = QueryResultCache("n")
        key = ("v", "s", "vid1")
        p1, p2 = ("b", ("r", "s", "r1")), ("c", ("r", "s", "r2"))
        cache.put(key, "x", now=0.0, dependents=[p1])
        cache.put(key, "x", now=0.1, dependents=[p2])
        assert set(dependents(cache, key)) == {p1, p2}

    def test_hit_counters_stay_consistent_across_eviction_and_reput(self):
        """Regression: entry.hits and cache.hits drifted after evict/re-put."""
        cache = QueryResultCache("n", capacity=2)
        k1, k2, k3 = ("v", "s", "a"), ("v", "s", "b"), ("v", "s", "c")
        cache.put(k1, 1, now=0.0)
        cache.put(k2, 2, now=0.0)
        for _ in range(3):
            cache.get(k1)
        cache.get(k2)
        cache.put(k3, 3, now=1.0)  # evicts k1 (k2 was touched last)
        cache.get(k3)
        cache.put(k1, 10, now=2.0)  # re-inserting k1 evicts k2
        cache.get(k1)
        stats = cache.stats()
        assert stats["hits"] == 6
        assert stats["hits"] == stats["live_hits"] + stats["retired_hits"]
        assert stats["live_hits"] == 2  # one hit on k3, one on the new k1
        assert stats["retired_hits"] == 4  # three on old k1, one on k2
        assert stats["evictions"] == 2

    def test_vertex_index_matches_full_scan_semantics(self):
        cache = QueryResultCache("n")
        cache.put(("v", "spec-a", "vid1"), 1, now=0.0)
        cache.put(("v", "spec-b", "vid1"), 2, now=0.0)
        cache.put(("r", "spec-a", "vid1"), 3, now=0.0)  # rule key, same id
        cache.put(("v", "spec-a", "vid2"), 4, now=0.0)
        cache.invalidate_vertex("v", "vid1")
        assert not cached(cache, ("v", "spec-a", "vid1"))
        assert not cached(cache, ("v", "spec-b", "vid1"))
        assert cached(cache, ("r", "spec-a", "vid1"))
        assert cached(cache, ("v", "spec-a", "vid2"))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryResultCache("n", capacity=0)

    def test_network_capacity_knob_bounds_every_node(self):
        network = _reference_network(ring_topology(6, seed=1), query_cache_capacity=3)
        spec = polynomial_query(name="tiny-cache", use_cache=True)
        for _, row in network.tuples("bestPathCost")[:8]:
            network.execute(QueryRequest(Fact("bestPathCost", row), spec))
        assert all(
            len(node.query_service.cache) <= 3 for node in network.nodes.values()
        )
        stats = network.cache_stats()
        assert stats["evictions"] > 0
        assert stats["hits"] == stats["live_hits"] + stats["retired_hits"]
        # eviction is not allowed to leave stale answers behind
        for _, row in network.tuples("bestPathCost")[:8]:
            fact = Fact("bestPathCost", row)
            cached = network.execute(QueryRequest(fact, spec))
            fresh = network.execute(
                QueryRequest(fact, polynomial_query(name=f"fresh-{row[1]}", use_cache=False))
            )
            assert repr(cached.result) == repr(fresh.result)


class TestBatching:
    @staticmethod
    def _network_with_sink(kind: str = "tst"):
        network = _reference_network(ring_topology(4, seed=0))
        received = []
        for host in network.network.hosts():
            host.register_handler(kind, lambda message: received.append(message.payload))
        return network, received

    def test_outbox_batches_same_destination_within_turn(self):
        network, received = self._network_with_sink()
        host = network.node(network.addresses()[0]).host
        destination = network.addresses()[1]
        network.stats.reset()
        host.begin_turn()
        host.enqueue(destination, "tst", {"type": "x", "n": 1})
        host.enqueue(destination, "tst", {"type": "x", "n": 2})
        host.end_turn()
        assert network.stats.total_messages(["tst"]) == 1
        assert host.batches_sent == 1 and host.messages_batched == 2
        network.simulator.run_until_idle()
        # the receiving host unpacks the envelope in enqueue order
        assert received == [{"type": "x", "n": 1}, {"type": "x", "n": 2}]

    def test_singleton_flush_uses_plain_wire_format(self):
        network, received = self._network_with_sink()
        addresses = network.addresses()
        host = network.node(addresses[0]).host
        payload = {"type": "invalidate", "key": ["v", "s", "x"]}
        network.stats.reset()
        host.begin_turn()
        host.enqueue(addresses[1], "tst", dict(payload))
        host.end_turn()
        assert network.stats.total_messages(["tst"]) == 1
        size = HEADER_OVERHEAD + len("tst") + payload_size(payload)
        assert network.stats.total_bytes(["tst"]) == size
        assert host.batches_sent == 0
        network.simulator.run_until_idle()
        assert received == [payload]

    def test_batch_wire_size_saves_headers(self):
        payloads = [{"type": "x", "n": index} for index in range(5)]
        single = sum(
            HEADER_OVERHEAD + len("prov") + payload_size(p) for p in payloads
        )
        batched = batch_size("prov", payloads)
        assert batched < single
        assert single - batched == 4 * (HEADER_OVERHEAD + len("prov")) - 2

    def test_enqueue_outside_turn_sends_immediately(self):
        network, received = self._network_with_sink()
        addresses = network.addresses()
        host = network.node(addresses[0]).host
        network.stats.reset()
        host.enqueue(addresses[1], "tst", {"type": "x"})
        assert network.stats.total_messages(["tst"]) == 1
        network.simulator.run_until_idle()
        assert received == [{"type": "x"}]


class TestSimulatorChurn:
    def test_pending_events_is_live_count(self):
        simulator = Simulator()
        events = [simulator.schedule(1.0, lambda: None) for _ in range(10)]
        assert simulator.pending_events == 10
        for event in events[:4]:
            event.cancel()
        assert simulator.pending_events == 6
        events[0].cancel()  # double-cancel is a no-op
        assert simulator.pending_events == 6

    def test_queue_stops_growing_under_schedule_cancel_churn(self):
        """Regression: tombstones used to accumulate until pop time."""
        simulator = Simulator()
        keeper = simulator.schedule(1000.0, lambda: None)
        peak = 0
        for _ in range(200):
            burst = [simulator.schedule(999.0, lambda: None) for _ in range(50)]
            for event in burst:
                event.cancel()
            peak = max(peak, simulator.queue_length)
        # the physical heap stays bounded by the compaction threshold, far
        # below the 10_000 tombstones this loop produced
        assert peak < 300
        assert simulator.compactions > 0
        assert simulator.pending_events == 1
        assert simulator.run_until_idle() == 1
        assert not cancelled(keeper)  # executed, never cancelled

    def test_cancelled_events_do_not_execute_after_compaction(self):
        simulator = Simulator()
        fired = []
        keep = [simulator.schedule(2.0, lambda i=i: fired.append(i)) for i in range(5)]
        victims = [simulator.schedule(1.0, lambda: fired.append("bad")) for _ in range(100)]
        for event in victims:
            event.cancel()
        simulator._maybe_compact()
        simulator.run_until_idle()
        assert fired == [0, 1, 2, 3, 4]
        assert all(not cancelled(event) for event in keep)
