"""Workload generators for the evaluation experiments.

Three workloads drive the paper's figures:

* :class:`QueryWorkload` — every node issues provenance queries at a fixed
  rate against randomly selected tuples (Figures 11-15: five queries per
  second per node against random ``bestPathCost`` tuples);
* :class:`PacketWorkload` — every node sends fixed-size payloads to a random
  peer at a fixed rate over PACKETFORWARD (Figure 8: 1024-byte tuples at
  100 tuples/second);
* :func:`make_churn` — the stub-link churn process of Figures 9-10 (ten
  random stub-to-stub links added or deleted every 0.5 seconds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from ..core.api import ExspanNetwork
from ..core.query import QueryOutcome, QuerySpec
from ..datalog.ast import Fact
from ..net.churn import ChurnGenerator
from ..net.stats import LatencyStats
from ..protocols.packetforward import packet_event

__all__ = ["QueryWorkload", "BurstQueryWorkload", "PacketWorkload", "make_churn"]


@dataclass
class QueryWorkload:
    """Schedules provenance queries from every node at a fixed per-node rate.

    Parameters
    ----------
    network:
        A fixpointed :class:`~repro.core.api.ExspanNetwork`.
    spec:
        The query customization to use (registered on all nodes).
    table:
        Relation whose tuples are queried (default ``bestPathCost``).
    queries_per_second:
        Per-node query rate (the paper uses 5).
    duration:
        Length of the workload in simulated seconds.

    Each node queries tuples stored locally, which is how the evaluation
    targets "a randomly selected bestPathCost tuple" without an extra
    discovery step; the query traversal itself still fans out across the
    network.
    """

    network: ExspanNetwork
    spec: QuerySpec
    table: str = "bestPathCost"
    queries_per_second: float = 5.0
    duration: float = 2.0
    seed: int = 0
    outcomes: List[QueryOutcome] = field(default_factory=list)

    def schedule(self) -> int:
        """Schedule all queries on the simulator; returns the number scheduled."""
        self.network.register_spec(self.spec)
        rng = random.Random(self.seed)
        interval = 1.0 / self.queries_per_second
        scheduled = 0
        start = self.network.now
        for address in self.network.addresses():
            candidates = self._candidate_tuples(address)
            if not candidates:
                continue
            offset = rng.uniform(0, interval)
            time = offset
            while time < self.duration:
                fact_row = rng.choice(candidates)
                fact = Fact(self.table, fact_row)
                target = fact.location
                self.network.simulator.schedule_at(
                    start + time,
                    self._issue(address, target, fact),
                )
                scheduled += 1
                time += interval
        return scheduled

    def _candidate_tuples(self, address: Any) -> List[Tuple[Any, ...]]:
        table = self.network.node(address).engine.catalog.get(self.table)
        return [] if table is None else list(table.rows())  # a read creates nothing

    def _issue(self, issuer: Any, target: Any, fact: Fact) -> Callable[[], None]:
        def issue() -> None:
            self.network.node(issuer).query_service.query_fact(
                fact, target, self.spec.name, self.outcomes.append
            )

        return issue

    def run(self) -> List[QueryOutcome]:
        """Schedule the workload and run the simulation until it drains."""
        self.schedule()
        self.network.simulator.run_until_idle()
        return self.outcomes

    def latency_stats(self) -> LatencyStats:
        stats = LatencyStats()
        stats.extend(outcome.latency for outcome in self.outcomes)
        return stats


@dataclass
class BurstQueryWorkload:
    """k simultaneous queriers: the multi-tenant query *serving* workload.

    ``queriers`` nodes each fire ``queries_per_querier`` root provenance
    queries per *wave*, with targets drawn from a small *hot set* of
    ``hot_tuples`` tuples (concurrent interest concentrates on a few
    popular vertices, the regime where in-flight sub-query coalescing and
    result caching pay off).  Each querier's wave is issued in a single
    turn — a client pipelining a burst of requests — so root queries to
    one target coalesce and mixed-target bursts share batched envelopes.
    With ``waves > 1`` the burst repeats after ``wave_gap`` simulated
    seconds (long enough for the previous wave to drain), which is what
    exposes cache hits for ``use_cache`` specs.  Selection is fully
    seeded, so a run is a deterministic function of ``(network, spec,
    parameters)``.

    ``run(serial=True)`` issues the *same* queries one at a time, draining
    the network between them — the reference the concurrent engine must be
    result-identical to, and the "before" leg of the speedup benchmarks.
    """

    network: ExspanNetwork
    spec: QuerySpec
    queriers: int = 4
    queries_per_querier: int = 4
    hot_tuples: int = 4
    waves: int = 1
    wave_gap: float = 1.0
    table: str = "bestPathCost"
    seed: int = 0
    outcomes: List[QueryOutcome] = field(default_factory=list)

    def plan(self) -> List[List[Tuple[Any, Any, Fact]]]:
        """Deterministic per-wave (issuer, target, fact) root-query lists."""
        rng = random.Random(self.seed)
        rows = self.network.tuples(self.table)
        if not rows:
            return [[] for _ in range(self.waves)]
        hot = rng.sample(rows, min(self.hot_tuples, len(rows)))
        addresses = self.network.addresses()
        issuers = rng.sample(addresses, min(self.queriers, len(addresses)))
        planned: List[List[Tuple[Any, Any, Fact]]] = []
        for _ in range(self.waves):
            wave: List[Tuple[Any, Any, Fact]] = []
            for issuer in issuers:
                for _ in range(self.queries_per_querier):
                    target_node, row = rng.choice(hot)
                    wave.append((issuer, target_node, Fact(self.table, row)))
            planned.append(wave)
        return planned

    def run(self, serial: bool = False) -> List[QueryOutcome]:
        """Issue the planned queries; returns their outcomes in issue order.

        Concurrent mode schedules each querier's per-wave burst as one
        event and runs the network to idle once; serial mode drains
        between individual queries.
        """
        self.network.register_spec(self.spec)
        planned = self.plan()
        simulator = self.network.simulator
        start = self.network.now
        # Outcomes are collected per query and concatenated in issue order,
        # so concurrent completion order never shows through.
        collected: List[List[List[QueryOutcome]]] = [
            [[] for _ in wave] for wave in planned
        ]

        def issue_one(issuer: Any, target: Any, fact: Fact, bucket) -> None:
            self.network.node(issuer).query_service.query_fact(
                fact, target, self.spec.name, bucket.append
            )

        if serial:
            for wave_index, wave in enumerate(planned):
                for index, (issuer, target, fact) in enumerate(wave):
                    issue_one(issuer, target, fact, collected[wave_index][index])
                    simulator.run_until_idle()
        else:
            for wave_index, wave in enumerate(planned):
                burst_at = start + wave_index * self.wave_gap
                by_issuer: Dict[Any, List[int]] = {}
                for index, (issuer, _, _) in enumerate(wave):
                    by_issuer.setdefault(issuer, []).append(index)

                def make_burst(
                    wave_index: int, issuer: Any, indices: List[int]
                ) -> Callable[[], None]:
                    def burst() -> None:
                        # One turn for the whole burst: the client pipelines
                        # its requests, so same-destination queries leave in
                        # one batched envelope.
                        host = self.network.node(issuer).host
                        host.begin_turn()
                        try:
                            wave = planned[wave_index]
                            for index in indices:
                                _, target, fact = wave[index]
                                issue_one(
                                    issuer, target, fact, collected[wave_index][index]
                                )
                        finally:
                            host.end_turn()

                    return burst

                for issuer, indices in by_issuer.items():
                    simulator.schedule_at(
                        burst_at, make_burst(wave_index, issuer, indices)
                    )
            simulator.run_until_idle()
        self.outcomes = [
            outcome
            for wave_buckets in collected
            for bucket in wave_buckets
            for outcome in bucket
        ]
        return self.outcomes


@dataclass
class PacketWorkload:
    """Data-plane packet workload for PACKETFORWARD (Figure 8)."""

    network: ExspanNetwork
    payload_bytes: int = 1024
    packets_per_second: float = 100.0
    duration: float = 1.0
    seed: int = 0
    sent: int = 0

    def schedule(self) -> int:
        rng = random.Random(self.seed)
        interval = 1.0 / self.packets_per_second
        addresses = self.network.addresses()
        start = self.network.now
        payload = "x" * self.payload_bytes
        scheduled = 0
        for address in addresses:
            time = rng.uniform(0, interval)
            while time < self.duration:
                destination = rng.choice([a for a in addresses if a != address])
                event = packet_event(address, address, destination, payload)
                self.network.simulator.schedule_at(
                    start + time, self._inject(address, event)
                )
                scheduled += 1
                time += interval
        self.sent = scheduled
        return scheduled

    def _inject(self, address: Any, event: Fact) -> Callable[[], None]:
        def inject() -> None:
            engine = self.network.node(address).engine
            engine.insert(event)
            engine.run()

        return inject

    def run(self) -> int:
        """Schedule the workload and run until all packets are delivered."""
        self.schedule()
        self.network.simulator.run_until_idle()
        return self.sent

    def delivered(self) -> int:
        """Packets that reached their destination (``recvPacket`` rows)."""
        return len(self.network.tuples("recvPacket"))


def make_churn(
    network: ExspanNetwork,
    links_per_round: int = 10,
    interval: float = 0.5,
    seed: int = 0,
) -> ChurnGenerator:
    """Build the stub-link churn generator of Section 7.2 for *network*."""
    return ChurnGenerator(
        topology=network.topology,
        simulator=network.simulator,
        add_link=network.add_link,
        remove_link=network.remove_link,
        links_per_round=links_per_round,
        interval=interval,
        seed=seed,
    )
