"""Sharded multi-process engine: equivalence, determinism, and substrate.

The headline guarantee under test: a simulation partitioned across N
worker processes (:class:`repro.net.sharding.ShardedExspanNetwork`)
produces **bit-identical** state to the single-process engine — fixpoints,
provenance tables and VIDs, value-based annotations, per-host counters and
network-wide traffic counters — for any shard count and any
``PYTHONHASHSEED``, including under scripted churn and concurrent
provenance queries.

Also covered here: the latency-aware partitioner and its lookahead
accounting, the windowed simulator API (exclusive horizons, the safe-time
barrier tripwire, monotonic clocks under adversarial latencies via
hypothesis), the tunable heap-compaction knobs and their stats
reconciliation, and the cross-shard counter merge helpers.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode
from repro.datalog.ast import Fact
from repro.net import SimulationError, Simulator
from repro.net.network import DEFAULT_LATENCY
from repro.net.sharding import (
    ScriptOp,
    ShardedExspanNetwork,
    apply_script_serial,
    collect_digest,
    collect_summary,
)
from repro.net.stats import merge_counter_dicts
from repro.net.topology import (
    cluster_topology,
    partition_cut_edges,
    partition_lookahead,
    partition_topology,
    ring_topology,
    transit_stub_topology,
)
from repro.protocols import (
    mincost_program,
    packet_event,
    packetforward_program,
    pathvector_program,
)

# ---------------------------------------------------------------------- #
# shared builders
# ---------------------------------------------------------------------- #
PROGRAMS = {
    "mincost": mincost_program,
    "pathvector": pathvector_program,
    "packetforward": lambda: pathvector_program().extended(
        packetforward_program(), "pv+fwd"
    ),
}

MODES = {"ref": ProvenanceMode.REFERENCE, "value": ProvenanceMode.VALUE}


def _topology():
    return cluster_topology(4, 6, seed=3)


def _packet_script(topology):
    """Deterministic cross-cluster packet injections for PACKETFORWARD."""
    nodes = topology.nodes
    return [
        (
            0.4,
            [
                ScriptOp("insert", fact=packet_event(nodes[1], nodes[1], nodes[-2], "pay-a")),
                ScriptOp("insert", fact=packet_event(nodes[-1], nodes[-1], nodes[2], "pay-b")),
            ],
        ),
        (
            0.6,
            [ScriptOp("insert", fact=packet_event(nodes[7], nodes[7], nodes[20], "pay-c"))],
        ),
    ]


CHURN_SCRIPT = [
    (
        0.5,
        [
            ScriptOp("remove_link", a="c0_1", b="c0_2"),
            ScriptOp("add_link", a="c1_3", b="c2_4", cost=2),
        ],
    ),
    (
        0.8,
        [
            ScriptOp("add_link", a="c0_1", b="c0_2", cost=1),
            ScriptOp("remove_link", a="c1_3", b="c2_4"),
        ],
    ),
]


def _serial_state(program_key, mode_key, script=None, value_policy="bdd"):
    net = ExspanNetwork(
        _topology(),
        PROGRAMS[program_key](),
        config=ExspanConfig(mode=MODES[mode_key], seed=0, value_policy=value_policy),
    )
    net.seed_links()
    net.run_to_fixpoint()
    if script:
        apply_script_serial(net, script)
    return collect_summary(net), collect_digest(net)


def _sharded_state(program_key, mode_key, shards, script=None, value_policy="bdd"):
    with ShardedExspanNetwork(
        _topology(),
        PROGRAMS[program_key](),
        mode=MODES[mode_key],
        shards=shards,
        seed=0,
        value_policy=value_policy,
    ) as sharded:
        sharded.seed_links()
        sharded.run_to_fixpoint()
        if script:
            sharded.run_script(script)
        return sharded.summary(), sharded.digest()


# ---------------------------------------------------------------------- #
# the equivalence sweep (fixpoints, REF + VALUE annotations)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("program_key", ["mincost", "pathvector", "packetforward"])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_fixpoint_equivalence_ref(program_key, shards):
    serial = _serial_state(program_key, "ref")
    sharded = _sharded_state(program_key, "ref", shards)
    assert sharded == serial


@pytest.mark.parametrize("program_key", ["mincost", "pathvector"])
@pytest.mark.parametrize("shards", [2, 4])
def test_fixpoint_equivalence_value_bdd(program_key, shards):
    """Value-mode BDD annotations cross shard boundaries bit-identically."""
    serial = _serial_state(program_key, "value")
    sharded = _sharded_state(program_key, "value", shards)
    assert sharded == serial


def test_fixpoint_equivalence_value_polynomial():
    serial = _serial_state("mincost", "value", value_policy="polynomial")
    sharded = _sharded_state("mincost", "value", 3, value_policy="polynomial")
    assert sharded == serial


# ---------------------------------------------------------------------- #
# churn and data-plane scripts
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("mode_key,shards", [("ref", 2), ("ref", 4), ("value", 2)])
def test_churn_equivalence(mode_key, shards):
    """Scripted link add/remove cascades replay identically across shards."""
    serial = _serial_state("mincost", mode_key, script=CHURN_SCRIPT)
    sharded = _sharded_state("mincost", mode_key, shards, script=CHURN_SCRIPT)
    assert sharded == serial


@pytest.mark.parametrize("shards", [2, 4])
def test_packetforward_equivalence(shards):
    """PACKETFORWARD data-plane events forward identically across shards."""
    script = _packet_script(_topology())
    serial = _serial_state("packetforward", "ref", script=script)
    sharded = _sharded_state("packetforward", "ref", shards, script=script)
    assert sharded == serial


def test_apply_ops_after_fixpoint_reopens_the_window():
    """Ops at a post-quiescence barrier may schedule from that instant.

    Regression: the final quiesce window overshoots the last event time,
    and ops applied at the (earlier) global now send messages landing
    before the overshot safe time — the worker must re-open its window at
    the barrier instant instead of tripping the safe-time assertion.
    """
    serial = ExspanNetwork(_topology(), mincost_program(), config=ExspanConfig(seed=0))
    serial.seed_links()
    serial.run_to_fixpoint()
    serial.insert_fact(Fact("link", ("c0_1", "c0_3", 9)))
    serial.simulator.run_until_idle()
    with ShardedExspanNetwork(_topology(), mincost_program(), shards=2, seed=0) as sharded:
        sharded.seed_links()
        sharded.run_to_fixpoint()
        sharded.apply_ops([ScriptOp("insert", fact=Fact("link", ("c0_1", "c0_3", 9)))])
        assert sharded.summary() == collect_summary(serial)
        assert sharded.digest() == collect_digest(serial)


def test_sharded_digest_hashseed_invariant():
    script = (
        "import hashlib, json\n"
        "from repro.net.sharding import ShardedExspanNetwork\n"
        "from repro.net.topology import cluster_topology\n"
        "from repro.protocols import mincost_program\n"
        "from repro.core.modes import ProvenanceMode\n"
        "with ShardedExspanNetwork(cluster_topology(3, 5, seed=1),\n"
        "        mincost_program(), mode=ProvenanceMode.REFERENCE,\n"
        "        shards=2, seed=0) as sharded:\n"
        "    sharded.seed_links()\n"
        "    sharded.run_to_fixpoint()\n"
        "    payload = json.dumps([sharded.summary(), sharded.digest()],\n"
        "                         sort_keys=True, default=repr)\n"
        "print(hashlib.sha256(payload.encode()).hexdigest())\n"
    )
    digests = set()
    for seed in ("0", "1", "31337"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert len(output) == 1
        digests.update(output)
    assert len(digests) == 1


# ---------------------------------------------------------------------- #
# partitioner and lookahead
# ---------------------------------------------------------------------- #
def test_partition_balance_and_cover():
    topology = cluster_topology(8, 32, seed=0)
    for shards in (2, 4, 8):
        assignment = partition_topology(topology, shards)
        assert set(assignment) == set(topology.nodes)
        sizes = Counter(assignment.values())
        assert len(sizes) == shards
        assert max(sizes.values()) - min(sizes.values()) <= 0.5 * (256 / shards)


def test_partition_cuts_slow_links_on_clustered_graphs():
    """The latency-aware partitioner must cut inter-cluster links only."""
    topology = cluster_topology(8, 32, seed=0)
    assignment = partition_topology(topology, 4)
    cut = partition_cut_edges(topology, assignment)
    assert cut and all(spec.latency == pytest.approx(0.05) for _, _, spec in cut)
    assert partition_lookahead(topology, assignment) == pytest.approx(0.05)


def test_partition_transit_stub():
    topology = transit_stub_topology(domains=2, seed=0)
    assignment = partition_topology(topology, 2)
    assert partition_lookahead(topology, assignment) == pytest.approx(0.05)


def test_partition_edge_cases():
    topology = ring_topology(6, seed=0)
    assert set(partition_topology(topology, 1).values()) == {0}
    # more shards than nodes: clamped, still a full cover
    assignment = partition_topology(topology, 16)
    assert set(assignment) == set(topology.nodes)


def test_partition_deterministic():
    topology = cluster_topology(5, 9, seed=2)
    assert partition_topology(topology, 3) == partition_topology(topology, 3)


def test_cluster_topology_shape():
    topology = cluster_topology(8, 32, seed=0)
    assert topology.node_count() == 256
    assert topology.is_connected()


# ---------------------------------------------------------------------- #
# windowed simulator API and the float-drift guards
# ---------------------------------------------------------------------- #
def test_run_window_exclusive_horizon():
    simulator = Simulator()
    fired = []
    simulator.schedule_at(1.0, lambda: fired.append(1.0))
    simulator.schedule_at(2.0, lambda: fired.append(2.0))
    assert simulator.run_window(2.0) == 1
    assert fired == [1.0]  # the event exactly at the horizon waits
    assert simulator.safe_time == 2.0
    assert simulator.now == 1.0  # clock rests on the last executed event
    assert simulator.run_window(2.5) == 1
    assert fired == [1.0, 2.0]


def test_safe_time_rejects_travel_into_executed_windows():
    simulator = Simulator()
    simulator.run_window(5.0)
    with pytest.raises(SimulationError):
        simulator.schedule_at(4.999, lambda: None)
    simulator.schedule_at(5.0, lambda: None)  # exactly at the barrier is fine
    with pytest.raises(SimulationError):
        simulator.run_window(4.0)  # horizons are monotone


def test_single_authoritative_schedule_path():
    """Relative delays funnel through schedule_at (single time-arithmetic site)."""
    simulator = Simulator()
    simulator.advance_to(1.1)
    event = simulator.schedule(0.4, lambda: None)
    assert event[0] == 1.1 + 0.4
    with pytest.raises(SimulationError):
        simulator.schedule(-0.1, lambda: None)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
            st.floats(min_value=1e-9, max_value=0.11, allow_nan=False),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    ),
    st.floats(min_value=1e-6, max_value=0.07, allow_nan=False),
)
def test_windowed_execution_monotonic_under_adversarial_latencies(entries, window):
    """Window stepping never executes out of order or moves time backwards.

    Adversarial schedule: events at arbitrary (float-noisy) times, some
    cancelled, executed through irregular windows; every executed event
    must respect the global (time, key, sequence) order, the clock must be
    monotone across window boundaries, and nothing may land before the
    safe time.
    """
    simulator = Simulator(compact_min_cancelled=2, compact_ratio=0.5)
    executed = []
    live = 0
    for base, delta, cancel in entries:
        event = simulator.schedule_at(
            base + delta, lambda t=base + delta: executed.append(t)
        )
        if cancel:
            event.cancel()
        else:
            live += 1
    horizon = 0.0
    rounds = 0
    while simulator.pending_events and rounds < 1000:
        previous_now = simulator.now
        horizon = max(horizon + window, simulator.next_event_time() + window / 2)
        simulator.run_window(horizon)
        assert simulator.now >= previous_now
        assert simulator.safe_time == horizon
        rounds += 1
    assert len(executed) == live
    assert executed == sorted(executed)
    # compaction accounting reconciles at every point of observation
    assert simulator.queue_length == simulator.pending_events + simulator._cancelled_in_queue


def test_run_window_truncated_by_max_events_keeps_horizon_unsafe():
    """A max_events-truncated window must not mark the horizon safe."""
    simulator = Simulator()
    simulator.schedule_at(1.0, lambda: None)
    simulator.schedule_at(1.1, lambda: simulator.schedule(0.01, lambda: None))
    assert simulator.run_window(2.0, max_events=1) == 1
    assert simulator.safe_time <= 1.0  # pre-horizon events remain live
    simulator.run_until_idle()  # the 1.1 event's +0.01 follow-up is legal
    assert simulator.pending_events == 0


def test_failed_send_does_not_corrupt_traffic_stats():
    """Destination validation happens before billing (serial and sharded)."""
    from repro.net import Network, UnknownNodeError

    topology = ring_topology(4, seed=0)
    network = Network(topology)
    with pytest.raises(UnknownNodeError):
        network.send("n0", "ghost", "delta", payload="x")
    assert network.stats.total_messages() == 0
    assert network.stats.total_bytes() == 0
    sharded = Network(
        topology, local_nodes=["n0", "n1"], shard_map={node: 0 if node in ("n0", "n1") else 1 for node in topology.nodes}
    )
    with pytest.raises(UnknownNodeError):
        sharded.send("n0", "ghost", "delta", payload="x")
    assert sharded.stats.total_messages() == 0
    assert not sharded.outbound


def test_compaction_knobs_and_reconciliation():
    """Tunable compaction keeps queue_length == live + cancelled exact."""
    simulator = Simulator(compact_min_cancelled=8, compact_ratio=0.5)
    events = [simulator.schedule(1.0 + index * 1e-6, lambda: None) for index in range(100)]
    for event in events[:80]:
        event.cancel()
        assert (
            simulator.queue_length
            == simulator.pending_events + simulator._cancelled_in_queue
        )
    assert simulator.compactions >= 1
    assert simulator.pending_events == 20
    simulator.run_until_idle()
    assert simulator.queue_length == 0


def test_compaction_knob_validation():
    with pytest.raises(SimulationError):
        Simulator(compact_min_cancelled=-1)
    with pytest.raises(SimulationError):
        Simulator(compact_ratio=0.0)


# ---------------------------------------------------------------------- #
# cross-shard counter merge helpers
# ---------------------------------------------------------------------- #
def test_merge_counter_dicts():
    merged = merge_counter_dicts([{"b": 2, "a": 1}, {"a": 3, "c": 1.5}])
    assert merged == {"a": 4, "b": 2, "c": 1.5}
    assert list(merged) == ["a", "b", "c"]  # sorted, hash-seed independent


# ---------------------------------------------------------------------- #
# disconnected topologies (no cut edges, default-latency messaging)
# ---------------------------------------------------------------------- #
def _island_topology():
    """Two disconnected rings — cross-island messages use default latency."""
    from repro.net.topology import LinkSpec, Topology

    topology = Topology(name="islands")
    spec = LinkSpec(latency=0.002)
    for island in range(2):
        members = [f"i{island}_{index}" for index in range(5)]
        for node in members:
            topology.add_node(node)
        for index in range(len(members)):
            topology.add_link(members[index], members[(index + 1) % len(members)], spec)
    return topology


def test_disconnected_islands_exchange_no_route_messages():
    """Shards with *no* cut edges can still exchange (no-route) messages.

    The lookahead clamp must fall back to the network's default latency;
    without it a free-running shard would receive an envelope in its past.
    A ``link`` fact between the islands has no topology link under it, so
    the routes it derives cross the partition by the no-route latency.
    """
    partition = {f"i{island}_{index}": island for island in range(2) for index in range(5)}
    bridge = Fact("link", ("i0_0", "i1_4", 1))
    script = [(0.3, [ScriptOp("insert", fact=bridge)])]
    serial = ExspanNetwork(
        _island_topology(), mincost_program(), config=ExspanConfig(seed=0)
    )
    serial.seed_links()
    serial.run_to_fixpoint()
    apply_script_serial(serial, script)
    with ShardedExspanNetwork(
        _island_topology(),
        mincost_program(),
        shards=2,
        seed=0,
        partition=partition,
    ) as sharded:
        # No cut edge: the window is the network's no-route latency itself.
        assert sharded.lookahead == DEFAULT_LATENCY
        sharded.seed_links()
        sharded.run_to_fixpoint()
        sharded.run_script(script)
        summary = sharded.summary()
        digest = sharded.digest()
    assert summary == collect_summary(serial)
    assert digest == collect_digest(serial)
    crossed = [row for node, row in serial.tuples("bestPathCost") if node == "i1_4"]
    assert any(row[1].startswith("i0") for row in crossed)


# ---------------------------------------------------------------------- #
# parallelism accounting
# ---------------------------------------------------------------------- #
def test_parallelism_report_counts_every_event():
    serial = ExspanNetwork(_topology(), mincost_program(), config=ExspanConfig(seed=0))
    serial.seed_links()
    serial.run_to_fixpoint()
    with ShardedExspanNetwork(_topology(), mincost_program(), shards=4, seed=0) as sharded:
        sharded.seed_links()
        sharded.run_to_fixpoint()
        report = sharded.parallelism_report()
    assert report["events_total"] == serial.simulator.events_executed
    assert 0 < report["events_critical_path"] <= report["events_total"]
    # the windowed schedule admits real parallelism at 4 shards (3.9x here)
    assert report["attainable_speedup"] > 1.5
    assert report["windows"] == len(sharded.window_loads)
