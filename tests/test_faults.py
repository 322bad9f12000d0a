"""The deterministic fault-injection subsystem (serial engine).

Covers the plan grammar and its round-trips, the empty-plan byte-identity
contract, the convergence oracle (every quiescing fault plan yields final
protocol tables digest-identical to the fault-free run), graceful
degradation of deadline-bounded queries into explicit partial results,
and the simulator's tombstone bookkeeping under mass cancellation.
Sharded/worker fault paths live in test_fault_recovery.py.
"""

from __future__ import annotations

import pytest

from paper_example import figure3_topology
from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode
from repro.core.errors import ProvenanceError
from repro.core.requests import QueryRequest, SpecDescriptor
from repro.datalog import Fact
from repro.faults import (
    CrashFault,
    FaultPlan,
    LinkFault,
    convergence_digest,
    parse_fault_spec,
)
from repro.net.sharding import collect_digest, collect_summary
from repro.net.simulator import Simulator
from repro.protocols import mincost_program
from helpers import cancelled


def build_network(faults=None) -> ExspanNetwork:
    network = ExspanNetwork(
        figure3_topology(),
        mincost_program(),
        config=ExspanConfig(mode=ProvenanceMode.REFERENCE),
    )
    if faults is not None:
        network.install_faults(faults)
    return network


def run_fixpoint(faults=None) -> ExspanNetwork:
    network = build_network(faults)
    network.seed_links()
    network.run_to_fixpoint()
    return network


# ---------------------------------------------------------------------- #
# plan grammar
# ---------------------------------------------------------------------- #
class TestPlanParsing:
    def test_link_fault_clause(self):
        plan = parse_fault_spec("seed=9; drop:a->b:p=0.5,n=3,from=0.1,until=2.0")
        assert plan.seed == 9
        fault = plan.link_faults[0]
        assert fault == LinkFault(
            kind="drop", src="a", dst="b", prob=0.5, max_events=3, start=0.1, end=2.0
        )
        assert fault.matches("a", "b", 1.0)
        assert not fault.matches("b", "a", 1.0)
        assert not fault.matches("a", "b", 3.0)

    def test_wildcard_edges(self):
        plan = parse_fault_spec("dup:*->*:p=0.25")
        fault = plan.link_faults[0]
        assert fault.src is None and fault.dst is None
        assert fault.matches("x", "y", 0.0)

    def test_crash_flap_straggler_kill_clauses(self):
        plan = parse_fault_spec(
            "crash:b@0.5:restart=1.0; flap:a-b@0.2:up=0.3,cost=7; "
            "straggler:c:d=0.01; killworker:1@2"
        )
        assert plan.crashes == (CrashFault(node="b", at=0.5, restart_after=1.0),)
        flap = plan.flaps[0]
        assert (flap.a, flap.b, flap.down_at, flap.up_after, flap.cost) == (
            "a", "b", 0.2, 0.3, 7
        )
        straggler = plan.stragglers[0]
        assert (straggler.node, straggler.delay) == ("c", 0.01)
        kill = plan.worker_kills[0]
        assert (kill.shard, kill.after_windows) == (1, 2)

    def test_describe_reparses_to_the_same_plan(self):
        text = (
            "seed=4; rto=0.1; attempts=6; drop:a->*:p=0.3,n=5; "
            "delay:*->b:p=0.2,d=0.004; crash:c@0.5:restart=1.0; "
            "flap:a-b@0.2:up=0.3; straggler:d:d=0.002"
        )
        plan = parse_fault_spec(text)
        assert parse_fault_spec(plan.describe()) == plan

    def test_empty_plan(self):
        assert FaultPlan.empty().is_empty()
        assert parse_fault_spec("").is_empty()
        assert parse_fault_spec("seed=7").is_empty()
        assert not parse_fault_spec("drop:*->*:p=0.1").is_empty()

    @pytest.mark.parametrize(
        "text",
        [
            "explode:a->b:p=1",
            "drop:a->b:p=2.0",
            "drop:nonsense",
            "flap:a-b@0.2",
            "crash:@1",
            "drop:a->b:p=0.1,zz=3",
        ],
    )
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_fault_spec(text)


# ---------------------------------------------------------------------- #
# installation and the empty-plan identity contract
# ---------------------------------------------------------------------- #
class TestInstallation:
    def test_empty_plan_is_byte_identical_to_no_plan(self):
        plain = run_fixpoint()
        empty = build_network()
        assert empty.install_faults(FaultPlan.empty()) is None
        assert empty.fault_injector is None
        empty.seed_links()
        empty.run_to_fixpoint()
        # Full digests (tables, annotations, counters) — identity by
        # construction, not convergence-up-to-retransmits.
        assert collect_digest(empty) == collect_digest(plain)
        assert collect_summary(empty) == collect_summary(plain)

    def test_double_install_rejected(self):
        network = build_network("drop:*->*:p=0.1")
        with pytest.raises(ProvenanceError):
            network.install_faults("drop:*->*:p=0.2")

    def test_install_accepts_spec_strings_and_plans(self):
        by_string = build_network("drop:a->b:p=0.5")
        by_plan = build_network(parse_fault_spec("drop:a->b:p=0.5"))
        assert by_string.fault_injector.plan == by_plan.fault_injector.plan

    def test_metrics_snapshot_carries_fault_counters(self):
        network = run_fixpoint("seed=3; attempts=8; drop:*->*:p=0.3,n=10")
        counters = network.metrics_snapshot()["counters"]
        assert counters["fault.drops"] > 0
        assert counters["fault.retransmits"] > 0


# ---------------------------------------------------------------------- #
# the convergence oracle, one fault class at a time
# ---------------------------------------------------------------------- #
class TestConvergence:
    @pytest.fixture(scope="class")
    def reference(self):
        return convergence_digest(run_fixpoint())

    def test_drops_converge_and_retransmit(self, reference):
        network = run_fixpoint("seed=3; attempts=8; drop:*->*:p=0.3,n=12")
        stats = network.fault_injector.stats()
        assert stats["drops"] > 0
        assert stats["retransmits"] >= stats["drops"]
        assert convergence_digest(network) == reference

    def test_duplicates_converge_and_are_suppressed(self, reference):
        network = run_fixpoint("seed=5; dup:*->*:p=0.4,n=10")
        stats = network.fault_injector.stats()
        assert stats["duplicates"] > 0
        # `duplicates` counts every cloned frame (acks included);
        # `dup_suppressed` only the app-level deliveries the receiver's
        # sequence tracking had to reject, so the two are not comparable.
        assert stats["dup_suppressed"] > 0
        assert convergence_digest(network) == reference

    def test_delays_and_reorders_converge(self, reference):
        network = run_fixpoint("seed=8; delay:*->*:p=0.4,d=0.01")
        assert network.fault_injector.stats()["delays"] > 0
        assert convergence_digest(network) == reference

    def test_stragglers_converge(self, reference):
        network = run_fixpoint("straggler:b:d=0.005")
        assert convergence_digest(network) == reference

    def test_crash_restart_converges(self, reference):
        network = run_fixpoint("attempts=8; crash:c@0.0015:restart=0.02")
        stats = network.fault_injector.stats()
        assert stats["crashes"] == 1
        assert stats["restarts"] == 1
        assert stats["replayed_entries"] > 0
        assert convergence_digest(network) == reference

    def test_a_restarted_node_still_answers_an_installed_spec(self):
        """The network installs a spec once; a rebuilt node gets it back."""
        descriptor = SpecDescriptor(kind="polynomial")
        network = build_network("attempts=8; crash:c@0.0015:restart=0.02")
        network.register_spec(descriptor)
        network.seed_links()
        network.run_to_fixpoint()
        assert network.fault_injector.stats()["restarts"] == 1
        fault_free = run_fixpoint()
        rows = [row for _, row in fault_free.tuples("bestPathCost") if row[0] == "c"]
        assert rows
        for row, issuer in zip(rows, ("a", "c") * len(rows)):
            request = QueryRequest(fact=Fact("bestPathCost", row), spec=descriptor, issuer=issuer)
            assert network.execute(request).canonical_bytes() == (
                fault_free.execute(request).canonical_bytes()
            )

    def test_flap_converges_and_restores_cost(self, reference):
        network = run_fixpoint("attempts=8; flap:a-b@0.001:up=0.01")
        stats = network.fault_injector.stats()
        assert stats["flaps_down"] == 1
        assert stats["flaps_up"] == 1
        assert network.topology.link("a", "b").cost == 3
        assert convergence_digest(network) == reference

    def test_everything_at_once_converges(self, reference):
        network = run_fixpoint(
            "seed=11; attempts=10; drop:*->*:p=0.2,n=10; dup:*->*:p=0.2,n=10; "
            "delay:*->*:p=0.2,d=0.003; crash:d@0.002:restart=0.03; "
            "straggler:b:d=0.001"
        )
        assert convergence_digest(network) == reference

    def test_same_plan_is_bit_reproducible(self):
        spec = "seed=3; attempts=8; drop:*->*:p=0.3,n=12; delay:*->*:p=0.2,d=0.002"
        first = run_fixpoint(spec)
        second = run_fixpoint(spec)
        assert first.fault_injector.stats() == second.fault_injector.stats()
        assert collect_digest(first) == collect_digest(second)


# ---------------------------------------------------------------------- #
# graceful degradation: deadlines, partial results, explicit frontier
# ---------------------------------------------------------------------- #
class TestPartialResults:
    def _query(self, network, deadline=None, fact=("a", "d", 8)):
        return network.execute(
            QueryRequest(
                fact=Fact("bestPathCost", fact),
                spec=SpecDescriptor(kind="derivations"),
                issuer="a",
                deadline=deadline,
            )
        )

    def test_unreachable_target_degrades_to_partial(self):
        network = run_fixpoint("attempts=3; crash:d@0.0005")
        # The queried fact is homed at the crashed node, so the root
        # provQuery can never be answered and the deadline must convert
        # the hang into an explicit partial result.
        result = self._query(network, deadline=2.0, fact=("d", "a", 8))
        assert result.partial
        assert result.unresolved
        # The frontier names the node the resolution was waiting on.
        assert any("d" in entry[0] for entry in result.unresolved)
        stats = network.node("a").query_service.query_stats()
        assert stats["deadline_expirations"] == 1

    def test_partial_flag_round_trips_the_wire(self):
        network = run_fixpoint("attempts=3; crash:d@0.0005")
        payload = self._query(network, deadline=2.0, fact=("d", "a", 8)).to_dict()
        assert payload["partial"] is True
        assert payload["unresolved"]

    def test_complete_results_omit_partial_keys(self):
        network = run_fixpoint()
        result = self._query(network, deadline=50.0)
        assert not result.partial
        assert result.unresolved == ()
        payload = result.to_dict()
        assert "partial" not in payload
        assert "unresolved" not in payload

    def test_deadline_met_is_not_partial(self):
        network = run_fixpoint("seed=3; attempts=8; drop:*->*:p=0.2,n=6")
        result = self._query(network, deadline=50.0)
        assert not result.partial


# ---------------------------------------------------------------------- #
# simulator tombstones under mass cancellation (the injector's timers)
# ---------------------------------------------------------------------- #
class TestTombstoneCompaction:
    def test_queue_length_is_live_plus_cancelled(self):
        simulator = Simulator()
        events = [simulator.schedule(1.0 + i * 1e-6, lambda: None) for i in range(500)]
        assert simulator.queue_length == simulator.pending_events == 500
        for index, event in enumerate(events):
            if index % 5 != 0:
                event.cancel()
            assert (
                simulator.queue_length
                == simulator.pending_events + simulator._cancelled_in_queue
            )
        assert simulator.pending_events == 100

    def test_mass_cancellation_triggers_compaction(self):
        simulator = Simulator(compact_min_cancelled=64, compact_ratio=1.0)
        for _ in range(20):
            events = [
                simulator.schedule(1.0 + i * 1e-6, lambda: None) for i in range(200)
            ]
            for event in events[:-1]:
                event.cancel()
        assert simulator.compactions > 0
        # The heap is bounded by the live events, not the cancel history.
        assert simulator.queue_length < 1000
        assert simulator.pending_events == 20

    def test_cancelled_events_never_fire(self):
        simulator = Simulator()
        fired = []
        keep = simulator.schedule(1.0, lambda: fired.append("keep"))
        drop = simulator.schedule(0.5, lambda: fired.append("drop"))
        drop.cancel()
        simulator.run_until_idle()
        assert fired == ["keep"]
        assert not cancelled(keep)
        assert simulator.queue_length == 0
