"""Fault recovery across process boundaries.

The serial half of the fault subsystem is covered by test_faults.py.
This file exercises the parts that only exist once real processes are
involved: the sharded engine executing a fault plan inside its workers,
the supervisor SIGKILLing and reviving a shard worker from its command
log, and the service client's idempotent request retransmission against
a live server.
"""

from __future__ import annotations

import pytest

import repro.service.client
from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode
from repro.experiments.trials import chaos_topology
from repro.faults import convergence_digest
from repro.net.sharding import ShardedExspanNetwork
from repro.net.topology import ring_topology
from repro.protocols import mincost_program
from repro.service import ServiceClient, ServiceThread

SIZE = 6


@pytest.fixture(scope="module")
def reference():
    """Convergence digest of the fault-free serial run (the oracle)."""
    network = ExspanNetwork(
        chaos_topology(SIZE, seed=0),
        mincost_program(),
        config=ExspanConfig(mode=ProvenanceMode.REFERENCE, seed=0),
    )
    network.seed_links()
    network.run_to_fixpoint()
    return convergence_digest(network)


def run_sharded(faults=None):
    with ShardedExspanNetwork(
        chaos_topology(SIZE, seed=0),
        mincost_program(),
        mode=ProvenanceMode.REFERENCE,
        shards=2,
        seed=0,
        faults=faults,
    ) as sharded:
        sharded.seed_links()
        sharded.run_to_fixpoint()
        return (
            sharded.convergence_digest(),
            sharded.supervisor_stats(),
            sharded.fault_stats(),
        )


# ---------------------------------------------------------------------- #
# fault plans executed inside shard workers
# ---------------------------------------------------------------------- #
class TestShardedConvergence:
    def test_drops_converge_across_shards(self, reference):
        digest, _, stats = run_sharded("seed=3; attempts=8; drop:*->*:p=0.25,n=20")
        assert stats["drops"] > 0
        assert stats["retransmits"] > 0
        assert digest == reference

    def test_crash_restart_converges_across_shards(self, reference):
        digest, _, stats = run_sharded("attempts=8; crash:n1@0.001:restart=0.02")
        assert stats["crashes"] == 1
        assert stats["restarts"] == 1
        assert digest == reference

    def test_sharded_run_is_bit_reproducible(self):
        spec = "seed=7; attempts=8; drop:*->*:p=0.2,n=15; delay:*->*:p=0.2,d=0.003"
        first, _, first_stats = run_sharded(spec)
        second, _, second_stats = run_sharded(spec)
        assert first == second
        assert first_stats == second_stats


# ---------------------------------------------------------------------- #
# supervisor: SIGKILL between barrier windows, revive, replay
# ---------------------------------------------------------------------- #
class TestWorkerSupervision:
    def test_sigkilled_worker_is_revived_and_converges(self, reference):
        digest, stats, _ = run_sharded("attempts=8; killworker:1@1")
        assert stats["workers_killed"] >= 1
        assert stats["restarts"] >= 1
        assert stats["logged_commands"] > 0
        assert digest == reference

    def test_kill_plan_forces_supervision_on(self, reference):
        # Supervision follows the plan: a kill plan is unsurvivable without it.
        digest, stats, _ = run_sharded("attempts=8; killworker:0@1")
        assert stats["supervised"] == 1
        assert stats["workers_killed"] >= 1
        assert digest == reference

    def test_unsupervised_runs_log_nothing(self, reference):
        digest, stats, _ = run_sharded()
        assert stats == {
            "supervised": 0,
            "restarts": 0,
            "workers_killed": 0,
            "logged_commands": 0,
        }
        assert digest == reference


# ---------------------------------------------------------------------- #
# service client: bounded retry, reconnect, idempotent retransmission
# ---------------------------------------------------------------------- #
def service_network():
    network = ExspanNetwork(
        ring_topology(5, seed=0), mincost_program(), config=ExspanConfig(seed=0)
    )
    network.seed_links()
    network.run_to_fixpoint()
    return network


QUERY = {
    "fact": {"name": "bestPathCost", "values": ["n0", "n1", 1]},
    "spec": {"kind": "derivations"},
}


class TestClientResilience:
    def test_connect_gives_up_after_bounded_attempts(self, monkeypatch):
        monkeypatch.setattr(repro.service.client, "CONNECT_ATTEMPTS", 2)
        monkeypatch.setattr(repro.service.client, "CONNECT_BACKOFF", 0.001)
        with pytest.raises(ConnectionError, match="after 2 attempts"):
            ServiceClient("127.0.0.1", 1)

    def test_retransmitted_request_is_replayed_not_reexecuted(self):
        with ServiceThread(service_network()) as service:
            with ServiceClient(*service.address) as client:
                request = client._request("query", QUERY)
                first = client._request_once(request)
                # Same client id + request id again: the server must hand
                # back the cached response instead of re-running the query.
                second = client._request_once(request)
                assert first == second
                assert service._server.idempotent_replays == 1

    def test_broken_connection_redials_and_retries_same_id(self):
        with ServiceThread(service_network()) as service:
            with ServiceClient(*service.address) as client:
                before = client.call("query", **QUERY)
                # Sever the transport underneath the client; the next call
                # must redial and retransmit rather than surface an OSError.
                client._sock.close()
                after = client.call("query", **QUERY)
                assert client.reconnects == 1
                # A fresh request id means a fresh engine query id in the
                # meta block; the result body must be unchanged.
                def strip(payload):
                    return {k: v for k, v in payload.items() if k != "meta"}

                assert strip(after) == strip(before)

    def test_client_id_is_stable_across_reconnects(self):
        with ServiceThread(service_network()) as service:
            with ServiceClient(*service.address) as client:
                identity = client.client_id
                client._sock.close()
                client._reconnect()
                assert client.client_id == identity
