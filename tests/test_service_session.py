"""Service equivalence gate: concurrent socket clients vs in-process calls.

The paper-level contract of the always-on service: putting a socket and
an event loop between the operator and the engine changes *nothing*
about query results.  Four concurrent clients issuing interleaved
queries must observe results whose canonical bytes (VIDs, annotations,
derivation order) are identical to the same queries executed serially
in-process on an identically constructed network.
"""

import gc
import threading
import warnings

import pytest

from repro.core.api import ExspanNetwork
from repro.core.config import ExspanConfig
from repro.core.requests import QueryRequest, QueryResult, SpecDescriptor
from repro.net.topology import ring_topology
from repro.protocols.mincost import mincost_program
from repro.service import ServiceClient, ServiceThread

SPECS = [
    SpecDescriptor(kind="polynomial"),
    SpecDescriptor(kind="polynomial", traversal="dfs"),
    SpecDescriptor(kind="polynomial", max_depth=3),
    SpecDescriptor(kind="nodeset"),
    SpecDescriptor(kind="derivations"),
    SpecDescriptor(kind="derivability"),
]


def _network():
    network = ExspanNetwork(
        ring_topology(6, seed=0), mincost_program(), config=ExspanConfig(seed=0)
    )
    network.seed_links()
    network.run_to_fixpoint()
    return network


def _requests(network):
    """A deterministic mixed workload: every bestPathCost fact x every spec."""
    facts = sorted(
        (node, values) for node, values in network.tuples("bestPathCost")
    )[:8]
    requests = []
    for index, (node, values) in enumerate(facts):
        spec = SPECS[index % len(SPECS)]
        requests.append(
            {
                "fact": {"name": "bestPathCost", "values": list(values)},
                "spec": spec.to_dict(),
            }
        )
    return requests


@pytest.fixture(scope="module")
def serial_bodies():
    """Ground truth: the same workload executed serially in-process."""
    network = _network()
    bodies = {}
    for request in _requests(network):
        result = network.execute(QueryRequest.from_dict(request))
        key = (result.fact["name"], tuple(request["fact"]["values"]), result.spec)
        bodies[key] = result.canonical_bytes()
    return bodies


def _client_worker(address, requests, barrier, outputs, index):
    with ServiceClient(*address) as client:
        barrier.wait(timeout=30)
        collected = []
        # Each client walks the workload from a different offset so the
        # interleaving across clients is genuinely mixed.
        for step in range(len(requests)):
            request = requests[(index + step) % len(requests)]
            payload = client.call("query", **request)
            collected.append((request, payload))
        outputs[index] = collected


def test_concurrent_clients_byte_identical_to_serial(serial_bodies):
    network = _network()
    requests = _requests(network)
    client_count = 4
    with ServiceThread(network) as service:
        barrier = threading.Barrier(client_count)
        outputs = [None] * client_count
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(service.address, requests, barrier, outputs, index),
            )
            for index in range(client_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "client thread wedged"

    checked = 0
    for collected in outputs:
        assert collected is not None, "a client produced no output"
        for request, payload in collected:
            result = QueryResult.from_dict(payload)
            key = (
                result.fact["name"],
                tuple(request["fact"]["values"]),
                result.spec,
            )
            assert result.canonical_bytes() == serial_bodies[key]
            checked += 1
    # 4 clients x 8 requests each: the whole matrix was exercised.
    assert checked == client_count * len(requests)


def test_single_client_matches_in_process(serial_bodies):
    network = _network()
    requests = _requests(network)
    with ServiceThread(network) as service:
        with ServiceClient(*service.address) as client:
            for request in requests:
                payload = client.call("query", **request)
                result = QueryResult.from_dict(payload)
                key = (
                    result.fact["name"],
                    tuple(request["fact"]["values"]),
                    result.spec,
                )
                assert result.canonical_bytes() == serial_bodies[key]


def test_mutations_visible_across_clients():
    """One client's insert is visible to another client's query."""
    network = _network()
    with ServiceThread(network) as service:
        with (
            ServiceClient(*service.address) as writer,
            ServiceClient(*service.address) as reader,
        ):
            before = {tuple(row) for _, row in network_rows(reader, "link")}
            writer.call("insert", fact={"name": "link", "values": ["n0", "n3", 7]})
            writer.call("fixpoint")
            after = {tuple(row) for _, row in network_rows(reader, "link")}
            assert ("n0", "n3", 7) not in before
            assert ("n0", "n3", 7) in after
            writer.call("delete", fact={"name": "link", "values": ["n0", "n3", 7]})
            writer.call("fixpoint")
            final = {tuple(row) for _, row in network_rows(reader, "link")}
            assert ("n0", "n3", 7) not in final


def test_prov_replies_equal_the_whole_graph_rendering_through_churn():
    """``prov`` walks from the root; its bytes are the whole-graph oracle's."""
    network = _network()
    link = {"name": "link", "values": ["n0", "n3", 7]}

    def check(client):
        # Closed loop: the server is idle between calls, so this thread may
        # read the network it hosts.
        whole = network.provenance_graph()
        for table in ("bestPathCost", "link"):
            for _, values in network.tuples(table):
                fact = {"name": table, "values": list(values)}
                for depth in (1, 3, 8):
                    reply = client.call("prov", fact=fact, depth=depth)
                    assert reply["tree"] == whole.to_text_tree(reply["vid"], max_depth=depth)

    with ServiceThread(network) as service:
        with ServiceClient(*service.address) as client:
            check(client)
            client.call("insert", fact=link)
            client.call("fixpoint")
            check(client)
            client.call("delete", fact=link)
            client.call("fixpoint")
            check(client)


def network_rows(client, table):
    return [(node, tuple(values)) for node, values in client.call("tuples", table=table)["rows"]]


def test_stats_and_metrics_snapshots_are_detached():
    """Satellite gate: snapshot ops hand back deep copies, not live state."""
    network = _network()
    live = network.stats
    snap = network.stats_snapshot()
    snap["messages_sent"] = -1
    snap.setdefault("kind_totals", {}).clear()
    assert live.snapshot()["messages_sent"] != -1
    assert network.stats_snapshot()["kind_totals"]

    metrics = network.metrics_snapshot()
    metrics["counters"].clear()
    assert network.metrics_snapshot()["counters"]


def test_per_request_spans_get_fresh_traces():
    """Each wire request is a root span in its own trace (obs integration)."""
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    network = ExspanNetwork(
        ring_topology(4, seed=0),
        mincost_program(),
        config=ExspanConfig(seed=0),
        tracer=tracer,
    )
    network.seed_links()
    network.run_to_fixpoint()
    with ServiceThread(network) as service:
        with ServiceClient(*service.address) as client:
            client.call("ping")
            client.call(
                "query",
                fact={"name": "bestPathCost", "values": ["n0", "n1", 1]},
                spec={"kind": "polynomial"},
            )
    request_spans = [
        span for span in tracer.spans if span.cat == "service" and span.name.startswith("service.")
    ]
    names = {span.name for span in request_spans}
    assert "service.ping" in names
    assert "service.query" in names
    trace_ids = [span.trace_id for span in request_spans]
    assert len(trace_ids) == len(set(trace_ids)), "requests must not share a trace"
    assert all(span.parent_id is None for span in request_spans), "request spans are roots"


def test_graceful_shutdown_drains():
    """A shutdown request stops the server; clients get a clean close."""
    network = _network()
    service = ServiceThread(network)
    service.start()
    with ServiceClient(*service.address) as client:
        assert client.call("ping")["now"] >= 0
        assert client.shutdown_server()["stopping"] is True
    service.stop()
    with pytest.raises(OSError):
        ServiceClient(*service.address, timeout=2)


def _shutdown_then_stop(forced_window: bool) -> None:
    network = ExspanNetwork(
        ring_topology(3, seed=0), mincost_program(), config=ExspanConfig(seed=0)
    )
    service = ServiceThread(network)
    service.start()
    with ServiceClient(*service.address) as client:
        assert client.shutdown_server()["stopping"] is True
    if forced_window:
        # The worst interleaving, made deterministic: the loop is closed but
        # stop() still believes the thread is alive.
        service._thread.join(timeout=30)
        assert service._loop.is_closed()
        service._thread.is_alive = lambda: True
    service.stop()
    assert not threading.Thread.is_alive(service._thread)


def test_stop_after_client_shutdown_never_races():
    """``stop()`` after a client-initiated shutdown: no error, nothing unawaited.

    The shutdown op closes the event loop on the service thread while the
    embedding thread calls ``stop()``; whichever wins, ``stop()`` must
    return quietly and leave no ``ServiceServer.stop`` coroutine behind.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for round_ in range(50):
            _shutdown_then_stop(forced_window=round_ % 10 == 0)
        gc.collect()
    unawaited = [w for w in caught if "never awaited" in str(w.message)]
    assert not unawaited, [str(w.message) for w in unawaited]
