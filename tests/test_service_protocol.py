"""Wire-protocol robustness: framing, handshake, and hostile clients.

Everything here talks raw sockets on purpose — the point is to verify
the server's behavior against inputs :class:`ServiceClient` would never
send: malformed frames, truncated frames, oversized length prefixes,
unknown ops, and mid-request disconnects.
"""

import json
import socket
import struct

import pytest

from repro.core.config import ExspanConfig
from repro.core.customizations import polynomial_query
from repro.core.errors import QueryError
from repro.core.requests import QueryRequest, SpecDescriptor
from repro.datalog.ast import Fact
from repro.faults.oracle import convergence_digest
from repro.net.errors import NetworkError, NoRouteError, SimulationError, UnknownNodeError
from repro.net.topology import ring_topology
from repro.service.protocol import ERROR_CODES
from repro.protocols.mincost import mincost_program
from repro.core.api import ExspanNetwork
from repro.service import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    ProtocolError,
    ServiceClient,
    ServiceError,
    ServiceThread,
    encode_frame,
    recv_frame,
    send_frame,
)


def converged_ring():
    network = ExspanNetwork(
        ring_topology(4, seed=0), mincost_program(), config=ExspanConfig(seed=0)
    )
    network.seed_links()
    network.run_to_fixpoint()
    return network


@pytest.fixture(scope="module")
def service():
    with ServiceThread(converged_ring()) as thread:
        yield thread


@pytest.fixture
def raw(service):
    sock = socket.create_connection(service.address, timeout=30)
    try:
        greeting = recv_frame(sock)
        assert greeting["type"] == "greeting"
        yield sock
    finally:
        sock.close()


LINK = {"name": "link", "values": ["n0", "n1", 1]}


def _hello(sock):
    send_frame(sock, {"id": 0, "op": "hello", "params": {"protocol": PROTOCOL_VERSION}})
    response = recv_frame(sock)
    assert response["ok"], response
    return response


class TestFraming:
    def test_encode_decode_round_trip(self):
        frame = encode_frame({"id": 1, "op": "ping", "params": {}})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(FrameError):
            encode_frame({"blob": "x" * 64}, max_frame=32)

    def test_protocol_error_requires_known_code(self):
        with pytest.raises(ValueError):
            ProtocolError("not-a-real-code", "nope")

    @pytest.mark.parametrize(
        "error, details",
        [
            (NetworkError("down"), {}),
            (UnknownNodeError("zz"), {"node": "zz"}),
            (NoRouteError("a", 7), {"source": "a", "destination": "7"}),
            (SimulationError("late", time=2.0, safe_time=3.5), {"time": 2.0, "safe_time": 3.5}),
        ],
        ids=["network-error", "unknown-node", "no-route", "simulation-error"],
    )
    def test_network_errors_map_to_wire_codes_with_json_details(self, error, details):
        """The server sends a NetworkError as ``ProtocolError(exc.code)`` plus
        ``exc.details()``: the code must be on the wire and the details JSON."""
        assert error.code in ERROR_CODES
        assert ProtocolError(error.code, str(error)).code == error.code
        assert error.details() == details
        assert json.loads(json.dumps(error.details())) == details

    def test_malformed_json_frame_gets_bad_frame_error(self, raw):
        _hello(raw)
        body = b"this is not json"
        raw.sendall(struct.pack(">I", len(body)) + body)
        response = recv_frame(raw)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-frame"

    def test_non_object_json_frame_rejected(self, raw):
        _hello(raw)
        body = b'["a", "list"]'
        raw.sendall(struct.pack(">I", len(body)) + body)
        response = recv_frame(raw)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-frame"

    def test_oversized_length_prefix_rejected(self, raw):
        _hello(raw)
        raw.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        response = recv_frame(raw)
        assert response["ok"] is False
        assert response["error"]["code"] == "frame-too-large"

    def test_truncated_frame_then_disconnect(self, service):
        """A client dying mid-frame must not wedge the server."""
        sock = socket.create_connection(service.address, timeout=30)
        recv_frame(sock)
        sock.sendall(struct.pack(">I", 1024) + b'{"id"')  # promised 1024, sent 6
        sock.close()
        # The server must still serve the next client normally.
        with ServiceClient(*service.address) as client:
            assert client.call("ping")["now"] >= 0

    def test_mid_request_disconnect_during_query(self, service):
        """Disconnecting right after sending a request must not wedge others."""
        sock = socket.create_connection(service.address, timeout=30)
        recv_frame(sock)
        send_frame(sock, {"id": 0, "op": "hello", "params": {"protocol": PROTOCOL_VERSION}})
        recv_frame(sock)
        send_frame(
            sock,
            {
                "id": 1,
                "op": "query",
                "params": {
                    "fact": {"name": "bestPathCost", "values": ["n0", "n1", 1]},
                    "spec": {"kind": "polynomial"},
                },
            },
        )
        sock.close()  # gone before the response lands
        with ServiceClient(*service.address) as client:
            result = client.call(
                "query",
                fact={"name": "bestPathCost", "values": ["n0", "n1", 1]},
                spec={"kind": "polynomial"},
            )
            assert result["annotation"]["kind"] == "polynomial"


class TestHandshake:
    def test_greeting_carries_protocol_and_network_info(self, service):
        with ServiceClient(*service.address) as client:
            assert client.greeting["protocol"] == PROTOCOL_VERSION
            assert client.greeting["network"]["node_count"] == 4
            assert client.hello["ops"]  # op catalogue advertised

    def test_wrong_protocol_version_rejected(self, raw):
        send_frame(raw, {"id": 0, "op": "hello", "params": {"protocol": 999}})
        response = recv_frame(raw)
        assert response["ok"] is False
        assert response["error"]["code"] == "unsupported-protocol"

    def test_request_before_hello_rejected(self, raw):
        send_frame(raw, {"id": 7, "op": "ping", "params": {}})
        response = recv_frame(raw)
        assert response["ok"] is False
        assert response["error"]["code"] == "handshake-required"
        assert response["id"] == 7


class TestRequests:
    def test_unknown_op(self, service):
        with ServiceClient(*service.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("frobnicate")
            assert excinfo.value.code == "unknown-op"

    def test_missing_id_is_bad_request(self, raw):
        _hello(raw)
        send_frame(raw, {"op": "ping", "params": {}})
        response = recv_frame(raw)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"

    def test_non_object_params_is_bad_request(self, raw):
        _hello(raw)
        send_frame(raw, {"id": 1, "op": "ping", "params": [1, 2]})
        response = recv_frame(raw)
        assert response["error"]["code"] == "bad-request"

    def test_bad_query_params_surface_as_query_error(self, service):
        with ServiceClient(*service.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("tuples", table="nonexistent")
            assert excinfo.value.code == "query-error"

    @pytest.mark.parametrize(
        "op, params",
        [
            ("prov", {"fact": LINK, "depth": True}),
            ("query", {"fact": LINK, "spec": {"kind": "polynomial"}, "max_events": True}),
        ],
    )
    def test_boolean_is_not_a_count(self, service, op, params):
        """``isinstance(True, int)`` holds; ``true`` is still not a depth or a budget."""
        with ServiceClient(*service.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call(op, **params)
            assert excinfo.value.code == "bad-request"

    def test_prov_depth_bounds_the_walk_not_the_work(self, service):
        """A huge ``depth`` is legal and costs the derivation subtree, not the bound."""
        with ServiceClient(*service.address, timeout=30) as client:
            _, values = client.call("tuples", table="bestPathCost")["rows"][0]
            fact = {"name": "bestPathCost", "values": values}
            deep = client.call("prov", fact=fact, depth=1000000)
            assert deep["tree"] == client.call("prov", fact=fact, depth=64)["tree"]
            assert "rule " in deep["tree"]

    def test_bad_fact_payload(self, service):
        with ServiceClient(*service.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("insert", fact={"values": [1]})  # no name
            assert excinfo.value.code in ("bad-request", "query-error")

    def test_response_ids_echo_requests(self, raw):
        _hello(raw)
        for request_id in (5, "abc", 17):
            send_frame(raw, {"id": request_id, "op": "ping", "params": {}})
            response = recv_frame(raw)
            assert response["id"] == request_id
            assert response["ok"] is True


class TestSpecNames:
    """One name, one spec: a descriptor cannot take over another's name."""

    COUNT = {"kind": "derivations", "name": "polynomial"}

    def test_in_process(self):
        network = converged_ring()
        _, row = network.tuples("bestPathCost")[0]
        fact = Fact("bestPathCost", row)

        def ask(spec):
            return network.execute(QueryRequest(fact=fact, spec=spec))

        counted = ask(SpecDescriptor.from_dict(self.COUNT))
        assert counted.annotation["kind"] == "int"
        with pytest.raises(QueryError):
            ask(SpecDescriptor(kind="polynomial"))
        # An equal descriptor shares the spec.
        assert ask(SpecDescriptor.from_dict(self.COUNT)).canonical_bytes() == (
            counted.canonical_bytes()
        )
        # A live spec still replaces whatever its name held; the descriptor
        # is installed again when next asked for.
        network.register_spec(polynomial_query(name="polynomial"))
        assert ask("polynomial").annotation["kind"] == "polynomial"
        assert ask(SpecDescriptor.from_dict(self.COUNT)).canonical_bytes() == (
            counted.canonical_bytes()
        )

    def test_over_the_wire(self):
        with ServiceThread(converged_ring()) as thread:
            with ServiceClient(*thread.address) as client:
                _, values = client.call("tuples", table="bestPathCost")["rows"][0]
                fact = {"name": "bestPathCost", "values": values}
                assert client.call("register_spec", spec=self.COUNT)["name"] == "polynomial"
                counted = client.call("query", fact=fact, spec="polynomial")
                assert counted["annotation"]["kind"] == "int"
                with pytest.raises(ServiceError) as excinfo:
                    client.call("query", fact=fact, spec={"kind": "polynomial"})
                assert excinfo.value.code == "query-error"
                with pytest.raises(ServiceError) as excinfo:
                    client.call("register_spec", spec={"kind": "polynomial"})
                assert excinfo.value.code == "query-error"
                again = client.call("query", fact=fact, spec=self.COUNT)
                assert again["annotation"] == counted["annotation"]


class TestFaultsOp:
    """The ``faults`` op: install a plan over the wire, then check convergence."""

    @staticmethod
    def _ring(converge):
        network = ExspanNetwork(
            ring_topology(6, seed=0), mincost_program(), config=ExspanConfig(seed=0)
        )
        if converge:
            network.seed_links()
            network.run_to_fixpoint()
        return network

    def test_install_converge_digest_and_refusals(self):
        expected = convergence_digest(self._ring(converge=True))
        with ServiceThread(self._ring(converge=False)) as thread:
            with ServiceClient(*thread.address) as client:
                before = client.call("faults")
                assert before == {"installed": False, "plan": None, "stats": {}}
                installed = client.call("faults", plan="drop:*->*:p=0.2")
                assert installed["installed"] is True
                assert installed["plan"]
                for source, destination, cost in ring_topology(6, seed=0).link_facts():
                    link = {"name": "link", "values": [source, destination, cost]}
                    client.call("insert", fact=link)
                client.call("fixpoint")
                after = client.call("faults", digest=True)
                assert after["stats"]["drops"] > 0 and after["stats"]["pending_retransmits"] == 0
                assert after["convergence"] == expected
                with pytest.raises(ServiceError) as excinfo:
                    client.call("faults", plan="drop:*->*:p=0.5")
                assert excinfo.value.code == "query-error"
                with pytest.raises(ServiceError) as excinfo:
                    client.call("faults", plan=7)
                assert excinfo.value.code == "bad-request"
                # A refused install leaves the first plan in place.
                assert client.call("faults")["plan"] == installed["plan"]


def test_decode_fact_freezes_nested_lists_and_finds_the_vid_memo():
    """A PATHVECTOR fact from the wire is the engine's fact: its path is a
    tuple again, so its VID is a hit in the ``f_sha1`` memo; the encoded
    bytes do not change."""
    from repro.core.requests import canonical_json, decode_fact, encode_fact
    from repro.core.vid import clear_vid_caches, fact_vid
    from repro.datalog.functions import sha1_cache_stats

    fact = Fact("bestPath", ("n0", "n3", 3, ("n0", "n1", ("n2", "n3"))))
    wire = json.loads(canonical_json(encode_fact(fact)))
    decoded = decode_fact(wire)
    assert decoded == fact and decoded.location_index == 0
    assert canonical_json(encode_fact(decoded)) == canonical_json(encode_fact(fact))
    clear_vid_caches()
    expected = fact_vid(fact)
    hits = sha1_cache_stats()["hits"]
    assert fact_vid(decoded) == expected
    assert sha1_cache_stats()["hits"] == hits + 1
    moved = decode_fact({"name": "link", "values": ["a", "b", 1], "location_index": 1})
    assert moved.location == "b"


def test_facts_hash_as_values():
    """Equal facts hash equal, so a fact from the wire, and the frozen
    request or script op that holds one, can key a dict or join a set."""
    from repro.core.requests import canonical_json, decode_fact, encode_fact
    from repro.net.sharding import ScriptOp

    fact = Fact("bestPath", ("n0", "n3", 3, ("n0", "n3")))
    decoded = decode_fact(json.loads(canonical_json(encode_fact(fact))))
    assert hash(decoded) == hash(fact)
    assert len({fact, decoded, Fact("bestPath", ("n0", "n3", 3, ("n0", "n3")), 1)}) == 2
    requests = {QueryRequest(fact, "count"), QueryRequest(decoded, "count")}
    assert len(requests) == 1
    assert hash(ScriptOp("insert", fact=decoded)) == hash(ScriptOp("insert", fact=fact))
