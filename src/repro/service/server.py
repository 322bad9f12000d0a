"""The always-on query service: an asyncio server around one ExspanNetwork.

Concurrency model
-----------------
The simulation engine is single-threaded and deterministic; the server
keeps it that way.  Each client connection gets its own reader coroutine,
but every request executes under one ``asyncio.Lock`` in arrival order —
concurrent clients interleave at request granularity, never inside the
engine.  Because query resolutions are pure functions of the store, the
spec and the depth bound, results served to N interleaved clients are
byte-identical to the same requests issued serially in-process (the
service equivalence gate in ``tests/test_service_session.py``).

Graceful shutdown
-----------------
``shutdown`` (the op, or :meth:`ServiceServer.stop`) stops accepting new
connections, lets every in-flight request finish — each query request
drains its distributed resolution to completion before replying — and
runs the simulator to idle so no half-delivered protocol messages are
abandoned.

Embedding
---------
:class:`ServiceThread` runs the server on a background thread for tests
and the shell's ``--serve`` mode; ``python -m repro.service`` is the
stand-alone entry point.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.api import ExspanNetwork
from ..core.config import MODE_NAMES
from ..core.errors import ProvenanceError, QueryError, QueryTimeoutError
from ..net.errors import NetworkError
from ..core.requests import (
    QueryRequest,
    SpecDescriptor,
    decode_fact,
    encode_fact,
)
from ..core.vid import fact_vid
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    ProtocolError,
    encode_frame,
    read_frame,
)

__all__ = ["ExspanService", "ServiceServer", "ServiceThread"]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError("bad-request", message)


def _positive_int(value: Any) -> bool:
    """JSON ``true`` is a Python int; a count or a depth it is not."""
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


class ExspanService:
    """Op dispatch for one hosted network (transport-independent).

    Every public protocol op maps to one ``op_*`` method taking the
    params dict and returning a JSON-able result.  The transport layer
    (:class:`ServiceServer`) is responsible for serializing calls; this
    class assumes single-threaded access to the engine.
    """

    def __init__(self, network: ExspanNetwork, description: str = "exspan") -> None:
        self.network = network
        self.description = description
        self._ops: Dict[str, Callable[[Dict[str, Any]], Any]] = {
            name[3:]: getattr(self, name) for name in dir(self) if name.startswith("op_")
        }

    def ops(self) -> List[str]:
        return sorted(self._ops)

    def dispatch(self, op: str, params: Dict[str, Any]) -> Any:
        handler = self._ops.get(op)
        if handler is None:
            raise ProtocolError("unknown-op", f"unknown op {op!r}")
        tracer = self.network.tracer
        if tracer is None:
            return handler(params)
        with tracer.request(f"service.{op}", op=op):
            return handler(params)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def greeting(self) -> Dict[str, Any]:
        return {
            "type": "greeting",
            "protocol": PROTOCOL_VERSION,
            "service": self.description,
            "network": self.op_info({}),
        }

    def op_hello(self, params: Dict[str, Any]) -> Dict[str, Any]:
        protocol = params.get("protocol")
        if protocol != PROTOCOL_VERSION:
            raise ProtocolError(
                "unsupported-protocol",
                f"server speaks protocol {PROTOCOL_VERSION}, client sent {protocol!r}",
            )
        return {"protocol": PROTOCOL_VERSION, "service": self.description, "ops": self.ops()}

    def op_info(self, params: Dict[str, Any]) -> Dict[str, Any]:
        network = self.network
        return {
            "topology": getattr(network.topology, "name", None),
            "node_count": network.node_count,
            "mode": MODE_NAMES[network.mode],
            "config": network.config.to_dict(),
            "now": network.now,
            "events_executed": network.simulator.events_executed,
        }

    def op_ping(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self._clock()

    def op_nodes(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"nodes": [str(address) for address in self.network.addresses()]}

    def op_tables(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"tables": self.network.predicates()}

    def op_specs(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"specs": self.network.spec_names()}

    def op_tuples(self, params: Dict[str, Any]) -> Dict[str, Any]:
        table = params.get("table")
        _require(isinstance(table, str), "tuples requires a 'table' name")
        # catalog.table() auto-creates on first use; validate first so a
        # typo surfaces as an error instead of minting an empty table.
        if not any(node.engine.catalog.has_table(table) for node in self.network.nodes.values()):
            raise ProtocolError("query-error", f"unknown table {table!r}")
        rows = self.network.tuples(table)
        return {
            "table": table,
            "rows": [[str(node), list(values)] for node, values in rows],
        }

    # ------------------------------------------------------------------ #
    # query specs and queries
    # ------------------------------------------------------------------ #
    def op_register_spec(self, params: Dict[str, Any]) -> Dict[str, Any]:
        spec = params.get("spec")
        _require(isinstance(spec, dict), "register_spec requires a 'spec' descriptor object")
        descriptor = SpecDescriptor.from_dict(spec)
        return {"name": self.network.register_spec(descriptor)}

    def op_query(self, params: Dict[str, Any]) -> Dict[str, Any]:
        payload = {
            key: params[key] for key in ("fact", "spec", "issuer", "target") if key in params
        }
        request = QueryRequest.from_dict(payload)
        max_events = params.get("max_events")
        _require(
            max_events is None or _positive_int(max_events),
            "max_events must be a positive int",
        )
        result = self.network.execute(request, max_events=max_events)
        return result.to_dict()

    # ------------------------------------------------------------------ #
    # fact and time mutation
    # ------------------------------------------------------------------ #
    def _fact(self, params: Dict[str, Any]) -> Any:
        _require("fact" in params, "missing 'fact'")
        return decode_fact(params["fact"])

    def _clock(self) -> Dict[str, Any]:
        return {
            "now": self.network.now,
            "events_executed": self.network.simulator.events_executed,
        }

    def op_insert(self, params: Dict[str, Any]) -> Dict[str, Any]:
        self.network.insert_fact(self._fact(params), process=bool(params.get("process", True)))
        return self._clock()

    def op_delete(self, params: Dict[str, Any]) -> Dict[str, Any]:
        self.network.delete_fact(self._fact(params), process=bool(params.get("process", True)))
        return self._clock()

    def op_fixpoint(self, params: Dict[str, Any]) -> Dict[str, Any]:
        fixpoint_time = self.network.run_to_fixpoint()
        return {**self._clock(), "fixpoint_time": fixpoint_time}

    def op_snapshot(self, params: Dict[str, Any]) -> Dict[str, Any]:
        path = params.get("path")
        _require(
            isinstance(path, str) and bool(path),
            "snapshot requires a non-empty 'path'",
        )
        # checkpoint() quiesces the network first (a checkpoint of a
        # mid-flight simulation cannot carry the scheduled closures).
        summary = self.network.checkpoint(path)
        return {**self._clock(), **summary, "storage": self.network.storage_stats()}

    # ------------------------------------------------------------------ #
    # statistics and explanations
    # ------------------------------------------------------------------ #
    def op_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self.network.stats_snapshot()

    def op_metrics(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self.network.metrics_snapshot()

    def op_explain(self, params: Dict[str, Any]) -> Dict[str, Any]:
        rule = params.get("rule")
        _require(isinstance(rule, str), "explain requires a 'rule' label")
        address = params.get("address")
        try:
            text = self.network.explain(rule, address=address)
        except KeyError:
            raise ProtocolError("query-error", f"unknown rule {rule!r}") from None
        return {"rule": rule, "text": text}

    def op_faults(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Install a fault plan and/or report the injector's state.

        ``plan`` (optional) is a fault-spec string for
        :func:`repro.faults.plan.parse_fault_spec`; an empty plan installs
        nothing.  ``digest`` (optional bool) additionally computes the
        convergence digest of the current network state — the oracle the
        chaos gate compares against a fault-free run.
        """
        plan = params.get("plan")
        if plan is not None:
            _require(isinstance(plan, str), "faults 'plan' must be a spec string")
            self.network.install_faults(plan)
        injector = self.network.fault_injector
        result: Dict[str, Any] = {
            "installed": injector is not None,
            "plan": injector.plan.describe() if injector is not None else None,
            "stats": injector.stats() if injector is not None else {},
        }
        if params.get("digest"):
            from ..faults.oracle import convergence_digest

            result["convergence"] = convergence_digest(self.network)
        return result

    def op_prov(self, params: Dict[str, Any]) -> Dict[str, Any]:
        fact = self._fact(params)
        depth = params.get("depth", 8)
        _require(_positive_int(depth), "depth must be a positive int")
        graph = self.network.provenance_graph(root=fact, max_depth=depth)
        vid = fact_vid(fact)
        return {
            "fact": encode_fact(fact),
            "vid": vid,
            "tree": graph.to_text_tree(vid, max_depth=depth),
        }


class ServiceServer:
    """The asyncio socket front of an :class:`ExspanService`."""

    def __init__(
        self,
        service: ExspanService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = MAX_FRAME_BYTES,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self._server: Optional[asyncio.base_events.Server] = None
        self._engine_lock = asyncio.Lock()
        self._stopping = asyncio.Event()
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        # Bounded (client, request id) -> response cache making request
        # retransmission idempotent: a client that lost the connection
        # after the server executed (but before the reply arrived) can
        # resend the same id and get the recorded response instead of
        # re-running the mutation.  Only requests carrying a "client"
        # field participate; only successful responses are recorded
        # (failures never mutated, so re-execution is already safe).
        self._response_cache: Dict[Tuple[Any, Any], Dict[str, Any]] = {}
        self._response_cache_cap = 512
        self.idempotent_replays = 0
        # Open connections: handler task -> its writer, so the drain can
        # close them and await their handlers instead of leaving them to
        # be cancelled mid-read when the loop shuts down.
        self._connections: Dict["asyncio.Task[None]", asyncio.StreamWriter] = {}

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)

    async def serve_until_stopped(self) -> None:
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        await self._drain()

    async def stop(self) -> None:
        self._stopping.set()

    async def _drain(self) -> None:
        """Stop accepting, let in-flight requests finish, quiesce the sim,
        then close every open connection and await its handler."""
        assert self._server is not None
        self._server.close()
        await self._idle.wait()
        async with self._engine_lock:
            self.service.network.simulator.run_until_idle()
        handlers = list(self._connections)
        for writer in self._connections.values():
            writer.close()  # a handler blocked in read_frame sees EOF
        await asyncio.gather(*handlers, return_exceptions=True)
        await self._server.wait_closed()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            writer.write(encode_frame(self.service.greeting(), max_frame=self.max_frame))
            await writer.drain()
            greeted = False
            while not self._stopping.is_set():
                try:
                    request = await read_frame(reader, max_frame=self.max_frame)
                except FrameError as exc:
                    # The stream is unframed from here on; report and close.
                    await self._send(writer, self._error_frame(None, exc))
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # peer vanished mid-frame
                if request is None:
                    return  # clean disconnect
                response = await self._handle_request(request, greeted)
                if request.get("op") == "hello" and response.get("ok"):
                    greeted = True
                try:
                    await self._send(writer, response)
                except (ConnectionError, BrokenPipeError):
                    return
                if request.get("op") == "shutdown" and response.get("ok"):
                    self._stopping.set()
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
            del self._connections[task]

    async def _send(self, writer: asyncio.StreamWriter, payload: Dict[str, Any]) -> None:
        try:
            frame = encode_frame(payload, max_frame=self.max_frame)
        except FrameError as exc:
            frame = encode_frame(
                self._error_frame(payload.get("id"), exc), max_frame=self.max_frame
            )
        writer.write(frame)
        await writer.drain()

    @staticmethod
    def _error_frame(
        request_id: Any,
        error: ProtocolError,
        details: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": request_id,
            "ok": False,
            "error": {"code": error.code, "message": error.message},
        }
        if details:
            payload["error"]["details"] = details
        return payload

    async def _handle_request(
        self, request: Dict[str, Any], greeted: bool
    ) -> Dict[str, Any]:
        request_id = request.get("id")
        op = request.get("op")
        if request_id is None or not isinstance(op, str):
            return self._error_frame(
                request_id,
                ProtocolError("bad-request", "request needs an 'id' and a string 'op'"),
            )
        params = request.get("params", {})
        if not isinstance(params, dict):
            return self._error_frame(
                request_id, ProtocolError("bad-request", "'params' must be an object")
            )
        if not greeted and op not in ("hello", "shutdown"):
            return self._error_frame(
                request_id,
                ProtocolError("handshake-required", "send 'hello' before other requests"),
            )
        if self._stopping.is_set():
            return self._error_frame(
                request_id, ProtocolError("shutting-down", "server is draining")
            )
        if op == "shutdown":
            return {"id": request_id, "ok": True, "result": {"stopping": True}}
        client = request.get("client")
        cache_key = (client, request_id) if client is not None else None
        if cache_key is not None:
            cached = self._response_cache.get(cache_key)
            if cached is not None:
                self.idempotent_replays += 1
                return cached
        self._inflight += 1
        self._idle.clear()
        try:
            async with self._engine_lock:
                result = self.service.dispatch(op, params)
            response = {"id": request_id, "ok": True, "result": result}
            if cache_key is not None:
                if len(self._response_cache) >= self._response_cache_cap:
                    self._response_cache.pop(next(iter(self._response_cache)))
                self._response_cache[cache_key] = response
            return response
        except ProtocolError as exc:
            return self._error_frame(request_id, exc)
        except QueryTimeoutError as exc:
            return self._error_frame(request_id, ProtocolError("timeout", str(exc)))
        except NetworkError as exc:
            # Structured network/simulation failures keep their own code
            # (unknown-node, no-route, simulation-error, network-error)
            # and machine-readable details instead of a catch-all.
            return self._error_frame(
                request_id, ProtocolError(exc.code, str(exc)), details=exc.details()
            )
        except (QueryError, ProvenanceError, ValueError) as exc:
            return self._error_frame(request_id, ProtocolError("query-error", str(exc)))
        except Exception as exc:  # pragma: no cover - defensive
            return self._error_frame(
                request_id,
                ProtocolError("internal", f"{type(exc).__name__}: {exc}"),
            )
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()


class ServiceThread:
    """An embedded server on a daemon thread (tests, shell embedded mode).

    The hosted network must not be touched by the embedding thread while
    the service is running — the service owns it until :meth:`stop`.
    """

    def __init__(self, network: ExspanNetwork, host: str = "127.0.0.1", port: int = 0):
        self.network = network
        self._host = host
        self._port = port
        self._address: Optional[Tuple[str, int]] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[ServiceServer] = None
        self._thread = threading.Thread(target=self._run, name="exspan-service", daemon=True)
        self._failure: Optional[BaseException] = None

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - surfaced via start()
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = ServiceServer(ExspanService(self.network), host=self._host, port=self._port)
        await self._server.start()
        self._address = self._server.address
        self._ready.set()
        await self._server.serve_until_stopped()

    def start(self) -> Tuple[str, int]:
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._failure is not None:
            raise RuntimeError("service thread failed to start") from self._failure
        assert self._address is not None, "service thread did not come up"
        return self._address

    @property
    def address(self) -> Tuple[str, int]:
        assert self._address is not None, "service thread not started"
        return self._address

    def stop(self, timeout: float = 30.0) -> None:
        """Ask the server to stop and join its thread (idempotent).

        A client's ``shutdown`` op may close the loop at any instant, so
        nothing is checked first and no coroutine is created that could be
        left unawaited: a closed loop means the server already stopped.
        """
        loop, server = self._loop, self._server
        if loop is not None and server is not None:
            try:
                loop.call_soon_threadsafe(server._stopping.set)
            except RuntimeError:
                pass  # event loop is closed: already stopped
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
