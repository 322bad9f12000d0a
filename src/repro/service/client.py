"""A small synchronous client for the provenance query service.

:class:`ServiceClient` wraps one TCP connection: it reads the server
greeting, performs the versioned ``hello`` handshake, and then exposes
request/response as :meth:`call`.  Server-side failures surface as
:class:`ServiceError` carrying the structured wire error code; transport
and framing failures raise :class:`~repro.service.protocol.FrameError`.

Resilience
----------
Connection establishment retries with bounded exponential backoff
(:data:`CONNECT_ATTEMPTS` dials, the first retry after
:data:`CONNECT_BACKOFF` seconds), riding out a server that is still
binding its socket.  Every request carries a stable ``client``
id plus a per-client request id; if the connection dies mid-request the
client reconnects, re-handshakes and *retransmits the same request id*.
The server's idempotent response cache replays the recorded response
when the original request did execute, so a retransmitted mutation is
applied exactly once (see ``ServiceServer``).

The client is deliberately synchronous — it serves tests, the shell, and
scripted drivers, none of which need concurrency inside one connection.
Concurrency across connections is the server's job.
"""

from __future__ import annotations

import socket
import time
import uuid
from typing import Any, Dict, Optional

from .protocol import PROTOCOL_VERSION, FrameError, recv_frame, send_frame

__all__ = ["ServiceClient", "ServiceError"]

#: Dials before :class:`ServiceClient` gives up connecting.
CONNECT_ATTEMPTS = 3
#: Seconds before the first redial; each further one waits twice as long.
CONNECT_BACKOFF = 0.05
#: Retransmissions of one request after its connection broke.
CALL_RETRIES = 1


class ServiceError(Exception):
    """A structured error frame returned by the server."""

    def __init__(
        self, code: str, message: str, details: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        #: Machine-readable context (e.g. the unknown node's address);
        #: empty for errors that carry none.
        self.details: Dict[str, Any] = details or {}


class ServiceClient:
    """One handshaked connection to a :class:`~repro.service.server.ServiceServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Stable across reconnects: the idempotency key prefix the server
        #: caches responses under.
        self.client_id = f"c-{uuid.uuid4().hex[:12]}"
        self.reconnects = 0
        self._next_id = 0
        self._sock: Optional[socket.socket] = None
        self._connect()

    # ------------------------------------------------------------------ #
    # connection management
    # ------------------------------------------------------------------ #
    def _connect(self) -> None:
        """Dial, read the greeting, handshake — with bounded retry/backoff."""
        last_error: Optional[Exception] = None
        for attempt in range(CONNECT_ATTEMPTS):
            if attempt:
                time.sleep(CONNECT_BACKOFF * (2 ** (attempt - 1)))
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as exc:
                last_error = exc
                continue
            try:
                self.greeting = self._recv()
                self.hello = self._request_once(
                    self._request("hello", {"protocol": PROTOCOL_VERSION})
                )
                return
            except BaseException:
                self._sock.close()
                self._sock = None
                raise
        raise ConnectionError(
            f"could not connect to {self.host}:{self.port} after "
            f"{CONNECT_ATTEMPTS} attempts"
        ) from last_error

    def _reconnect(self) -> None:
        self.reconnects += 1
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._connect()

    # ------------------------------------------------------------------ #
    # request/response
    # ------------------------------------------------------------------ #
    def _request(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        self._next_id += 1
        return {
            "id": self._next_id,
            "client": self.client_id,
            "op": op,
            "params": params,
        }

    def call(self, op: str, **params: Any) -> Any:
        """Issue one request and return the ``result`` payload.

        Raises :class:`ServiceError` on an error frame.  A connection
        that breaks mid-exchange is re-dialed and the *same* request
        (same client and request id) retransmitted up to
        :data:`CALL_RETRIES` times — safe because the server replays cached responses for ids
        it already executed; only then does :class:`FrameError` (or the
        underlying ``OSError``) escape.
        """
        request = self._request(op, params)
        retries_left = CALL_RETRIES
        while True:
            try:
                return self._request_once(request)
            except (FrameError, OSError):
                if retries_left <= 0:
                    raise
                retries_left -= 1
                self._reconnect()

    def _request_once(self, request: Dict[str, Any]) -> Any:
        assert self._sock is not None, "client is closed"
        send_frame(self._sock, request)
        response = self._recv()
        if response.get("id") != request["id"]:
            raise FrameError(
                "bad-frame",
                f"response id {response.get('id')!r} does not match "
                f"request {request['id']}",
            )
        if response.get("ok"):
            return response.get("result")
        error = response.get("error") or {}
        raise ServiceError(
            str(error.get("code", "internal")),
            str(error.get("message", "unknown error")),
            details=error.get("details"),
        )

    def _recv(self) -> Dict[str, Any]:
        assert self._sock is not None, "client is closed"
        frame = recv_frame(self._sock)
        if frame is None:
            raise FrameError("bad-frame", "server closed the connection")
        return frame

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def shutdown_server(self) -> Any:
        """Ask the server to drain and stop."""
        return self.call("shutdown")

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
