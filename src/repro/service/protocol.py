"""Wire protocol: length-prefixed canonical-JSON frames.

Every message on the socket — in either direction — is one *frame*:

* a 4-byte big-endian unsigned length ``N``;
* ``N`` bytes of UTF-8 canonical JSON
  (:func:`repro.core.requests.canonical_json`: sorted keys, compact
  separators, so a frame's bytes are a deterministic function of its
  payload).

Requests are ``{"id": ..., "op": ..., "params": {...}}``; responses echo
the id as ``{"id": ..., "ok": true, "result": ...}`` or
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}``.
The full op catalogue and error-code table live in ``docs/PROTOCOL.md``.

The server opens every connection with a greeting frame
(``{"type": "greeting", "protocol": N, ...}``) and requires the first
request to be a ``hello`` carrying a matching protocol number — version
skew fails fast at the handshake instead of mid-session.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, Optional

from ..core.requests import canonical_json

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ERROR_CODES",
    "ProtocolError",
    "FrameError",
    "canonical_payload_bytes",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "send_frame",
    "recv_frame",
]

#: Version carried in the greeting and required in the client hello.
PROTOCOL_VERSION = 1

#: Hard cap on a single frame's payload size, both directions.  Large
#: enough for any realistic query result, small enough that a corrupt or
#: hostile length prefix cannot make the server buffer gigabytes.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: Structured error codes, with the human meaning documented once here
#: (and in docs/PROTOCOL.md) rather than improvised per call site.
ERROR_CODES: Dict[str, str] = {
    "bad-frame": "frame payload is not a JSON object",
    "frame-too-large": "frame length exceeds the server's maximum",
    "bad-request": "request is missing id/op or has invalid params",
    "unsupported-protocol": "client hello carries an unsupported protocol version",
    "handshake-required": "first request on a connection must be 'hello'",
    "unknown-op": "request op is not in the server's catalogue",
    "query-error": "the provenance engine rejected the request",
    "timeout": "the query did not complete within the event budget",
    "unknown-node": "a request addressed a node that does not exist",
    "no-route": "the named nodes are not connected by any path",
    "simulation-error": "the simulator rejected a scheduling operation",
    "network-error": "a network-substrate failure not covered above",
    "shutting-down": "the server is draining and no longer accepts requests",
    "internal": "unexpected server-side failure",
}


class ProtocolError(Exception):
    """A structured protocol-level failure with a wire error code."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


class FrameError(ProtocolError):
    """A framing failure; the connection is unusable afterwards."""


def canonical_payload_bytes(payload: Any) -> bytes:
    """Canonical JSON bytes of *payload* (sorted keys, compact separators)."""
    return canonical_json(payload).encode("utf-8")


def encode_frame(payload: Any) -> bytes:
    """One wire frame: length prefix + canonical JSON payload."""
    body = canonical_payload_bytes(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            "frame-too-large",
            f"frame payload is {len(body)} bytes (max {MAX_FRAME_BYTES})",
        )
    return _LENGTH.pack(len(body)) + body


def decode_payload(body: bytes) -> Dict[str, Any]:
    """Decode one frame payload; must be a JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError("bad-frame", f"undecodable frame payload: {exc}") from None
    if not isinstance(payload, dict):
        raise FrameError(
            "bad-frame", f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    Raises :class:`FrameError` on an oversized length prefix or an
    undecodable payload, and ``asyncio.IncompleteReadError`` when the
    peer disconnects mid-frame.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise
    (length,) = _LENGTH.unpack(prefix)
    _check_length(length)
    body = await reader.readexactly(length)
    return decode_payload(body)


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            "frame-too-large", f"incoming frame of {length} bytes (max {MAX_FRAME_BYTES})"
        )


# ---------------------------------------------------------------------- #
# synchronous (client-side) framing
# ---------------------------------------------------------------------- #
def send_frame(sock: socket.socket, payload: Any) -> None:
    sock.sendall(encode_frame(payload))


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise FrameError("bad-frame", "connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Blocking read of one frame; ``None`` on clean EOF."""
    first = sock.recv(1)
    if not first:
        return None
    prefix = first + _recv_exactly(sock, _LENGTH.size - 1)
    (length,) = _LENGTH.unpack(prefix)
    _check_length(length)
    return decode_payload(_recv_exactly(sock, length))
