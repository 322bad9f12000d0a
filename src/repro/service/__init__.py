"""Always-on provenance query service.

This package turns an in-process :class:`~repro.core.api.ExspanNetwork`
into a long-running network service: a small asyncio socket server
(:mod:`repro.service.server`) speaks a length-prefixed canonical-JSON
protocol (:mod:`repro.service.protocol`, specified in
``docs/PROTOCOL.md``) and serves concurrent clients — registering query
specs, issuing provenance queries, mutating facts, advancing simulated
time, and fetching stats / metrics / EXPLAIN output.

Everything the wire exposes goes through the typed
:class:`~repro.core.requests.QueryRequest` /
:class:`~repro.core.requests.QueryResult` layer, so socket clients see
byte-identical results to in-process callers.  The interactive operator
console (``python -m repro.shell``) is one such client.
"""

from .bootstrap import build_network, build_program, build_topology
from .client import ServiceClient, ServiceError
from .protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    ProtocolError,
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
)
from .server import ExspanService, ServiceServer, ServiceThread

__all__ = [
    "ERROR_CODES",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "FrameError",
    "ProtocolError",
    "encode_frame",
    "read_frame",
    "recv_frame",
    "send_frame",
    "ServiceClient",
    "ServiceError",
    "ExspanService",
    "ServiceServer",
    "ServiceThread",
    "build_network",
    "build_program",
    "build_topology",
]
