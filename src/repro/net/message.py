"""Messages and wire-size accounting.

The ExSPAN evaluation is framed almost entirely in terms of bytes on the
wire: per-node communication cost to fixpoint, bandwidth over time, and the
relative overhead of reference- versus value-based provenance.  This module
defines the :class:`Message` envelope exchanged between simulated hosts and
a deterministic :func:`payload_size` estimator used to charge bytes to each
message.

Size model
----------
* strings: one byte per character (SHA-1 identifiers are carried as 40-char
  hex digests, i.e. 40 bytes — the paper's raw digests are 20 bytes; the
  factor of two applies uniformly to every provenance mode so relative
  comparisons are unaffected);
* integers: 4 bytes; floats: 8 bytes; booleans / None: 1 byte;
* lists and tuples: 2 bytes of length framing plus the members;
* dictionaries: framing plus keys and values;
* every message additionally pays :data:`HEADER_OVERHEAD` bytes, standing in
  for the UDP/IP headers of the prototype deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

__all__ = [
    "Message",
    "payload_size",
    "batch_size",
    "HEADER_OVERHEAD",
    "TRACE_CONTEXT_KEY",
]

#: Fixed per-message overhead in bytes (UDP + IPv4 headers).
HEADER_OVERHEAD = 28

#: Reserved payload-dict key carrying observability trace context
#: (``[trace_id, parent_span_id]``; see :mod:`repro.obs.tracer`).  It is
#: *exempt* from wire-size accounting: tracing rides along for free so
#: every byte counter is identical with tracing on or off — the real
#: system would ship span context in headers outside the measured payload.
TRACE_CONTEXT_KEY = "_tc"


def payload_size(value: Any) -> int:
    """Return the estimated serialized size of *value* in bytes."""
    # Exact-class dispatch for what nearly every payload is — strings,
    # integers and flat sequences of them (a delta's value tuple) — sized
    # in one loop; everything else takes the general ladder below, which
    # charges the same bytes.
    cls = value.__class__
    if cls is str:
        return len(value)
    if cls is int:
        return 4
    if cls is tuple or cls is list:
        size = 2
        for item in value:
            cls = item.__class__
            if cls is str:
                size += len(item)
            elif cls is int:
                size += 4
            else:
                size += payload_size(item)
        return size
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 4
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 2 + sum(payload_size(item) for item in value)
    if isinstance(value, dict):
        return 2 + sum(
            payload_size(key) + payload_size(item)
            for key, item in value.items()
            if key != TRACE_CONTEXT_KEY
        )
    if hasattr(value, "wire_size"):
        return int(value.wire_size())
    # Fallback: size of the repr — deterministic and monotone in content.
    return len(repr(value))


def batch_size(kind: str, payloads: Sequence[Any]) -> int:
    """Billed size of one batched message carrying several payloads.

    A batch pays the per-message header and kind once plus two bytes of
    length framing — versus ``len(payloads)`` headers for individual sends,
    which is where per-destination batching saves bytes on the wire.
    """
    return (
        HEADER_OVERHEAD
        + len(kind)
        + 2
        + sum(payload_size(payload) for payload in payloads)
    )


@dataclass(slots=True)
class Message:
    """A message in flight between two hosts.

    ``kind`` selects the handler on the receiving host (``"delta"`` for
    NDlog tuples, ``"prov"`` for provenance-query traffic, ...).  ``size``
    is the total billed size including header overhead; it is computed by the
    network layer if not supplied.

    A *batch* message carries several logical payloads for the same
    destination in one envelope (``payload`` is then a sequence of the
    individual payloads); the receiving host unpacks it and dispatches the
    handler once per item, so handlers never see the envelope.
    """

    source: Any
    destination: Any
    kind: str
    payload: Any
    size: int = 0
    sent_at: float = 0.0
    delivered_at: float = 0.0
    batch: bool = False
    #: Transport sequence number stamped by the fault injector's reliable
    #: (ARQ) layer for duplicate suppression and per-edge FIFO restore.
    #: ``None`` in fault-free runs, so the wire format is unchanged there;
    #: like trace context, it is exempt from wire-size accounting (a real
    #: deployment ships it in the UDP payload header already billed by
    #: :data:`HEADER_OVERHEAD`).
    tseq: Any = None

    def compute_size(self) -> int:
        """Compute (and cache) this message's billed size in bytes."""
        if self.size <= 0:
            if self.batch:
                self.size = batch_size(self.kind, self.payload)
            else:
                self.size = HEADER_OVERHEAD + len(self.kind) + payload_size(self.payload)
        return self.size
