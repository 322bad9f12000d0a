"""Simulated hosts.

A :class:`Host` is one addressable endpoint in the simulated network.  It
dispatches incoming :class:`~repro.net.message.Message` objects to handlers
registered per message *kind* — the NDlog runtime registers a ``"delta"``
handler, the ExSPAN provenance query service registers provenance-query
handlers, and so on.  Hosts know nothing about what the payloads mean.

Per-destination batching
------------------------
Services that generate bursts of small messages (the provenance query
protocol above all) can *enqueue* sends instead of issuing them directly.
Enqueued payloads accumulate in a per-``(destination, kind)`` outbox for
the duration of the current **turn** — one delivered message or one
externally driven entry point, bracketed by :meth:`begin_turn` /
:meth:`end_turn` — and are flushed when the outermost turn ends.  A flush
sends a single batched message per destination that accumulated two or
more payloads (one header on the wire instead of N) and a plain message
for singletons, so un-batched traffic is byte-identical to the pre-batching
wire format.  Delivery of a batch dispatches the handler once per item, in
enqueue order, which keeps processing order identical to individual sends.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from .errors import NetworkError
from .message import Message

__all__ = ["Host"]


class Host:
    """One node of the simulated network."""

    __slots__ = (
        "address",
        "network",
        "_handlers",
        "_outbox",
        "_turn_depth",
        "messages_received",
        "bytes_received",
        "batches_sent",
        "messages_batched",
        "up",
    )

    def __init__(self, address: Any, network: "Network"):
        self.address = address
        self.network = network
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        # (destination, kind) -> payloads queued this turn, in first-enqueue
        # order (dict insertion order doubles as the flush order, which is
        # what keeps batched delivery order identical to individual sends).
        self._outbox: Dict[Tuple[Any, str], List[Any]] = {}
        self._turn_depth = 0
        self.messages_received = 0
        self.bytes_received = 0
        self.batches_sent = 0
        self.messages_batched = 0
        self.up = True

    # ------------------------------------------------------------------ #
    # handler registration
    # ------------------------------------------------------------------ #
    def register_handler(self, kind: str, handler: Callable[[Message], None]) -> None:
        """Register *handler* for messages of the given *kind*."""
        self._handlers[kind] = handler

    # ------------------------------------------------------------------ #
    # sending / receiving
    # ------------------------------------------------------------------ #
    def enqueue(self, destination: Any, kind: str, payload: Any) -> None:
        """Queue *payload* for batched delivery at the end of this turn.

        Outside a turn the payload is sent immediately (so callers never
        need to know whether they run inside a delivery context).
        """
        if self._turn_depth == 0:
            self.network.send(self.address, destination, kind, payload)
            return
        self._outbox.setdefault((destination, kind), []).append(payload)

    def begin_turn(self) -> None:
        """Enter a batching turn (re-entrant)."""
        self._turn_depth += 1

    def end_turn(self) -> None:
        """Leave a batching turn; the outermost exit flushes the outbox."""
        self._turn_depth -= 1
        if self._turn_depth == 0 and self._outbox:
            self._flush_outbox()

    def _flush_outbox(self) -> None:
        # Services may enqueue more while a flush is delivering nothing —
        # flushed sends only *schedule* deliveries — but take a snapshot
        # anyway so the loop is immune to re-entrant enqueues.
        outbox, self._outbox = self._outbox, {}
        transmit = self.network.transmit
        address = self.address
        for (destination, kind), payloads in outbox.items():
            if len(payloads) == 1:
                transmit(Message(address, destination, kind, payloads[0]))
            else:
                transmit(Message(address, destination, kind, tuple(payloads), batch=True))
                self.batches_sent += 1
                self.messages_batched += len(payloads)

    def deliver(self, message: Message) -> None:
        """Called by the network when a message arrives at this host.

        With a fault injector installed, arrival detours through its
        receive hook — duplicate suppression, FIFO-restore buffering,
        journaling and ack generation — which calls back into
        :meth:`dispatch_delivery` for each message actually handed to the
        application.  Fault-free, the network schedules
        :meth:`dispatch_delivery` itself.
        """
        injector = self.network.fault_injector
        if injector is not None:
            injector.deliver(self, message)
            return
        self.dispatch_delivery(message)

    def dispatch_delivery(self, message: Message) -> None:
        """Count the arrival and run the registered handler in one turn."""
        if not self.up:
            return
        self.messages_received += 1
        self.bytes_received += message.size
        handler = self._handlers.get(message.kind)
        if handler is None:
            raise NetworkError(
                f"host {self.address!r} has no handler for message kind "
                f"{message.kind!r}"
            )
        self._turn_depth += 1  # begin_turn / end_turn, inline
        try:
            if message.batch:
                source, destination, kind = message.source, message.destination, message.kind
                sent_at, delivered_at = message.sent_at, message.delivered_at
                for item in message.payload:
                    # Per-item views carry size 0: the envelope's bytes were
                    # billed once on send and counted once above — claiming
                    # the full batch size on every item would overstate it.
                    handler(Message(source, destination, kind, item, 0, sent_at, delivered_at))
            else:
                handler(message)
        finally:
            self._turn_depth -= 1
            if self._turn_depth == 0 and self._outbox:
                self._flush_outbox()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.address!r})"
