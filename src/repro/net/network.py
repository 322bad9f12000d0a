"""The simulated network: hosts + topology + event-driven message delivery.

:class:`Network` glues together a :class:`~repro.net.simulator.Simulator`,
a :class:`~repro.net.topology.Topology` and a set of
:class:`~repro.net.host.Host` objects.  Sending a message records its size
with :class:`~repro.net.stats.TrafficStats` and schedules its delivery after
the shortest-path latency between sender and receiver (the underlying IP
network routes messages between non-adjacent nodes, as in the ns-3
prototype).

A message between nodes with no route is charged :data:`DEFAULT_LATENCY`
(the sharded engine's lookahead shrinks to the same constant).  Link
bandwidth is not charged: the paper's workloads are far from saturating
the configured capacities.

Besides single-payload :meth:`Network.send`, the network ships batched
messages (:meth:`Network.transmit` of a ``batch=True`` message): several
payloads for one destination share one envelope and one header charge —
see :mod:`repro.net.host` for the turn-scoped outbox that produces them.

Deterministic delivery order
----------------------------
Every delivery event is keyed ``(send time, source rank, per-source send
sequence)`` in the simulator's ``(time, key, sequence)`` order.  Deliveries
colliding at one instant execute in causal send-time order first (what a
single global FIFO queue produces naturally); ties are broken by the
source's index in the topology's node order and by a counter the source
alone advances.  Every component is a pure function of the sender's local
history — independent of global scheduling interleavings.  This is the
invariant the sharded engine (:mod:`repro.net.sharding`) relies on: a
shard that receives the same messages reconstructs the very same delivery
order from ``(time, key)`` alone, making an N-shard run bit-identical to
the serial one.

Shard-aware routing
-------------------
A network can be configured as one *shard* of a larger simulation: it then
owns hosts only for its ``local_nodes`` and, instead of scheduling delivery
for a message addressed to a remote node, parks the message (with its
ordering key and delivery time) in :attr:`Network.outbound` for the barrier
protocol to ship.  Senders are always local, so traffic statistics stay
exact per shard and merge by concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import NetworkError, NoRouteError, UnknownNodeError
from .host import Host
from .message import Message
from .simulator import Simulator
from .stats import TrafficStats
from .topology import Topology

__all__ = ["Network", "OutboundMessage", "DEFAULT_LATENCY"]

#: The latency charged for a message between nodes with no route.
DEFAULT_LATENCY = 0.001


@dataclass(frozen=True)
class OutboundMessage:
    """A message bound for another shard, with its deterministic order key.

    ``time`` is the absolute delivery time (already including the
    shortest-path latency computed by the sender's shard from the shared
    topology replica) and ``key`` the ``(source rank, send sequence)``
    pair; sorting envelopes by ``(time, key)`` reproduces exactly the
    delivery order the serial engine would execute.
    """

    time: float
    key: Tuple[float, int, int]
    message: Message


class Network:
    """A set of hosts connected by a topology, driven by a simulator."""

    def __init__(
        self,
        topology: Topology,
        local_nodes: Optional[Iterable[Any]] = None,
        shard_map: Optional[Mapping[Any, int]] = None,
    ):
        self.topology = topology
        self.simulator = Simulator()
        self.stats = TrafficStats()
        self._hosts: Dict[Any, Host] = {}
        # Deterministic source ranks: topology node order.  Nodes that show
        # up later (dynamically added hosts in unit tests) are ranked in
        # first-send order past the initial block.
        self._rank: Dict[Any, int] = {
            node: index for index, node in enumerate(topology.nodes)
        }
        self._source_seq: Dict[Any, int] = {}
        # Shard configuration: with a shard_map, messages for nodes whose
        # shard differs from the local nodes' shard are parked in
        # ``outbound`` instead of being scheduled (see module docstring).
        self._shard_map: Optional[Mapping[Any, int]] = shard_map
        self._shard_id: Optional[int] = None
        self.outbound: List[OutboundMessage] = []
        #: Installed by :class:`repro.faults.injector.FaultInjector`;
        #: ``None`` keeps the fault-free fast path byte-identical.
        self.fault_injector: Optional[Any] = None
        members = topology.nodes if local_nodes is None else list(local_nodes)
        if shard_map is not None and members:
            shards = {shard_map[node] for node in members}
            if len(shards) != 1:
                raise NetworkError(
                    f"local nodes span multiple shards: {sorted(shards)}"
                )
            self._shard_id = shards.pop()
        for node in members:
            self.add_host(node)

    # ------------------------------------------------------------------ #
    # hosts
    # ------------------------------------------------------------------ #
    def add_host(self, address: Any) -> Host:
        host = self._hosts.get(address)
        if host is None:
            host = Host(address, self)
            self._hosts[address] = host
            self._rank.setdefault(address, len(self._rank))
        return host

    def host(self, address: Any) -> Host:
        try:
            return self._hosts[address]
        except KeyError:
            raise UnknownNodeError(address) from None

    def hosts(self) -> List[Host]:
        return list(self._hosts.values())

    # ------------------------------------------------------------------ #
    # messaging
    # ------------------------------------------------------------------ #
    def send(
        self,
        source: Any,
        destination: Any,
        kind: str,
        payload: Any,
        size: Optional[int] = None,
    ) -> Message:
        """Send a message; returns the in-flight :class:`Message`."""
        return self.transmit(
            Message(source, destination, kind, payload, 0 if size is None else size)
        )

    def transmit(self, message: Message) -> Message:
        """Put a built message on the wire; returns it.

        A batched message (``batch=True``) carries several payloads for one
        destination in one envelope and pays one header (see
        :func:`~repro.net.message.batch_size`).  With a fault injector
        installed the message detours through its outbound hook (which may
        drop, duplicate, delay or suppress it); the injector calls back into
        :meth:`_transmit` for each physical transmission it decides to
        perform.
        """
        if self.fault_injector is not None:
            return self.fault_injector.outbound(message)
        return self._transmit(message)

    def _transmit(
        self,
        message: Message,
        extra_latency: float = 0.0,
        drop: bool = False,
    ) -> Message:
        """Bill one physical transmission and schedule (or park) delivery.

        The one send path: size, bill, route latency, order key, push.
        ``extra_latency`` adds fault-injected delay on top of the routed
        latency; ``drop`` bills the send (the sender did put bytes on the
        wire) but never schedules delivery.  Both are no-ops in fault-free
        runs, keeping this the exact pre-fault code path.
        """
        # Validate the destination BEFORE billing anything, so a failed
        # send cannot corrupt the traffic counters (and a sharded network
        # rejects unknown nodes at send time instead of parking them).
        source = message.source
        destination = message.destination
        shard_map = self._shard_map
        local = shard_map is None or shard_map.get(destination) == self._shard_id
        if local:
            destination_host = self._hosts.get(destination)
            if destination_host is None:
                raise UnknownNodeError(destination)
        elif destination not in shard_map:
            raise UnknownNodeError(destination)
        size = message.size
        if size <= 0:
            size = message.compute_size()
        now = self.simulator._now
        message.sent_at = now
        self.stats.record(now, source, destination, size, message.kind)
        if source == destination:
            latency = extra_latency
        else:
            try:
                latency = self.topology.latency_between(source, destination)
            except NoRouteError:
                # A partitioned network still delivers, after the no-route
                # default, rather than raising inside protocol code.
                latency = DEFAULT_LATENCY
            latency += extra_latency
        delivered_at = now + latency
        message.delivered_at = delivered_at
        seq = self._source_seq.get(source, 0)
        self._source_seq[source] = seq + 1
        rank = self._rank.get(source)
        if rank is None:
            rank = self._rank[source] = len(self._rank)
        # Deliveries colliding at one instant execute in send-time order
        # first (matching the causal FIFO a single global queue produces),
        # then by (source rank, per-source sequence) — every component is a
        # pure function of the sender's local history, never of global
        # scheduling order, so shards reconstruct the same total order.
        key = (now, rank, seq)
        if drop:
            return message
        if not local:
            self.outbound.append(OutboundMessage(time=delivered_at, key=key, message=message))
        elif self.fault_injector is None:
            self.simulator.schedule_at(
                delivered_at, destination_host.dispatch_delivery, key, message
            )
        else:
            event = self.simulator.schedule_at(delivered_at, destination_host.deliver, key, message)
            self.fault_injector.track_delivery(destination, event)
        return message

    def inject(self, message: Message, time: float, key: Tuple[float, int, int]) -> None:
        """Schedule delivery of a message shipped in from another shard.

        ``time``/``key`` come from the sender's :class:`OutboundMessage`,
        so the local simulator slots the delivery exactly where the serial
        engine would have.  The simulator itself asserts ``time`` does not
        precede the safe time (the conservative-lookahead guarantee).
        """
        destination_host = self.host(message.destination)
        if self.fault_injector is None:
            self.simulator.schedule_at(time, destination_host.dispatch_delivery, key, message)
        else:
            event = self.simulator.schedule_at(time, destination_host.deliver, key, message)
            self.fault_injector.track_delivery(message.destination, event)

    def drain_outbound(self) -> List[OutboundMessage]:
        """Return and clear the cross-shard messages parked since last drain."""
        drained, self.outbound = self.outbound, []
        return drained

    # ------------------------------------------------------------------ #
    # execution helpers
    # ------------------------------------------------------------------ #
    def run_to_fixpoint(self, max_events: Optional[int] = None) -> float:
        """Run until no events remain; return the fixpoint time."""
        self.simulator.run_until_idle(max_events=max_events)
        return self.simulator.now
