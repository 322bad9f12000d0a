"""Deterministic fault execution and the reliable transport that survives it.

The :class:`FaultInjector` sits between :meth:`Network._dispatch` and
:meth:`Host.deliver` and plays both roles of the robustness story:

* **adversary** — it executes a :class:`~repro.faults.plan.FaultPlan`:
  drops, duplicates and delays messages on matching links, slows
  straggler senders, flaps links, and fail-stop crashes (and restarts)
  nodes.  Every random decision is drawn from
  ``random.Random(f"{seed}:{src}->{dst}:{n}")`` where ``n`` is a counter
  the *sender* alone advances for that edge — a pure function of
  sender-local history, so the schedule is bit-identical under any
  ``PYTHONHASHSEED`` and any shard count (the same foundation the
  delivery-order keys build on).

* **transport** — an ARQ layer that makes the system survive the
  adversary: application kinds (``delta``/``prov``) are stamped with a
  per-``(src, dst)`` transport sequence number (``Message.tseq``),
  acknowledged end-to-end (``ftack``), retransmitted with deterministic
  exponential backoff until acked, de-duplicated at the receiver, and
  released to the application in FIFO order per edge (restoring order
  under reordering/delay faults — delete-before-insert would corrupt
  derivation counts).

Transport state — sequence counters, dedup/reassembly windows,
retransmit records and the per-node delivery journal — is *durable*:
it survives node crashes, the way a write-ahead transport journal
would in a real deployment.  A crashed node loses all volatile
application state (engine tables, provenance store, query caches);
on restart it is rebuilt from scratch and re-derives its soft state
by replaying the journal in original delivery order, with every
outbound send suppressed (the originals were either delivered or are
still covered by live retransmit records), which is what makes
recovery convergent rather than duplicative.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from ..net.message import Message
from .plan import CrashFault, FaultPlan, FlapFault

__all__ = ["FaultInjector", "APP_KINDS", "ACK_KIND"]

#: Message kinds carrying application state; these get ARQ reliability.
APP_KINDS = frozenset({"delta", "prov"})

#: Transport acknowledgement kind (fault-prone but idempotent, never ARQ'd).
ACK_KIND = "ftack"

#: Tracked-delivery lists are pruned of executed/cancelled events past this.
_TRACK_PRUNE = 2048


class _RetransmitRecord:
    """One unacknowledged application message awaiting its ``ftack``."""

    __slots__ = (
        "source", "destination", "kind", "payload", "size", "batch",
        "tseq", "attempts", "timer", "done",
    )

    def __init__(self, message: Message) -> None:
        self.source = message.source
        self.destination = message.destination
        self.kind = message.kind
        self.payload = message.payload
        self.size = message.size
        self.batch = message.batch
        self.tseq = message.tseq
        self.attempts = 0
        self.timer = None
        self.done = False


class _RecvState:
    """Per-(receiver, sender) dedup + FIFO-restore window."""

    __slots__ = ("next_expected", "buffer")

    def __init__(self) -> None:
        self.next_expected = 0
        self.buffer: Dict[int, Message] = {}


class FaultInjector:
    """Executes a :class:`FaultPlan` against one ``ExspanNetwork``."""

    def __init__(self, net: Any, plan: FaultPlan) -> None:
        self.net = net
        self.network = net.network
        self.simulator = net.network.simulator
        self.plan = plan
        self.tracer = getattr(net, "tracer", None)
        self.counters: Dict[str, int] = {}
        # -- adversary state (sender-local, deterministic) --
        self._edge_seq: Dict[Tuple[Any, Any], int] = {}
        self._rule_fired: Dict[Tuple[int, Any, Any], int] = {}
        # -- durable transport state --
        self._send_seq: Dict[Tuple[Any, Any], int] = {}
        self._pending: Dict[Tuple[Any, Any, int], _RetransmitRecord] = {}
        self._recv: Dict[Tuple[Any, Any], _RecvState] = {}
        self._journal: Dict[Any, List[Tuple[Any, ...]]] = {}
        # -- crash bookkeeping --
        self._crash_nodes = {fault.node for fault in plan.crashes}
        self._perma_dead: Dict[Any, float] = {
            fault.node: fault.at
            for fault in plan.crashes
            if fault.restart_after is None
        }
        self._tracked: Dict[Any, List[Any]] = {}
        self._replaying: set = set()
        # Link cost captured at flap-down so flap-up restores it exactly
        # (re-adding at the network default would change the converged
        # routing state and break the convergence oracle).
        self._flap_cost: Dict[Tuple[Any, Any], Any] = {}

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self) -> "FaultInjector":
        """Hook into the network and schedule the plan's timed faults."""
        if self.network.fault_injector is not None:
            raise RuntimeError("a fault injector is already installed")
        self.network.fault_injector = self
        for address, node in self.net.nodes.items():
            self._hook_service(address, node.query_service)
        for fault in self.plan.crashes:
            # Crash/restart events run on the shard that owns the node;
            # other shards see the outage only through lost traffic.
            if fault.node in self.net.nodes:
                self.simulator.schedule_at(
                    fault.at, lambda f=fault: self._crash(f)
                )
        for flap in self.plan.flaps:
            # Every instance (serial, or each shard worker) schedules the
            # same flap so all topology replicas change identically.
            self.simulator.schedule_at(
                flap.down_at, lambda f=flap: self._flap_down(f)
            )
            self.simulator.schedule_at(
                flap.down_at + flap.up_after, lambda f=flap: self._flap_up(f)
            )
        return self

    # ------------------------------------------------------------------ #
    # send path (called from Network.send / send_batch)
    # ------------------------------------------------------------------ #
    def outbound(self, message: Message) -> Message:
        """Fault-injecting replacement for the network's dispatch path."""
        if message.source in self._replaying:
            # Recovery replay regenerates the node's pre-crash outputs;
            # the originals were delivered (or live in retransmit
            # records), so re-sending would double-count downstream.
            self.counters["replay_suppressed_sends"] = (
                self.counters.get("replay_suppressed_sends", 0) + 1
            )
            return message
        if message.kind in APP_KINDS and message.tseq is None:
            edge = (message.source, message.destination)
            seq = self._send_seq.get(edge, 0)
            self._send_seq[edge] = seq + 1
            message.tseq = seq
            record = _RetransmitRecord(message)
            self._transmit_with_faults(message)
            # compute_size() ran inside _transmit; remember the billed size
            # so retransmissions charge identical bytes.
            record.size = message.size
            self._pending[(message.source, message.destination, seq)] = record
            self._schedule_retry(record)
            return message
        self._transmit_with_faults(message)
        return message

    def _transmit_with_faults(self, message: Message) -> None:
        """One physical transmission attempt, subject to the plan's faults."""
        drop, duplicate, extra = self._fate(message)
        if drop:
            self.counters["drops"] = self.counters.get("drops", 0) + 1
            # The sender did put bytes on the wire: bill, never deliver.
            self.network._transmit(message, drop=True)
        else:
            self.network._transmit(message, extra_latency=extra)
        if duplicate:
            self.counters["duplicates"] = self.counters.get("duplicates", 0) + 1
            clone = Message(
                source=message.source,
                destination=message.destination,
                kind=message.kind,
                payload=message.payload,
                size=message.size,
                batch=message.batch,
                tseq=message.tseq,
            )
            # The duplicate copy is exempt from further fault decisions
            # (no RNG draw), so one rule cannot amplify itself unboundedly.
            self.network._transmit(clone, extra_latency=extra)

    def _fate(self, message: Message) -> Tuple[bool, bool, float]:
        """Decide (drop, duplicate, extra_delay) for one transmission.

        Consumes exactly one per-edge RNG stream position per call; every
        matching rule draws exactly one uniform in declaration order, so
        the schedule is reproducible from ``(plan.seed, edge, n)`` alone.
        """
        src, dst = message.source, message.destination
        now = self.simulator.now
        extra = 0.0
        for lag in self.plan.stragglers:
            if lag.matches(src, now):
                extra += lag.delay
        if not self.plan.link_faults:
            return False, False, extra
        n = self._edge_seq.get((src, dst), 0)
        self._edge_seq[(src, dst)] = n + 1
        rng = random.Random(f"{self.plan.seed}:{src!r}->{dst!r}:{n}")
        drop = duplicate = False
        for index, rule in enumerate(self.plan.link_faults):
            if not rule.matches(src, dst, now):
                continue
            if rule.max_events is not None:
                fired = self._rule_fired.get((index, src, dst), 0)
                if fired >= rule.max_events:
                    continue
            if rng.random() >= rule.prob:
                continue
            if rule.max_events is not None:
                self._rule_fired[(index, src, dst)] = (
                    self._rule_fired.get((index, src, dst), 0) + 1
                )
            if rule.kind == "drop":
                drop = True
            elif rule.kind == "duplicate":
                duplicate = True
            else:  # "delay" (and its "reorder" alias)
                extra += rule.delay
                self.counters["delays"] = self.counters.get("delays", 0) + 1
        return drop, duplicate, extra

    # ------------------------------------------------------------------ #
    # retransmission (deterministic exponential backoff)
    # ------------------------------------------------------------------ #
    def _schedule_retry(self, record: _RetransmitRecord) -> None:
        delay = self.plan.rto * (2 ** record.attempts)
        record.timer = self.simulator.schedule(
            delay, lambda: self._retry(record)
        )

    def _retry(self, record: _RetransmitRecord) -> None:
        if record.done:
            return
        record.attempts += 1
        if (
            self.plan.max_attempts is not None
            and record.attempts > self.plan.max_attempts
        ) or self._destination_forever_dead(record.destination):
            # Give up: bounded-retry plans (or a peer that crashed with no
            # scheduled restart) must still quiesce; the query layer turns
            # the resulting silence into an explicit partial result.
            record.done = True
            self._pending.pop(
                (record.source, record.destination, record.tseq), None
            )
            self.counters["gave_up"] = self.counters.get("gave_up", 0) + 1
            return
        self.counters["retransmits"] = self.counters.get("retransmits", 0) + 1
        resend = Message(
            source=record.source,
            destination=record.destination,
            kind=record.kind,
            payload=record.payload,
            size=record.size,
            batch=record.batch,
            tseq=record.tseq,
        )
        self._transmit_with_faults(resend)
        self._schedule_retry(record)

    def _destination_forever_dead(self, destination: Any) -> bool:
        at = self._perma_dead.get(destination)
        return at is not None and self.simulator.now >= at

    # ------------------------------------------------------------------ #
    # receive path (called from Host.deliver)
    # ------------------------------------------------------------------ #
    def deliver(self, host: Any, message: Message) -> None:
        if message.kind == ACK_KIND:
            # Transport state is durable: acks complete retransmit records
            # even while the destination application is down.
            self._on_ack(host, message)
            return
        if not host.up:
            self.counters["dropped_at_down_host"] = (
                self.counters.get("dropped_at_down_host", 0) + 1
            )
            return
        tseq = message.tseq
        if tseq is None:
            self._journal_and_dispatch(host, message)
            return
        state = self._recv.setdefault((host.address, message.source), _RecvState())
        # Ack every arrival, including duplicates — the original ack may
        # itself have been dropped, and re-acking is what stops retries.
        self._send_ack(host, message.source, tseq)
        if tseq < state.next_expected or tseq in state.buffer:
            self.counters["dup_suppressed"] = (
                self.counters.get("dup_suppressed", 0) + 1
            )
            return
        state.buffer[tseq] = message
        while state.next_expected in state.buffer:
            ready = state.buffer.pop(state.next_expected)
            state.next_expected += 1
            self._journal_and_dispatch(host, ready)

    def _send_ack(self, host: Any, source: Any, tseq: int) -> None:
        self.counters["acks_sent"] = self.counters.get("acks_sent", 0) + 1
        self.network.send(host.address, source, ACK_KIND, tseq)

    def _on_ack(self, host: Any, message: Message) -> None:
        record = self._pending.pop(
            (host.address, message.source, message.payload), None
        )
        if record is None or record.done:
            return
        record.done = True
        if record.timer is not None:
            record.timer.cancel()
            record.timer = None

    def _journal_and_dispatch(self, host: Any, message: Message) -> None:
        self._journal.setdefault(host.address, []).append(("msg", message))
        host.dispatch_delivery(message)

    # ------------------------------------------------------------------ #
    # journal hooks (called from the ExspanNetwork facade)
    # ------------------------------------------------------------------ #
    def note_local_op(self, node: Any, action: str, fact: Any) -> None:
        """Journal a local base-fact insert/delete for crash replay."""
        if node in self._replaying:
            return
        self._journal.setdefault(node, []).append(("op", action, fact))

    def note_root_issued(self, node: Any, sequence: int) -> None:
        """Journal the query-service sequence after an external root query.

        External root queries advance the service's query-id counter in
        ways message replay cannot reproduce (their callbacks are not in
        the journal); recording the post-query counter value realigns the
        replayed id stream so message-driven sub-query ids match the ones
        already on the wire — the distributed equivalent of an epoch /
        incarnation number.
        """
        if node in self._replaying:
            return
        self._journal.setdefault(node, []).append(("seq", sequence))

    def _hook_service(self, address: Any, service: Any) -> None:
        service.on_root_issued = (
            lambda sequence, node=address: self.note_root_issued(node, sequence)
        )

    # ------------------------------------------------------------------ #
    # crash / restart
    # ------------------------------------------------------------------ #
    def track_delivery(self, destination: Any, event: Any) -> None:
        """Remember a scheduled delivery so a crash can cancel it."""
        if destination not in self._crash_nodes:
            return
        tracked = self._tracked.setdefault(destination, [])
        tracked.append(event)
        if len(tracked) > _TRACK_PRUNE:
            self._tracked[destination] = [
                event for event in tracked if event.pending
            ]

    def _crash(self, fault: CrashFault) -> None:
        if self.tracer is not None:
            with self.tracer.span(
                "fault.crash", cat="fault", node=str(fault.node)
            ) as span:
                span.add(cancelled=self._do_crash(fault))
        else:
            self._do_crash(fault)

    def _do_crash(self, fault: CrashFault) -> int:
        node = fault.node
        host = self.network.host(node)
        host.up = False
        self.counters["crashes"] = self.counters.get("crashes", 0) + 1
        cancelled = 0
        for event in self._tracked.pop(node, ()):
            if event.pending:
                event.cancel()
                cancelled += 1
        self.counters["cancelled_deliveries"] = (
            self.counters.get("cancelled_deliveries", 0) + cancelled
        )
        if fault.restart_after is not None:
            self.simulator.schedule(
                fault.restart_after, lambda: self._restart(node)
            )
        return cancelled

    def _restart(self, node: Any) -> None:
        """Rebuild *node* from scratch and re-derive its soft state.

        Volatile state (engine tables, provenance rows, query caches) is
        gone; the durable transport journal replays every input — local
        base-fact ops and delivered messages, in original order — against
        a freshly built node with all outbound sends suppressed.
        Derivation counting is confluent, so the replayed node converges
        to exactly the state it held, and unacked pre-crash outputs stay
        covered by the surviving retransmit records.
        """
        if self.tracer is not None:
            with self.tracer.span(
                "fault.restart", cat="fault", node=str(node)
            ) as span:
                span.add(replayed=self._do_restart(node))
        else:
            self._do_restart(node)

    def _do_restart(self, node: Any) -> int:
        self.counters["restarts"] = self.counters.get("restarts", 0) + 1
        net = self.net
        host = self.network.host(node)
        old = net.nodes[node]
        old_specs = list(old.query_service._specs.values())
        self._replaying.add(node)
        try:
            rebuilt = net._build_node(node)
            net.nodes[node] = rebuilt
            for spec in old_specs:
                rebuilt.query_service.register_spec(spec)
            self._hook_service(node, rebuilt.query_service)
            host.up = True
            entries = self._journal.get(node, ())
            for entry in entries:
                if entry[0] == "op":
                    engine = rebuilt.engine
                    if entry[1] == "insert":
                        engine.insert(entry[2])
                    else:
                        engine.delete(entry[2])
                    engine.run()
                elif entry[0] == "msg":
                    host.dispatch_delivery(entry[1])
                else:  # ("seq", value)
                    service = rebuilt.query_service
                    service._sequence = max(service._sequence, entry[1])
            self.counters["replayed_entries"] = (
                self.counters.get("replayed_entries", 0) + len(entries)
            )
            return len(entries)
        finally:
            self._replaying.discard(node)

    # ------------------------------------------------------------------ #
    # link flaps
    # ------------------------------------------------------------------ #
    def _flap_down(self, flap: FlapFault) -> None:
        self.counters["flaps_down"] = self.counters.get("flaps_down", 0) + 1
        topology = self.net.topology
        if flap.cost is None and topology.has_link(flap.a, flap.b):
            self._flap_cost[(flap.a, flap.b)] = topology.link(flap.a, flap.b).cost
        if self.tracer is not None:
            with self.tracer.span(
                "fault.flap_down", cat="fault", a=str(flap.a), b=str(flap.b)
            ):
                self.net.remove_link(flap.a, flap.b)
        else:
            self.net.remove_link(flap.a, flap.b)

    def _flap_up(self, flap: FlapFault) -> None:
        self.counters["flaps_up"] = self.counters.get("flaps_up", 0) + 1
        cost = flap.cost
        if cost is None:
            cost = self._flap_cost.pop((flap.a, flap.b), None)
        if self.tracer is not None:
            with self.tracer.span(
                "fault.flap_up", cat="fault", a=str(flap.a), b=str(flap.b)
            ):
                self.net.add_link(flap.a, flap.b, cost)
        else:
            self.net.add_link(flap.a, flap.b, cost)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Deterministic snapshot of every fault / transport counter."""
        base = {
            "pending_retransmits": len(self._pending),
            "journal_entries": sum(
                len(entries) for entries in self._journal.values()
            ),
        }
        base.update(self.counters)
        return dict(sorted(base.items()))
