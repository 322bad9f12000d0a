"""Sharded multi-process simulation engine (conservative windowed PDES).

One paper-scale simulation — hundreds to a thousand-plus nodes — is
partitioned across N worker processes, each driving its own
:class:`~repro.net.simulator.Simulator` over a slice of the hosts.  The
engine is a classic *conservative* parallel discrete-event simulation:

* **Partition.**  :func:`~repro.net.topology.partition_topology` splits the
  hosts into balanced shards, cutting as few and as slow links as possible.
* **Lookahead.**  Any message between shards crosses the cut at least once,
  so its end-to-end latency is at least the minimum cut-edge latency — the
  *lookahead window* ``W`` (:func:`~repro.net.topology.partition_lookahead`).
  A message sent at time *t* can never affect another shard before
  ``t + W``.  A disconnected topology (or a fault plan with link flaps)
  clamps ``W`` to :data:`~repro.net.network.DEFAULT_LATENCY`, the latency
  the network charges a message with no route.
* **Windows and barriers.**  All shards run the window ``[T, T + W)``
  concurrently (events strictly before the horizon), then exchange the
  messages that crossed the cut.  Cross-shard messages always land in a
  *later* window, so no shard ever receives an event in its past; the
  simulator's ``safe_time`` assertion enforces exactly that.
* **Determinism.**  Every delivery carries the shard-invariant ordering key
  ``(send time, source rank, per-source sequence)`` assigned by the sender
  (:mod:`repro.net.network`).  Envelopes are exchanged and injected in
  sorted ``(time, key)`` order, and each shard's simulator executes by the
  same ``(time, key)`` relation the serial engine uses — so fixpoints,
  VIDs, provenance annotations and every traffic counter are **identical
  to the single-process engine**, independent of worker count and
  ``PYTHONHASHSEED``.

Workers are forked (so they inherit the parsed program and topology
without pickling) and spoken to over pipes.  Value-mode BDD annotations
cross shard boundaries as manager-independent structures
(:func:`~repro.core.bdd.export_bdd`); thanks to the canonical
(name-ordered) BDD variable order they re-intern bit-identically into the
receiving shard's manager.

External inputs — link churn and base-fact changes — are *scripted*:
they apply at simulated times that become window barriers, so the same
script drives a serial :class:`~repro.core.api.ExspanNetwork`
(via :func:`apply_script_serial`) and a sharded run to identical states.
The equivalence tests in ``tests/test_sharding.py`` assert exactly that,
via :func:`collect_digest` / :func:`collect_summary`.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.bdd import Bdd, export_bdd, import_bdd
from ..datalog.ast import Fact, Program
from ..datalog.engine import Delta
from ..storage.checkpoint import node_state
from .errors import NetworkError
from .message import Message
from .network import DEFAULT_LATENCY, OutboundMessage
from .stats import aggregate_engine_stats, aggregate_query_stats, merge_counter_dicts
from .topology import LinkSpec, Topology, partition_lookahead, partition_topology

__all__ = [
    "ShardedExspanNetwork",
    "ScriptOp",
    "apply_script_serial",
    "collect_summary",
    "collect_digest",
]

# ---------------------------------------------------------------------- #
# scripted external inputs
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScriptOp:
    """One external input applied at a simulated instant.

    ``kind`` is one of ``"insert"`` / ``"delete"`` (base facts; applied at
    the owning shard) or ``"add_link"`` / ``"remove_link"`` (applied at
    every shard — all topology replicas must agree for routing).
    """

    kind: str
    fact: Optional[Fact] = None
    a: Any = None
    b: Any = None
    cost: Optional[int] = None


# ---------------------------------------------------------------------- #
# payload transport across shard boundaries
# ---------------------------------------------------------------------- #
class _WireBdd:
    """A BDD annotation in transit: its manager-independent structure."""

    __slots__ = ("data",)

    def __init__(self, data: Tuple[Any, ...]):
        self.data = data


def _encode_value(value: Any) -> Any:
    if isinstance(value, Bdd):
        return _WireBdd(export_bdd(value))
    if isinstance(value, Delta):
        if isinstance(value.annotation, Bdd):
            return Delta(value.action, value.fact, _WireBdd(export_bdd(value.annotation)))
        return value
    if isinstance(value, tuple):
        encoded = [_encode_value(item) for item in value]
        if all(new is old for new, old in zip(encoded, value)):
            return value
        return tuple(encoded)
    return value


def _decode_value(value: Any, manager_for: Callable[[], Any]) -> Any:
    if isinstance(value, _WireBdd):
        manager = manager_for()
        if manager is None:
            raise NetworkError("a BDD crossed a shard boundary outside a value-mode delta")
        return import_bdd(manager, value.data)
    if isinstance(value, Delta):
        if isinstance(value.annotation, _WireBdd):
            return Delta(
                value.action, value.fact, _decode_value(value.annotation, manager_for)
            )
        return value
    if isinstance(value, tuple):
        decoded = [_decode_value(item, manager_for) for item in value]
        if all(new is old for new, old in zip(decoded, value)):
            return value
        return tuple(decoded)
    return value


def _encode_outbound(
    outbound: Sequence[OutboundMessage],
) -> List[Tuple[float, Tuple, Dict[str, Any]]]:
    """Flatten parked cross-shard messages into picklable wire tuples."""
    wire = []
    for item in outbound:
        message = item.message
        wire.append(
            (
                item.time,
                item.key,
                {
                    "source": message.source,
                    "destination": message.destination,
                    "kind": message.kind,
                    "payload": _encode_value(message.payload),
                    "size": message.size,
                    "sent_at": message.sent_at,
                    "delivered_at": message.delivered_at,
                    "batch": message.batch,
                    "tseq": message.tseq,
                },
            )
        )
    return wire


# ---------------------------------------------------------------------- #
# state digests (shared by serial and sharded paths)
# ---------------------------------------------------------------------- #
def node_state_digest(engine) -> Dict[str, Any]:
    """The strict digest of one node: its :func:`node_state`, order-independent.

    Per table a ``{repr(row): derivation count}`` mapping, annotations and
    aggregate groups, all sorted by repr, plus the counters — so the digest
    of a node is identical whether it was computed in a serial run or inside
    a shard worker, the equivalence the sharding tests assert.
    """
    state = node_state(engine)
    annotations = {
        repr((name, tuple(values))): encoded for name, values, encoded in state["annotations"]
    }
    return {
        "tables": {
            name: dict(sorted((repr(tuple(row)), count) for row, count in rows))
            for name, rows in state["tables"].items()
            if rows
        },
        "annotations": dict(sorted(annotations.items())),
        "aggregates": {
            label: sorted(groups, key=repr) for label, groups in state["aggregates"].items()
        },
        "stats": state["stats"],
    }


def collect_digest(net) -> Dict[Any, Dict[str, Any]]:
    """Per-node strict digests of a (serial or shard-local) network."""
    return {address: node_state_digest(node.engine) for address, node in net.nodes.items()}


def collect_summary(net) -> Dict[str, Any]:
    """Network-wide counters of a (serial) :class:`ExspanNetwork`.

    The sharded engine's :meth:`ShardedExspanNetwork.summary` produces the
    same dict by merging per-shard summaries; equality of the two is the
    headline acceptance criterion.
    """
    hosts = {
        host.address: {
            "messages_received": host.messages_received,
            "bytes_received": host.bytes_received,
            "batches_sent": host.batches_sent,
            "messages_batched": host.messages_batched,
        }
        for host in net.network.hosts()
    }
    return {
        "fixpoint_time": net.simulator.now,
        "traffic": {
            "total_bytes": net.stats.total_bytes(),
            "total_messages": net.stats.total_messages(),
            "maintenance_bytes": net.maintenance_bytes(),
            "query_bytes": net.query_bytes(),
        },
        "planner": net.planner_stats(),
        "prov_rows": net.provenance_row_counts(),
        "query_stats": aggregate_query_stats(
            node.query_service.query_stats() for node in net.nodes.values()
        ),
        "hosts": dict(sorted(hosts.items(), key=lambda item: repr(item[0]))),
    }


def apply_script_serial(net, script: Sequence[Tuple[float, Sequence[ScriptOp]]]) -> None:
    """Drive a serial :class:`ExspanNetwork` with a sharded-engine script.

    Ops are scheduled at their instants with the default (empty) ordering
    key, exactly where the sharded engine applies them — before the message
    deliveries of the same instant — and the network runs to quiescence.
    """

    def apply(ops: Sequence[ScriptOp]) -> None:
        for op in ops:
            _apply_serial_op(net, op)

    for time, ops in script:
        net.simulator.schedule_at(time, lambda ops=ops: apply(ops))
    net.simulator.run_until_idle()


def _apply_serial_op(net, op: ScriptOp) -> None:
    if op.kind == "insert":
        net.insert_fact(op.fact)
    elif op.kind == "delete":
        net.delete_fact(op.fact)
    elif op.kind == "add_link":
        net.add_link(op.a, op.b, op.cost)
    elif op.kind == "remove_link":
        net.remove_link(op.a, op.b)
    else:
        raise ValueError(f"unknown script op kind {op.kind!r}")


# ---------------------------------------------------------------------- #
# worker process
# ---------------------------------------------------------------------- #
@dataclass
class _WorkerConfig:
    shard_id: int
    assignment: Dict[Any, int]
    topology: Topology
    program: Program
    mode: Any
    seed: int
    value_policy: str
    #: When set, the worker builds its own shard-tagged tracer; spans are
    #: pulled over the pipe by the driver's ``"spans"`` verb and merged in
    #: deterministic (sim time, shard, seq) order.
    trace: bool = False
    #: Storage backend spec (``None`` = memory).  Explicit sqlite paths
    #: are suffixed per shard by the worker's ExspanNetwork so forked
    #: processes never share one WAL.
    storage: Optional[str] = None
    #: Non-empty :class:`~repro.faults.plan.FaultPlan` (the forked worker
    #: inherits it), or ``None`` for the fault-free fast path.  Every
    #: worker installs the same plan: link/flap schedules are replicated
    #: (they are pure functions of the plan seed and sender-local
    #: counters), crash events fire only on the shard that owns the node.
    faults: Any = None


def _worker_main(conn, config: _WorkerConfig) -> None:
    """Run one shard: build the local slice, then serve barrier commands."""
    gc.freeze()  # no collection walks (or copy-on-writes) the driver's inherited heap
    try:
        from ..core.api import ExspanNetwork
        from ..obs import runtime as obs_runtime

        # Forked workers inherit the parent's process-wide trace session;
        # drop it — worker spans are collected explicitly over the pipe
        # (the "spans" verb), with their own shard-tagged tracer.
        obs_runtime.disable_tracing()
        tracer = None
        if config.trace:
            from ..obs.tracer import Tracer

            tracer = Tracer(shard=config.shard_id)
        local = [
            node
            for node in config.topology.nodes
            if config.assignment[node] == config.shard_id
        ]
        from ..core.config import ExspanConfig

        net = ExspanNetwork(
            config.topology,
            config.program,
            config=ExspanConfig(
                mode=config.mode,
                seed=config.seed,
                value_policy=config.value_policy,
                local_addresses=tuple(local),
                shard_map=config.assignment,
                storage=config.storage,
            ),
            tracer=tracer,
        )
        if config.faults is not None:
            net.install_faults(config.faults)

        def manager_for_destination(address: Any):
            policy = net.node(address).engine.annotation_policy
            return getattr(policy, "manager", None)

        while True:
            command = conn.recv()
            verb = command[0]
            if verb == "stop":
                # Flush the write-behind storage journal (and release the
                # per-shard WAL) before the worker process exits, so an
                # explicit-path sqlite mirror is complete on disk.
                net.close_storage()
                conn.send(("ok", None))
                return
            if verb == "seed":
                inserted = net.seed_links(command[1])
                conn.send(("ok", _worker_window_reply(net, inserted)))
            elif verb == "window":
                _, horizon, envelopes = command
                _inject_envelopes(net, envelopes, manager_for_destination)
                if horizon is None:
                    executed = net.simulator.run_until_idle()
                else:
                    executed = net.simulator.run_window(horizon)
                conn.send(("ok", _worker_window_reply(net, executed)))
            elif verb == "apply":
                _, time, ops = command
                if time > net.simulator.now:
                    net.simulator.advance_to(time)
                # The parent only applies ops at global barriers (full
                # quiescence, or a script-limit every window was capped
                # at), so re-opening the window back to the op instant is
                # sound — see Simulator.reopen_window.
                net.simulator.reopen_window(time)
                # The parent already routed each op to its shard(s).
                for op in ops:
                    _apply_serial_op(net, op)
                conn.send(("ok", _worker_window_reply(net, len(ops))))
            elif verb == "summary":
                conn.send(("ok", collect_summary(net)))
            elif verb == "digest":
                conn.send(("ok", collect_digest(net)))
            elif verb == "fstats":
                injector = net.network.fault_injector
                conn.send(
                    ("ok", injector.stats() if injector is not None else {})
                )
            elif verb == "spans":
                state = (
                    net.tracer.export_state()
                    if net.tracer is not None
                    else ((), {}, 0)
                )
                conn.send(("ok", state))
            else:
                conn.send(("error", f"unknown command {verb!r}"))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass


def _worker_window_reply(net, executed: int):
    return (
        _encode_outbound(net.network.drain_outbound()),
        net.simulator.next_event_time(),
        net.simulator.now,
        executed,
    )


def _inject_envelopes(net, envelopes, manager_for_destination) -> None:
    # Deterministic injection order: (delivery time, ordering key).  The
    # simulator orders by (time, key) anyway; sorting here additionally
    # fixes the FIFO sequence numbers, removing any dependence on the order
    # shards were drained in.
    for time, key, fields in sorted(envelopes, key=lambda item: (item[0], item[1])):
        destination = fields["destination"]
        message = Message(
            source=fields["source"],
            destination=destination,
            kind=fields["kind"],
            payload=_decode_value(
                fields["payload"], lambda d=destination: manager_for_destination(d)
            ),
            size=fields["size"],
            sent_at=fields["sent_at"],
            delivered_at=fields["delivered_at"],
            batch=fields["batch"],
            tseq=fields.get("tseq"),
        )
        net.network.inject(message, time, key)


# ---------------------------------------------------------------------- #
# the parent-side driver
# ---------------------------------------------------------------------- #
class ShardedExspanNetwork:
    """Drive one simulation across N shard worker processes.

    The public surface mirrors the pieces of
    :class:`~repro.core.api.ExspanNetwork` the experiment harness uses:
    :meth:`seed_links`, :meth:`run_to_fixpoint`, scripted churn and
    packets (:meth:`run_script`), and merged statistics and digests.
    ``shards=1`` is valid (one worker) and useful for isolating the
    barrier protocol from parallelism when debugging.

    Use as a context manager, or call :meth:`close` — worker processes
    hold OS resources.
    """

    def __init__(
        self,
        topology: Topology,
        program: Program,
        mode=None,
        shards: int = 2,
        seed: int = 0,
        value_policy: str = "bdd",
        partition: Optional[Mapping[Any, int]] = None,
        tracer: Any = None,
        storage: Optional[str] = None,
        faults: Any = None,
    ):
        from ..core.modes import ProvenanceMode
        from ..obs import runtime as obs_runtime

        if mode is None:
            mode = ProvenanceMode.REFERENCE
        # ``faults`` accepts a FaultPlan, a fault-spec string, or None; an
        # empty plan is normalized to None so the run stays on the exact
        # fault-free code path (the empty-plan byte-identity contract).
        plan = self._normalize_fault_plan(faults)
        self.fault_plan = plan
        self._fault_flaps = plan is not None and plan.has_flaps()
        self._pending_kills = list(plan.worker_kills) if plan is not None else []
        # Supervision is on exactly when the plan kills workers: a SIGKILLed
        # worker can only rejoin the barrier protocol if the supervisor
        # restarts and replays it, and nothing else needs the command log.
        self._supervise = bool(self._pending_kills)
        self.supervisor_restarts = 0
        self.workers_killed = 0
        self._windows_run = 0
        self.topology = topology
        self.assignment: Dict[Any, int] = (
            dict(partition)
            if partition is not None
            else partition_topology(topology, shards)
        )
        self.shards = max(self.assignment.values()) + 1
        missing = [node for node in topology.nodes if node not in self.assignment]
        if missing:
            raise NetworkError(f"partition misses nodes: {missing[:5]}")
        self._recompute_lookahead()
        for kill in self._pending_kills:
            if not (0 <= kill.shard < self.shards):
                raise NetworkError(
                    f"worker-kill fault names shard {kill.shard}, but the "
                    f"run has {self.shards} shards"
                )
        self._context = mp.get_context("fork")
        self._connections = []
        self._processes = []
        self._worker_configs: List[_WorkerConfig] = []
        # Per-shard log of state-mutating commands (seed/window/apply); the
        # supervisor rebuilds a dead worker by replaying its log against a
        # fresh fork — deterministic execution makes the replayed worker
        # bit-identical to the one that died.
        self._command_log: List[List[Tuple]] = []
        self._parked: List[List[Tuple[float, Tuple, Dict[str, Any]]]] = [
            [] for _ in range(self.shards)
        ]
        self._next_times: List[Optional[float]] = [None] * self.shards
        self._now = 0.0
        self._closed = False
        # Driver-side tracer (shard -1): holds barrier/window phase spans
        # and, after collect_spans(), every worker's spans merged in.
        if tracer is None:
            session = obs_runtime.active_session()
            if session is not None:
                tracer = session.new_tracer(clock=lambda: self._now, shard=-1)
        else:
            tracer.set_clock(lambda: self._now)
        self.tracer = tracer
        self._spans_collected = False
        #: Per-window executed-event counts (one list per window round),
        #: the raw material of :meth:`parallelism_report`.
        self.window_loads: List[List[int]] = []
        for shard in range(self.shards):
            parent_conn, child_conn = self._context.Pipe()
            config = _WorkerConfig(
                shard_id=shard,
                assignment=self.assignment,
                topology=topology,
                program=program,
                mode=mode,
                seed=seed,
                value_policy=value_policy,
                trace=self.tracer is not None,
                storage=storage,
                faults=plan,
            )
            process = self._context.Process(
                target=_worker_main, args=(child_conn, config), daemon=True
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)
            self._worker_configs.append(config)
            self._command_log.append([])

    @staticmethod
    def _normalize_fault_plan(faults: Any):
        if faults is None:
            return None
        from ..faults.plan import FaultPlan, parse_fault_spec

        if isinstance(faults, str):
            faults = parse_fault_spec(faults)
        if not isinstance(faults, FaultPlan):
            raise NetworkError(
                "faults must be a FaultPlan, a fault-spec string, or None"
            )
        return None if faults.is_empty() else faults

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ShardedExspanNetwork":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def collect_spans(self) -> None:
        """Merge every worker tracer's spans into the driver tracer.

        Idempotent; runs automatically on :meth:`close`.  Worker states are
        absorbed in shard order and every consumer re-sorts records by
        ``(sim time, shard, seq)``, so the merged trace is independent of
        pipe drain order.
        """
        if self.tracer is None or self._spans_collected or self._closed:
            return
        self._spans_collected = True
        for state in self._command_all([("spans",)] * self.shards):
            self.tracer.absorb(state)

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.collect_spans()
        except RuntimeError:
            pass  # a shard died; keep whatever spans the driver already has
        if self._closed:
            return  # a failed collect_spans already closed the pipes
        self._closed = True
        for conn in self._connections:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for conn in self._connections:
            try:
                if conn.poll(2.0):
                    conn.recv()
            except (OSError, EOFError):
                pass
            conn.close()
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # worker communication
    # ------------------------------------------------------------------ #
    #: Verbs that mutate worker state; these are logged for supervisor
    #: replay.  Read-only verbs (summary/digest/...) are not — replaying
    #: them would be wasted work and their replies were already consumed.
    _LOGGED_VERBS = frozenset({"seed", "window", "apply"})

    def _command_all(self, commands: List[Tuple]) -> List[Any]:
        """Send one command per shard, then gather replies (concurrent).

        Under a fault plan with worker kills, a dead worker (broken pipe /
        EOF — SIGKILLed by a :class:`~repro.faults.plan.WorkerKill` fault) is
        restarted from its config, caught up by replaying its command log,
        and handed the in-flight command again; the barrier then proceeds
        as if nothing happened.  A worker that *reports* an error (its
        simulation raised) is never restarted — replay would just raise
        again.
        """
        for shard, (conn, command) in enumerate(zip(self._connections, commands)):
            try:
                conn.send(command)
            except (BrokenPipeError, OSError):
                if not self._supervise:
                    self.close()
                    raise RuntimeError(f"shard {shard} died (pipe closed)")
                self._revive_shard(shard)
                self._connections[shard].send(command)
        replies = []
        for shard, command in enumerate(commands):
            try:
                status, payload = self._connections[shard].recv()
            except (EOFError, OSError):
                if not self._supervise:
                    self.close()
                    raise RuntimeError(f"shard {shard} died (no reply)")
                self._revive_shard(shard)
                self._connections[shard].send(command)
                status, payload = self._connections[shard].recv()
            if status != "ok":
                self.close()
                raise RuntimeError(f"shard {shard} failed:\n{payload}")
            replies.append(payload)
        if self._supervise and commands and commands[0][0] in self._LOGGED_VERBS:
            for shard, command in enumerate(commands):
                self._command_log[shard].append(command)
        return replies

    def _revive_shard(self, shard: int) -> None:
        """Fork a fresh worker for *shard* and replay its command log."""
        process = self._processes[shard]
        if process.is_alive():
            process.terminate()
        process.join(timeout=5.0)
        try:
            self._connections[shard].close()
        except OSError:
            pass
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                "fault.worker_restart",
                cat="fault",
                shard=shard,
                replay=len(self._command_log[shard]),
            )
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, self._worker_configs[shard]),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._connections[shard] = parent_conn
        self._processes[shard] = process
        self.supervisor_restarts += 1
        for command in self._command_log[shard]:
            parent_conn.send(command)
            status, payload = parent_conn.recv()
            if status != "ok":
                self.close()
                raise RuntimeError(f"shard {shard} replay failed:\n{payload}")
        if span is not None:
            span.end()

    def supervisor_stats(self) -> Dict[str, int]:
        """Supervision counters: restarts performed, kills delivered."""
        return {
            "supervised": int(self._supervise),
            "restarts": self.supervisor_restarts,
            "workers_killed": self.workers_killed,
            "logged_commands": sum(len(log) for log in self._command_log),
        }

    def _absorb_window_replies(self, replies: List[Any]) -> None:
        for reply in replies:
            envelopes, next_time, now, _executed = reply
            self._now = max(self._now, now)
            for envelope in envelopes:
                destination = envelope[2]["destination"]
                self._parked[self.assignment[destination]].append(envelope)
        for shard, reply in enumerate(replies):
            self._next_times[shard] = reply[1]

    def _take_parked(self) -> List[List[Tuple[float, Tuple, Dict[str, Any]]]]:
        parked, self._parked = self._parked, [[] for _ in range(self.shards)]
        return parked

    def _recompute_lookahead(self) -> None:
        lookahead = partition_lookahead(self.topology, self.assignment)
        if lookahead is not None and lookahead <= 0:
            raise NetworkError(
                "a zero-latency link crosses the shard cut; the "
                "conservative engine needs strictly positive cross-shard "
                "latency (repartition or merge those nodes into one shard)"
            )
        if self.shards > 1 and (self._fault_flaps or not self.topology.is_connected()):
            # A message between disconnected nodes is charged the network's
            # no-route DEFAULT_LATENCY, which may undercut every cut edge
            # — and cross-shard traffic remains possible even with *no* cut
            # edges at all (disconnected islands in different shards can
            # still message each other).  Link flaps execute *inside* the
            # workers, so the driver's topology replica never sees a flapped
            # link's down period: under flaps the window stays this
            # conservative for the whole run.  Without the clamp a
            # free-running shard could receive an envelope in its past and
            # trip the safe-time assertion.
            lookahead = (
                DEFAULT_LATENCY if lookahead is None else min(lookahead, DEFAULT_LATENCY)
            )
        self.lookahead = lookahead

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def seed_links(self, cost: Optional[int] = None) -> int:
        tracer = self.tracer
        span = tracer.begin("shard.seed", cat="shard") if tracer is not None else None
        replies = self._command_all([("seed", cost)] * self.shards)
        inserted = sum(reply[3] for reply in replies)
        self._absorb_window_replies(
            [(reply[0], reply[1], reply[2], 0) for reply in replies]
        )
        if span is not None:
            span.end(links=inserted)
        return inserted

    def _quiesce(self, limit: Optional[float] = None) -> None:
        """Run windows until global quiescence (or until *limit*, exclusive)."""
        while True:
            candidates = [time for time in self._next_times if time is not None]
            candidates.extend(
                envelope[0] for parked in self._parked for envelope in parked
            )
            if not candidates:
                break
            start = min(candidates)
            if limit is not None and start >= limit:
                break
            if self.lookahead is None:
                horizon = limit  # None = run each shard to local idle
            elif limit is not None:
                horizon = min(start + self.lookahead, limit)
            else:
                horizon = start + self.lookahead
            parked = self._take_parked()
            tracer = self.tracer
            span = None
            if tracer is not None:
                span = tracer.begin(
                    "shard.window",
                    cat="shard",
                    horizon=horizon,
                    envelopes=sum(len(shard_parked) for shard_parked in parked),
                )
            replies = self._command_all(
                [("window", horizon, parked[shard]) for shard in range(self.shards)]
            )
            self.window_loads.append([reply[3] for reply in replies])
            self._absorb_window_replies(replies)
            if span is not None:
                span.end(events=sum(reply[3] for reply in replies))
            self._windows_run += 1
            self._deliver_worker_kills()
        if limit is not None and any(self._parked):
            # Envelopes at or past the limit: hand them over with the limit
            # itself as the horizon.  Everything left lives at or past the
            # limit, so nothing executes — the envelopes are scheduled, the
            # workers' safe time lands exactly on the barrier, and the
            # script ops applied *at* the limit may still send messages
            # timed at or after it.
            parked = self._take_parked()
            replies = self._command_all(
                [("window", limit, parked[shard]) for shard in range(self.shards)]
            )
            self._absorb_window_replies(replies)

    def _deliver_worker_kills(self) -> None:
        """SIGKILL workers whose :class:`WorkerKill` fault has come due.

        The kill lands *between* windows — the worker is at a barrier with
        its reply already consumed — modelling a worker host failing while
        parked.  The supervisor revives it on the next command.
        """
        if not self._pending_kills:
            return
        import os
        import signal

        due = [k for k in self._pending_kills if self._windows_run >= k.after_windows]
        if not due:
            return
        self._pending_kills = [k for k in self._pending_kills if k not in due]
        for kill in due:
            process = self._processes[kill.shard]
            if process.is_alive():
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=5.0)
                self.workers_killed += 1

    def run_to_fixpoint(self) -> float:
        """Run windows until no shard has pending events or envelopes."""
        self._quiesce()
        return self._now

    # ------------------------------------------------------------------ #
    # scripted inputs
    # ------------------------------------------------------------------ #
    def run_script(self, script: Sequence[Tuple[float, Sequence[ScriptOp]]]) -> None:
        """Apply timed op batches, interleaved with windowed execution.

        Each script instant becomes a barrier: all events strictly before
        it execute first, every shard's clock aligns to it, the ops apply
        (facts at their owning shard, link changes everywhere), and
        execution resumes.  Identical semantics to
        :func:`apply_script_serial` scheduling the same ops on a serial
        network.
        """
        for time, ops in sorted(script, key=lambda item: item[0]):
            self._quiesce(limit=time)
            self._now = max(self._now, time)
            self._apply_ops(time, list(ops))
        self._quiesce()

    def apply_ops(self, ops: Sequence[ScriptOp]) -> None:
        """Apply ops at the current global time (after quiescence)."""
        self._quiesce()
        self._apply_ops(self._now, list(ops))
        self._quiesce()

    def _apply_ops(self, time: float, ops: List[ScriptOp]) -> None:
        per_shard: List[List[ScriptOp]] = [[] for _ in range(self.shards)]
        topology_changed = False
        for op in ops:
            if op.kind in ("insert", "delete"):
                per_shard[self.assignment[op.fact.location]].append(op)
            elif op.kind in ("add_link", "remove_link"):
                # Keep the parent's topology replica in sync for lookahead
                # recomputation, then apply at every shard.
                if op.kind == "add_link":
                    if not self.topology.has_link(op.a, op.b):
                        cost = op.cost if op.cost is not None else LinkSpec().cost
                        self.topology.add_link(op.a, op.b, LinkSpec(cost=cost))
                else:
                    self.topology.remove_link(op.a, op.b)
                topology_changed = True
                for shard_ops in per_shard:
                    shard_ops.append(op)
            else:
                raise ValueError(f"unknown script op kind {op.kind!r}")
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin("shard.apply", cat="shard", ops=len(ops))
        replies = self._command_all(
            [("apply", time, per_shard[shard]) for shard in range(self.shards)]
        )
        self._absorb_window_replies(replies)
        if span is not None:
            span.end()
        if topology_changed:
            self._recompute_lookahead()

    # ------------------------------------------------------------------ #
    # merged statistics and digests
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Any]:
        """Network-wide counters, byte-comparable to :func:`collect_summary`."""
        replies = self._command_all([("summary",)] * self.shards)
        hosts: Dict[Any, Dict[str, int]] = {}
        for reply in replies:
            hosts.update(reply["hosts"])
        return {
            "fixpoint_time": max(reply["fixpoint_time"] for reply in replies),
            "traffic": merge_counter_dicts(reply["traffic"] for reply in replies),
            "planner": aggregate_engine_stats(reply["planner"] for reply in replies),
            "prov_rows": merge_counter_dicts(reply["prov_rows"] for reply in replies),
            "query_stats": aggregate_query_stats(
                reply["query_stats"] for reply in replies
            ),
            "hosts": dict(sorted(hosts.items(), key=lambda item: repr(item[0]))),
        }

    def digest(self) -> Dict[Any, Dict[str, Any]]:
        """Per-node strict digests, byte-comparable to :func:`collect_digest`."""
        merged: Dict[Any, Dict[str, Any]] = {}
        for reply in self._command_all([("digest",)] * self.shards):
            merged.update(reply)
        # Deterministic address order (topology order), matching the serial
        # collector's iteration over net.nodes.
        return {node: merged[node] for node in self.topology.nodes if node in merged}

    def convergence_digest(self) -> str:
        """The counter-free convergence digest, derived from :meth:`digest`.

        Byte-comparable to :func:`repro.faults.oracle.convergence_digest`
        of a serial run: the digest keys nodes by ``repr(address)`` and
        sorts them, so shard count cannot affect it.
        """
        from ..faults.oracle import digest_convergence

        return digest_convergence(self.digest())

    def fault_stats(self) -> Dict[str, int]:
        """Fault/transport counters summed across every shard's injector."""
        merged = merge_counter_dicts(
            self._command_all([("fstats",)] * self.shards)
        )
        return dict(sorted(merged.items()))

    def parallelism_report(self) -> Dict[str, Any]:
        """Machine-independent parallelism accounting of the run so far.

        A conservative window is a barrier: its wall-clock is governed by
        its most-loaded shard.  The *critical path* is therefore the sum of
        per-window maximum event counts, and ``attainable_speedup`` —
        total events over critical-path events — is the wall-clock speedup
        this run's schedule admits on enough cores.  Unlike wall-clock it
        is fully deterministic, so benchmarks can gate on it (CI timing
        assertions are banned; this is the honest substitute).
        """
        total = sum(sum(loads) for loads in self.window_loads)
        critical = sum(max(loads) for loads in self.window_loads if loads)
        return {
            "windows": len(self.window_loads),
            "events_total": total,
            "events_critical_path": critical,
            "attainable_speedup": (total / critical) if critical else 1.0,
        }
