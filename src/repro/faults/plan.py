"""Declarative, seeded fault plans.

A :class:`FaultPlan` is a frozen description of every fault a run should
experience: probabilistic or counted message drops / duplicates / extra
delays on specific links, node crashes with optional restart, link
flaps, straggler nodes, and shard-worker kills.  The plan itself carries
no mutable state — it is executed by :class:`repro.faults.injector.
FaultInjector`, which derives every random decision from
``(plan.seed, edge, per-edge sequence)`` so the schedule is
bit-reproducible under any ``PYTHONHASHSEED`` and any shard count.

Plans can be built programmatically, parsed from the compact
``parse_fault_spec`` grammar used by the CLI / shell / experiments
``--faults`` knob; forked shard workers inherit the plan object itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "LinkFault",
    "CrashFault",
    "FlapFault",
    "StragglerFault",
    "WorkerKill",
    "FaultPlan",
    "parse_fault_spec",
]

_LINK_KINDS = ("drop", "duplicate", "delay", "reorder")


@dataclass(frozen=True)
class LinkFault:
    """A message-level fault on matching (source, destination) pairs.

    ``kind`` is one of ``drop`` (message vanishes), ``duplicate`` (a
    second copy is transmitted), ``delay`` (extra latency is added) or
    ``reorder`` (alias for ``delay`` — the reliable transport restores
    per-edge FIFO order, so reordering manifests as delayed delivery).
    ``src``/``dst`` of ``None`` match any node.  ``prob`` is the
    per-message firing probability; ``max_events`` caps how many times
    the rule may fire; ``start``/``end`` bound the send-time window.
    """

    kind: str
    src: Optional[str] = None
    dst: Optional[str] = None
    prob: float = 1.0
    delay: float = 0.0
    start: float = 0.0
    end: Optional[float] = None
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _LINK_KINDS:
            raise ValueError(f"unknown link-fault kind {self.kind!r}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {self.prob!r}")
        if self.delay < 0.0:
            raise ValueError("delay must be non-negative")

    def matches(self, src: str, dst: str, when: float) -> bool:
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        if when < self.start:
            return False
        if self.end is not None and when >= self.end:
            return False
        return True


@dataclass(frozen=True)
class CrashFault:
    """Fail-stop crash of ``node`` at time ``at``.

    The node loses all volatile state (engine tables, provenance store,
    query-service caches) and every queued delivery addressed to it is
    cancelled.  With ``restart_after`` set, the node restarts that many
    seconds later and re-derives its state by replaying the injector's
    durable journal; with ``restart_after=None`` the node stays dead for
    the rest of the run (queries touching it degrade to ``partial``).
    """

    node: str
    at: float
    restart_after: Optional[float] = None


@dataclass(frozen=True)
class FlapFault:
    """Link ``a``—``b`` goes down at ``down_at`` and back up ``up_after``
    seconds later (with the original or an overridden ``cost``)."""

    a: str
    b: str
    down_at: float
    up_after: float
    cost: Optional[int] = None


@dataclass(frozen=True)
class StragglerFault:
    """Node whose *outbound* messages suffer ``delay`` extra seconds of
    latency inside the ``start``/``end`` window.  Applying the penalty on
    the send side keeps the schedule a pure function of sender-local
    history, which is what makes it shard-invariant."""

    node: str
    delay: float
    start: float = 0.0
    end: Optional[float] = None

    def matches(self, src: str, when: float) -> bool:
        if self.node != src:
            return False
        if when < self.start:
            return False
        if self.end is not None and when >= self.end:
            return False
        return True


@dataclass(frozen=True)
class WorkerKill:
    """SIGKILL shard ``shard`` after it has completed ``after_windows``
    conservative windows.  Consumed by ``ShardedExspanNetwork`` (the
    supervisor restarts the worker and replays its command log); ignored
    by serial runs, where there is no worker to kill."""

    shard: int
    after_windows: int = 1


@dataclass(frozen=True)
class FaultPlan:
    """The complete, seeded fault schedule for one run."""

    seed: int = 0
    link_faults: Tuple[LinkFault, ...] = ()
    crashes: Tuple[CrashFault, ...] = ()
    flaps: Tuple[FlapFault, ...] = ()
    stragglers: Tuple[StragglerFault, ...] = ()
    worker_kills: Tuple[WorkerKill, ...] = ()
    rto: float = 0.05
    max_attempts: Optional[int] = None
    metadata: Dict[str, Any] = field(default_factory=dict, compare=False)

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls()

    def is_empty(self) -> bool:
        return not (
            self.link_faults
            or self.crashes
            or self.flaps
            or self.stragglers
            or self.worker_kills
        )

    def has_flaps(self) -> bool:
        return bool(self.flaps)

    def describe(self) -> str:
        """The plan in the :func:`parse_fault_spec` grammar, which parses it
        back to an equal plan; a field at its default is left out."""
        parts = [f"seed={self.seed}"]
        if self.rto != 0.05:
            parts.append(f"rto={self.rto}")
        if self.max_attempts is not None:
            parts.append(f"attempts={self.max_attempts}")
        for rule in self.link_faults:
            bits = [rule.kind, f"{rule.src or '*'}->{rule.dst or '*'}"]
            if rule.prob != 1.0:
                bits.append(f"p={rule.prob}")
            if rule.delay:
                bits.append(f"d={rule.delay}")
            if rule.max_events is not None:
                bits.append(f"n={rule.max_events}")
            bits += _window(rule.start, rule.end)
            parts.append(":".join(bits))
        for crash in self.crashes:
            tail = "" if crash.restart_after is None else f":restart={crash.restart_after}"
            parts.append(f"crash:{crash.node}@{crash.at}{tail}")
        for flap in self.flaps:
            cost = "" if flap.cost is None else f":cost={flap.cost}"
            parts.append(f"flap:{flap.a}-{flap.b}@{flap.down_at}:up={flap.up_after}{cost}")
        for lag in self.stragglers:
            bits = [f"straggler:{lag.node}:d={lag.delay}", *_window(lag.start, lag.end)]
            parts.append(":".join(bits))
        for kill in self.worker_kills:
            parts.append(f"killworker:{kill.shard}@{kill.after_windows}")
        return ";".join(parts)


def _window(start: float, end: Optional[float]) -> list:
    """The ``from=`` / ``until=`` options of a send-time window, as set."""
    bits = [] if start == 0.0 else [f"from={start}"]
    return bits if end is None else [*bits, f"until={end}"]


def _parse_options(tokens: list) -> Dict[str, str]:
    options: Dict[str, str] = {}
    for token in tokens:
        for piece in token.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ValueError(f"malformed fault option {piece!r}")
            key, value = piece.split("=", 1)
            options[key.strip()] = value.strip()
    return options


def _node(token: str) -> Optional[str]:
    return None if token in ("*", "") else token


def parse_fault_spec(text: str) -> FaultPlan:
    """Parse the compact fault-plan grammar.

    Clauses are semicolon-separated::

        seed=42; rto=0.05; attempts=8
        drop:a->b:p=0.3,n=5,from=0.0,until=2.0
        dup:*->n2:p=0.2
        delay:n1->*:d=0.01,p=0.5
        reorder:a->b:p=0.4,d=0.02
        crash:n3@1.0:restart=0.5
        flap:a-b@2.0:up=1.0,cost=3
        straggler:n2:d=0.01,from=0.0,until=5.0
        killworker:1@2

    ``*`` matches any node.  Unknown clauses raise ``ValueError``.
    """
    seed = 0
    rto = 0.05
    max_attempts: Optional[int] = None
    link_faults = []
    crashes = []
    flaps = []
    stragglers = []
    kills = []
    alias = {"dup": "duplicate"}
    for raw in text.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            seed = int(clause[5:])
            continue
        if clause.startswith("rto="):
            rto = float(clause[4:])
            continue
        if clause.startswith("attempts="):
            max_attempts = int(clause[9:])
            continue
        head, *rest = clause.split(":")
        head = head.strip()
        kind = alias.get(head, head)
        if kind in _LINK_KINDS:
            if not rest:
                raise ValueError(f"{head} clause needs a SRC->DST part")
            edge = rest[0].strip()
            if "->" not in edge:
                raise ValueError(f"malformed edge {edge!r} (expected SRC->DST)")
            src_token, dst_token = (part.strip() for part in edge.split("->", 1))
            options = _parse_options(rest[1:])
            delay = float(options.pop("d", 0.0))
            if kind == "reorder" and delay == 0.0:
                delay = 0.005
            link_faults.append(
                LinkFault(
                    kind="delay" if kind == "reorder" else kind,
                    src=_node(src_token),
                    dst=_node(dst_token),
                    prob=float(options.pop("p", 1.0)),
                    delay=delay,
                    start=float(options.pop("from", 0.0)),
                    end=float(options["until"]) if options.get("until") else None,
                    max_events=int(options["n"]) if options.get("n") else None,
                )
            )
            options.pop("until", None)
            options.pop("n", None)
            if options:
                raise ValueError(f"unknown options {sorted(options)} in {clause!r}")
        elif kind == "crash":
            if not rest or "@" not in rest[0]:
                raise ValueError(f"malformed crash clause {clause!r} (crash:NODE@T)")
            node, at = rest[0].rsplit("@", 1)
            if not node:
                raise ValueError(f"malformed crash clause {clause!r} (empty node)")
            options = _parse_options(rest[1:])
            restart = options.pop("restart", None)
            if options:
                raise ValueError(f"unknown options {sorted(options)} in {clause!r}")
            crashes.append(
                CrashFault(
                    node=node.strip(),
                    at=float(at),
                    restart_after=float(restart) if restart is not None else None,
                )
            )
        elif kind == "flap":
            if not rest or "@" not in rest[0] or "-" not in rest[0].split("@", 1)[0]:
                raise ValueError(f"malformed flap clause {clause!r} (flap:A-B@T:up=D)")
            edge, at = rest[0].rsplit("@", 1)
            a, b = (part.strip() for part in edge.split("-", 1))
            options = _parse_options(rest[1:])
            if "up" not in options:
                raise ValueError(f"flap clause {clause!r} needs up=DURATION")
            cost = options.pop("cost", None)
            flaps.append(
                FlapFault(
                    a=a,
                    b=b,
                    down_at=float(at),
                    up_after=float(options.pop("up")),
                    cost=int(cost) if cost is not None else None,
                )
            )
            if options:
                raise ValueError(f"unknown options {sorted(options)} in {clause!r}")
        elif kind == "straggler":
            if not rest:
                raise ValueError(f"straggler clause {clause!r} needs NODE:d=DELAY")
            options = _parse_options(rest[1:])
            if "d" not in options:
                raise ValueError(f"straggler clause {clause!r} needs d=DELAY")
            stragglers.append(
                StragglerFault(
                    node=rest[0].strip(),
                    delay=float(options.pop("d")),
                    start=float(options.pop("from", 0.0)),
                    end=float(options["until"]) if options.get("until") else None,
                )
            )
            options.pop("until", None)
            if options:
                raise ValueError(f"unknown options {sorted(options)} in {clause!r}")
        elif kind == "killworker":
            if not rest or "@" not in rest[0]:
                raise ValueError(
                    f"malformed killworker clause {clause!r} (killworker:SHARD@WINDOWS)"
                )
            shard, windows = rest[0].rsplit("@", 1)
            kills.append(WorkerKill(shard=int(shard), after_windows=int(windows)))
        else:
            raise ValueError(f"unknown fault clause {clause!r}")
    return FaultPlan(
        seed=seed,
        rto=rto,
        max_attempts=max_attempts,
        link_faults=tuple(link_faults),
        crashes=tuple(crashes),
        flaps=tuple(flaps),
        stragglers=tuple(stragglers),
        worker_kills=tuple(kills),
    )
