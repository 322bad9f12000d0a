"""Span tracing with a zero-overhead-when-disabled contract.

Every instrumentation point in the stack follows one pattern::

    tracer = self.tracer
    if tracer is not None:
        with tracer.span("fixpoint.round", cat="engine", host=self.address):
            ...

so a disabled tracer (the default: ``self.tracer is None``) costs exactly
one attribute load and one identity check — nothing is allocated, no
clock is read.  The engine's fused delta loop reads its tracer once per
:meth:`repro.datalog.engine.NDlogEngine.run`, not once per delta.

Time axes
---------
Span ``ts``/``dur`` are **simulated seconds** read from the tracer's
clock (the owning simulator), which makes traces — like every other
result in this reproduction — a deterministic function of the workload.
Real elapsed time is measured with ``perf_counter_ns`` and carried as the
*advisory* ``wall_ns`` field: it is what the phase summaries report, and
it never feeds anything fingerprinted.

Causality
---------
Context-managed spans nest on a per-tracer stack, so children link to
their enclosing span automatically.  Asynchronous work (a provenance
resolution parked on a continuation) uses :meth:`Tracer.begin` /
:meth:`Span.end` and links explicitly via a ``(trace_id, parent_span_id)``
context tuple — the same tuple the query protocol ships across hosts
under :data:`TRACE_CONTEXT_KEY`, which is how one distributed query
renders as a single causally-linked tree spanning several hosts (and
shard processes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["SpanRecord", "Span", "Tracer", "TRACE_CONTEXT_KEY", "MAX_SPANS"]

#: Reserved key carrying ``[trace_id, parent_span_id]`` on provenance query
#: payload dicts.  :func:`repro.net.message.payload_size` exempts it from
#: wire-size accounting so byte counters are identical with tracing on/off.
TRACE_CONTEXT_KEY = "_tc"

#: Bound on retained span records per tracer.  Aggregates stay exact past
#: the cap (only raw records are dropped, and counted).
MAX_SPANS = 200_000

#: A propagated trace context: ``(trace_id, parent_span_id)``.
TraceContext = Tuple[str, str]


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One completed span.  Plain data: picklable across shard pipes."""

    name: str
    cat: str
    ts: float  # simulated seconds (span start)
    dur: float  # simulated seconds
    host: Any
    shard: int
    seq: int
    trace_id: Optional[str]
    span_id: str
    parent_id: Optional[str]
    wall_ns: int  # advisory real elapsed time
    args: Tuple[Tuple[str, Any], ...] = ()


class Span:
    """A span in progress; context manager or explicit :meth:`end`."""

    __slots__ = (
        "_tracer",
        "name",
        "cat",
        "host",
        "trace_id",
        "span_id",
        "parent_id",
        "_args",
        "_ts",
        "_wall0",
        "_stacked",
        "_ended",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        host: Any,
        trace_id: Optional[str],
        span_id: str,
        parent_id: Optional[str],
        args: Dict[str, Any],
    ):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.host = host
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self._args = args
        self._ts = tracer._clock()
        self._wall0 = time.perf_counter_ns()
        self._stacked = False
        self._ended = False

    def add(self, **extra: Any) -> None:
        """Attach attributes to the span (advisory; merged into ``args``)."""
        self._args.update(extra)

    def context(self) -> TraceContext:
        """The ``(trace_id, span_id)`` tuple children link against."""
        return (self.trace_id or self.span_id, self.span_id)

    def end(self, **extra: Any) -> None:
        """Finish the span (idempotent); records it with the tracer."""
        if self._ended:
            return
        self._ended = True
        if extra:
            self._args.update(extra)
        self._tracer._finish(self)

    def __enter__(self) -> "Span":
        self._stacked = True
        self._tracer._stack.append(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        self.end()


class Tracer:
    """Collects spans for one simulation process (or shard worker).

    ``clock`` supplies simulated time (installed by the owning network once
    its simulator exists); ``shard`` tags every record so cross-shard
    merges stay deterministic.  Aggregates — per ``(cat, name)`` span
    counts and advisory wall time — are exact even past :data:`MAX_SPANS`.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        shard: int = 0,
    ):
        self._clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self.shard = shard
        self.spans: List[SpanRecord] = []
        self.dropped_spans = 0
        #: (cat, name) -> [span count, advisory wall ns]
        self._aggregates: Dict[Tuple[str, str], List[int]] = {}
        self._stack: List[Span] = []
        self._next_span = 0
        self._next_trace = 0
        self._next_record = 0

    # ------------------------------------------------------------------ #
    # span creation
    # ------------------------------------------------------------------ #
    def set_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def span(
        self,
        name: str,
        cat: str = "",
        host: Any = None,
        trace: Optional[TraceContext] = None,
        **args: Any,
    ) -> Span:
        """A context-managed span; nests under the enclosing span."""
        return self._open(name, cat, host, trace, args)

    def begin(
        self,
        name: str,
        cat: str = "",
        host: Any = None,
        trace: Optional[TraceContext] = None,
        **args: Any,
    ) -> Span:
        """An explicitly-ended span for work that outlives the call frame.

        Identical to :meth:`span` except the caller must invoke
        :meth:`Span.end` (typically from a continuation); it still inherits
        the enclosing stacked span as parent unless ``trace`` says
        otherwise.
        """
        return self._open(name, cat, host, trace, args)

    def _open(
        self,
        name: str,
        cat: str,
        host: Any,
        trace: Optional[TraceContext],
        args: Dict[str, Any],
    ) -> Span:
        self._next_span += 1
        span_id = f"s{self.shard}.{self._next_span}"
        trace_id: Optional[str] = None
        parent_id: Optional[str] = None
        if trace is not None:
            trace_id, parent_id = trace[0], trace[1]
        elif self._stack:
            parent = self._stack[-1]
            trace_id, parent_id = parent.trace_id, parent.span_id
        return Span(self, name, cat, host, trace_id, span_id, parent_id, args)

    def new_trace(self) -> str:
        """A fresh trace id (one per root query / logical request)."""
        self._next_trace += 1
        return f"t{self.shard}.{self._next_trace}"

    def request(
        self,
        name: str,
        cat: str = "service",
        host: Any = None,
        **args: Any,
    ) -> Span:
        """A context-managed root span in a fresh trace.

        The query service wraps every wire request in one of these, so
        everything the engine emits while handling the request — query
        resolution rounds, rule firings, cache probes — nests under one
        per-request trace id instead of the caller's ambient span stack.
        """
        return self._open(name, cat, host, (self.new_trace(), None), args)

    # ------------------------------------------------------------------ #
    # record collection
    # ------------------------------------------------------------------ #
    def _finish(self, span: Span) -> None:
        wall_ns = time.perf_counter_ns() - span._wall0
        key = (span.cat, span.name)
        aggregate = self._aggregates.get(key)
        if aggregate is None:
            self._aggregates[key] = [1, wall_ns]
        else:
            aggregate[0] += 1
            aggregate[1] += wall_ns
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return
        end_ts = self._clock()
        self._next_record += 1
        self.spans.append(
            SpanRecord(
                name=span.name,
                cat=span.cat,
                ts=span._ts,
                dur=max(end_ts - span._ts, 0.0),
                host=span.host,
                shard=self.shard,
                seq=self._next_record,
                trace_id=span.trace_id,
                span_id=span.span_id,
                parent_id=span.parent_id,
                wall_ns=wall_ns,
                args=tuple(sorted(span._args.items())),
            )
        )

    # ------------------------------------------------------------------ #
    # merging / export
    # ------------------------------------------------------------------ #
    def export_state(self) -> Tuple[Tuple[SpanRecord, ...], Dict[Tuple[str, str], Tuple[int, int]], int]:
        """Picklable state shipped from a shard worker to the driver."""
        return (
            tuple(self.spans),
            {key: (value[0], value[1]) for key, value in self._aggregates.items()},
            self.dropped_spans,
        )

    def absorb(
        self,
        state: Tuple[Iterable[SpanRecord], Dict[Tuple[str, str], Tuple[int, int]], int],
    ) -> None:
        """Merge another tracer's exported state (cross-shard trace merge)."""
        records, aggregates, dropped = state
        self.spans.extend(records)
        for key, (count, wall_ns) in sorted(aggregates.items()):
            aggregate = self._aggregates.get(key)
            if aggregate is None:
                self._aggregates[key] = [count, wall_ns]
            else:
                aggregate[0] += count
                aggregate[1] += wall_ns
        self.dropped_spans += dropped

    def phase_aggregates(self) -> Dict[str, Dict[str, Any]]:
        """Per-span-name totals: count and advisory wall milliseconds."""
        out: Dict[str, Dict[str, Any]] = {}
        for (cat, name), (count, wall_ns) in sorted(self._aggregates.items()):
            entry = out.setdefault(name, {"cat": cat, "count": 0, "wall_ms": 0.0})
            entry["count"] += count
            entry["wall_ms"] = round(entry["wall_ms"] + wall_ns / 1e6, 3)
        return out

    def __len__(self) -> int:
        return len(self.spans)
