"""Process-wide trace session plumbing.

The orchestrator runs trial functions that build their networks deep
inside library code, so tracing is switched on per *process* rather than
threaded through every constructor: :func:`enable_tracing` opens a
:class:`TraceSession`, and every :class:`~repro.core.api.ExspanNetwork`
(or sharded driver) built while a session is active registers a fresh
tracer with it automatically.  The experiment orchestrator opens one
session around each trial whose ``ExecutionEnv.trace_dir`` is set and
closes it when the trial returns, so no session outlives its trial.

Shard worker processes call :func:`disable_tracing` on startup: they
inherit the parent's session state via ``fork``, but their spans are
collected explicitly over the worker pipe (the ``"spans"`` verb), not
through an inherited session object.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from .tracer import SpanRecord, Tracer

__all__ = ["TraceSession", "enable_tracing", "disable_tracing", "active_session"]


class TraceSession:
    """All tracers opened while tracing is enabled in this process."""

    def __init__(self) -> None:
        self.tracers: List[Tracer] = []

    def new_tracer(
        self, clock: Optional[Callable[[], float]] = None, shard: int = 0
    ) -> Tracer:
        tracer = Tracer(clock=clock, shard=shard)
        self.tracers.append(tracer)
        return tracer

    def span_records(self) -> List[SpanRecord]:
        """Every span of every tracer, in deterministic merged order."""
        merged: List[SpanRecord] = []
        for tracer in self.tracers:
            merged.extend(tracer.spans)
        merged.sort(key=lambda record: (record.ts, record.shard, record.seq))
        return merged

    def phase_aggregates(self) -> Dict[str, Dict[str, Any]]:
        """Merged per-phase aggregates across every tracer."""
        out: Dict[str, Dict[str, Any]] = {}
        for tracer in self.tracers:
            for name, entry in tracer.phase_aggregates().items():
                merged = out.setdefault(
                    name, {"cat": entry["cat"], "count": 0, "wall_ms": 0.0}
                )
                merged["count"] += entry["count"]
                merged["wall_ms"] = round(merged["wall_ms"] + entry["wall_ms"], 3)
        return dict(sorted(out.items()))

    def dropped_spans(self) -> int:
        return sum(tracer.dropped_spans for tracer in self.tracers)


_session: Optional[TraceSession] = None


def enable_tracing() -> TraceSession:
    """Open (or return) the process-wide trace session."""
    global _session
    if _session is None:
        _session = TraceSession()
    return _session


def disable_tracing() -> None:
    """Close the session; networks built afterwards are untraced."""
    global _session
    _session = None


def active_session() -> Optional[TraceSession]:
    return _session
