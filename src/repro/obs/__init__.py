"""Observability: tracing spans, metrics, and trace exporters.

The reproduction's own provenance layer for *executions*: `Tracer` records
causally-linked spans across the simulator, the NDlog engines, the
distributed provenance query protocol and the sharded barrier driver;
`MetricsRegistry` unifies the scattered counter dictionaries behind one
snapshot; :mod:`repro.obs.export` renders Chrome trace-event JSON (loadable
in Perfetto / ``chrome://tracing``) and a terminal phase summary.

Determinism contract
--------------------
Tracing must never perturb results.  Span timestamps are **simulated**
time (wall-clock is carried as an advisory attribute only), trace context
rides on query payloads under a size-exempt key, and no instrumentation
writes into ``engine.stats`` or any other counter that enters artifact
fingerprints or sharding digests — so fixpoints, VIDs, counters and
benchmark artifacts are bit-identical with tracing on or off, at any
shard count.
"""

from .metrics import MetricsRegistry, merged_counters
from .runtime import TraceSession, active_session, disable_tracing, enable_tracing
from .tracer import Span, SpanRecord, Tracer, TRACE_CONTEXT_KEY
from .export import (
    chrome_trace,
    phase_breakdown,
    phase_summary,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "Tracer",
    "Span",
    "SpanRecord",
    "TRACE_CONTEXT_KEY",
    "MetricsRegistry",
    "merged_counters",
    "TraceSession",
    "enable_tracing",
    "disable_tracing",
    "active_session",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "phase_summary",
    "phase_breakdown",
]
