"""Trace exporters: Chrome trace-event JSON and a terminal phase summary.

The Chrome format is the ``"X"`` (complete-event) flavour of the trace
event spec — a ``{"traceEvents": [...]}`` object loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  Processes map to
shards and threads to hosts, so a sharded run renders each shard as a
process lane with its hosts stacked inside; timestamps are simulated
microseconds (the deterministic axis), with advisory wall time, trace ids
and span links carried in each event's ``args``.

:func:`validate_chrome_trace` is the schema check the CI smoke job runs
against captured traces, and :func:`phase_summary` renders the
flamegraph-style per-phase breakdown the ``trace`` CLI subcommand prints.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from .tracer import SpanRecord

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "load_trace",
    "validate_chrome_trace",
    "phase_breakdown",
    "phase_summary",
    "summarize_trace_events",
]


def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    return repr(value)


def _lane_maps(spans: Sequence[SpanRecord]) -> Tuple[Dict[int, int], Dict[Any, int]]:
    """Deterministic shard->pid and host->tid assignments."""
    shards = sorted({record.shard for record in spans})
    pids = {shard: shard + 1 for shard in shards}  # shard -1 (driver) -> pid 0
    hosts = sorted({record.host for record in spans if record.host is not None}, key=repr)
    tids = {host: index + 1 for index, host in enumerate(hosts)}  # tid 0 = control
    return pids, tids


def chrome_trace(spans: Iterable[SpanRecord]) -> Dict[str, Any]:
    """Build the Chrome trace-event payload for *spans*."""
    ordered = sorted(spans, key=lambda record: (record.ts, record.shard, record.seq))
    pids, tids = _lane_maps(ordered)
    events: List[Dict[str, Any]] = []
    for shard, pid in pids.items():
        label = "driver" if shard < 0 else f"shard {shard}"
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    for host, tid in tids.items():
        for pid in pids.values():
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"host {host!r}"},
                }
            )
    for record in ordered:
        args: Dict[str, Any] = {key: _json_safe(value) for key, value in record.args}
        args["wall_us"] = round(record.wall_ns / 1e3, 3)
        args["span_id"] = record.span_id
        if record.trace_id is not None:
            args["trace_id"] = record.trace_id
        if record.parent_id is not None:
            args["parent_id"] = record.parent_id
        events.append(
            {
                "ph": "X",
                "name": record.name,
                "cat": record.cat or "span",
                "ts": round(record.ts * 1e6, 3),
                "dur": round(record.dur * 1e6, 3),
                "pid": pids[record.shard],
                "tid": tids.get(record.host, 0),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Iterable[SpanRecord]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans), handle, indent=1)
        handle.write("\n")


def load_trace(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def validate_chrome_trace(payload: Any) -> List[str]:
    """Check *payload* against the trace-event schema; return error list.

    Accepts the object form (``{"traceEvents": [...]}``) produced by
    :func:`chrome_trace`; an empty return value means the trace is valid.
    """
    errors: List[str] = []
    if not isinstance(payload, Mapping):
        return [f"trace payload must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, Mapping):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M"):
            errors.append(f"{where}: unsupported ph {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{where}: missing name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                errors.append(f"{where}: {field} must be an integer")
        if phase == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(f"{where}: {field} must be a non-negative number")
            if "args" in event and not isinstance(event["args"], Mapping):
                errors.append(f"{where}: args must be an object")
        else:  # metadata
            args = event.get("args")
            if not isinstance(args, Mapping) or not isinstance(args.get("name"), str):
                errors.append(f"{where}: metadata event needs args.name")
        if len(errors) >= 20:
            errors.append("... (further errors suppressed)")
            break
    return errors


# ---------------------------------------------------------------------- #
# phase summaries
# ---------------------------------------------------------------------- #
def phase_breakdown(aggregates: Mapping[str, Mapping[str, Any]]) -> Dict[str, Any]:
    """JSON-able advisory per-phase breakdown for BENCH artifacts.

    Input is :meth:`repro.obs.tracer.Tracer.phase_aggregates` output; the
    result lands in each trial record under the advisory ``"phases"`` key
    (stripped before any byte-identity comparison, like ``wall_seconds``).
    """
    return {
        name: {"count": entry["count"], "wall_ms": entry["wall_ms"]}
        for name, entry in sorted(aggregates.items())
    }


def summarize_trace_events(events: Iterable[Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Rebuild phase aggregates from exported ``"X"`` events."""
    aggregates: Dict[str, Dict[str, Any]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        name = event.get("name", "?")
        args = event.get("args") or {}
        wall_us = args.get("wall_us", 0.0)
        entry = aggregates.setdefault(
            name, {"cat": event.get("cat", ""), "count": 0, "wall_ms": 0.0}
        )
        entry["count"] += 1
        entry["wall_ms"] = round(entry["wall_ms"] + wall_us / 1e3, 3)
    return dict(sorted(aggregates.items()))


#: Characters in the share bar of a phase taking all the wall time.
_BAR_WIDTH = 28


def phase_summary(aggregates: Mapping[str, Mapping[str, Any]]) -> str:
    """Terminal flamegraph-style phase table (advisory wall time)."""
    if not aggregates:
        return "trace: no spans recorded"
    rows = sorted(
        aggregates.items(), key=lambda item: (-item[1].get("wall_ms", 0.0), item[0])
    )
    total = sum(entry.get("wall_ms", 0.0) for _, entry in rows) or 1.0
    lines = ["phase summary (advisory wall time):"]
    header = f"  {'span':<18} {'cat':<8} {'count':>9} {'wall ms':>10}  share"
    lines.append(header)
    for name, entry in rows:
        wall_ms = entry.get("wall_ms", 0.0)
        share = wall_ms / total
        bar = "#" * max(int(share * _BAR_WIDTH + 0.5), 1 if wall_ms else 0)
        lines.append(
            f"  {name:<18} {entry.get('cat', ''):<8} {entry.get('count', 0):>9} "
            f"{wall_ms:>10.2f}  {share:>5.1%} {bar}"
        )
    return "\n".join(lines)
