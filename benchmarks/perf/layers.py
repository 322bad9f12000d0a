"""Per-layer metrics: counts, twins and the traced run's self times.

Three sources, all outside ``src/``: *counts* are before/after deltas of
what the facade already reports (``metrics_snapshot()``, ``storage_stats()``,
the sharded ``summary()``); *twins* re-run a slice of the workload on the
configuration a layer is compared against (serial for the shards, memory
for sqlite, in-process dispatch for the socket); *spans* come from the
program's own tracer (``repro.obs.enable_tracing``) plus the benchmark's
spans around each call it makes.  Kernels live in ``kernels.py``.

A metric a workload never exercises reads 0: the layer did not run.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Any, Dict, List, Mapping, Tuple

import checks
from harness import Recorder, clock, percentile, ratio

#: Span families that are opened in one call frame and closed from a
#: continuation, often on another host: their wall time is *waiting*, so
#: it is reported as such and never subtracted from an enclosing span.
WAITING = ("query.", "shard.")


def _ms(seconds: float) -> float:
    return seconds * 1e3


# ---------------------------------------------------------------------- #
# counts and latencies of the plain (untraced) layer run
# ---------------------------------------------------------------------- #
def plain_metrics(
    recorder: Recorder,
    counts: Mapping[str, float],
    gauges: Mapping[str, float],
    wall_s: float,
) -> Dict[str, float]:
    """Everything derivable from samples and counter deltas.

    *counts* are deltas over the measured phase; *gauges* are the same
    counters' end values (for sizes, where a delta means nothing).
    """
    timed = recorder.calibrated
    count = lambda name: float(counts.get(name, 0))  # noqa: E731
    rounds, queries, rtts = timed("round"), timed("query"), timed("rpc")
    flushes, sqls = timed("flush"), timed("sql")
    checkpoint, restore = sum(timed("checkpoint")), sum(timed("restore"))
    firings = count("engine.rule_firings")
    sha1_calls = count("cache.sha1.hits") + count("cache.sha1.misses")
    vid_calls = count("cache.vid.hits") + count("cache.vid.misses")
    lookups = count("query.cache_hits") + count("query.cache_misses")
    messages = count("net.messages{kind=delta}") + count("net.messages{kind=prov}")
    size = count("net.bytes{kind=delta}") + count("net.bytes{kind=prov}")
    completed = count("query.queries_completed")
    metrics = {
        "op_ms_p90": _ms(percentile(timed("op"), 0.9)),
        "round_ms_p50": _ms(percentile(rounds, 0.5)),
        "round_ms_p90": _ms(percentile(rounds, 0.9)),
        "query_ms_p50": _ms(percentile(queries, 0.5)),
        "query_ms_p99": _ms(percentile(queries, 0.99)),
        "rtt_ms_p50": _ms(percentile(rtts, 0.5)),
        "rtt_ms_p99": _ms(percentile(rtts, 0.99)),
        "flush_s": sum(flushes),
        "checkpoint_s": checkpoint,
        "restore_s": restore,
        "sql_ms_p50": _ms(percentile(sqls, 0.5)),
        "engine.deltas": count("engine.deltas_processed"),
        "engine.rule_firings": firings,
        "engine.deltas_per_s": ratio(count("engine.deltas_processed"), wall_s),
        "plan.index_lookups": count("engine.index_lookups"),
        "plan.tuples_scanned": count("engine.tuples_scanned"),
        "plan.full_scans": count("engine.full_scans"),
        "plan.plans_compiled": count("engine.plans_compiled"),
        "plan.scanned_per_firing": ratio(count("engine.tuples_scanned"), firings),
        "vid.sha1_calls": sha1_calls,
        "vid.sha1_hit_ratio": ratio(count("cache.sha1.hits"), sha1_calls),
        "vid.tuple_vid_hit_ratio": ratio(count("cache.vid.hits"), vid_calls),
        "table.rows_live": float(gauges.get("table.rows", 0)),
        "query.started": count("query.queries_started"),
        "query.completed": completed,
        "query.coalesced_inflight": count("query.coalesced_inflight"),
        "query.coalesced_roots": count("query.coalesced_roots"),
        "query.stale_drops": count("query.stale_drops"),
        "query.msgs_per_query": ratio(count("net.messages{kind=prov}"), completed),
        "query.sim_latency_ms_p50": _ms(percentile(recorder.sim_latencies, 0.5)),
        "query.per_s": ratio(completed, wall_s),
        "cache.hits": count("query.cache_hits"),
        "cache.misses": count("query.cache_misses"),
        "cache.hit_ratio": ratio(count("query.cache_hits"), lookups),
        "cache.invalidations": count("query.cache_invalidations"),
        "cache.evictions": count("query.cache_evictions"),
        "cache.entries": float(gauges.get("query.cache_entries", 0)),
        "sim.events": count("sim.events_executed"),
        "sim.events_per_s": ratio(count("sim.events_executed"), wall_s),
        "sim.sim_seconds": count("sim.now"),
        "net.msgs_delta": count("net.messages{kind=delta}"),
        "net.bytes_delta": count("net.bytes{kind=delta}"),
        "net.msgs_prov": count("net.messages{kind=prov}"),
        "net.bytes_prov": count("net.bytes{kind=prov}"),
        "net.bytes_per_msg": ratio(size, messages),
        "svc.connect_ms": _ms(percentile(timed("connect"), 0.5)),
        "sqlite.journal_appends": count("cache.storage.journal_appends"),
        "sqlite.flushes": count("cache.storage.flushes"),
        "sqlite.flushed_ops": count("cache.storage.flushed_ops"),
        "sqlite.ops_per_flush_s": ratio(count("cache.storage.flushed_ops"), sum(flushes)),
        "sqlite.sql_reachable_ms_p50": _ms(percentile(timed("sql.reachable"), 0.5)),
        "sqlite.sql_subgraph_ms_p50": _ms(percentile(timed("sql.subgraph"), 0.5)),
        "sqlite.encode_rebuild_ms": _ms(sum(timed("sql_first"))),
    }
    for kind in ("ping", "tuples", "query", "update", "prov"):
        metrics[f"svc.{kind}_ms_p50"] = _ms(percentile(timed("rpc." + kind), 0.5))
    return metrics


# ---------------------------------------------------------------------- #
# twins: the configuration each optional layer is compared against
# ---------------------------------------------------------------------- #
def shard_twin(workload: Any, recorder: Recorder) -> Dict[str, float]:
    """A serial network on the same inputs: its time and its ``summary``."""
    from repro.net.sharding import collect_summary

    twin = workload.build(workload.topology)
    recorder.take_probe()
    started = clock()
    twin.seed_links()
    twin.run_to_fixpoint()
    recorder.lap("twin", started)
    recorder.take_probe()
    serial_s = sum(recorder.calibrated("twin"))
    recorder.check(checks.check_sharded_summary(workload.summary, collect_summary(twin)))
    report = workload.report
    return {
        "shard.windows": float(report["windows"]),
        "shard.attainable_speedup": report["attainable_speedup"],
        "shard.serial_fixpoint_s": serial_s,
        "shard.wall_speedup": ratio(serial_s, percentile(recorder.calibrated("fixpoint"), 0.5)),
    }


def sqlite_twin(workload: Any, recorder: Recorder) -> Dict[str, float]:
    """The same flaps on the memory backend: what listener + journal cost."""
    from workloads import flap, transit_stub

    twin = workload.build(transit_stub(*workload.size["shape"]))
    twin.seed_links()
    twin.run_to_fixpoint()
    shadow = Recorder(probe=recorder.probe)
    for link in workload.flaps:
        with shadow.op() as op:
            flap(twin, link, op)
    database = workload.database
    stored = sum(
        os.path.getsize(database + suffix)
        for suffix in ("", "-wal")
        if os.path.exists(database + suffix)
    )
    rows = workload.network.storage_stats()["rows"]
    written = workload.checkpoint["bytes"]
    return {
        "sqlite.listener_overhead_ratio": ratio(
            percentile(recorder.calibrated("round"), 0.5),
            percentile(shadow.calibrated("round"), 0.5),
        ),
        "sqlite.db_bytes": float(stored),
        "sqlite.db_bytes_per_row": ratio(stored, rows),
        "ckpt.bytes": float(written),
        "ckpt.mb_per_s": ratio(written / 1e6, sum(recorder.calibrated("checkpoint"))),
        "ckpt.restore_rows_per_s": ratio(rows, sum(recorder.calibrated("restore"))),
    }


def service_twin(workload: Any, recorder: Recorder) -> Dict[str, float]:
    """The same requests through ``ExspanService.dispatch``, no socket."""
    from repro.service import ExspanService

    workload.stop()
    service = ExspanService(workload.network)
    for cycle in range(min(workload.count("cycles"), 10)):
        recorder.take_probe()
        for _, name, params in workload.requests(cycle):
            started = clock()
            service.dispatch(name, params)
            recorder.lap("twin", started)
    recorder.take_probe()
    direct = percentile(recorder.calibrated("twin"), 0.5)
    return {
        "svc.inproc_ms_p50": _ms(direct),
        "svc.wire_overhead_ms_p50": _ms(percentile(recorder.calibrated("rpc"), 0.5) - direct),
    }


TWINS = {
    "shard2_fixpoint": shard_twin,
    "durable_sqlite": sqlite_twin,
    "service_mixed": service_twin,
}


# ---------------------------------------------------------------------- #
# the traced run
# ---------------------------------------------------------------------- #
class Mark:
    """Where the program's spans stood when the measured phase began."""

    def __init__(self, session: Any):
        self.aggregates = session.phase_aggregates()
        self.kept = {id(tracer): len(tracer.spans) for tracer in session.tracers}

    def since(self, session: Any) -> List[List[Any]]:
        """Per tracer (span ids are unique per tracer only), the records kept since."""
        return [tracer.spans[self.kept.get(id(tracer), 0):] for tracer in session.tracers]


def self_times(session: Any, mark: Mark) -> Tuple[Dict[str, Dict[str, float]], int]:
    """Per span name since *mark*: ``count``, ``wall_ms``, ``self_ms``; and records kept.

    Self time is a span's wall minus what its child spans cover.  Totals
    come from the tracer's aggregates, which stay exact past its
    200 000-record cap; which names nest under which, and in what share,
    is read off the raw records that were kept (the program's spans nest
    ``sim.event > fixpoint.round > engine.batch > plan.exec``).
    """
    totals: Dict[str, Dict[str, float]] = {}
    for name, entry in session.phase_aggregates().items():
        before = mark.aggregates.get(name, {"count": 0, "wall_ms": 0.0})
        count = entry["count"] - before["count"]
        if count:
            totals[name] = {"count": float(count), "wall_ms": entry["wall_ms"] - before["wall_ms"]}
    kept_wall: Dict[str, int] = defaultdict(int)
    under: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    kept = 0
    for records in mark.since(session):
        names = {record.span_id: record.name for record in records}
        kept += len(records)
        for record in records:
            kept_wall[record.name] += record.wall_ns
            parent = names.get(record.parent_id)
            if parent is not None and not record.name.startswith(WAITING):
                under[parent][record.name] += record.wall_ns
    for name, entry in totals.items():
        covered = sum(
            totals[child]["wall_ms"] * wall / kept_wall[child]
            for child, wall in under[name].items()
            if kept_wall[child] and child in totals
        )
        entry["self_ms"] = max(entry["wall_ms"] - covered, 0.0)
    return totals, kept


def traced_metrics(
    session: Any, mark: Mark, slowness: float
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Span figures of the measured phase; times divided by the run's *slowness*."""
    table, kept = self_times(session, mark)
    for entry in table.values():
        entry["wall_ms"] /= slowness
        entry["self_ms"] /= slowness
    cell = lambda name, column: table.get(name, {}).get(column, 0.0)  # noqa: E731
    cut = sum(
        dict(record.args).get("envelopes", 0)
        for records in mark.since(session)
        for record in records
        if record.name == "shard.window"
    )
    metrics = {
        "engine.batch_self_ms": cell("engine.batch", "self_ms"),
        "engine.round_self_ms": cell("fixpoint.round", "self_ms"),
        "plan.exec_ms": cell("plan.exec", "wall_ms"),
        "plan.exec_count": cell("plan.exec", "count"),
        "query.root_ms": cell("query.root", "wall_ms"),
        "query.resolve_count": cell("query.resolve", "count"),
        "query.rule_count": cell("query.rule", "count"),
        "sim.event_self_ms": cell("sim.event", "self_ms"),
        "shard.cut_msgs": float(cut),
        "shard.seed_ms": cell("shard.seed", "wall_ms"),
        "shard.window_ms": cell("shard.window", "wall_ms"),
        "shard.apply_ms": cell("shard.apply", "wall_ms"),
        "trace.spans": float(kept),
        "trace.dropped_spans": float(session.dropped_spans()),
    }
    return metrics, table


def write_chrome_trace(
    path: str,
    workload: str,
    recorder: Recorder,
    table: Mapping[str, Mapping[str, float]],
) -> None:
    """The benchmark's spans on a wall-clock axis, loadable in Perfetto.

    The program's own spans carry *simulated* timestamps, so they cannot
    share this axis; their per-name totals and self times ride along in
    ``otherData`` instead.
    """
    spans = recorder.spans or []
    origin = min((start for _, _, start, _ in spans), default=0.0)
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": workload}}
    ]
    for name, detail, start, end in spans:
        event: Dict[str, Any] = {
            "name": name,
            "cat": "bench",
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
        }
        if detail:
            event["args"] = {"kind": detail}
        events.append(event)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"program_spans": table}},
            handle,
        )
