"""Every metric the runner prints: name, unit, which way is better.

``BENCHMARK.json`` carries the same names and units (a test compares the
two); regression bounds live only there, because ``--aa`` rewrites them
from measured spreads.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: ``run_seconds`` of ``BENCHMARK.json``: the ``--seconds`` at which every
#: workload does its full-size operation counts.  Other values scale them.
RUN_SECONDS = 10

#: The share of the full counts the layer pass (``--trace 1``) runs, twice
#: (plain, then traced), so that it fits the same per-run time budget.
LAYER_SHARE = 0.35

Metric = Tuple[str, str, str]  # name, unit, better

#: What a user of the system sees.  Every workload reports every one of
#: these (the builder's contract), so each is defined for all seven; the
#: per-operation-type latencies of the issue sit in PER_LAYER instead.
#: README.md says what each one is.
END_TO_END: List[Metric] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("fixpoint_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("wire_mb", "MB", "lower"),
]

PER_LAYER: List[Metric] = [
    # tails: none repeated within a tenth over five A/A sets (see AA.md), so
    # by the issue's rule they are printed here instead of carrying a wide bound
    ("op_ms_p90", "ms", "lower"),
    # the issue's per-operation latencies (not defined on every workload)
    ("round_ms_p50", "ms", "lower"),
    ("round_ms_p90", "ms", "lower"),
    ("query_ms_p50", "ms", "lower"),
    ("query_ms_p99", "ms", "lower"),
    ("rtt_ms_p50", "ms", "lower"),
    ("rtt_ms_p99", "ms", "lower"),
    ("flush_s", "s", "lower"),
    ("checkpoint_s", "s", "lower"),
    ("restore_s", "s", "lower"),
    ("sql_ms_p50", "ms", "lower"),
    # datalog.engine
    ("engine.deltas", "count", "lower"),
    ("engine.rule_firings", "count", "lower"),
    ("engine.deltas_per_s", "1/s", "higher"),
    ("engine.batch_self_ms", "ms", "lower"),
    ("engine.round_self_ms", "ms", "lower"),
    # datalog.plan
    ("plan.exec_ms", "ms", "lower"),
    ("plan.exec_count", "count", "lower"),
    ("plan.index_lookups", "count", "lower"),
    ("plan.tuples_scanned", "count", "lower"),
    ("plan.full_scans", "count", "lower"),
    ("plan.plans_compiled", "count", "lower"),
    ("plan.scanned_per_firing", "ratio", "lower"),
    ("program.compile_ms", "ms", "lower"),
    # datalog.functions + core.vid
    ("vid.sha1_calls", "count", "lower"),
    ("vid.sha1_hit_ratio", "ratio", "higher"),
    ("vid.tuple_vid_hit_ratio", "ratio", "higher"),
    ("vid.ns_per_vid_cold", "ns", "lower"),
    ("vid.ns_per_vid_warm", "ns", "lower"),
    # storage.memory
    ("table.rows_live", "count", "lower"),
    ("table.ns_per_insert", "ns", "lower"),
    ("table.ns_per_delete", "ns", "lower"),
    ("table.ns_per_lookup", "ns", "lower"),
    # core.bdd + core.semiring
    ("bdd.nodes", "count", "lower"),
    ("bdd.ns_per_and", "ns", "lower"),
    ("bdd.ns_per_or", "ns", "lower"),
    ("annot.encode_us", "us", "lower"),
    ("annot.bytes_p50", "B", "lower"),
    # core.query
    ("query.started", "count", "lower"),
    ("query.completed", "count", "higher"),
    ("query.coalesced_inflight", "count", "higher"),
    ("query.coalesced_roots", "count", "higher"),
    ("query.stale_drops", "count", "lower"),
    ("query.msgs_per_query", "ratio", "lower"),
    ("query.sim_latency_ms_p50", "ms", "lower"),
    ("query.root_ms", "ms", "lower"),
    ("query.resolve_count", "count", "lower"),
    ("query.rule_count", "count", "lower"),
    ("query.per_s", "1/s", "higher"),
    # core.cache
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.invalidations", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.entries", "count", "lower"),
    ("cache.ns_per_put", "ns", "lower"),
    ("cache.ns_per_get", "ns", "lower"),
    ("cache.ns_per_invalidate", "ns", "lower"),
    # net.simulator
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.event_self_ms", "ms", "lower"),
    ("sim.ns_per_noop_event", "ns", "lower"),
    ("sim.sim_seconds", "s", "lower"),
    # net.message + net.network + net.stats
    ("net.msgs_delta", "count", "lower"),
    ("net.bytes_delta", "B", "lower"),
    ("net.msgs_prov", "count", "lower"),
    ("net.bytes_prov", "B", "lower"),
    ("net.bytes_per_msg", "B", "lower"),
    ("net.ns_per_payload_size", "ns", "lower"),
    # net.sharding
    ("shard.windows", "count", "lower"),
    ("shard.cut_msgs", "count", "lower"),
    ("shard.seed_ms", "ms", "lower"),
    ("shard.window_ms", "ms", "lower"),
    ("shard.apply_ms", "ms", "lower"),
    ("shard.attainable_speedup", "ratio", "higher"),
    ("shard.serial_fixpoint_s", "s", "lower"),
    ("shard.wall_speedup", "ratio", "higher"),
    # service.protocol + service.server
    ("svc.ping_ms_p50", "ms", "lower"),
    ("svc.tuples_ms_p50", "ms", "lower"),
    ("svc.query_ms_p50", "ms", "lower"),
    ("svc.update_ms_p50", "ms", "lower"),
    ("svc.prov_ms_p50", "ms", "lower"),
    ("svc.connect_ms", "ms", "lower"),
    ("svc.inproc_ms_p50", "ms", "lower"),
    ("svc.wire_overhead_ms_p50", "ms", "lower"),
    ("svc.bytes_in_per_req", "B", "lower"),
    ("svc.bytes_out_per_req", "B", "lower"),
    ("svc.ns_per_encode", "ns", "lower"),
    ("svc.ns_per_decode", "ns", "lower"),
    # storage.sqlite + storage.checkpoint
    ("sqlite.journal_appends", "count", "lower"),
    ("sqlite.flushes", "count", "lower"),
    ("sqlite.flushed_ops", "count", "lower"),
    ("sqlite.ops_per_flush_s", "1/s", "higher"),
    ("sqlite.db_bytes", "B", "lower"),
    ("sqlite.db_bytes_per_row", "B", "lower"),
    ("sqlite.listener_overhead_ratio", "ratio", "lower"),
    ("sqlite.sql_reachable_ms_p50", "ms", "lower"),
    ("sqlite.sql_subgraph_ms_p50", "ms", "lower"),
    ("sqlite.encode_rebuild_ms", "ms", "lower"),
    ("ckpt.bytes", "B", "lower"),
    ("ckpt.mb_per_s", "MB/s", "higher"),
    ("ckpt.restore_rows_per_s", "1/s", "higher"),
    # obs.tracer / the process
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.dropped_spans", "count", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("proc.import_ms", "ms", "lower"),
    ("proc.gc_collections", "count", "lower"),
    ("proc.wall_raw_s", "s", "lower"),
    ("proc.slowness", "ratio", "lower"),
]

END_TO_END_UNITS: Dict[str, str] = {name: unit for name, unit, _ in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}
