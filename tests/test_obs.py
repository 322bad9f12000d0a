"""The observability subsystem: tracer, metrics, exporters, determinism.

The headline contract under test is the one ISSUE 6 states: **tracing
never perturbs results**.  A traced run must produce bit-identical
fixpoints, provenance state, counters and artifacts to an untraced run —
at any shard count — because span timestamps come from simulated time and
no instrumentation writes into fingerprinted counters.  Also covered:
span causality (nesting, explicit contexts, cross-host trace-id
propagation over the query protocol), the bounded span buffer, the
Chrome trace-event exporter and its schema validator, the labelled
metrics registry, and the orchestrator's
``--trace`` capture path.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode, QueryRequest
from repro.core.customizations import derivation_count_query
from repro.datalog.ast import Fact
from repro.net.message import TRACE_CONTEXT_KEY, payload_size
from repro.net.sharding import ShardedExspanNetwork, collect_digest, collect_summary
from repro.net.topology import cluster_topology, ring_topology
from repro.obs import (
    MetricsRegistry,
    Tracer,
    active_session,
    chrome_trace,
    disable_tracing,
    enable_tracing,
    merged_counters,
    phase_breakdown,
    phase_summary,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import load_trace, summarize_trace_events
from repro.protocols import mincost_program


class FakeClock:
    """A hand-cranked simulated clock for tracer unit tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------- #
# tracer core
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_nested_spans_link_to_enclosing_parent(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", cat="a") as outer:
            clock.now = 1.0
            with tracer.span("inner", cat="b") as inner:
                clock.now = 3.0
        assert inner.parent_id == outer.span_id
        records = {record.name: record for record in tracer.spans}
        assert records["inner"].parent_id == records["outer"].span_id
        assert records["inner"].ts == 1.0
        assert records["inner"].dur == 2.0
        assert records["outer"].ts == 0.0
        assert records["outer"].dur == 3.0

    def test_explicit_trace_context_overrides_stack(self):
        tracer = Tracer()
        trace_id = tracer.new_trace()
        with tracer.span("enclosing"):
            span = tracer.begin("async", trace=(trace_id, "s9.9"))
            span.end()
        record = next(r for r in tracer.spans if r.name == "async")
        assert record.trace_id == trace_id
        assert record.parent_id == "s9.9"

    def test_ids_are_shard_scoped_and_unique(self):
        tracer = Tracer(shard=3)
        first = tracer.span("a")
        second = tracer.span("b")
        assert first.span_id == "s3.1"
        assert second.span_id == "s3.2"
        assert tracer.new_trace() == "t3.1"
        assert tracer.new_trace() == "t3.2"

    def test_span_context_falls_back_to_own_id(self):
        tracer = Tracer()
        root = tracer.begin("root", trace=(tracer.new_trace(), None))
        child_context = root.context()
        assert child_context == (root.trace_id, root.span_id)
        orphan = tracer.begin("orphan")
        assert orphan.context() == (orphan.span_id, orphan.span_id)

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin("once")
        span.end()
        span.end()
        assert len(tracer) == 1

    def test_negative_durations_clamp_to_zero(self):
        # A clock that (pathologically) moves backwards must not emit a
        # negative dur — the Chrome schema rejects it.
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.now = 5.0
        span = tracer.begin("backwards")
        clock.now = 4.0
        span.end()
        assert tracer.spans[0].dur == 0.0

    def test_cap_drops_records_but_aggregates_stay_exact(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            tracer.begin("phase", cat="x").end()
        assert len(tracer.spans) == 2
        assert tracer.dropped_spans == 3
        aggregates = tracer.phase_aggregates()
        assert aggregates["phase"]["count"] == 5
        assert aggregates["phase"]["cat"] == "x"

    def test_export_absorb_and_deterministic_merge_order(self):
        left_clock, right_clock = FakeClock(), FakeClock()
        left = Tracer(clock=left_clock, shard=0)
        right = Tracer(clock=right_clock, shard=1)
        left_clock.now = 2.0
        left.begin("late", cat="x").end()
        right_clock.now = 1.0
        right.begin("early", cat="x").end()
        right_clock.now = 2.0
        right.begin("tied", cat="x").end()

        driver = Tracer(shard=-1)
        driver.absorb(right.export_state())
        driver.absorb(left.export_state())
        events = chrome_trace(driver.spans)["traceEvents"]
        names = [event["name"] for event in events if event["ph"] == "X"]
        # (ts, shard, seq): shard 0's record wins the ts=2.0 tie.
        assert names == ["early", "late", "tied"]
        assert driver.phase_aggregates()["early"]["count"] == 1
        assert driver.dropped_spans == 0

    def test_args_are_sorted_tuples(self):
        tracer = Tracer()
        span = tracer.begin("argy", zeta=1, alpha=2)
        span.add(mid=3)
        span.end(omega=4)
        record = tracer.spans[0]
        assert record.args == (("alpha", 2), ("mid", 3), ("omega", 4), ("zeta", 1))


class TestTraceSession:
    def test_enable_is_idempotent_and_disable_clears(self):
        try:
            session = enable_tracing()
            assert enable_tracing() is session
            assert active_session() is session
        finally:
            disable_tracing()
        assert active_session() is None

    def test_session_merges_all_tracers(self):
        try:
            session = enable_tracing()
            a_clock, b_clock = FakeClock(), FakeClock()
            a = session.new_tracer(clock=a_clock, shard=0)
            b = session.new_tracer(clock=b_clock, shard=1)
            b_clock.now = 1.0
            b.begin("second", cat="x").end()
            a.begin("first", cat="x").end()
            names = [record.name for record in session.span_records()]
            assert names == ["first", "second"]
            aggregates = session.phase_aggregates()
            assert aggregates["first"]["count"] == 1
            assert session.dropped_spans() == 0
        finally:
            disable_tracing()


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
class TestMergedCounters:
    def test_sums_same_keys(self):
        assert merged_counters([{"a": 1, "b": 2}, {"a": 3}]) == {"a": 4, "b": 2}

    def test_schema_keys_lead_in_declaration_order(self):
        merged = merged_counters([{"z": 1}, {"m": 2}], schema=("b", "a"))
        assert list(merged) == ["b", "a", "z", "m"]
        assert merged == {"b": 0, "a": 0, "z": 1, "m": 2}

    def test_extras_keep_first_appearance_order(self):
        merged = merged_counters([{"z": 1, "a": 1}, {"m": 1, "z": 1}])
        assert list(merged) == ["z", "a", "m"]

    def test_sorted_mode_is_hash_seed_independent(self):
        merged = merged_counters([{"z": 1}, {"a": 2}], sort=True)
        assert list(merged) == ["a", "z"]


class TestMetricsRegistry:
    def test_counters_with_labels_render_canonically(self):
        registry = MetricsRegistry()
        registry.inc("net.bytes", 10, kind="delta")
        registry.inc("net.bytes", 5, kind="delta")
        registry.inc("net.bytes", 7, kind="prov")
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {
            "net.bytes{kind=delta}": 15,
            "net.bytes{kind=prov}": 7,
        }

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.inc("x", 1, b="2", a="1")
        registry.inc("x", 1, a="1", b="2")
        assert registry.snapshot()["counters"] == {"x{a=1,b=2}": 2}

    def test_absorb_counters_prefixes_legacy_dicts(self):
        registry = MetricsRegistry()
        registry.absorb_counters({"tuples_scanned": 10}, prefix="engine.")
        registry.absorb_counters({"tuples_scanned": 5}, prefix="engine.")
        assert registry.snapshot()["counters"] == {"engine.tuples_scanned": 15}

    def test_gauge_keeps_the_last_value_per_label_set(self):
        registry = MetricsRegistry()
        registry.set_gauge("queue.depth", 4, host="n0")
        registry.set_gauge("queue.depth", 1, host="n0")
        registry.set_gauge("queue.depth", 9, host="n1")
        snapshot = registry.snapshot()
        assert snapshot["gauges"] == {
            "queue.depth{host=n0}": 1,
            "queue.depth{host=n1}": 9,
        }
        assert snapshot["counters"] == {}

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.inc("a", 1, host="n0")
        registry.set_gauge("b", 2.5)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == {
            "counters": {"a{host=n0}": 1},
            "gauges": {"b": 2.5},
        }


# ---------------------------------------------------------------------- #
# exporters
# ---------------------------------------------------------------------- #
def _sample_tracer():
    clock = FakeClock()
    tracer = Tracer(clock=clock, shard=0)
    with tracer.span("fixpoint.round", cat="engine", host="n0", deltas=3):
        clock.now = 0.002
    trace_id = tracer.new_trace()
    root = tracer.begin("query.root", cat="query", host="n1", trace=(trace_id, None))
    clock.now = 0.004
    root.end()
    return tracer


class TestChromeTraceExport:
    def test_export_is_schema_valid(self):
        payload = chrome_trace(_sample_tracer().spans)
        assert validate_chrome_trace(payload) == []

    def test_lane_and_timestamp_mapping(self):
        tracer = _sample_tracer()
        driver = Tracer(shard=-1)
        driver.begin("shard.window", cat="shard").end()
        payload = chrome_trace(list(tracer.spans) + list(driver.spans))
        spans = [event for event in payload["traceEvents"] if event["ph"] == "X"]
        by_name = {event["name"]: event for event in spans}
        # shard -1 (the driver) renders as pid 0; shard 0 as pid 1.
        assert by_name["shard.window"]["pid"] == 0
        assert by_name["fixpoint.round"]["pid"] == 1
        # ts/dur are simulated microseconds.
        assert by_name["fixpoint.round"]["ts"] == 0.0
        assert by_name["fixpoint.round"]["dur"] == 2000.0
        assert by_name["query.root"]["ts"] == 2000.0
        # span links & advisory wall time ride in args.
        args = by_name["query.root"]["args"]
        assert args["trace_id"] == "t0.1"
        assert "wall_us" in args and "span_id" in args
        assert by_name["fixpoint.round"]["args"]["deltas"] == 3
        labels = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert labels == {"driver", "shard 0"}

    def test_write_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "TRACE_sample.json")
        write_chrome_trace(path, _sample_tracer().spans)
        payload = load_trace(path)
        assert validate_chrome_trace(payload) == []
        summary = summarize_trace_events(payload["traceEvents"])
        assert summary["fixpoint.round"]["count"] == 1
        assert summary["query.root"]["cat"] == "query"

    def test_validator_flags_malformed_payloads(self):
        assert validate_chrome_trace([]) == [
            "trace payload must be an object, got list"
        ]
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]
        errors = validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "B", "name": "bad-phase", "pid": 1, "tid": 1},
                    {"ph": "X", "name": "", "pid": 1, "tid": 1, "ts": 0, "dur": 0},
                    {"ph": "X", "name": "neg", "pid": 1, "tid": 1, "ts": -1, "dur": 0},
                    {"ph": "X", "name": "strpid", "pid": "p", "tid": 1, "ts": 0, "dur": 0},
                    {"ph": "M", "name": "process_name", "pid": 1, "tid": 0, "args": {}},
                    "not-an-object",
                ]
            }
        )
        assert len(errors) == 6
        assert any("unsupported ph" in error for error in errors)
        assert any("missing name" in error for error in errors)
        assert any("non-negative" in error for error in errors)
        assert any("pid must be an integer" in error for error in errors)
        assert any("needs args.name" in error for error in errors)
        assert any("not an object" in error for error in errors)

    def test_phase_breakdown_and_summary(self):
        aggregates = _sample_tracer().phase_aggregates()
        breakdown = phase_breakdown(aggregates)
        assert set(breakdown) == {"fixpoint.round", "query.root"}
        assert breakdown["fixpoint.round"]["count"] == 1
        rendered = phase_summary(aggregates)
        assert "fixpoint.round" in rendered and "query.root" in rendered
        assert phase_summary({}) == "trace: no spans recorded"


# ---------------------------------------------------------------------- #
# zero-overhead structure & wire-size exemption
# ---------------------------------------------------------------------- #
class TestZeroOverheadStructure:
    def test_payload_size_exempts_trace_context(self):
        plain = {"vid": "v1", "spec": "cnt"}
        traced = dict(plain)
        traced[TRACE_CONTEXT_KEY] = ["t0.12345", "s0.67890"]
        assert payload_size(traced) == payload_size(plain)

    def test_engine_tracer_is_a_plain_attribute(self):
        net = ExspanNetwork(
            ring_topology(4, seed=0), mincost_program(), config=ExspanConfig(seed=0)
        )
        engine = next(iter(net.nodes.values())).engine
        assert net.tracer is None and engine.tracer is None
        cls = type(engine)
        methods = {name for name in dir(cls) if callable(getattr(cls, name))}
        sinks = dict(engine._sinks)
        assert sinks  # prov / ruleExec are applied at emission
        for installed in (Tracer(), None):
            engine.tracer = installed
            # No method is shadowed through the instance dict, and a
            # tracer keeps the sinks.
            assert methods.isdisjoint(vars(engine))
            assert engine._sinks == sinks


# ---------------------------------------------------------------------- #
# traced runs are bit-identical to untraced runs
# ---------------------------------------------------------------------- #
QUERY_SPEC = derivation_count_query(name="obscnt")


def _run_workload(tracer=None):
    """One deterministic workload: fixpoint + a cross-host provenance query."""
    net = ExspanNetwork(
        cluster_topology(2, 4, seed=3),
        mincost_program(),
        config=ExspanConfig(mode=ProvenanceMode.REFERENCE, seed=0),
        tracer=tracer,
    )
    net.register_spec(QUERY_SPEC)
    net.seed_links()
    latency = net.run_to_fixpoint()
    fact = Fact("bestPathCost", ("c0_1", "c0_2", 1))
    outcome = net.execute(QueryRequest(fact, "obscnt", issuer="c1_1"))
    return net, latency, outcome


class TestTracedRunDeterminism:
    def test_traced_and_untraced_runs_are_identical(self):
        untraced_net, untraced_latency, untraced_outcome = _run_workload()
        traced_net, traced_latency, traced_outcome = _run_workload(Tracer())
        assert traced_latency == untraced_latency
        assert repr(traced_outcome.result) == repr(untraced_outcome.result)
        assert traced_net.planner_stats() == untraced_net.planner_stats()
        assert traced_net.query_service_stats() == untraced_net.query_service_stats()
        assert traced_net.stats.kind_totals() == untraced_net.stats.kind_totals()
        assert collect_summary(traced_net) == collect_summary(untraced_net)
        assert collect_digest(traced_net) == collect_digest(untraced_net)
        assert len(traced_net.tracer.spans) > 0

    def test_cross_host_trace_id_propagation(self):
        net, _, _ = _run_workload(Tracer())
        query_spans = [r for r in net.tracer.spans if r.cat == "query"]
        roots = [r for r in query_spans if r.name == "query.root"]
        assert len(roots) == 1
        trace_id = roots[0].trace_id
        assert trace_id is not None
        in_trace = [r for r in query_spans if r.trace_id == trace_id]
        hosts = {r.host for r in in_trace}
        # The issuer (c1_1) is remote from the fact's cluster, so one trace
        # id must link spans on at least two distinct hosts.
        assert len(hosts) >= 2
        assert "c1_1" in hosts
        # Every non-root span in the trace links to a parent in the trace.
        span_ids = {r.span_id for r in in_trace}
        for record in in_trace:
            if record.span_id != roots[0].span_id:
                assert record.parent_id in span_ids

    def test_trace_renders_valid_chrome_json(self):
        net, _, _ = _run_workload(Tracer())
        payload = chrome_trace(net.tracer.spans)
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"sim.event", "fixpoint.round", "net.fixpoint", "query.root"} <= names

    def test_metrics_snapshot_unifies_counter_families(self):
        net, _, _ = _run_workload()
        snapshot = net.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["engine.tuples_scanned"] == net.planner_stats()[
            "tuples_scanned"
        ]
        assert counters["query.queries_started"] == net.query_service_stats()[
            "queries_started"
        ]
        kind_totals = net.stats.kind_totals()
        for kind, (messages, size) in kind_totals.items():
            assert counters[f"net.messages{{kind={kind}}}"] == messages
            assert counters[f"net.bytes{{kind={kind}}}"] == size
        assert snapshot["gauges"]["sim.now"] == net.simulator.now
        json.dumps(snapshot)


# ---------------------------------------------------------------------- #
# sharded runs: traced == untraced == serial, spans merge across shards
# ---------------------------------------------------------------------- #
def _sharded_workload(tracer=None):
    with ShardedExspanNetwork(
        cluster_topology(2, 4, seed=3),
        mincost_program(),
        shards=2,
        seed=0,
        tracer=tracer,
    ) as sharded:
        sharded.seed_links()
        sharded.run_to_fixpoint()
        return sharded.summary(), sharded.digest()


class TestShardedTraceDeterminism:
    def test_traced_sharded_matches_untraced_and_serial(self):
        tracer = Tracer(shard=-1)
        traced = _sharded_workload(tracer)
        assert traced == _sharded_workload()

        serial_net = ExspanNetwork(
            cluster_topology(2, 4, seed=3),
            mincost_program(),
            config=ExspanConfig(mode=ProvenanceMode.REFERENCE, seed=0),
        )
        serial_net.seed_links()
        serial_net.run_to_fixpoint()
        assert traced == (collect_summary(serial_net), collect_digest(serial_net))
        assert len(tracer.spans) > 0

    def test_spans_merge_across_shards_under_one_trace(self):
        tracer = Tracer(shard=-1)
        _sharded_workload(tracer)
        shards_seen = {record.shard for record in tracer.spans}
        # Driver barrier spans (-1) plus both worker shards.
        assert {-1, 0, 1} <= shards_seen
        assert {r.name for r in tracer.spans if r.shard == -1} >= {
            "shard.seed",
            "shard.window",
        }
        payload = chrome_trace(tracer.spans)
        assert validate_chrome_trace(payload) == []
        pids = {e["pid"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1, 2}


# ---------------------------------------------------------------------- #
# orchestrator capture path
# ---------------------------------------------------------------------- #
class TestOrchestratorTracing:
    @pytest.fixture
    def tiny_scenario(self):
        from repro.experiments import SCENARIOS, Scenario, TrialSpec, register

        name = "tmp_obs_fixpoint"

        def expand(params):
            return [
                TrialSpec(
                    scenario=name,
                    trial_id=f"size={size}",
                    fn="testbed_fixpoint",
                    kwargs={"size": size, "mode": "ref", "seed": params["seed"]},
                )
                for size in params["sizes"]
            ]

        scenario = Scenario(
            name=name,
            title="tiny traced fixpoint",
            x_label="Number of Nodes",
            y_label="Fixpoint Latency (seconds)",
            expand=expand,
            quick={"sizes": (4, 6), "seed": 0},
        )
        register(scenario)
        yield scenario
        SCENARIOS.pop(name, None)

    def test_traced_artifacts_are_byte_identical_and_traces_valid(
        self, tiny_scenario, tmp_path
    ):
        from repro.experiments import ExecutionEnv
        from repro.experiments.orchestrator import (
            artifact_path,
            canonical_artifact_bytes,
            load_artifact,
            run,
        )

        trace_dir = str(tmp_path / "traces")
        plain = run([tiny_scenario.name], results_dir=str(tmp_path / "plain"))
        traced = run(
            [tiny_scenario.name],
            results_dir=str(tmp_path / "traced"),
            env=ExecutionEnv(trace_dir=trace_dir),
        )
        assert plain.executed == traced.executed == 2

        # The hard constraint: byte-identical canonical artifacts.
        plain_bytes = canonical_artifact_bytes(
            artifact_path(str(tmp_path / "plain"), tiny_scenario.name)
        )
        traced_bytes = canonical_artifact_bytes(
            artifact_path(str(tmp_path / "traced"), tiny_scenario.name)
        )
        assert plain_bytes is not None
        assert plain_bytes == traced_bytes

        # Advisory phase breakdowns ride on the raw (non-canonical) trials.
        artifact = load_artifact(
            artifact_path(str(tmp_path / "traced"), tiny_scenario.name)
        )
        for trial in artifact["trials"]:
            assert trial["phases"]["fixpoint.round"]["count"] > 0
        assert b"phases" not in traced_bytes

        # One valid Chrome trace per executed trial.
        trace_files = sorted(os.listdir(trace_dir))
        assert trace_files == [
            "TRACE_tmp_obs_fixpoint_size-4.json",
            "TRACE_tmp_obs_fixpoint_size-6.json",
        ]
        for filename in trace_files:
            payload = load_trace(os.path.join(trace_dir, filename))
            assert validate_chrome_trace(payload) == []
            assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_parallel_traced_run_matches_serial_traced_run(
        self, tiny_scenario, tmp_path
    ):
        from repro.experiments import ExecutionEnv
        from repro.experiments.orchestrator import (
            artifact_path,
            canonical_artifact_bytes,
            run,
        )

        serial = run(
            [tiny_scenario.name],
            results_dir=str(tmp_path / "s"),
            env=ExecutionEnv(trace_dir=str(tmp_path / "ts")),
        )
        parallel = run(
            [tiny_scenario.name],
            workers=2,
            results_dir=str(tmp_path / "p"),
            env=ExecutionEnv(trace_dir=str(tmp_path / "tp")),
        )
        assert serial.executed == parallel.executed
        assert canonical_artifact_bytes(
            artifact_path(str(tmp_path / "s"), tiny_scenario.name)
        ) == canonical_artifact_bytes(
            artifact_path(str(tmp_path / "p"), tiny_scenario.name)
        )
        assert sorted(os.listdir(tmp_path / "ts")) == sorted(
            os.listdir(tmp_path / "tp")
        )

    def test_trace_cli_validates_and_summarizes(self, tiny_scenario, tmp_path, capsys):
        from repro.experiments import ExecutionEnv
        from repro.experiments.__main__ import main as cli_main
        from repro.experiments.orchestrator import run

        trace_dir = tmp_path / "traces"
        run(
            [tiny_scenario.name],
            results_dir=str(tmp_path / "results"),
            env=ExecutionEnv(trace_dir=str(trace_dir)),
        )
        files = sorted(str(path) for path in trace_dir.iterdir())
        assert cli_main(["trace", *files, "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace" in out
        assert "phase summary" in out

        broken = tmp_path / "broken.json"
        broken.write_text('{"traceEvents": [{"ph": "Q"}]}')
        assert cli_main(["trace", str(broken)]) == 1
        assert "INVALID" in capsys.readouterr().out
