"""Columnar-pipeline specifics the equivalence sweeps don't pin down.

``tests/test_plan_equivalence.py`` proves the columnar pipeline
bit-identical to the interpreted ones; this module covers the machinery
behind that result: generated-kernel dispatch and its guarded fallbacks,
kernel-built rows interning like interpreter-built ones, window bookkeeping under
``max_steps``, primary-key replacement inside batches, EXPLAIN rendering,
and the cache counters surfaced through ``metrics_snapshot``.
"""

from __future__ import annotations

import pytest

from repro.core import ExspanConfig, ExspanNetwork, ProvenanceMode
from repro.core.rewrite import rewrite_program
from repro.datalog import Fact, StandaloneNetwork
from repro.datalog.engine import EvaluationError, NDlogEngine
from repro.datalog.functions import default_registry
from repro.datalog.parser import parse_program
from repro.datalog.plan.columnar import batch_kernel_for, describe_kernel
from repro.datalog.plan.explain import columnar_summary
from repro.net import ring_topology
from repro.protocols import mincost_program, pathvector_program


def _columnar_counters(network: StandaloneNetwork) -> dict:
    totals: dict = {}
    for engine in network.engines.values():
        for name, value in engine.columnar_counters.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _run_ring(program, pipeline: str, size: int = 6, **engine_kwargs):
    topology = ring_topology(size, seed=0)
    network = StandaloneNetwork(
        topology.nodes, program, pipeline=pipeline, **engine_kwargs
    )
    for source, destination, cost in topology.link_facts():
        network.insert(Fact("link", (source, destination, cost)))
    network.run()
    return network


def _snapshot(network: StandaloneNetwork) -> dict:
    names = set()
    for engine in network.engines.values():
        names.update(engine.catalog.names())
    return {name: network.all_rows(name) for name in sorted(names)}


class TestKernelDispatch:
    def test_rewritten_pathvector_runs_entirely_on_kernels(self):
        """The headline workload never hits the generic per-delta path."""
        network = _run_ring(rewrite_program(pathvector_program()), "columnar")
        counters = _columnar_counters(network)
        assert counters["windows"] > 0
        assert counters["segments"] >= counters["windows"]
        assert counters["kernel_batches"] > 0
        assert counters.get("generic_batches", 0) == 0
        assert counters["deltas"] > 0

    def test_aggregate_rules_use_the_aggregate_kernel(self):
        """MINCOST's MIN aggregation stays on the batch path too."""
        network = _run_ring(mincost_program(), "columnar")
        counters = _columnar_counters(network)
        assert counters["kernel_batches"] > 0
        assert counters.get("generic_batches", 0) == 0

    def test_reregistered_builtin_falls_back_to_generic_path(self):
        """Kernels inline default builtins but guard on the registry.

        Re-registering an inlined builtin (even with an identical
        implementation) must route every affected batch through
        ``run_generic_firing`` — and the result must not change.
        """
        program = rewrite_program(pathvector_program())
        reference = _snapshot(_run_ring(program, "batched"))

        def registry():
            fns = default_registry()
            original = fns._functions["f_sha1"]
            fns.register("f_sha1", lambda args: original(args))
            return fns

        network = _run_ring(program, "columnar", functions=registry())
        assert _snapshot(network) == reference
        counters = _columnar_counters(network)
        assert counters["generic_batches"] > 0

    def test_multi_step_plans_have_no_kernel(self):
        """Plans outside the zero/one-step subset return ``None``."""
        program = parse_program(
            """
            t3 wide(@A,D) :- e1(@A,B), e2(@B,C), e3(@C,D).
            """
        )
        engine = NDlogEngine("n", program, pipeline="columnar")
        multi = [
            plan for plan in engine._plans.values() if len(plan.steps) > 1
        ]
        assert multi, "expected at least one multi-step plan"
        assert all(batch_kernel_for(plan) is None for plan in multi)


class TestKernelBuiltRows:
    def test_kernel_built_rows_intern_to_the_same_objects(self):
        """Kernel-built rows and interpreter-built rows must collide.

        Storage interning is keyed by the row as built (tuples from
        birth); if the kernels' inlined list builtins built a value
        differently than ``f_concat`` / ``f_append`` the two pipelines
        would intern distinct rows and fixpoints would drift.
        """
        program = rewrite_program(pathvector_program())
        columnar = _run_ring(program, "columnar")
        delta = _run_ring(program, "delta")
        for name in ("prov", "ruleExec", "bestPathCost"):
            assert columnar.all_rows(name) == delta.all_rows(name)


class TestWindowing:
    def test_max_steps_bounds_processed_deltas(self):
        topology = ring_topology(6, seed=0)
        network = StandaloneNetwork(
            topology.nodes, pathvector_program(), pipeline="columnar"
        )
        for source, destination, cost in topology.link_facts():
            network.insert(Fact("link", (source, destination, cost)))
        engine = next(iter(network.engines.values()))
        steps = engine.run(max_steps=3)
        assert 0 < steps <= 3
        # finishing the fixpoint afterwards converges to the batched result
        network.run()
        reference = _run_ring(pathvector_program(), "batched")
        assert _snapshot(network) == _snapshot(reference)

    def test_primary_key_replacement_inside_batches(self):
        """PK updates arriving in one window evict exactly like per-delta."""
        program_text = """
            materialize(best, 2, keys(0)).
            b1 best(@N,C) :- offer(@N,C).
        """
        states = {}
        for pipeline in ("delta", "columnar"):
            engine = NDlogEngine(
                "n", parse_program(program_text), pipeline=pipeline
            )
            for cost in (5, 3, 7):
                engine.insert(Fact("offer", ("n", cost)))
            engine.run()
            states[pipeline] = {
                name: engine.table_rows(name) for name in ("offer", "best")
            }
        assert states["columnar"] == states["delta"]
        assert len(states["columnar"]["best"]) == 1  # PK replaced twice

    def test_remote_derivation_without_send_callback_raises(self):
        program = parse_program("r1 there(@D,S) :- here(@S,D).")
        engine = NDlogEngine("n", program, pipeline="columnar")
        engine.insert(Fact("here", ("n", "m")))
        with pytest.raises(EvaluationError, match="no .*send callback"):
            engine.run()


class TestExplainAndMetrics:
    def test_explain_renders_kernel_lines_and_summary(self):
        network = _run_ring(mincost_program(), "columnar")
        engine = next(iter(network.engines.values()))
        text = engine.explain()
        assert "columnar:" in text
        assert "batch kernel" in text
        assert "columnar batching:" in text
        assert "estimated batch width" in text

    def test_describe_kernel_names_the_aggregate_kernel(self):
        engine = NDlogEngine("n", mincost_program(), pipeline="columnar")
        descriptions = [
            line
            for plan in engine._plans.values()
            for line in describe_kernel(plan)
        ]
        assert any("grouped aggregate" in line for line in descriptions)

    def test_columnar_summary_handles_untouched_engines(self):
        line = columnar_summary({})
        assert "0 window(s)" in line
        assert "width 0.0" in line

    def test_metrics_snapshot_exposes_sha1_and_vid_cache_counters(self):
        network = ExspanNetwork(
            ring_topology(5, seed=0),
            mincost_program(),
            config=ExspanConfig(
                mode=ProvenanceMode.REFERENCE, pipeline="columnar"
            ),
        )
        network.seed_links()
        network.run_to_fixpoint()
        snapshot = network.metrics_snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        for layer in ("sha1", "vid"):
            assert f"cache.{layer}.hits" in counters
            assert f"cache.{layer}.misses" in counters
            assert gauges[f"cache.{layer}.limit"] > 0
        # the rewrite workload actually exercises the sha1 memo
        assert counters["cache.sha1.hits"] + counters["cache.sha1.misses"] > 0
