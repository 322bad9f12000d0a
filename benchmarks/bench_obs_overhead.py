"""Disabled-tracer overhead guard on the engine's fixpoint workload.

The observability layer promises **zero overhead when disabled**: an
engine whose tracer was never installed — or was detached again via
``set_tracer(None)`` — must run the exact pre-instrumentation hot path
(the traced variants live in instance ``__dict__`` overrides that
``set_tracer`` adds and removes; see
:meth:`repro.datalog.engine.NDlogEngine.set_tracer`).

This benchmark measures that claim on PATHVECTOR under the
reference-provenance rewrite on rings, in three
configurations:

- ``pristine``  — tracing never touched
- ``detached``  — a tracer was installed and then removed before timing;
  guards that detaching restores the pristine hot path
- ``traced``    — a recording tracer attached (the advisory enabled cost)

All three produce bit-identical fixpoints and planner counters, which the
table run asserts outright (determinism is exact, so it always gates).

Timing, per this repo's CI policy, **never gates by default**: wall-clock
assertions are machine-dependent and flaky in shared runners, so the
comparison table is advisory.  Pass ``--assert-overhead [PCT]`` to opt in
locally: it fails the run when the ``detached`` configuration is more
than PCT percent slower than ``pristine`` (default 2.0, the acceptance
bar's ceiling).

Run directly for the comparison table::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [repeats] [--assert-overhead [PCT]]

or through pytest-benchmark for the 12-node cases.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from typing import Dict, List, Tuple

from repro.core.rewrite import rewrite_program
from repro.datalog import Fact, StandaloneNetwork
from repro.net import ring_topology
from repro.obs import Tracer
from repro.protocols import pathvector_program

SIZES = (12, 24)
DEFAULT_REPEATS = 3
DEFAULT_OVERHEAD_PCT = 2.0

CONFIGS = ("pristine", "detached", "traced")


def _build(size: int) -> Tuple[StandaloneNetwork, List]:
    topology = ring_topology(size, seed=0)
    network = StandaloneNetwork(topology.nodes, rewrite_program(pathvector_program()))
    return network, topology.link_facts()


def _configure(network: StandaloneNetwork, config: str) -> None:
    if config == "pristine":
        return
    tracer = Tracer()
    for engine in network.engines.values():
        engine.set_tracer(tracer)
        if config == "detached":
            engine.set_tracer(None)


def run_fixpoint(size: int, config: str) -> StandaloneNetwork:
    """Run the rewritten PATHVECTOR fixpoint once under *config*."""
    network, links = _build(size)
    _configure(network, config)
    for source, destination, cost in links:
        network.insert(Fact("link", (source, destination, cost)))
    network.run()
    return network


def _run_once(size: int, config: str) -> float:
    """One timed fixpoint, excluding construction and tracer setup."""
    network, links = _build(size)
    _configure(network, config)
    gc.collect()
    started = time.perf_counter()
    for source, destination, cost in links:
        network.insert(Fact("link", (source, destination, cost)))
    network.run()
    return time.perf_counter() - started


def _measure(size: int, repeats: int) -> Dict[str, float]:
    """Best-of-*repeats* per configuration, interleaved against load spikes."""
    best = {config: float("inf") for config in CONFIGS}
    for _ in range(repeats):
        for config in CONFIGS:
            best[config] = min(best[config], _run_once(size, config))
    return best


def _snapshot(network: StandaloneNetwork) -> dict:
    names = set()
    for engine in network.engines.values():
        names.update(engine.catalog.names())
    rows = {name: network.all_rows(name) for name in sorted(names)}
    rows["__stats__"] = network.planner_stats()
    return rows


# ---------------------------------------------------------------------- #
# pytest-benchmark cases (and the equivalence guard)
# ---------------------------------------------------------------------- #
def test_fixpoint_tracer_never_installed(benchmark):
    network = benchmark(lambda: run_fixpoint(SIZES[0], "pristine"))
    assert len(network.all_rows("prov")) > 0


def test_fixpoint_tracer_detached(benchmark):
    network = benchmark(lambda: run_fixpoint(SIZES[0], "detached"))
    assert len(network.all_rows("prov")) > 0


def test_fixpoint_tracer_enabled(benchmark):
    network = benchmark(lambda: run_fixpoint(SIZES[0], "traced"))
    assert len(network.all_rows("prov")) > 0


def test_configs_bit_identical():
    """Tracing on, off or detached: every table and counter must agree."""
    pristine = _snapshot(run_fixpoint(SIZES[0], "pristine"))
    detached = _snapshot(run_fixpoint(SIZES[0], "detached"))
    traced = _snapshot(run_fixpoint(SIZES[0], "traced"))
    assert pristine == detached == traced


def test_detached_engine_restores_class_methods():
    """The structural form of the zero-overhead claim (timing-free)."""
    network, _ = _build(SIZES[0])
    _configure(network, "detached")
    for engine in network.engines.values():
        for name in ("run", "_process_batch", "_fire_rules"):
            assert name not in engine.__dict__
        assert engine.run.__func__ is type(engine).run


# ---------------------------------------------------------------------- #
# standalone comparison table
# ---------------------------------------------------------------------- #
def main(repeats: int, assert_overhead: float = None) -> int:
    print(
        "Disabled-tracer overhead: PATHVECTOR + provenance rewrite "
        f"(ring, StandaloneNetwork fixpoint, best of {repeats})"
    )
    header = (
        f"{'nodes':>5} {'pristine s':>11} {'detached s':>11} {'traced s':>10} "
        f"{'detached %':>11} {'traced %':>9}"
    )
    print(header)
    print("-" * len(header))
    status = 0
    for size in SIZES:
        snapshots = {config: _snapshot(run_fixpoint(size, config)) for config in CONFIGS}
        assert snapshots["pristine"] == snapshots["detached"] == snapshots["traced"], (
            f"tracing perturbed the {size}-node fixpoint"
        )
        best = _measure(size, repeats)
        detached_pct = (best["detached"] / best["pristine"] - 1.0) * 100.0
        traced_pct = (best["traced"] / best["pristine"] - 1.0) * 100.0
        print(
            f"{size:>5} {best['pristine']:>11.3f} {best['detached']:>11.3f} "
            f"{best['traced']:>10.3f} {detached_pct:>+10.1f}% {traced_pct:>+8.1f}%"
        )
        if assert_overhead is not None and detached_pct > assert_overhead:
            print(
                f"      FAIL: detached tracer {detached_pct:+.1f}% exceeds "
                f"the {assert_overhead:.1f}% bound"
            )
            status = 1
    if assert_overhead is None:
        print("\nadvisory only; pass --assert-overhead to gate (local runs)")
    elif status == 0:
        print(f"\nOK: detached overhead within {assert_overhead:.1f}% on every size")
    return status


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="disabled-tracer overhead table")
    parser.add_argument("repeats", nargs="?", type=int, default=DEFAULT_REPEATS)
    parser.add_argument(
        "--assert-overhead",
        nargs="?",
        type=float,
        const=DEFAULT_OVERHEAD_PCT,
        default=None,
        metavar="PCT",
        help="fail when the detached config exceeds PCT%% over pristine "
        f"(default {DEFAULT_OVERHEAD_PCT}%%; off unless given — timing "
        "assertions are advisory in CI by repo policy)",
    )
    return parser.parse_args(argv)


if __name__ == "__main__":
    arguments = _parse_args(sys.argv[1:])
    sys.exit(main(arguments.repeats, arguments.assert_overhead))
