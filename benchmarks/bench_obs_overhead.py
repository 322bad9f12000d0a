"""Tracer overhead on the engine's fixpoint workload.

An engine's tracer is a plain attribute: ``None`` (the default) or a
:class:`repro.obs.Tracer`.  This benchmark runs PATHVECTOR under the
reference-provenance rewrite on rings in two configurations:

- ``pristine``  — no tracer
- ``traced``    — a recording tracer attached (the advisory enabled cost)

Both produce bit-identical fixpoints and planner counters, which the
table run asserts outright (determinism is exact, so it always gates).

Timing, per this repo's CI policy, never gates: wall-clock is
machine-dependent and flaky in shared runners, so the comparison table
is advisory.

Run directly for the comparison table::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [repeats]

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

CONFIGS = ("pristine", "traced")


def _build(size: int) -> Tuple[StandaloneNetwork, List]:
    topology = ring_topology(size, seed=0)
    network = StandaloneNetwork(topology.nodes, rewrite_program(pathvector_program()))
    return network, topology.link_facts()


def _configure(network: StandaloneNetwork, config: str) -> None:
    if config == "pristine":
        return
    tracer = Tracer()
    for engine in network.engines.values():
        engine.tracer = tracer


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


def test_fixpoint_tracer_enabled(benchmark):
    network = benchmark(lambda: run_fixpoint(SIZES[0], "traced"))
    assert len(network.all_rows("prov")) > 0


def test_configs_bit_identical():
    """Tracing on or off: every table and counter must agree."""
    pristine = _snapshot(run_fixpoint(SIZES[0], "pristine"))
    traced = _snapshot(run_fixpoint(SIZES[0], "traced"))
    assert pristine == traced


# ---------------------------------------------------------------------- #
# standalone comparison table
# ---------------------------------------------------------------------- #
def main(repeats: int) -> int:
    print(
        "Tracer overhead: PATHVECTOR + provenance rewrite "
        f"(ring, StandaloneNetwork fixpoint, best of {repeats})"
    )
    header = f"{'nodes':>5} {'pristine s':>11} {'traced s':>10} {'traced %':>9}"
    print(header)
    print("-" * len(header))
    for size in SIZES:
        snapshots = {config: _snapshot(run_fixpoint(size, config)) for config in CONFIGS}
        assert snapshots["pristine"] == snapshots["traced"], (
            f"tracing perturbed the {size}-node fixpoint"
        )
        best = _measure(size, repeats)
        traced_pct = (best["traced"] / best["pristine"] - 1.0) * 100.0
        print(
            f"{size:>5} {best['pristine']:>11.3f} {best['traced']:>10.3f} "
            f"{traced_pct:>+8.1f}%"
        )
    print("\nadvisory only: timings never gate")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="tracer overhead table")
    parser.add_argument("repeats", nargs="?", type=int, default=DEFAULT_REPEATS)
    sys.exit(main(parser.parse_args().repeats))
