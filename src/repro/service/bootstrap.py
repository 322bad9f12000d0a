"""Build a ready-to-serve :class:`ExspanNetwork` from string specs.

The service CLI and the shell's embedded mode share this tiny grammar so
``python -m repro.service --topology ring:6`` and
``python -m repro.shell --topology ring:6`` mean the same thing:

* topology — ``ring:N``, ``line:N``, ``grid:RxC``, ``transit-stub:D``
  (D domains), or ``cluster:CxN`` (C clusters of N nodes);
* program — ``mincost``, ``mincost:MAXCOST`` (bounded), ``pathvector``,
  or ``packetforward``;
* mode — any spelling :func:`repro.core.config.coerce_mode` accepts
  (``none`` / ``ref`` / ``reference`` / ``value`` / ``centralized``).

The returned network is seeded with the topology's link facts and run to
fixpoint, so the first client query sees a converged protocol state.
"""

from __future__ import annotations

from typing import Optional

from ..core.api import ExspanNetwork
from ..core.config import ExspanConfig
from ..core.errors import ProvenanceError
from ..net.topology import (
    Topology,
    cluster_topology,
    grid_topology,
    line_topology,
    ring_topology,
    transit_stub_topology,
)
from ..protocols.mincost import mincost_program
from ..protocols.packetforward import packetforward_program
from ..protocols.pathvector import pathvector_program

__all__ = ["build_topology", "build_program", "build_network"]


def _int_arg(spec: str, arg: str, what: str) -> int:
    try:
        value = int(arg)
    except ValueError:
        raise ProvenanceError(f"bad {what} in topology spec {spec!r}") from None
    if value <= 0:
        raise ProvenanceError(f"{what} must be positive in topology spec {spec!r}")
    return value


def build_topology(spec: str, seed: int = 0) -> Topology:
    """Parse a ``kind:size`` topology spec (see module docstring)."""
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "ring":
        return ring_topology(_int_arg(spec, arg, "node count"), seed=seed)
    if kind == "line":
        return line_topology(_int_arg(spec, arg, "node count"))
    if kind == "grid":
        rows_text, _, columns_text = arg.partition("x")
        rows = _int_arg(spec, rows_text, "row count")
        columns = _int_arg(spec, columns_text, "column count")
        return grid_topology(rows, columns)
    if kind == "transit-stub":
        return transit_stub_topology(domains=_int_arg(spec, arg, "domain count"), seed=seed)
    if kind == "cluster":
        clusters_text, _, per_cluster_text = arg.partition("x")
        clusters = _int_arg(spec, clusters_text, "cluster count")
        per_cluster = _int_arg(spec, per_cluster_text, "nodes per cluster")
        return cluster_topology(clusters, per_cluster, seed=seed)
    raise ProvenanceError(
        f"unknown topology spec {spec!r} "
        "(expected ring:N, line:N, grid:RxC, transit-stub:D, or cluster:CxN)"
    )


def build_program(spec: str):
    """Parse a program spec (see module docstring)."""
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "mincost":
        max_cost = int(arg) if arg else None
        return mincost_program(max_cost=max_cost)
    if kind == "pathvector":
        return pathvector_program()
    if kind == "packetforward":
        return packetforward_program()
    raise ProvenanceError(
        f"unknown program spec {spec!r} (expected mincost[:MAXCOST], "
        "pathvector, or packetforward)"
    )


def build_network(
    topology_spec: str = "ring:6",
    program_spec: str = "mincost",
    mode: str = "ref",
    seed: int = 0,
    config: Optional[ExspanConfig] = None,
    converge: bool = True,
) -> ExspanNetwork:
    """Build, seed, and (by default) converge a network from string specs."""
    if config is None:
        config = ExspanConfig(mode=mode, seed=seed)
    network = ExspanNetwork(
        build_topology(topology_spec, seed=seed),
        build_program(program_spec),
        config=config,
    )
    if converge:
        network.seed_links()
        network.run_to_fixpoint()
    return network
