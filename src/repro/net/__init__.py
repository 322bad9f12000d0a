"""Network substrate: discrete-event simulation, topologies, hosts, stats.

This package replaces ns-3 / RapidNet's networking layer in the ExSPAN
reproduction.  See DESIGN.md (system S3) for the substitution rationale.
"""

from .churn import ChurnEvent, ChurnGenerator
from .errors import NetworkError, NoRouteError, SimulationError, UnknownNodeError
from .host import Host
from .message import HEADER_OVERHEAD, Message, payload_size
from .network import Network
from .simulator import ScheduledEvent, Simulator
from .stats import LatencyStats, TrafficStats, cdf_points
from .topology import (
    LinkSpec,
    Topology,
    cluster_topology,
    grid_topology,
    line_topology,
    partition_cut_edges,
    partition_lookahead,
    partition_topology,
    ring_topology,
    transit_stub_topology,
)

__all__ = [
    "ChurnEvent",
    "ChurnGenerator",
    "NetworkError",
    "NoRouteError",
    "SimulationError",
    "UnknownNodeError",
    "Host",
    "HEADER_OVERHEAD",
    "Message",
    "payload_size",
    "Network",
    "ScheduledEvent",
    "Simulator",
    "LatencyStats",
    "TrafficStats",
    "cdf_points",
    "LinkSpec",
    "Topology",
    "cluster_topology",
    "grid_topology",
    "line_topology",
    "partition_cut_edges",
    "partition_lookahead",
    "partition_topology",
    "ring_topology",
    "transit_stub_topology",
]
