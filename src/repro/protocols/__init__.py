"""NDlog application programs used by the paper's evaluation.

* :mod:`repro.protocols.mincost` — best path cost between all node pairs.
* :mod:`repro.protocols.pathvector` — best path discovery (path-vector).
* :mod:`repro.protocols.packetforward` — data-plane packet forwarding.
"""

from .mincost import MINCOST_SOURCE, mincost_program
from .packetforward import PACKETFORWARD_SOURCE, packet_event, packetforward_program
from .pathvector import PATHVECTOR_SOURCE, pathvector_program

__all__ = [
    "MINCOST_SOURCE",
    "mincost_program",
    "PACKETFORWARD_SOURCE",
    "packet_event",
    "packetforward_program",
    "PATHVECTOR_SOURCE",
    "pathvector_program",
]
