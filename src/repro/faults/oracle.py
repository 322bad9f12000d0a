"""The convergence oracle: fault-free byte-identity for quiescent runs.

The headline correctness contract of the fault subsystem (and of ExSPAN's
own design): derivation counting is *confluent* — the final tuple
multiset and annotations depend only on the set of processed updates,
never on their order — and the reliable transport delivers every
application update exactly once.  Therefore any fault plan that
quiesces must leave every node in a state whose digest is byte-identical
to the fault-free run's.

The digest hashes part of each node's strict digest
(:func:`repro.net.sharding.node_state_digest`, the order-independent
projection of :func:`~repro.storage.checkpoint.node_state`) — table rows
*with derivation counts* and encoded annotations — with
:func:`~repro.core.requests.canonical_json`.  It excludes every traffic
or evaluation counter (``engine.stats``, retransmit tallies, ...): faults
legitimately change how much work was done, never what was derived.
Aggregate groups stay out only because ``BENCH_chaos_convergence.json``
stores this hash.  The strict digest itself, used for serial-vs-sharded
equivalence, *does* include counters and aggregate groups because
sharding must not change the work either.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Mapping

from ..core.requests import canonical_json
from ..net.sharding import collect_digest

__all__ = ["digest_convergence", "convergence_digest"]


def digest_convergence(digests: Mapping[Any, Dict[str, Any]]) -> str:
    """SHA-256 over the rows and annotations of per-node strict digests."""
    projected = {}
    for address, digest in digests.items():
        # Rows as sorted [repr, count] pairs: the encoding the hashes in
        # BENCH_chaos_convergence.json were recorded with.
        tables = {
            name: [[row, count] for row, count in rows.items()]
            for name, rows in digest["tables"].items()
        }
        projected[repr(address)] = {"tables": tables, "annotations": digest["annotations"]}
    return hashlib.sha256(canonical_json(projected).encode("utf-8")).hexdigest()


def convergence_digest(net) -> str:
    """The convergence digest of a serial :class:`ExspanNetwork`."""
    return digest_convergence(collect_digest(net))
