"""Snapshot-consistent checkpoint & restore for a whole network.

A checkpoint is one canonical-JSON file capturing everything a fresh
process needs to resume a quiesced :class:`~repro.core.api.ExspanNetwork`
bit-identically:

* per node, every table's rows **in insertion order** with their PSN
  derivation counts (insertion order is part of determinism: index buckets
  and equal-cost tie-breaks enumerate in that order).  Buckets are not
  stored: reloading the rows in order rebuilds each one, a 1-tuple or a
  dict, as it was;
* per node, the value-provenance annotations in their canonical encoded
  form (BDDs in bottom-up node order, polynomials as expression trees);
* per node, the engine's evaluation counters (so post-restore counter
  totals match an uninterrupted run);
* the network's :class:`~repro.core.config.ExspanConfig` and the simulated
  clock.

The network must be **quiesced** (``run_until_idle``) before
checkpointing — scheduled events hold closures that cannot be serialized,
and a consistent snapshot needs an empty event queue anyway.
``ExspanNetwork.checkpoint`` enforces this.

Restore builds a *fresh* network from the same topology and program
(checkpoints deliberately do not serialize those objects — they contain
user callables), verifies the member addresses match, then loads rows at
the storage layer, re-imports annotations into the node's live annotation
policy (BDDs into the network's shared manager, not a throwaway one), and
advances the simulated clock.  VIDs and RIDs are content-derived SHA-1s,
so they come back for free with the rows.

The file is written atomically (temp file + fsync + rename): a crash at
any point leaves either the old checkpoint or the new one, never a torn
file.  Format: ``{"format": "exspan-checkpoint", "version": 2, ...}`` —
see ``docs/STORAGE.md`` for the full schema.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, List

from .memory import freeze_value
from .sqlite import _encode as _canonical

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "node_state",
    "save_checkpoint",
    "load_checkpoint",
    "restore_network",
]

CHECKPOINT_FORMAT = "exspan-checkpoint"
CHECKPOINT_VERSION = 2


def _address_key(address: Any) -> str:
    """Canonical string key for a node address (JSON keys must be strings)."""
    return _canonical(address)


def node_state(engine: Any) -> Dict[str, Any]:
    """One node's engine state: the checkpoint payload and the digest source.

    Tables hold their rows in insertion order with derivation counts,
    annotations their canonical encoded form, aggregate rules their group
    state, plus the evaluation counters.  This is the only reader of an
    engine's state outside the engine: the strict and convergence digests
    and the sqlite mirror oracle are projections of it.
    """
    from ..core.requests import encode_annotation

    tables: Dict[str, List[Any]] = {}
    for table in engine.catalog.tables():
        rows = [[list(row), count] for row, count in table.rows_with_counts()]
        if rows or table.key_positions:
            tables[table.name] = rows
    annotations = [
        [name, list(values), encode_annotation(annotation)]
        for (name, values), annotation in engine._annotations.items()
    ]
    # Aggregate rules keep runtime state outside the tables: one value
    # multiset + emitted row per group.  Counter insertion order is
    # semantic for AGGLIST (current() expands values in first-seen order),
    # so groups and their values are serialized in iteration order.
    aggregates: Dict[str, List[Any]] = {}
    for label, compiled in engine._aggregate_rules.items():
        groups = []
        for group_key, state in compiled.groups.items():
            values = [[value, count] for value, count in state._values.items()]
            emitted = compiled.emitted.get(group_key)
            groups.append(
                [
                    list(group_key),
                    values,
                    None if emitted is None else list(emitted),
                ]
            )
        if groups:
            aggregates[label] = groups
    return {
        "tables": tables,
        "annotations": annotations,
        "aggregates": aggregates,
        "stats": {key: value for key, value in sorted(engine.stats.items())},
    }


def save_checkpoint(network: Any, path: str) -> Dict[str, Any]:
    """Write a checkpoint of the quiesced *network* to *path* atomically.

    Returns a summary dict (path, node count, byte size, simulated time).
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": network.config.to_dict(),
        "now": network.simulator.now,
        "events_executed": network.simulator.events_executed,
        "addresses": sorted(_address_key(address) for address in network.nodes),
        "nodes": {
            _address_key(address): node_state(node.engine)
            for address, node in network.nodes.items()
        },
    }
    text = _canonical(payload)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(dir=directory, prefix=".checkpoint-")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return {
        "path": path,
        "nodes": len(network.nodes),
        "bytes": len(text) + 1,
        "now": network.simulator.now,
    }


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read and validate a checkpoint file."""
    from ..core.errors import ProvenanceError

    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError:  # truncated JSON or non-UTF-8 bytes
            payload = None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ProvenanceError(f"{path}: not an ExSPAN checkpoint file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ProvenanceError(
            f"{path}: unsupported checkpoint version {payload.get('version')!r}"
        )
    return payload


def _load_node(node: Any, snapshot: Dict[str, Any], backend: Any) -> None:
    engine = node.engine
    address = node.address
    replay = backend.persistent
    for name, rows in snapshot["tables"].items():
        table = engine.catalog.table(name)
        for row, count in rows:
            frozen = freeze_value(row)  # JSON list -> hashable tuple, once
            table.load_row(frozen, count)
            if replay:
                # Seed the write-behind mirror (a persistent backend's
                # ``record``): storage-level loads bypass the engine
                # listeners, so the backend journal must see the restored
                # visible set explicitly (it keeps the row as is).
                backend.record(address, "insert", name, frozen)
    from ..core.requests import decode_annotation
    from ..datalog.aggregates import AggregateState

    def _shallow(values: Any) -> Any:
        # The engine normalizes group keys, aggregate values and emitted
        # rows with a *top-level-only* list->tuple conversion (inner lists
        # stay lists); mirror it exactly so restored state compares equal.
        return tuple(v if not isinstance(v, list) else tuple(v) for v in values)

    for label, groups in snapshot.get("aggregates", {}).items():
        compiled = engine._aggregate_rules[label]
        func = compiled.spec.func
        for group_key, values, emitted in groups:
            key = _shallow(group_key)
            state = AggregateState(func)
            for value, count in values:
                for _ in range(int(count)):
                    state.insert(value)
            compiled.groups[key] = state
            if emitted is not None:
                compiled.emitted[key] = _shallow(emitted)
    engine._rebuild_support()
    manager = getattr(engine.annotation_policy, "manager", None)
    for name, values, encoded in snapshot["annotations"]:
        key = (name, freeze_value(tuple(values)))
        engine._annotations[key] = decode_annotation(encoded, manager)
    for key, value in snapshot["stats"].items():
        engine.stats[key] = value


def restore_network(
    path: str,
    topology: Any,
    program: Any,
    *,
    config: Any = None,
    storage: Any = None,
    tracer: Any = None,
) -> Any:
    """Rebuild a network from a checkpoint written by :func:`save_checkpoint`.

    *topology* and *program* must be the ones the checkpointed network was
    built from (the member addresses are verified; VIDs would diverge
    loudly on a mismatched program).  ``config`` overrides the saved
    config wholesale; ``storage`` then overrides just the storage spec of
    whichever config applies (e.g. restore a memory-backend checkpoint onto
    sqlite or vice versa — the backend is an execution-environment knob,
    never part of the state).
    """
    from ..core.api import ExspanNetwork
    from ..core.config import ExspanConfig
    from ..core.errors import ProvenanceError

    payload = load_checkpoint(path)
    if config is None:
        config = ExspanConfig.from_dict(payload["config"])
    if storage is not None:
        config = config.replace(storage=storage)
    network = ExspanNetwork(topology, program, config=config, tracer=tracer)
    expected = payload["addresses"]
    actual = sorted(_address_key(address) for address in network.nodes)
    if actual != expected:
        raise ProvenanceError(
            f"{path}: checkpoint was taken on a different topology "
            f"({len(expected)} node(s) vs {len(actual)})"
        )
    backend = network.storage
    for address, node in network.nodes.items():
        snapshot = payload["nodes"][_address_key(address)]
        _load_node(node, snapshot, backend)
    backend.flush()
    backend.counters["restores"] += 1
    # The queue is empty (the checkpoint was quiesced), so run(until=...)
    # would return without touching the clock; set it directly along with
    # the executed-event counter so post-restore timings and stats line up
    # with the uninterrupted run.
    network.simulator._now = payload["now"]
    network.simulator.events_executed = payload["events_executed"]
    return network
