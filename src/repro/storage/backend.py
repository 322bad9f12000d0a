"""The pluggable storage-backend interface and spec parsing.

Every :class:`~repro.core.api.ExspanNetwork` owns exactly one
:class:`StorageBackend`.  The backend does **not** sit on the delta hot
path: the authoritative, always-consulted copy of every relation stays the
in-RAM :class:`~repro.storage.memory.Table`.  A backend is the
*durability and analytics* layer underneath it — it observes visibility
transitions through the engine's update-listener hook and may mirror them
to disk (write-behind), answer SQL-compiled provenance queries, and carry
checkpoint/restore bookkeeping.

Backend selection is an execution-environment knob: the spec travels in
``ExspanConfig.storage`` (the experiments' ``ExecutionEnv.storage``, set
by ``--storage``), is never part of a trial fingerprint, and results
(fixpoints, VIDs, prov/ruleExec rows, annotations, planner/traffic
counters) must be byte-identical under any backend.  ``MemoryBackend``
registers no listeners at all, so the default configuration is
bit-identical to the pre-refactor engine by construction.

Specs
-----
``"memory"``
    RAM only (the default).
``"sqlite"``
    Write-behind sqlite (WAL) in an ephemeral temporary file, removed on
    :meth:`StorageBackend.close`.
``"sqlite:<path>"``
    Write-behind sqlite at an explicit path.  Sharded workers suffix the
    path with ``.shard<N>`` so forked processes never share one WAL.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "STORAGE_BACKENDS",
    "StorageBackend",
    "StorageError",
    "make_backend",
    "parse_storage_spec",
    "validate_storage_spec",
]

#: The backend kinds a spec may name.
STORAGE_BACKENDS: Tuple[str, ...] = ("memory", "sqlite")


class StorageError(RuntimeError):
    """A storage backend rejected an operation (bad spec, no SQL support)."""


def parse_storage_spec(spec: str) -> Tuple[str, Optional[str]]:
    """Split a storage spec into ``(kind, path)``; raise on a bad spec."""
    if not isinstance(spec, str) or not spec:
        raise StorageError(f"storage spec must be a non-empty string, got {spec!r}")
    kind, separator, path = spec.partition(":")
    if kind not in STORAGE_BACKENDS:
        raise StorageError(
            f"unknown storage backend {kind!r} (expected one of {STORAGE_BACKENDS})"
        )
    if not separator:
        return kind, None
    if kind != "sqlite":
        raise StorageError(f"storage backend {kind!r} does not take a path")
    if not path:
        raise StorageError("sqlite storage spec has an empty path")
    return kind, path


def validate_storage_spec(spec: str) -> str:
    """Validate *spec* and return it unchanged (config-layer entry point)."""
    parse_storage_spec(spec)
    return spec


class StorageBackend:
    """Base class for storage backends (one instance per network).

    Subclasses override the hooks they need; the base class implements the
    memory-resident behaviour so :class:`MemoryBackend` is nearly empty.
    """

    #: Spec kind this backend implements.
    kind = "abstract"
    #: True when the backend mirrors state to durable media.
    persistent = False
    #: True when :meth:`sql_query` is available.
    supports_sql = False
    #: Filesystem path of the durable store, when there is one.
    path: Optional[str] = None

    def __init__(self) -> None:
        # address -> (engine, provenance store), in attach order.
        self.nodes: Dict[Any, Tuple[Any, Any]] = {}
        self.counters: Dict[str, int] = {
            "journal_appends": 0,
            "flushes": 0,
            "flushed_ops": 0,
            "cancelled_ops": 0,
            "sql_queries": 0,
            "checkpoints": 0,
            "restores": 0,
        }

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def attach_node(self, address: Any, engine: Any, store: Any) -> None:
        """Register one node's engine + provenance store with the backend.

        Called once per node by ``ExspanNetwork._build_node``.  Persistent
        backends additionally subscribe to the engine's update listener
        here; the base class records the node and touches nothing else, so
        attaching the memory backend cannot perturb evaluation.
        """
        self.nodes[address] = (engine, store)

    def close(self) -> None:
        """Release resources (connections, ephemeral files)."""

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #
    def flush(self) -> int:
        """Drain the write-behind journal; return the operation count."""
        return 0

    # ------------------------------------------------------------------ #
    # lookups shared by both backends (served from the attached stores)
    # ------------------------------------------------------------------ #
    def row_count(self) -> int:
        """Total materialized rows across every attached catalog."""
        return sum(engine.catalog.total_rows() for engine, _ in self.nodes.values())

    # ------------------------------------------------------------------ #
    # SQL query path
    # ------------------------------------------------------------------ #
    def sql_query(self, kind: str, root_vid: str) -> List[Any]:
        raise StorageError(
            f"storage backend {self.kind!r} has no SQL query path "
            "(use storage='sqlite')"
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        snapshot: Dict[str, Any] = {
            "kind": self.kind,
            "persistent": self.persistent,
            "supports_sql": self.supports_sql,
            "nodes": len(self.nodes),
            "rows": self.row_count(),
        }
        if self.path is not None:
            snapshot["path"] = self.path
        snapshot.update(self.counters)
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(nodes={len(self.nodes)})"


def make_backend(spec: Optional[str] = None) -> StorageBackend:
    """Build the backend named by *spec* (``None`` means memory)."""
    kind, path = parse_storage_spec(spec if spec is not None else "memory")
    if kind == "memory":
        from .memory import MemoryBackend

        return MemoryBackend()
    from .sqlite import SqliteBackend

    return SqliteBackend(path)
