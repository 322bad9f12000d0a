"""Pluggable storage engine: the in-RAM tier and durable backends.

This package owns tuple storage for the whole system:

* :mod:`repro.storage.memory` — the tuple-row :class:`Table` /
  :class:`Catalog` machinery (formerly ``repro.datalog.catalog``, which
  re-exports it for compatibility) plus :class:`MemoryBackend`, the
  default backend that adds nothing on top of the in-RAM tier;
* :mod:`repro.storage.backend` — the :class:`StorageBackend` interface,
  spec parsing (``"memory"`` / ``"sqlite"`` / ``"sqlite:<path>"``) and
  the process-wide default knob (:func:`default_storage` /
  :func:`set_default_storage`, the ``--storage`` CLI convention);
* :mod:`repro.storage.sqlite` — the write-behind sqlite (WAL) mirror with
  the pre/post-order interval encoding of the provenance DAG and the
  SQL-compiled reachability/subgraph query path;
* :mod:`repro.storage.checkpoint` — snapshot-consistent network
  checkpoint & restore (``ExspanNetwork.checkpoint``/``restore``).

Backend choice is an execution-environment knob like ``--shards`` and
``--pipeline``: never fingerprinted, and results are byte-identical under
any backend.
"""

# Imported first to break the import cycle with repro.datalog: its catalog
# module re-exports repro.storage.memory, so whichever package is imported
# first must let the other finish loading the memory tier (see trace in
# the module docstrings).
from .. import datalog as _datalog  # noqa: F401

from .backend import (
    STORAGE_BACKENDS,
    StorageBackend,
    StorageError,
    default_storage,
    make_backend,
    parse_storage_spec,
    set_default_storage,
    validate_storage_spec,
)
from .memory import (
    Catalog,
    DeleteOutcome,
    InsertOutcome,
    MemoryBackend,
    Table,
    freeze_value,
)
from .sqlite import SQL_QUERY_KINDS, SqliteBackend

__all__ = [
    "STORAGE_BACKENDS",
    "SQL_QUERY_KINDS",
    "StorageBackend",
    "StorageError",
    "MemoryBackend",
    "SqliteBackend",
    "default_storage",
    "set_default_storage",
    "make_backend",
    "parse_storage_spec",
    "validate_storage_spec",
    "Table",
    "Catalog",
    "InsertOutcome",
    "DeleteOutcome",
    "freeze_value",
]
