"""Pluggable storage engine: the in-RAM tier and durable backends.

This package owns tuple storage for the whole system:

* :mod:`repro.storage.memory` — the tuple-row :class:`Table` /
  :class:`Catalog` machinery every engine evaluates against, plus
  :class:`MemoryBackend`, the default backend that adds nothing on top of
  the in-RAM tier;
* :mod:`repro.storage.backend` — the :class:`StorageBackend` interface
  and spec parsing (``"memory"`` / ``"sqlite"`` / ``"sqlite:<path>"``;
  ``None`` means memory);
* :mod:`repro.storage.sqlite` — the write-behind sqlite (WAL) mirror and
  the SQL reachability/subgraph query path, a recursive walk over the
  mirrored ``prov``/``ruleExec`` rows;
* :mod:`repro.storage.checkpoint` — snapshot-consistent network
  checkpoint & restore (``ExspanNetwork.checkpoint``/``restore``).

Backend choice is an execution-environment knob (``ExspanConfig.storage``,
or ``ExecutionEnv.storage`` for experiment trials): never fingerprinted,
and results are byte-identical under any backend.
"""

# Imported first to break the import cycle with repro.datalog: its engine
# imports repro.storage.memory, so whichever package is imported first must
# let the other finish loading the memory tier.
from .. import datalog as _datalog  # noqa: F401

from .backend import (
    STORAGE_BACKENDS,
    StorageBackend,
    StorageError,
    make_backend,
    parse_storage_spec,
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
    "make_backend",
    "parse_storage_spec",
    "validate_storage_spec",
    "Table",
    "Catalog",
    "InsertOutcome",
    "DeleteOutcome",
    "freeze_value",
]
