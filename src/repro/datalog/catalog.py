"""Relation storage for a single NDlog node (compatibility re-export).

The :class:`Table` / :class:`Catalog` machinery moved to
:mod:`repro.storage.memory` when the pluggable storage engine landed —
storage is a subsystem of its own now, with the in-RAM tier as its default
backend and sqlite as the durable one.  This module keeps the historical
``repro.datalog.catalog`` import surface working unchanged; see the new
home for the full documentation.
"""

from __future__ import annotations

from ..storage.memory import (
    Catalog,
    DeleteOutcome,
    InsertOutcome,
    Table,
    freeze_value,
)

__all__ = [
    "Table",
    "Catalog",
    "InsertOutcome",
    "DeleteOutcome",
    "freeze_value",
]
