"""Per-node access to the provenance tables (the storage model of Section 4.1).

The provenance rewrite maintains two ordinary NDlog tables at every node:

* ``prov(@Loc, VID, RID, RLoc)`` — the tuple vertex ``VID`` stored at
  ``Loc`` is directly derivable from the rule execution ``RID`` residing at
  ``RLoc``; base tuples carry a ``null`` RID;
* ``ruleExec(@RLoc, RID, R, VIDList)`` — the metadata of one rule execution:
  the rule label ``R`` and the VIDs of its input tuples.

:class:`ProvenanceStore` wraps one node's
:class:`~repro.datalog.engine.NDlogEngine` and hands out the tables' raw
rows — ``(loc, vid, rid, rloc)`` and ``(rloc, rid, rule, inputs)`` — either
by VID or RID with one index probe (:meth:`ProvenanceStore.probe`, what the
distributed query service and the rooted graph walk read) or a whole table
at once (:meth:`ProvenanceStore.rows`, what the global graph copies), plus
the "systems table that maps VIDs to tuples" the paper assumes (here a
lazily-maintained index over the node's materialized tables).

This is the per-node *view* layer of the pluggable storage engine
(:mod:`repro.storage`): the rows themselves live in the
:class:`~repro.storage.memory.Table` tier, every network's
:class:`~repro.storage.backend.StorageBackend` receives each node's store
through ``attach_node`` (serving cross-node ``fact_for_vid`` lookups and,
for the sqlite backend, mirroring the same prov/ruleExec rows and VID
index to disk), and checkpoint restore reloads the tables underneath this
view without it noticing — the lazily-built VID index is rebuilt on first
use from whatever the tables then contain.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, List, Optional, Sequence, Tuple

from ..datalog.ast import Fact, is_event_predicate
from ..datalog.engine import NDlogEngine
from .rewrite import PROV_TABLE, RULE_EXEC_TABLE
from .vid import fact_vid

__all__ = ["ProvenanceStore", "rule_inputs"]


def rule_inputs(row: Sequence[Any]) -> Tuple[str, ...]:
    """The input VIDs of a ``ruleExec`` row (a lone VID reads as one input)."""
    inputs = row[3]
    return tuple(inputs) if isinstance(inputs, (list, tuple)) else (inputs,)


class ProvenanceStore:
    """Access to one node's slice of the distributed provenance graph."""

    def __init__(self, engine: NDlogEngine):
        self.engine = engine
        self._vid_index: Dict[str, Tuple[str, Tuple[Any, ...]]] = {}
        # The VID -> tuple index is built lazily on first use and then
        # maintained *incrementally* through the engine's update listener —
        # the old rebuild-the-world-per-miss behaviour was O(all rows) per
        # unresolvable VID, which query workloads hit constantly.  The
        # listener is registered by that first build, so nodes that never
        # resolve a VID pay nothing.
        self._vid_index_built = False

    # ------------------------------------------------------------------ #
    # prov / ruleExec rows
    # ------------------------------------------------------------------ #
    def probe(self, name: str, key: Any) -> Collection[Tuple[Any, ...]]:
        """Rows of local table *name* with *key* at position 1 (VID or RID).

        The one read path: a single index probe returning the live bucket
        (``()`` if none), to be iterated fully before anything can mutate
        the table.  A read never creates the table: ``Catalog.get``.
        """
        table = self.engine.catalog.get(name)
        if table is None:
            return ()
        return table.probe((1,), (key,)) or ()

    def rows(self, name: str) -> List[Tuple[Any, ...]]:
        """Every row of local table *name*: a whole-table read (``[]`` if none)."""
        table = self.engine.catalog.get(name)
        return [] if table is None else table.rows()

    # ------------------------------------------------------------------ #
    # VID -> tuple resolution (the "systems table" of Section 5.2.1)
    # ------------------------------------------------------------------ #
    def fact_for_vid(self, vid: str) -> Optional[Fact]:
        """Resolve *vid* back to the locally stored tuple, if any."""
        if not self._vid_index_built:
            self._rebuild_vid_index()
        cached = self._vid_index.get(vid)
        if cached is None:
            return None
        name, row = cached
        return Fact(name, row)

    def _on_tuple_update(self, action: str, fact: Fact) -> None:
        """Engine update listener: keep the (built) VID index consistent."""
        name = fact.name
        if name in (PROV_TABLE, RULE_EXEC_TABLE) or is_event_predicate(name):
            return
        vid = fact_vid(fact)
        if action == "insert":
            self._vid_index[vid] = (name, tuple(fact.values))
        else:
            self._vid_index.pop(vid, None)

    def _rebuild_vid_index(self) -> None:
        self._vid_index.clear()
        for table in self.engine.catalog.tables():
            if table.name in (PROV_TABLE, RULE_EXEC_TABLE):
                continue
            if is_event_predicate(table.name):
                continue
            for row in table.rows():
                vid = fact_vid(Fact(table.name, row))
                self._vid_index[vid] = (table.name, row)
        self._vid_index_built = True
        self.engine.add_update_listener(self._on_tuple_update)

    # ------------------------------------------------------------------ #
    # statistics helpers (the network's provenance row counts)
    # ------------------------------------------------------------------ #
    def prov_row_count(self) -> int:
        table = self.engine.catalog.get(PROV_TABLE)
        return 0 if table is None else len(table)

    def rule_exec_row_count(self) -> int:
        table = self.engine.catalog.get(RULE_EXEC_TABLE)
        return 0 if table is None else len(table)
