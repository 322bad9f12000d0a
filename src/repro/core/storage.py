"""Per-node access to the provenance tables (the storage model of Section 4.1).

The provenance rewrite maintains two ordinary NDlog tables at every node:

* ``prov(@Loc, VID, RID, RLoc)`` — the tuple vertex ``VID`` stored at
  ``Loc`` is directly derivable from the rule execution ``RID`` residing at
  ``RLoc``; base tuples carry a ``null`` RID;
* ``ruleExec(@RLoc, RID, R, VIDList)`` — the metadata of one rule execution:
  the rule label ``R`` and the VIDs of its input tuples.

:class:`ProvenanceStore` wraps one node's
:class:`~repro.datalog.engine.NDlogEngine` and gives the distributed query
service typed access to these tables, plus the "systems table that maps VIDs
to tuples" the paper assumes (here a lazily-maintained index over the node's
materialized tables).

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

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..datalog.ast import Fact, is_event_predicate
from ..datalog.engine import NDlogEngine
from .rewrite import PROV_TABLE, RULE_EXEC_TABLE
from .vid import fact_vid

__all__ = ["ProvEntry", "RuleExecEntry", "ProvenanceStore"]


class ProvEntry:
    """One row of the ``prov`` table."""

    __slots__ = ("location", "vid", "rid", "rule_location")

    def __init__(self, location: Any, vid: str, rid: Optional[str], rule_location: Any):
        self.location = location
        self.vid = vid
        self.rid = rid
        self.rule_location = rule_location

    @property
    def is_base(self) -> bool:
        """True when this entry marks a base tuple (null RID)."""
        return self.rid is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rid = "null" if self.rid is None else self.rid[:8]
        return f"ProvEntry(loc={self.location}, vid={self.vid[:8]}, rid={rid})"


class RuleExecEntry:
    """One row of the ``ruleExec`` table."""

    __slots__ = ("rule_location", "rid", "rule_label", "input_vids")

    def __init__(
        self, rule_location: Any, rid: str, rule_label: str, input_vids: Sequence[str]
    ):
        self.rule_location = rule_location
        self.rid = rid
        self.rule_label = rule_label
        self.input_vids = tuple(input_vids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RuleExecEntry(rule={self.rule_label}, loc={self.rule_location}, "
            f"inputs={len(self.input_vids)})"
        )


class ProvenanceStore:
    """Typed access to one node's slice of the distributed provenance graph."""

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

    @property
    def node(self) -> Any:
        return self.engine.address

    # ------------------------------------------------------------------ #
    # prov table
    # ------------------------------------------------------------------ #
    def _rows(self, name: str, bound: Optional[Dict[int, Any]] = None):
        """Rows of local table *name* (``[]`` when absent), optionally by key.

        A read never creates the table: ``Catalog.get``, not ``table``.
        """
        table = self.engine.catalog.get(name)
        if table is None:
            return []
        return table.lookup(bound) if bound else table.rows()

    def prov_entries(self, vid: str) -> List[ProvEntry]:
        """All local derivations of the tuple vertex *vid*."""
        return [
            ProvEntry(row[0], row[1], row[2], row[3])
            for row in self._rows(PROV_TABLE, {1: vid})
        ]

    def derivation_count(self, vid: str) -> int:
        """Number of alternative derivations recorded locally for *vid*."""
        return len(self.prov_entries(vid))

    def is_base(self, vid: str) -> bool:
        """True when *vid* has a base-tuple (null RID) prov entry locally."""
        return any(entry.is_base for entry in self.prov_entries(vid))

    def all_prov_entries(self) -> List[ProvEntry]:
        return [
            ProvEntry(row[0], row[1], row[2], row[3]) for row in self._rows(PROV_TABLE)
        ]

    # ------------------------------------------------------------------ #
    # ruleExec table
    # ------------------------------------------------------------------ #
    def rule_exec(self, rid: str) -> Optional[RuleExecEntry]:
        """Look up the rule execution vertex *rid* stored at this node."""
        for row in self._rows(RULE_EXEC_TABLE, {1: rid}):
            input_vids = row[3] if isinstance(row[3], (list, tuple)) else (row[3],)
            return RuleExecEntry(row[0], row[1], row[2], tuple(input_vids))
        return None

    def all_rule_exec_entries(self) -> List[RuleExecEntry]:
        entries = []
        for row in self._rows(RULE_EXEC_TABLE):
            input_vids = row[3] if isinstance(row[3], (list, tuple)) else (row[3],)
            entries.append(RuleExecEntry(row[0], row[1], row[2], tuple(input_vids)))
        return entries

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
    # statistics helpers (used by tests and EXPERIMENTS.md reporting)
    # ------------------------------------------------------------------ #
    def prov_row_count(self) -> int:
        table = self.engine.catalog.get(PROV_TABLE)
        return 0 if table is None else len(table)

    def rule_exec_row_count(self) -> int:
        table = self.engine.catalog.get(RULE_EXEC_TABLE)
        return 0 if table is None else len(table)
