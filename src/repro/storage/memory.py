"""In-RAM relation storage: tuple-row tables, catalogs, MemoryBackend.

Each node in the network owns a :class:`Catalog` of :class:`Table` objects.
A table stores only the tuples whose location specifier equals the owning
node's address — this is the horizontal partitioning described throughout
the ExSPAN paper (e.g. the ``prov`` relation is "distributed across nodes,
partitioned based on the location specifier Loc").

Tables implement *derivation counting*: inserting an already-present fact
increments its count instead of duplicating it, and deleting decrements the
count, only removing the fact when the count reaches zero.  This is the
standard bookkeeping used by the pipelined semi-naive (PSN) evaluation to
handle tuples with multiple derivations.

Tables optionally declare primary-key positions.  When a new fact shares the
primary key of an existing fact with different non-key attributes, the old
fact is *replaced* (an update), which mirrors RapidNet's ``materialize``
semantics and is relied upon by routing tables such as ``bestHop``.

Rows are plain tuples, and a table is one dict from each stored row to its
derivation count — plado's ``Table = set[tuple]`` plus counts.  The
primary-key map and every secondary-index bucket hold the same tuple
object the dict keys on, so a new row costs its dict entries and nothing
else: no per-row wrapper object, no Python-level ``__hash__``, and a
one-row bucket is the 1-tuple ``(row,)``, not a one-entry dict.  Rows the
engine builds are hashable tuples from birth and are stored as they are;
only rows handed in from outside (lists, sets) are frozen on the way in.

This module is the storage engine's in-RAM tier.  Every backend —
including the persistent ones — keeps this tier as the authoritative copy
consulted by evaluation, and :class:`MemoryBackend` is the backend that
adds nothing on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..datalog.ast import Fact, TableDecl
from ..datalog.errors import SchemaError
from .backend import StorageBackend

__all__ = [
    "Table",
    "Catalog",
    "InsertOutcome",
    "DeleteOutcome",
    "freeze_value",
    "MemoryBackend",
]


@dataclass(frozen=True, slots=True)
class InsertOutcome:
    """Result of a table insert.

    ``became_visible`` is True when the fact was not previously present
    (count went 0 -> 1) and therefore must be propagated to dependent rules.
    ``replaced`` holds a fact evicted by primary-key update semantics, which
    the engine must propagate as a deletion.
    """

    became_visible: bool
    replaced: Optional[Fact] = None


@dataclass(frozen=True, slots=True)
class DeleteOutcome:
    """Result of a table delete.

    ``became_invisible`` is True when the count reached zero and the fact was
    actually removed, requiring downstream deletion propagation.
    """

    became_invisible: bool
    was_present: bool


# Immutable outcome singletons for the overwhelmingly common cases (one
# fresh frozen-dataclass allocation per table mutation adds up at delta
# rates); only primary-key replacement still allocates.
_INSERTED_NEW = InsertOutcome(became_visible=True, replaced=None)
_INSERTED_DUP = InsertOutcome(became_visible=False, replaced=None)
_DELETED_GONE = DeleteOutcome(became_invisible=True, was_present=True)
_DELETED_KEPT = DeleteOutcome(became_invisible=False, was_present=True)
_DELETED_ABSENT = DeleteOutcome(became_invisible=False, was_present=False)


class Table:
    """A horizontally-partitioned relation fragment stored at one node."""

    def __init__(
        self,
        name: str,
        arity: Optional[int] = None,
        key_positions: Sequence[int] = (),
        location_index: int = 0,
    ):
        self.name = name
        self.arity = arity
        self.key_positions: Tuple[int, ...] = tuple(key_positions)
        self.location_index = location_index
        self._key_getter = (
            _subkey_getter(self.key_positions) if self.key_positions else None
        )
        # row (a hashable tuple) -> derivation count: the row set and the
        # count store at once.
        self._rows: Dict[Tuple[Any, ...], int] = {}
        # primary key -> full tuple (only when key_positions declared)
        self._by_key: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
        # (positions) -> {values -> bucket of full tuples}: ``(row,)``, or from
        # two rows on an insertion-ordered dict (row -> None).  Never a set:
        # indexed lookups must enumerate rows in the same order a full scan of
        # ``_rows`` would, so that planned and naive evaluation break
        # equal-cost ties (e.g. two best paths of the same length) identically.
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple[Any, ...], Collection]] = {}
        # Maintenance view of _indexes: (max position, key getter, index
        # dict) triples, so insert/delete skip per-row position loops.
        self._index_list: List[
            Tuple[int, Callable[[Sequence[Any]], Tuple[Any, ...]], Dict]
        ] = []

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _find(self, values: Sequence[Any]) -> Tuple[Tuple[Any, ...], Optional[int]]:
        """``(row, count)``: *values* as a hashable row, and its count or None.

        Hash first, freeze on ``TypeError``: rows the engine builds are
        hashable tuples from birth and look up as they are.  The freeze
        relies on equality, not identity — ``_freeze`` only rewrites
        containers into equal tuples — so a hashable row is its own frozen
        image; only rows handed in from outside (``insert_fact`` with a
        list or set attribute, checkpoint and service JSON) take the detour.
        """
        if values.__class__ is not tuple:
            values = tuple(values)
        try:
            return values, self._rows.get(values)
        except TypeError:
            row = tuple([_freeze(v) for v in values])
            return row, self._rows.get(row)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def insert(self, values: Sequence[Any]) -> InsertOutcome:
        """Insert one derivation of *values*; see :class:`InsertOutcome`.

        One function on purpose (this and :meth:`delete` run once per
        delta): the lookup follows :meth:`_find`'s hash-first rule.  A new
        row is stored as the tuple it arrived as, in the row dict, the
        primary-key map and every index bucket alike.
        """
        rows = self._rows
        if values.__class__ is not tuple:
            values = tuple(values)
        try:
            count = rows.get(values)
        except TypeError:
            values = tuple([_freeze(v) for v in values])
            count = rows.get(values)
        if count is not None:
            rows[values] = count + 1
            return _INSERTED_DUP
        if self.arity is None:
            self.arity = len(values)
        elif len(values) != self.arity:
            raise SchemaError(
                f"relation {self.name!r} expects arity {self.arity}, "
                f"got {len(values)}"
            )
        replaced: Optional[Fact] = None
        key_getter = self._key_getter
        if key_getter is not None:
            key = key_getter(values)
            by_key = self._by_key
            existing = by_key.get(key)
            if existing is not None and existing != values:
                # primary-key update: evict the old row entirely
                self._remove_row(existing)
                replaced = Fact(self.name, existing, self.location_index)
            by_key[key] = values
        rows[values] = 1
        length = len(values)
        for max_position, getter, index in self._index_list:
            if max_position < length:  # else: too short to ever match
                key = getter(values)
                bucket = index.get(key)
                if bucket.__class__ is dict:
                    bucket[values] = None
                else:  # none yet, or (row,): promote
                    index[key] = (values,) if bucket is None else {bucket[0]: None, values: None}
        if replaced is None:
            return _INSERTED_NEW
        return InsertOutcome(became_visible=True, replaced=replaced)

    def delete(self, values: Sequence[Any]) -> DeleteOutcome:
        """Remove one derivation of *values*; see :class:`DeleteOutcome`."""
        rows = self._rows
        if values.__class__ is not tuple:
            values = tuple(values)
        try:
            count = rows.get(values)
        except TypeError:
            values = tuple([_freeze(v) for v in values])
            count = rows.get(values)
        if count is None:
            return _DELETED_ABSENT
        if count > 1:
            rows[values] = count - 1
            return _DELETED_KEPT
        del rows[values]
        key_getter = self._key_getter
        if key_getter is not None:
            key = key_getter(values)
            if self._by_key.get(key) == values:
                del self._by_key[key]
        length = len(values)
        for max_position, getter, index in self._index_list:
            if max_position < length:
                key = getter(values)
                bucket = index[key]  # a stored row is in its bucket
                if bucket.__class__ is tuple:
                    del index[key]
                else:
                    del bucket[values]
                    if len(bucket) == 1:
                        index[key] = (*bucket,)
        return _DELETED_GONE

    def _remove_row(self, row: Tuple[Any, ...]) -> None:
        """Evict stored *row* whatever its count: delete its last derivation."""
        self._rows[row] = 1
        self.delete(row)

    # ------------------------------------------------------------------ #
    # restore
    # ------------------------------------------------------------------ #
    def load_row(self, values: Sequence[Any], count: int) -> None:
        """Checkpoint-restore entry point: install one row with its count.

        Rows must be loaded in their original insertion order — ``_rows``
        and every index bucket enumerate in insertion order, and planned
        evaluation's equal-cost tie-breaks depend on that order — so a
        restored table enumerates identically to the table it snapshots.
        Bypasses primary-key replacement (a checkpoint never contains two
        rows with the same key) and fires no listeners.
        """
        outcome = self.insert(values)
        if not outcome.became_visible:
            raise SchemaError(
                f"relation {self.name!r}: duplicate checkpoint row {values!r}"
            )
        self._rows[self._find(values)[0]] = int(count)

    # ------------------------------------------------------------------ #
    # indexes
    # ------------------------------------------------------------------ #
    def _ensure_index(self, positions: Tuple[int, ...]) -> Dict[Tuple[Any, ...], Collection]:
        index = self._indexes.get(positions)
        if index is None:
            getter = _subkey_getter(positions)
            max_position = positions[-1] if positions else -1
            grouped: Dict[Tuple[Any, ...], Dict[Tuple[Any, ...], None]] = {}
            for row in self._rows:
                if max_position < len(row):
                    grouped.setdefault(getter(row), {})[row] = None
            index = {key: (*rows,) if len(rows) == 1 else rows for key, rows in grouped.items()}
            self._indexes[positions] = index
            self._index_list.append((max_position, getter, index))
        return index

    def ensure_index(self, positions: Sequence[int]) -> None:
        """Materialize a secondary hash index over *positions* now.

        The index is maintained incrementally by every subsequent insert and
        delete.  The query planner registers the indexes its compiled plans
        will use through this entry point so the first delta does not pay a
        lazy build inside the evaluation loop.
        """
        canonical = tuple(sorted(set(int(p) for p in positions)))
        if not canonical:
            return
        if canonical[0] < 0:
            raise SchemaError(
                f"relation {self.name!r}: negative index position {canonical[0]}"
            )
        if self.arity is not None and canonical[-1] >= self.arity:
            raise SchemaError(
                f"relation {self.name!r} has arity {self.arity}; cannot index "
                f"position {canonical[-1]}"
            )
        self._ensure_index(canonical)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __contains__(self, values: Sequence[Any]) -> bool:
        if values.__class__ is tuple:
            try:
                return values in self._rows
            except TypeError:
                pass
        return self._find(values)[1] is not None

    def rows(self) -> List[Tuple[Any, ...]]:
        """The distinct rows in insertion order (ignoring derivation counts)."""
        return list(self._rows)

    def rows_with_counts(self) -> List[Tuple[Tuple[Any, ...], int]]:
        """``(row, derivation count)`` pairs in insertion order.

        The checkpoint serializer uses this: counts are part of PSN state
        (a restored table must survive the same number of deletions), and
        insertion order is part of determinism (see :meth:`load_row`).
        """
        return list(self._rows.items())

    def lookup(self, bound: Dict[int, Any]) -> Iterator[Tuple[Any, ...]]:
        """Yield rows whose attributes match the {position: value} constraints.

        Uses (and lazily builds) a hash index over the constrained positions
        whenever at least one position is constrained.
        """
        if not bound:
            yield from self.rows()
            return
        positions = tuple(sorted(bound))
        index = self._ensure_index(positions)
        key = tuple(_freeze(bound[i]) for i in positions)
        for row in list(index.get(key, ())):
            yield row

    def probe(
        self, positions: Tuple[int, ...], key: Tuple[Any, ...]
    ) -> Optional[Collection[Tuple[Any, ...]]]:
        """The index bucket for *key* over *positions* (``None`` when empty).

        The compiled execution path uses this instead of :meth:`lookup`: the
        caller has already computed the canonical position tuple and the
        frozen key, so the bucket is returned directly with no per-row
        generator machinery; it is ``(row,)`` or an insertion-ordered dict of
        rows, so iterate it and take its length, nothing else.  Callers must
        not mutate the table while iterating the bucket — rule evaluation
        never does (all table mutation happens between deltas).
        """
        index = self._indexes.get(positions)
        if index is None:
            index = self._ensure_index(positions)
        return index.get(key)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={len(self._rows)})"


def _subkey_getter(
    positions: Sequence[int],
) -> Callable[[Sequence[Any]], Tuple[Any, ...]]:
    """A C-speed ``row -> (row[p0], row[p1], ...)`` key extractor.

    Every key is a tuple, whatever its width (index and primary-key
    dictionaries key on tuples): a single position slices the row, which
    returns the same 1-tuple without a Python-level frame.
    """
    if len(positions) == 1:
        position = positions[0]
        return itemgetter(slice(position, position + 1))
    if not positions:
        return itemgetter(slice(0, 0))
    return itemgetter(*positions)


def _freeze(value: Any) -> Any:
    """Convert mutable containers to hashable equivalents for storage
    (a hashable tuple holds no list or set: it is its own frozen image)."""
    cls = value.__class__
    if cls is str or cls is int:  # the dominant row-attribute types
        return value
    if cls is tuple:
        try:
            hash(value)
            return value
        except TypeError:
            pass
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    return value


#: Public alias used by the compiled execution layer (index key freezing
#: must match storage freezing exactly).
freeze_value = _freeze


class Catalog:
    """The set of tables owned by a single node."""

    def __init__(self, declarations: Iterable[TableDecl] = ()):
        self._tables: Dict[str, Table] = {}
        for decl in declarations:
            self.declare(decl)

    def declare(self, decl: TableDecl) -> Table:
        table = Table(decl.name, decl.arity, decl.key_positions)
        self._tables[decl.name] = table
        return table

    def table(self, name: str, arity: Optional[int] = None) -> Table:
        """Return the table for *name*, creating it on first use."""
        table = self._tables.get(name)
        if table is None:
            table = Table(name, arity)
            self._tables[name] = table
        return table

    def get(self, name: str) -> Optional[Table]:
        """Return the table for *name* without creating it (None if absent).

        Readers use this so that looking a relation up never litters the
        catalog with empty tables for relations (e.g. transient events)
        that evaluation itself would never materialize.
        """
        return self._tables.get(name)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    def names(self) -> List[str]:
        return sorted(self._tables)

    def total_rows(self) -> int:
        return sum(len(table) for table in self._tables.values())


class MemoryBackend(StorageBackend):
    """The default backend: the in-RAM tier and nothing else.

    Registers no listeners and shadows no state, so a network running on
    ``MemoryBackend`` executes the exact instruction stream it executed
    before the storage abstraction existed — the bit-identity guarantee the
    equivalence suite and the CI baseline gates enforce.
    """

    kind = "memory"
