"""Write-behind sqlite backend whose SQL walks the mirrored provenance rows.

:class:`SqliteBackend` mirrors every visibility transition of every node
onto one sqlite database (WAL mode) — base and derived tuples, the
``prov``/``ruleExec`` relations, and the VID index (each mirrored tuple row
carries its content-derived VID).  The mirror is *write-behind*: the
engine's update listener only appends to an in-RAM journal, and
:meth:`SqliteBackend.flush` drains the journal in one WAL transaction —
folded to its net effect, one ``executemany`` per (table, action) — so
the batched delta hot path keeps their in-RAM speed and the
database lags the engine by at most one un-flushed journal.  The backend
owns the row ids: a key → id map per table (loaded from the file by the
first flush) assigns them in insertion order and turns a delete into
``DELETE … WHERE id = ?``, or into nothing for a key the database never
held; it also keeps ``tuples``/``rule_exec`` keys unique.

Provenance questions are answered from the mirrored ``prov``/``ruleExec``
rows themselves, by the walk the paper's query rules take: one
root-anchored recursive CTE steps ``prov(vid, rid)`` → ``rule_exec(rid)``
→ the row's input VIDs, and its ``UNION`` dedup makes it terminate on
cyclic provenance.  Reachability, reachable-base-tuple, node-set and
subgraph queries all read that walk, giving a second, independent oracle
for the distributed query engine (cross-checked in
``tests/test_storage_sql.py``).

The schema (see also ``docs/STORAGE.md``)::

    meta(key TEXT PRIMARY KEY, value TEXT)
    tuples(id INTEGER PRIMARY KEY, node TEXT, name TEXT, row TEXT, vid TEXT)
    prov(id INTEGER PRIMARY KEY, loc TEXT, vid TEXT, rid TEXT, rloc TEXT)
    rule_exec(id INTEGER PRIMARY KEY, rloc TEXT, rid TEXT, rule TEXT,
              inputs TEXT)

with an index on each column the walk probes: ``prov(vid)`` and
``rule_exec(rid)``.
Values, rows and node addresses are stored as canonical JSON (sorted
keys, compact separators) so the database contents are a deterministic
function of the engine state.
"""

from __future__ import annotations

import functools
import json
import os
import sqlite3
import tempfile
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..datalog.ast import Fact, is_event_predicate
from .backend import StorageBackend, StorageError
from .memory import freeze_value

__all__ = ["SqliteBackend", "SQL_QUERY_KINDS"]

#: Query kinds :meth:`SqliteBackend.sql_query` compiles.
SQL_QUERY_KINDS = ("reachable", "reachable_base", "nodeset", "derivability", "subgraph")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta(
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tuples(
    id INTEGER PRIMARY KEY,
    node TEXT NOT NULL,
    name TEXT NOT NULL,
    row TEXT NOT NULL,
    vid TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS prov(
    id INTEGER PRIMARY KEY,
    loc TEXT NOT NULL,
    vid TEXT NOT NULL,
    rid TEXT,
    rloc TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS prov_vid ON prov(vid);
CREATE TABLE IF NOT EXISTS rule_exec(
    id INTEGER PRIMARY KEY,
    rloc TEXT NOT NULL,
    rid TEXT NOT NULL,
    rule TEXT NOT NULL,
    inputs TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS rule_exec_rid ON rule_exec(rid);
"""

#: The derivation walk from the root: the root, if it has a ``prov`` row,
#: then the inputs of each ``ruleExec`` row a reached vertex's ``prov`` rows
#: name.  ``UNION`` (not ``UNION ALL``) dedups vertices, so cyclic
#: provenance terminates.  ``step`` is one derivation edge out of a
#: reached vertex.
_REACH_CTE = """
WITH RECURSIVE reach(vid) AS (
    SELECT :root WHERE EXISTS (SELECT 1 FROM prov WHERE vid = :root)
    UNION
    SELECT step.value FROM reach
    JOIN prov p ON p.vid = reach.vid
    JOIN rule_exec e ON e.rid = p.rid
    JOIN json_each(e.inputs) step
)
"""


#: One journal entry: ``(address, action, name, row)``.
_Op = Tuple[Any, str, str, Tuple[Any, ...]]
#: One statement's worth of keyed ops: ``(table, inserting, ((key, op), ...))``.
_Batch = Tuple[int, bool, Iterable[Tuple[Any, _Op]]]

#: Mirrored tables, indexing the per-table structures of the write path.
_TUPLES, _PROV, _RULE_EXEC = 0, 1, 2
_TABLE_NAMES = ("tuples", "prov", "rule_exec")

#: Per mirrored table, rows go in with the id the backend assigned and go out by it.
_INSERT_SQL = (
    "INSERT INTO tuples(id, node, name, row, vid) VALUES(?,?,?,?,?)",
    "INSERT INTO prov(id, loc, vid, rid, rloc) VALUES(?,?,?,?,?)",
    "INSERT INTO rule_exec(id, rloc, rid, rule, inputs) VALUES(?,?,?,?,?)",
)
_DELETE_SQL = tuple(f"DELETE FROM {name} WHERE id = ?" for name in _TABLE_NAMES)

#: Canonical JSON for a (frozen) value, row or node address: one shared
#: encoder, the bytes ``json.dumps(..., sort_keys=True, separators=(",", ":"),
#: default=list)`` produces.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=list).encode


class _AddressTexts(dict):
    """Per-flush memo of encoded node addresses (``loc``/``rloc``/``node``)."""

    def __missing__(self, address: Any) -> str:
        text = self[address] = _encode(address)
        return text


def _decode(text: str) -> Any:
    return json.loads(text)


def _thaw(text: str) -> Any:
    return freeze_value(_decode(text))


class SqliteBackend(StorageBackend):
    """Durable mirror of the network's relations in one sqlite file."""

    kind = "sqlite"
    persistent = True
    supports_sql = True

    def __init__(self, path: Optional[str] = None):
        super().__init__()
        # Lazy core imports: repro.storage must be importable while
        # repro.core is still loading (api.py imports this package).
        from ..core.rewrite import PROV_TABLE, RULE_EXEC_TABLE
        from ..core.vid import fact_vid

        self._prov_table = PROV_TABLE
        self._rule_exec_table = RULE_EXEC_TABLE
        self._fact_vid = fact_vid
        self._ephemeral = path is None
        if path is None:
            handle, path = tempfile.mkstemp(prefix="exspan-storage-", suffix=".sqlite")
            os.close(handle)
        self.path = path
        self._connection = sqlite3.connect(path)
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.executescript(_SCHEMA)
        self._connection.commit()
        # Journal of (address, action, name, row) visibility transitions in
        # arrival order; flush() folds it to its net effect and drains it.
        self._journal: List[_Op] = []
        # Per mirrored table: key -> row id (prov: a tuple, as record() can
        # insert a row twice), and the next id; the first flush loads both.
        self._ids: Tuple[Dict[Any, Any], ...] = ({}, {}, {})
        self._next_ids: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def attach_node(self, address: Any, engine: Any, store: Any) -> None:
        super().attach_node(address, engine, store)
        append = self._journal.append

        def _observe(action: str, fact: Fact, _address: Any = address) -> None:
            # A row that reaches a listener is a Table key: a hashable
            # tuple the journal cannot see change.
            append((_address, action, fact.name, fact.values))

        engine.add_update_listener(_observe)

    def record(self, address: Any, action: str, name: str, values: Any) -> None:
        if not isinstance(values, tuple):
            values = tuple(values)
        try:
            hash(values)
        except TypeError:
            values = freeze_value(values)
        self._journal.append((address, action, name, values))

    def close(self) -> None:
        """Flush, release the connection (and an ephemeral file), re-raise a failed flush."""
        try:
            if self._connection is not None:
                self.flush()
        finally:
            if self._connection is not None:
                self._connection.close()
                self._connection = None  # type: ignore[assignment]
            if self._ephemeral and self.path:
                for suffix in ("", "-wal", "-shm"):
                    try:
                        os.unlink(self.path + suffix)
                    except OSError:
                        pass

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        # Networks rarely close their backend explicitly (trial functions
        # build thousands of short-lived ones); reclaim the connection and
        # the ephemeral temp file when the backend is collected.
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # write-behind journal
    # ------------------------------------------------------------------ #
    def flush(self) -> int:
        """Drain the journal's net effect into one WAL transaction.

        Returns the number of journal ops drained (those the fold
        cancelled included).  If a statement raises, the transaction rolls
        back and journal, id maps and counters stay as they were: a retry.
        """
        journal = self._journal
        if not journal:
            return 0
        connection = self._open()
        if self._next_ids is None:
            self._adopt()
        # Work on a snapshot and trim the journal only after the commit.
        drained = journal[:]
        folded = self._fold(drained)
        if folded is None:
            # Some key does not alternate insert/delete (only record() can
            # do that): replay the whole window op by op, in journal order.
            # A one-op window always folds, to itself and its key.
            batches = [batch for op in drained for batch in self._fold([op])[0]]
            operations, cancelled = len(batches), 0
        else:
            batches, operations, cancelled = folded

        fact_vid = self._fact_vid
        texts = _AddressTexts()

        def tuples_row(row_id: int, op: _Op) -> Tuple[Any, ...]:
            address, _, name, values = op
            vid = fact_vid(Fact(name, values))
            return (row_id, texts[address], name, _encode(values), vid)

        def prov_row(row_id: int, op: _Op) -> Tuple[Any, ...]:
            values = op[3]
            return (row_id, texts[values[0]], values[1], values[2], texts[values[3]])

        def rule_exec_row(row_id: int, op: _Op) -> Tuple[Any, ...]:
            values = op[3]
            inputs = _encode(list(values[3]) if values[3] else [])
            return (row_id, texts[values[0]], values[1], values[2], inputs)

        row_builders = (tuples_row, prov_row, rule_exec_row)
        # The window's effect on the id maps, applied only after the commit:
        # per table, key -> what the map will hold (None once deleted).
        ids, next_ids = self._ids, self._next_ids[:]
        staged: Tuple[Dict[Any, Any], ...] = ({}, {}, {})

        def inserted(table: int, items: Iterable[Tuple[Any, _Op]], dead: List[int]):
            # Rows are encoded as sqlite pulls them: no second, encoded copy
            # of a 12k-op convergence or restore window.
            held, changed, row_of = ids[table], staged[table], row_builders[table]
            for key, op in items:
                row_id = next_ids[table]
                next_ids[table] = row_id + 1
                current = changed[key] if key in changed else held.get(key)
                if table == _PROV:
                    changed[key] = (current or ()) + (row_id,)
                else:  # re-inserting a held key replaces its row
                    dead += (current,) if current else ()
                    changed[key] = row_id
                yield row_of(row_id, op)

        with connection:
            for table, inserting, items in batches:
                dead: List[int] = []
                if inserting:
                    connection.executemany(_INSERT_SQL[table], inserted(table, items, dead))
                else:
                    held, changed = ids[table], staged[table]
                    for key, _ in items:
                        current = changed[key] if key in changed else held.get(key)
                        if current:
                            dead += current if table == _PROV else (current,)
                            changed[key] = None
                if dead:
                    connection.executemany(_DELETE_SQL[table], zip(dead))
        for held, changed in zip(ids, staged):
            for key, value in changed.items():
                held.pop(key, None)  # swap in the engine-shared key for an adopted one
                if value:
                    held[key] = value
        self._next_ids = next_ids
        del journal[: len(drained)]
        self.counters["journal_appends"] += len(drained)
        self.counters["flushes"] += 1
        self.counters["flushed_ops"] += operations
        self.counters["cancelled_ops"] += cancelled
        return operations

    def _open(self) -> sqlite3.Connection:
        """The connection; a :class:`StorageError` once :meth:`close` released it."""
        if self._connection is None:
            raise StorageError(f"sqlite backend is closed: {self.path}")
        return self._connection

    def _adopt(self) -> None:
        """Load the id maps from the rows the file already holds."""
        address = functools.lru_cache(maxsize=None)(_thaw)  # few addresses, many rows
        tuples, prov, rule_exec = self._ids
        select = self._connection.execute
        for row_id, node, name, row in select("SELECT id, node, name, row FROM tuples"):
            tuples[(address(node), name, _thaw(row))] = row_id
        for row_id, loc, vid, rid, rloc in select("SELECT id, loc, vid, rid, rloc FROM prov"):
            key = (address(loc), vid, rid, address(rloc))
            prov[key] = prov.get(key, ()) + (row_id,)
        for row_id, rloc, rid in select("SELECT id, rloc, rid FROM rule_exec"):
            rule_exec[(address(rloc), rid)] = row_id
        self._next_ids = [
            select(f"SELECT COALESCE(MAX(id), 0) + 1 FROM {name}").fetchone()[0]  # noqa: S608
            for name in _TABLE_NAMES
        ]

    def _table_of(self, name: str) -> Optional[int]:
        """The mirrored table *name* lands in; None for transient events."""
        if name == self._prov_table:
            return _PROV
        if name == self._rule_exec_table:
            return _RULE_EXEC
        return None if is_event_predicate(name) else _TUPLES

    def _fold(self, drained: List[_Op]) -> Optional[Tuple[List[_Batch], int, int]]:
        """Fold a journal window to its net effect, grouped per table.

        Per database key the window's ops must alternate; then all that can
        matter is one delete (if the window deletes the key at all: whatever
        the database held before is gone) followed by one insert (if the
        key's last op is one).  An insert a later delete voids never
        reaches the database; a delete followed by an insert survives as
        both, because that moves the row to the end of ``ORDER BY id``.
        With at most one delete then one insert per key, "all deletes, then
        all inserts, each in journal order" per table leaves the rows, in
        the id order, an op-by-op replay would.  Returns ``(batches, ops,
        cancelled ops)`` with each op paired with its key, or None when
        some key does not alternate.
        """
        # Per table, by key and in journal order: the net deletes, and the
        # inserts no later delete has voided.
        windows: Tuple[Tuple[Dict[Any, _Op], Dict[Any, _Op]], ...] = (
            ({}, {}),
            ({}, {}),
            ({}, {}),
        )
        tables: Dict[str, Optional[int]] = {}
        operations = cancelled = 0
        for op in drained:
            address, action, name, values = op
            try:
                table = tables[name]
            except KeyError:
                table = tables[name] = self._table_of(name)
            if table is None:
                continue
            operations += 1
            if table == _TUPLES:
                key = (address, name, values)
            elif table == _PROV:
                key = values
            else:
                key = values[:2]
            deletes, inserts = windows[table]
            if action == "insert":
                if key in inserts:
                    return None
                inserts[key] = op
            elif key in inserts:
                del inserts[key]
                if key in deletes:
                    cancelled += 2
                else:
                    deletes[key] = op
                    cancelled += 1
            elif key in deletes:
                return None
            else:
                deletes[key] = op
        batches: List[_Batch] = []
        for table, (deletes, inserts) in enumerate(windows):
            if deletes:
                batches.append((table, False, deletes.items()))
            if inserts:
                batches.append((table, True, inserts.items()))
        return batches, operations, cancelled

    # ------------------------------------------------------------------ #
    # SQL query path
    # ------------------------------------------------------------------ #
    def sql_query(self, kind: str, root_vid: str) -> Any:
        """Answer a provenance query from the database alone.

        Flushes the journal, then walks the mirrored ``prov``/``rule_exec``
        rows from the root with one recursive CTE.  Supported kinds:

        ``reachable``
            Sorted VIDs of every tuple vertex in the derivation subgraph.
        ``reachable_base``
            Sorted VIDs of the base tuples (null-RID ``prov`` rows) the
            root transitively depends on.
        ``nodeset``
            Sorted node addresses participating in any derivation — the
            SQL twin of the distributed NODESET query / Figure 5's
            ``nodes_involved``.
        ``derivability``
            True when the root vertex has a ``prov`` row (the trust-free
            derivability check).
        ``subgraph``
            Sorted ``(parent_vid, rid, child_vid)`` edges of the
            derivation subgraph.
        """
        if kind not in SQL_QUERY_KINDS:
            raise StorageError(
                f"unknown SQL provenance query kind {kind!r} "
                f"(expected one of {SQL_QUERY_KINDS})"
            )
        self.flush()
        connection = self._open()
        parameters = {"root": root_vid}
        if kind == "derivability":
            found = connection.execute(
                "SELECT 1 FROM prov WHERE vid = :root LIMIT 1", parameters
            ).fetchone()
            answer: Any = found is not None
        elif kind == "nodeset":
            rows = connection.execute(
                _REACH_CTE
                + """
                SELECT p.loc FROM reach JOIN prov p ON p.vid = reach.vid
                UNION
                SELECT e.rloc FROM reach
                JOIN prov p ON p.vid = reach.vid
                JOIN rule_exec e ON e.rid = p.rid
                """,
                parameters,
            )
            answer = sorted((_decode(text) for (text,) in rows), key=str)
        elif kind == "subgraph":
            answer = connection.execute(
                _REACH_CTE
                + """
                SELECT DISTINCT p.vid, p.rid, step.value FROM reach
                JOIN prov p ON p.vid = reach.vid
                JOIN rule_exec e ON e.rid = p.rid
                JOIN json_each(e.inputs) step
                ORDER BY 1, 2, 3
                """,
                parameters,
            ).fetchall()
        else:
            query = _REACH_CTE + "SELECT vid FROM reach"
            if kind == "reachable_base":
                query += """
                WHERE EXISTS (
                    SELECT 1 FROM prov p WHERE p.vid = reach.vid AND p.rid IS NULL
                )"""
            rows = connection.execute(query + " ORDER BY vid", parameters)
            answer = [vid for (vid,) in rows]
        self.counters["sql_queries"] += 1
        return answer

    # ------------------------------------------------------------------ #
    # inspection helpers (tests, durability gate)
    # ------------------------------------------------------------------ #
    def tuple_rows(self) -> List[Tuple[Any, str, Tuple[Any, ...], str]]:
        """Decoded ``(node, name, row, vid)`` mirror rows, flushed first."""
        self.flush()
        rows = self._open().execute(
            "SELECT node, name, row, vid FROM tuples ORDER BY node, name, row"
        ).fetchall()
        return [
            (_decode(node), name, freeze_value(_decode(row)), vid)
            for node, name, row, vid in rows
        ]

    def mirror_rows(self) -> Dict[str, List[Tuple[Any, ...]]]:
        """The mirror decoded back to engine rows, per table in id order.

        Flushed first.  ``tuples`` rows are ``(node, name, row)``; ``prov``
        and ``rule_exec`` rows are the engines' ``prov``/``ruleExec`` rows.
        """
        self.flush()
        select = self._open().execute
        return {
            "tuples": [
                (_thaw(node), name, _thaw(row))
                for node, name, row in select(
                    "SELECT node, name, row FROM tuples ORDER BY id"
                )
            ],
            "prov": [
                (_thaw(loc), vid, rid, _thaw(rloc))
                for loc, vid, rid, rloc in select(
                    "SELECT loc, vid, rid, rloc FROM prov ORDER BY id"
                )
            ],
            "rule_exec": [
                (_thaw(rloc), rid, rule, _thaw(inputs))
                for rloc, rid, rule, inputs in select(
                    "SELECT rloc, rid, rule, inputs FROM rule_exec ORDER BY id"
                )
            ],
        }

    def engine_rows(self) -> Dict[str, List[Tuple[Any, ...]]]:
        """What :meth:`mirror_rows` should hold: the engines' visible rows."""
        from .checkpoint import node_state

        rows: Tuple[List[Tuple[Any, ...]], ...] = ([], [], [])
        for address, (engine, _store) in self.nodes.items():
            for name, counted in node_state(engine)["tables"].items():
                index = self._table_of(name)
                if index is None:
                    continue
                for row, _count in counted:
                    row = tuple(row)
                    rows[index].append((address, name, row) if index == _TUPLES else row)
        return dict(zip(("tuples", "prov", "rule_exec"), rows))

    def graph_counts(self) -> Dict[str, int]:
        """Row counts of the three mirrored relations, flushed first."""
        self.flush()
        connection = self._open()
        counts = {}
        for table in _TABLE_NAMES:
            counts[table] = connection.execute(
                f"SELECT COUNT(*) FROM {table}"  # noqa: S608 - fixed names
            ).fetchone()[0]
        return counts

    def stats(self) -> Dict[str, Any]:
        snapshot = super().stats()
        snapshot["journal_pending"] = len(self._journal)
        # The counter holds the ops flushes drained; the listener counts none.
        snapshot["journal_appends"] += snapshot["journal_pending"]
        return snapshot
