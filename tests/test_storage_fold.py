"""The sqlite write path: net-effect fold, id maps, failed flushes.

``SqliteBackend.flush`` folds a journal window to its net effect and hands
sqlite one ``executemany`` per (table, action), addressing rows by the ids
the backend assigned.  The contract is that after every flush the three
mirrored tables, read in ``ORDER BY id`` order, hold exactly the rows the
one-statement-per-op replay would have left — row ids may be renumbered,
their order may not.  That replay is kept here as the oracle
(:class:`OpByOpBackend`), on a schema whose ``UNIQUE`` constraints define
replace-on-reinsert for ``tuples``/``rule_exec``.  A flush that raises must
leave database, journal and id maps as they were, so the retry loses
nothing.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rewrite import PROV_TABLE, RULE_EXEC_TABLE
from repro.core.vid import fact_vid
from repro.datalog.ast import Fact, is_event_predicate
from repro.storage import SqliteBackend
from repro.storage.sqlite import _encode

#: The oracle's mirrored tables: rows found by their content, keys kept
#: unique by the constraints, ``INSERT OR REPLACE`` moving a row to the end.
_ORACLE_SCHEMA = """
DROP TABLE tuples;
DROP TABLE prov;
DROP TABLE rule_exec;
CREATE TABLE tuples(
    id INTEGER PRIMARY KEY,
    node TEXT NOT NULL,
    name TEXT NOT NULL,
    row TEXT NOT NULL,
    vid TEXT NOT NULL,
    UNIQUE(node, name, row)
);
CREATE TABLE prov(
    id INTEGER PRIMARY KEY,
    loc TEXT NOT NULL,
    vid TEXT NOT NULL,
    rid TEXT,
    rloc TEXT NOT NULL
);
CREATE TABLE rule_exec(
    id INTEGER PRIMARY KEY,
    rloc TEXT NOT NULL,
    rid TEXT NOT NULL,
    rule TEXT NOT NULL,
    inputs TEXT NOT NULL,
    UNIQUE(rloc, rid)
);
"""


class OpByOpBackend(SqliteBackend):
    """The oracle: one statement per journal op, in journal order."""

    def __init__(self, path):
        super().__init__(path)
        self._connection.executescript(_ORACLE_SCHEMA)

    def flush(self):
        drained = self._journal[:]
        self._journal.clear()
        operations = 0
        with self._connection as connection:
            execute = connection.execute
            for address, action, name, values in drained:
                if name == PROV_TABLE:
                    row = (_encode(values[0]), values[1], values[2], _encode(values[3]))
                    if action == "insert":
                        execute("INSERT INTO prov(loc, vid, rid, rloc) VALUES(?,?,?,?)", row)
                    else:
                        execute(
                            "DELETE FROM prov WHERE loc = ? AND vid = ? "
                            "AND rid IS ? AND rloc = ?",
                            row,
                        )
                elif name == RULE_EXEC_TABLE:
                    rloc, rid, rule = values[0], values[1], values[2]
                    inputs = _encode(list(values[3]) if values[3] else [])
                    if action == "insert":
                        execute(
                            "INSERT OR REPLACE INTO rule_exec"
                            "(rloc, rid, rule, inputs) VALUES(?,?,?,?)",
                            (_encode(rloc), rid, rule, inputs),
                        )
                    else:
                        execute(
                            "DELETE FROM rule_exec WHERE rloc = ? AND rid = ?",
                            (_encode(rloc), rid),
                        )
                elif is_event_predicate(name):
                    continue
                else:
                    node, row_text = _encode(address), _encode(values)
                    if action == "insert":
                        execute(
                            "INSERT OR REPLACE INTO tuples(node, name, row, vid) "
                            "VALUES(?,?,?,?)",
                            (node, name, row_text, fact_vid(Fact(name, values))),
                        )
                    else:
                        execute(
                            "DELETE FROM tuples WHERE node = ? AND name = ? AND row = ?",
                            (node, name, row_text),
                        )
                operations += 1
        return operations


def _contents(backend):
    """The three mirrored tables in id order, ids themselves left out."""
    select = backend._connection.execute
    return (
        select("SELECT node, name, row, vid FROM tuples ORDER BY id").fetchall(),
        select("SELECT loc, vid, rid, rloc FROM prov ORDER BY id").fetchall(),
        select("SELECT rloc, rid, rule, inputs FROM rule_exec ORDER BY id").fetchall(),
    )


@pytest.fixture
def backend():
    backend = SqliteBackend()
    yield backend
    backend.close()


# ---------------------------------------------------------------------- #
# property: fold + grouping == op-by-op replay, flush by flush
# ---------------------------------------------------------------------- #
# A deliberately small key space, so random sequences hit the same key
# often: repeated inserts and deletes (non-alternating runs), keys present
# before the window, the same row at two nodes, ruleExec rows sharing
# (rloc, rid) with other contents.
_ROWS = [
    ("n0", "link", ("n0", "n1", 1)),
    ("n0", "link", ("n0", "n2", 1)),
    ("n1", "link", ("n0", "n1", 1)),
    ("n1", "path", ("n1", "n2", ("n1", "n2"), 2)),
    ("n0", "ePing", ("n0", "n1")),
    ("n0", PROV_TABLE, ("n0", "v1", None, "n0")),
    ("n0", PROV_TABLE, ("n0", "v1", "r1", "n1")),
    ("n1", PROV_TABLE, ("n1", "v2", "r1", "n1")),
    ("n0", RULE_EXEC_TABLE, ("n0", "r1", "sp1", ("v1", "v2"))),
    ("n0", RULE_EXEC_TABLE, ("n0", "r1", "sp2", ())),
    ("n1", RULE_EXEC_TABLE, ("n1", "r1", "sp1", ("v1",))),
]
# Each window works on one table's rows, or on all of them.
_POOLS = [_ROWS[:5], _ROWS[5:8], _ROWS[8:], _ROWS]
_WINDOW = st.sampled_from(_POOLS).flatmap(
    lambda rows: st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), st.sampled_from(rows)),
        max_size=10,
    )
)
_WINDOWS = st.lists(_WINDOW, min_size=1, max_size=5)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(windows=_WINDOWS)
def test_fold_matches_op_by_op_replay(windows):
    folded, oracle = SqliteBackend(":memory:"), OpByOpBackend(":memory:")
    try:
        for window in windows:
            for action, (address, name, values) in window:
                folded.record(address, action, name, values)
                oracle.record(address, action, name, values)
            before = dict(folded.counters)
            drained = oracle.flush()
            assert folded.flush() == drained
            assert _contents(folded) == _contents(oracle)
            assert folded.counters["flushed_ops"] - before["flushed_ops"] == drained
            cancelled = folded.counters["cancelled_ops"] - before["cancelled_ops"]
            assert 0 <= cancelled <= drained
            assert folded.stats()["journal_pending"] == 0
    finally:
        folded.close()
        oracle.close()


# ---------------------------------------------------------------------- #
# the fold rule, one case each
# ---------------------------------------------------------------------- #
def test_insert_then_delete_never_reaches_the_database(backend):
    backend.record("n0", "insert", "link", ("n0", "n1", 1))
    backend.record("n0", "insert", "link", ("n0", "n2", 1))
    backend.record("n0", "delete", "link", ("n0", "n1", 1))
    changes = backend._connection.total_changes
    statements = []
    backend._connection.set_trace_callback(statements.append)
    assert backend.flush() == 3
    assert backend.counters["cancelled_ops"] == 1
    assert backend._connection.total_changes == changes + 1  # one row written
    # The database never held the voided insert, so its delete is no statement.
    assert [text for text in statements if text.startswith("DELETE")] == []
    assert [row for _, _, row in backend.mirror_rows()["tuples"]] == [("n0", "n2", 1)]


def test_voided_insert_still_deletes_what_the_database_held(backend):
    # Only record() can insert a row the mirror already holds; the replay
    # would REPLACE it and then delete it, so the fold keeps the delete.
    backend.record("n0", "insert", "link", ("n0", "n1", 1))
    backend.flush()
    backend.record("n0", "insert", "link", ("n0", "n1", 1))
    backend.record("n0", "delete", "link", ("n0", "n1", 1))
    backend.record("n0", "insert", "link", ("n0", "n1", 1))
    backend.record("n0", "delete", "link", ("n0", "n1", 1))
    assert backend.flush() == 4
    assert backend.counters["cancelled_ops"] == 3
    assert backend.mirror_rows()["tuples"] == []


def test_delete_then_insert_moves_the_row_to_the_end(backend):
    first, second = ("n0", "v1", None, "n0"), ("n0", "v2", None, "n0")
    backend.record("n0", "insert", PROV_TABLE, first)
    backend.record("n0", "insert", PROV_TABLE, second)
    backend.flush()
    assert backend.mirror_rows()["prov"] == [first, second]
    backend.record("n0", "delete", PROV_TABLE, first)
    backend.record("n0", "insert", PROV_TABLE, first)
    assert backend.flush() == 2
    assert backend.counters["cancelled_ops"] == 0
    assert backend.mirror_rows()["prov"] == [second, first]


def test_non_alternating_window_is_replayed_verbatim(backend):
    # Replayed in order, the delete removes both copies; cancelling it
    # against the second insert would leave one behind.
    row = ("n0", "v1", "r1", "n0")
    backend.record("n0", "insert", PROV_TABLE, row)
    backend.record("n0", "insert", PROV_TABLE, row)
    backend.record("n0", "delete", PROV_TABLE, row)
    backend.record("n0", "insert", "link", ("n0", "n1", 1))
    assert backend.flush() == 4
    assert backend.counters["cancelled_ops"] == 0
    rows = backend.mirror_rows()
    assert rows["prov"] == [] and len(rows["tuples"]) == 1


def test_record_journals_hashable_rows_as_they_are(backend):
    row = ("n0", "n1", ("n0", "n1"), 1)
    backend.record("n0", "insert", "path", row)
    backend.record("n0", "insert", "path", ["n0", "n2", ["n0", "n2"], 1])
    assert backend._journal[0][3] is row
    assert backend._journal[1][3] == ("n0", "n2", ("n0", "n2"), 1)


# ---------------------------------------------------------------------- #
# a reopened file: the backend adopts the rows it already holds
# ---------------------------------------------------------------------- #
def test_reopened_file_adopts_its_rows(tmp_path):
    path = str(tmp_path / "reopened.sqlite")
    oracle = OpByOpBackend(":memory:")

    def replay(backend, window):
        for action, (address, name, values) in window:
            backend.record(address, action, name, values)
            oracle.record(address, action, name, values)
        backend.flush()
        oracle.flush()
        assert _contents(backend) == _contents(oracle)

    # Every row, and one prov row twice: only record() can insert a copy.
    writer = SqliteBackend(path)
    replay(writer, [("insert", row) for row in _ROWS + [_ROWS[6]]])
    writer.close()
    reopened = SqliteBackend(path)
    try:
        replay(
            reopened,
            [
                ("delete", _ROWS[0]),  # an adopted row
                ("insert", _ROWS[1]),  # re-inserting an adopted key replaces it
                ("delete", _ROWS[6]),  # every adopted copy
                ("delete", _ROWS[9]),  # the adopted ruleExec row of (n0, r1)
                ("insert", ("n2", "link", ("n2", "n0", 3))),  # ids follow the adopted ones
            ],
        )
        assert reopened.stats()["journal_appends"] == 5
    finally:
        reopened.close()
        oracle.close()


# ---------------------------------------------------------------------- #
# a flush that raises loses nothing
# ---------------------------------------------------------------------- #
def test_failed_flush_keeps_journal_and_database(tmp_path):
    backend = SqliteBackend(str(tmp_path / "locked.sqlite"))
    blocker = sqlite3.connect(backend.path, isolation_level=None)
    try:
        backend._connection.execute("PRAGMA busy_timeout=0")
        backend.record("n0", "insert", "link", ("n0", "n1", 1))
        backend.flush()
        backend.record("n0", "insert", "link", ("n0", "n2", 1))
        backend.record("n0", "delete", "link", ("n0", "n1", 1))
        backend.record("n0", "insert", "link", ("n0", "n1", 1))
        before = dict(backend.counters)
        ids = [dict(held) for held in backend._ids], list(backend._next_ids)
        blocker.execute("BEGIN EXCLUSIVE")
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            backend.flush()
        assert backend.stats()["journal_pending"] == 3
        assert backend.counters == before
        assert ([dict(held) for held in backend._ids], backend._next_ids) == ids
        blocker.execute("ROLLBACK")
        assert backend.flush() == 3
        assert backend.stats()["journal_pending"] == 0
        assert [row for _, _, row in backend.mirror_rows()["tuples"]] == [
            ("n0", "n2", 1),
            ("n0", "n1", 1),
        ]
        # The ids the retry assigned are the ones later deletes find.
        backend.record("n0", "delete", "link", ("n0", "n1", 1))
        backend.record("n0", "delete", "link", ("n0", "n2", 1))
        assert backend.flush() == 2
        assert backend.mirror_rows()["tuples"] == []
    finally:
        blocker.close()
        backend.close()


def test_failed_commit_leaves_the_id_maps_untouched(backend):
    # Every statement runs; the deferred foreign key then fails the COMMIT.
    connection = backend._connection
    connection.executescript(
        """
        PRAGMA foreign_keys = ON;
        CREATE TABLE guard(id INTEGER PRIMARY KEY);
        CREATE TABLE guarded(
            ref INTEGER REFERENCES guard(id) DEFERRABLE INITIALLY DEFERRED
        );
        CREATE TRIGGER poison AFTER INSERT ON tuples WHEN NEW.name = 'poison'
        BEGIN INSERT INTO guarded VALUES(1); END;
        """
    )
    backend.record("n0", "insert", "link", ("n0", "n1", 1))
    backend.flush()
    ids = [dict(held) for held in backend._ids], list(backend._next_ids)
    backend.record("n0", "delete", "link", ("n0", "n1", 1))
    backend.record("n0", "insert", "poison", ("n0",))
    with pytest.raises(sqlite3.IntegrityError, match="FOREIGN KEY"):
        backend.flush()
    assert ([dict(held) for held in backend._ids], backend._next_ids) == ids
    connection.execute("DROP TRIGGER poison")
    assert backend.flush() == 2
    assert backend.mirror_rows()["tuples"] == [("n0", "poison", ("n0",))]


def test_close_reraises_an_unflushable_journal(tmp_path):
    backend = SqliteBackend(str(tmp_path / "locked.sqlite"))
    blocker = sqlite3.connect(backend.path, isolation_level=None)
    try:
        backend._connection.execute("PRAGMA busy_timeout=0")
        backend.record("n0", "insert", "link", ("n0", "n1", 1))
        blocker.execute("BEGIN EXCLUSIVE")
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            backend.close()
        assert backend._connection is None  # released all the same
    finally:
        blocker.close()
