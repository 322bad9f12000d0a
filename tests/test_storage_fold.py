"""The sqlite write path: net-effect fold, per-table grouping, failed flushes.

``SqliteBackend.flush`` folds a journal window to its net effect and hands
sqlite one ``executemany`` per (table, action).  The contract is that after
every flush the three mirrored tables, read in ``ORDER BY id`` order, hold
exactly the rows the one-statement-per-op replay would have left — row ids
may be renumbered, their order may not.  That replay is kept here as the
oracle (:class:`OpByOpBackend`).  A flush that raises must leave database
and journal as they were, so the retry loses nothing.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rewrite import PROV_TABLE, RULE_EXEC_TABLE
from repro.core.vid import fact_vid
from repro.datalog.ast import Fact, is_event_predicate
from repro.storage import SqliteBackend
from repro.storage.sqlite import _encode


class OpByOpBackend(SqliteBackend):
    """The oracle: one statement per journal op, in journal order."""

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
    assert backend.flush() == 3
    assert backend.counters["cancelled_ops"] == 1
    assert backend._connection.total_changes == changes + 1  # one row written
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
# a flush that raises loses nothing
# ---------------------------------------------------------------------- #
def test_failed_flush_keeps_journal_and_database(tmp_path):
    backend = SqliteBackend(str(tmp_path / "locked.sqlite"))
    blocker = sqlite3.connect(backend.path, isolation_level=None)
    try:
        backend._connection.execute("PRAGMA busy_timeout=0")
        backend.record("n0", "insert", "link", ("n0", "n1", 1))
        backend.record("n0", "insert", "link", ("n0", "n2", 1))
        before = dict(backend.counters)
        blocker.execute("BEGIN EXCLUSIVE")
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            backend.flush()
        assert backend.stats()["journal_pending"] == 2
        assert backend.counters == before
        blocker.execute("ROLLBACK")
        assert backend.flush() == 2
        assert backend.stats()["journal_pending"] == 0
        assert [row for _, _, row in backend.mirror_rows()["tuples"]] == [
            ("n0", "n1", 1),
            ("n0", "n2", 1),
        ]
    finally:
        blocker.close()
        backend.close()
