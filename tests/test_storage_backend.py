"""Pluggable storage engine: spec parsing, byte-identity, sqlite mirror.

The storage backend is an execution-environment knob
(``ExspanConfig.storage``, ``ExecutionEnv.storage``): results must be
byte-identical under any backend.  These tests pin that contract — the
memory default adds nothing, the sqlite mirror tracks the engines through
inserts *and* deletes, metrics only appear when a persistent backend is
attached, and an in-process checkpoint round-trip (including aggregate-rule state)
reproduces every digest and keeps evolving identically afterwards.
"""

import os

import pytest

from repro.core.api import ExspanNetwork
from repro.core.config import ExspanConfig
from repro.core.errors import ProvenanceError
from repro.core.rewrite import PROV_TABLE, RULE_EXEC_TABLE
from repro.core.vid import fact_vid
from repro.datalog.ast import Fact, is_event_predicate
from repro.experiments import ExecutionEnv
from repro.net.sharding import collect_digest
from repro.net.topology import ring_topology
from repro.protocols.mincost import mincost_program
from repro.protocols.pathvector import pathvector_program
from repro.storage import (
    SQL_QUERY_KINDS,
    STORAGE_BACKENDS,
    MemoryBackend,
    SqliteBackend,
    StorageBackend,
    StorageError,
    make_backend,
    parse_storage_spec,
)


def _run_mincost(storage=None, size=6, seed=1):
    config = ExspanConfig(seed=0)
    if storage is not None:
        config = ExspanConfig(seed=0, storage=storage)
    network = ExspanNetwork(ring_topology(size, seed=seed), mincost_program(), config=config)
    network.seed_links()
    network.run_to_fixpoint()
    return network


# ---------------------------------------------------------------------- #
# spec parsing, factory, process-wide default
# ---------------------------------------------------------------------- #
def test_parse_storage_spec():
    assert parse_storage_spec("memory") == ("memory", None)
    assert parse_storage_spec("sqlite") == ("sqlite", None)
    assert parse_storage_spec("sqlite:/tmp/x.db") == ("sqlite", "/tmp/x.db")


@pytest.mark.parametrize("bad", ["", "postgres", "memory:/tmp/x", "sqlite:"])
def test_parse_storage_spec_rejects(bad):
    with pytest.raises(StorageError):
        parse_storage_spec(bad)


def test_make_backend_kinds(tmp_path):
    memory = make_backend("memory")
    assert isinstance(memory, MemoryBackend)
    assert not memory.persistent and not memory.supports_sql
    path = str(tmp_path / "prov.sqlite")
    sqlite = make_backend(f"sqlite:{path}")
    assert isinstance(sqlite, SqliteBackend)
    assert sqlite.persistent and sqlite.supports_sql
    assert sqlite.path == path
    assert os.path.exists(path)
    sqlite.close()
    assert os.path.exists(path)  # explicit paths survive close


def test_ephemeral_sqlite_removed_on_close():
    backend = make_backend("sqlite")
    path = backend.path
    assert path is not None and os.path.exists(path)
    backend.close()
    assert not os.path.exists(path)


def test_execution_env_validates_its_fields():
    assert isinstance(make_backend(), MemoryBackend)  # no spec means memory
    assert ExecutionEnv() == ExecutionEnv(shards=1, storage=None, faults=None, trace_dir=None)
    env = ExecutionEnv(shards=2, storage="sqlite:/tmp/x.db", faults="seed=3; drop:*->*:p=0.2")
    assert (env.shards, env.storage) == (2, "sqlite:/tmp/x.db")
    for bad in (
        {"storage": "bogus"},
        {"storage": "memory:/tmp/x"},
        {"faults": "garbage"},
        {"faults": "drop:a->b:p=oops"},
        {"shards": 0},
        {"shards": "2"},
    ):
        with pytest.raises(ValueError):
            ExecutionEnv(**bad)


def test_memory_backend_rejects_sql():
    backend = make_backend("memory")
    with pytest.raises(StorageError):
        backend.sql_query("reachable", "deadbeef")


def test_backend_registry_names():
    assert STORAGE_BACKENDS == ("memory", "sqlite")
    assert MemoryBackend.kind == "memory"
    assert SqliteBackend.kind == "sqlite"
    assert issubclass(MemoryBackend, StorageBackend)
    assert issubclass(SqliteBackend, StorageBackend)


# ---------------------------------------------------------------------- #
# config surface
# ---------------------------------------------------------------------- #
def test_config_validates_storage_spec():
    assert ExspanConfig(storage="sqlite").storage == "sqlite"
    with pytest.raises(ProvenanceError):
        ExspanConfig(storage="flatfile")


def test_config_to_dict_omits_unset_storage():
    assert "storage" not in ExspanConfig().to_dict()
    assert ExspanConfig(storage="sqlite").to_dict()["storage"] == "sqlite"


# ---------------------------------------------------------------------- #
# byte-identity across backends
# ---------------------------------------------------------------------- #
def test_sqlite_backend_bit_identical_to_memory():
    memory_net = _run_mincost()
    sqlite_net = _run_mincost(storage="sqlite")
    try:
        assert collect_digest(sqlite_net) == collect_digest(memory_net)
        assert sqlite_net.stats_snapshot() == memory_net.stats_snapshot()
    finally:
        sqlite_net.close_storage()


def test_sqlite_mirror_tracks_inserts_and_deletes(tmp_path):
    path = str(tmp_path / "mirror.sqlite")
    network = _run_mincost(storage=f"sqlite:{path}")
    try:
        network.storage_flush()
        counts = {
            table: len(rows) for table, rows in network.storage.mirror_rows().items()
        }
        assert counts["tuples"] > 0
        assert counts["prov"] > 0
        assert counts["rule_exec"] > 0
        # prov/ruleExec live in their own relations; everything else is in
        # `tuples`.  Together they account for every materialized row.
        assert (
            counts["tuples"] + counts["prov"] + counts["rule_exec"]
            == network.storage.row_count()
        )

        # Mirror the engines exactly: every non-event row of every node
        # must appear in the `tuples` table, and nothing else.
        expected = set()
        for address, node in network.nodes.items():
            for table in node.engine.catalog.tables():
                if is_event_predicate(table.name):
                    continue
                if table.name in (PROV_TABLE, RULE_EXEC_TABLE):
                    continue
                for row in table.rows():
                    expected.add((address, table.name, tuple(row)))
        mirrored = {
            (node, name, tuple(row))
            for node, name, row in network.storage.mirror_rows()["tuples"]
        }
        assert mirrored == expected

        # A deletion must propagate: retract a link and re-run.
        before = len(network.storage.mirror_rows()["tuples"])
        network.remove_link("n0", "n1")
        network.run_to_fixpoint()
        after = len(network.storage.mirror_rows()["tuples"])
        assert after != before
        # Deleted rows really leave the database, not just the engines.
        engine_rows = sum(
            len(table)
            for node in network.nodes.values()
            for table in node.engine.catalog.tables()
            if not is_event_predicate(table.name)
            and table.name not in (PROV_TABLE, RULE_EXEC_TABLE)
        )
        assert after == engine_rows
    finally:
        network.close_storage()


@pytest.mark.parametrize(
    "program, table",
    [(mincost_program, "bestPathCost"), (pathvector_program, "bestPath")],
)
def test_sqlite_mirror_equals_engines_under_churn(program, table):
    """Five link flaps, a flush after every half-flap: mirror == engines."""
    topology = ring_topology(6, seed=1)
    network = ExspanNetwork(
        topology, program(), config=ExspanConfig(seed=0, storage="sqlite")
    )
    storage = network.storage

    def check_mirror():
        network.storage_flush()
        assert network.storage_stats()["journal_pending"] == 0
        mirrored, expected = storage.mirror_rows(), storage.engine_rows()
        for name in ("tuples", "prov", "rule_exec"):
            assert expected[name], name
            assert sorted(mirrored[name], key=repr) == sorted(expected[name], key=repr)

    try:
        network.seed_links()
        network.run_to_fixpoint()
        check_mirror()
        for a, b, spec in sorted(topology.links(), key=repr)[:5]:
            network.remove_link(a, b)
            network.run_to_fixpoint()
            check_mirror()
            network.add_link(a, b, cost=spec.cost)
            network.run_to_fixpoint()
            check_mirror()
        # The flaps did exercise the fold, not just plain inserts.
        assert storage.counters["cancelled_ops"] > 0

        graph = network.provenance_graph()
        facts = sorted(values for _node, values in network.tuples(table))[:6]
        for vid in (fact_vid(Fact(table, values)) for values in facts):
            vertices, _rules = graph._subgraph(vid)
            edges = {
                (parent, rule.rid, child)
                for parent in vertices
                for rule in graph.derivations_of(parent)
                for child in rule.input_vids
            }
            expected = {
                "derivability": True,
                "reachable": sorted(vertices),
                "reachable_base": sorted(graph.reachable_base_tuples(vid)),
                "nodeset": sorted(graph.nodes_involved(vid)),
                "subgraph": sorted(edges),
            }
            assert set(expected) == set(SQL_QUERY_KINDS)
            for kind, answer in expected.items():
                assert network.sql_provenance(kind, vid=vid) == answer, kind
    finally:
        network.close_storage()


def test_storage_metrics_only_under_persistent_backend():
    memory_net = _run_mincost()
    snapshot = memory_net.metrics_snapshot()
    assert not any(
        key.startswith("cache.storage.")
        for family in ("counters", "gauges")
        for key in snapshot[family]
    )

    sqlite_net = _run_mincost(storage="sqlite")
    try:
        sqlite_net.storage_flush()
        snapshot = sqlite_net.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["cache.storage.journal_appends"] > 0
        assert counters["cache.storage.flushes"] >= 1
        assert snapshot["gauges"]["cache.storage.rows"] == (
            sqlite_net.storage.row_count()
        )
    finally:
        sqlite_net.close_storage()


def test_storage_stats_shape():
    network = _run_mincost(storage="sqlite")
    try:
        stats = network.storage_stats()
        assert stats["kind"] == "sqlite"
        assert stats["persistent"] is True
        for key in ("journal_appends", "flushes", "flushed_ops", "sql_queries"):
            assert key in stats
    finally:
        network.close_storage()


# ---------------------------------------------------------------------- #
# checkpoint / restore round-trip (in-process)
# ---------------------------------------------------------------------- #
def _checkpoint_round_trip(tmp_path, storage=None):
    topology = ring_topology(6, seed=3)
    network = ExspanNetwork(
        topology,
        mincost_program(),
        config=ExspanConfig(seed=0, storage=storage) if storage else ExspanConfig(seed=0),
    )
    network.seed_links()
    network.run_to_fixpoint()
    path = str(tmp_path / "net.ckpt")
    summary = network.checkpoint(path)
    assert summary["path"] == path
    assert summary["nodes"] == 6
    assert summary["bytes"] > 0

    restored = ExspanNetwork.restore(
        path,
        topology,
        mincost_program(),
        storage=storage,
    )
    return network, restored


def test_checkpoint_restore_byte_identical(tmp_path):
    network, restored = _checkpoint_round_trip(tmp_path)
    assert collect_digest(restored) == collect_digest(network)
    # Engine counters ride along in the snapshot; traffic counters don't
    # (a restored process never re-sent the original messages).
    assert restored.planner_stats() == network.planner_stats()
    assert restored.now == network.now


def test_checkpoint_restore_then_evolve_identically(tmp_path):
    """The restored network must keep *evolving* identically.

    This is the aggregate-state test: `min<C>` keeps per-group value
    multisets outside the tables, and without them a restored network
    never retracts a stale minimum when the winning path disappears.
    """
    network, restored = _checkpoint_round_trip(tmp_path)
    for net in (network, restored):
        net.remove_link("n0", "n1")
        net.run_to_fixpoint()
        net.add_link("n2", "n5", cost=2)
        net.run_to_fixpoint()
    assert collect_digest(restored) == collect_digest(network)
    assert sorted(restored.tuples("bestPathCost")) == sorted(
        network.tuples("bestPathCost")
    )


def test_checkpoint_restore_onto_sqlite(tmp_path):
    """Restoring onto a persistent backend replays rows into the mirror."""
    network, restored = _checkpoint_round_trip(tmp_path, storage="sqlite")
    try:
        assert collect_digest(restored) == collect_digest(network)
        restored.storage_flush()
        assert restored.storage.row_count() > 0
        assert restored.storage.counters["restores"] == 1
    finally:
        network.close_storage()
        restored.close_storage()


def test_reads_never_create_tables(tmp_path):
    """A VALUE-mode ``prov`` walk and an unknown relation create nothing."""
    network = ExspanNetwork(
        ring_topology(5, seed=1), mincost_program(), config=ExspanConfig(mode="value")
    )
    network.seed_links()
    network.run_to_fixpoint()

    def snapshot(name):
        path = str(tmp_path / name)
        network.checkpoint(path)
        with open(path, "rb") as handle:
            return network.predicates(), handle.read()

    before = snapshot("before.ckpt")
    assert PROV_TABLE not in before[0]
    address, row = network.tuples("bestPathCost")[0]
    network.provenance_graph(root=Fact("bestPathCost", row), max_depth=3)
    assert network.tuples("nosuch") == []
    assert network.provenance_row_counts() == {"prov": 0, "ruleExec": 0}
    assert snapshot("after.ckpt") == before


def test_restore_rejects_mismatched_topology(tmp_path):
    network = _run_mincost(size=6, seed=3)
    path = str(tmp_path / "net.ckpt")
    network.checkpoint(path)
    with pytest.raises(ProvenanceError):
        ExspanNetwork.restore(path, ring_topology(5, seed=3), mincost_program())


def test_restore_rejects_a_version_1_checkpoint(tmp_path):
    """Version 2 dropped four config keys; an old file fails by version."""
    import json

    from repro.storage.checkpoint import CHECKPOINT_VERSION, restore_network

    assert CHECKPOINT_VERSION == 2
    network = _run_mincost(size=4, seed=3)
    path = str(tmp_path / "net.ckpt")
    network.checkpoint(path)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["version"] = 1
    payload["config"].update(
        planner=None, pipeline=None, compact_min_cancelled=None, compact_ratio=None
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    with pytest.raises(ProvenanceError, match="unsupported checkpoint version 1"):
        restore_network(path, ring_topology(4, seed=3), mincost_program())


def test_restore_applies_storage_over_an_explicit_config(tmp_path):
    """``storage=`` overrides the backend of a caller-supplied config too."""
    network = _run_mincost(size=4, seed=3)
    path = str(tmp_path / "net.ckpt")
    network.checkpoint(path)
    restored = ExspanNetwork.restore(
        path,
        ring_topology(4, seed=3),
        mincost_program(),
        config=ExspanConfig(seed=0),
        storage="sqlite",
    )
    try:
        assert restored.storage.kind == "sqlite"
        assert restored.config.storage == "sqlite"
        assert collect_digest(restored) == collect_digest(network)
    finally:
        restored.close_storage()


@pytest.mark.parametrize("damage", ["truncated", "not-utf8"])
def test_load_checkpoint_rejects_a_damaged_file(tmp_path, damage):
    from repro.storage.checkpoint import load_checkpoint

    network = _run_mincost(size=4, seed=3)
    path = str(tmp_path / "net.ckpt")
    network.checkpoint(path)
    with open(path, "rb") as handle:
        data = handle.read()
    damaged = data[: len(data) // 2] if damage == "truncated" else b"\xff" + data
    with open(path, "wb") as handle:
        handle.write(damaged)
    with pytest.raises(ProvenanceError, match="not an ExSPAN checkpoint file"):
        load_checkpoint(path)


def test_strict_digest_sees_counts_and_aggregate_groups(tmp_path):
    """One derivation count or one aggregate multiset entry changes the digest."""
    import json

    network = _run_mincost(size=4, seed=3)
    path = str(tmp_path / "net.ckpt")
    network.checkpoint(path)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    first = payload["nodes"][payload["addresses"][0]]

    def restored_digest(edit=None):
        edited = json.loads(json.dumps(payload))
        if edit is not None:
            edit(edited["nodes"][payload["addresses"][0]])
        edited_path = str(tmp_path / "edited.ckpt")
        with open(edited_path, "w", encoding="utf-8") as handle:
            json.dump(edited, handle)
        restored = ExspanNetwork.restore(edited_path, ring_topology(4, seed=3), mincost_program())
        return collect_digest(restored)

    table = next(name for name, rows in first["tables"].items() if rows)
    (label,) = first["aggregates"]

    def bump_count(state):
        state["tables"][table][0][1] += 1

    def bump_group(state):
        state["aggregates"][label][0][1][0][1] += 1

    unmodified = restored_digest()
    assert unmodified == collect_digest(network)
    assert restored_digest(bump_count) != unmodified
    assert restored_digest(bump_group) != unmodified
