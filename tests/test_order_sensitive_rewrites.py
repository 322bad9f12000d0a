"""Property tests for three rewrites whose *order* of work is observable.

Each hot-path rewrite below is checked against the implementation it
replaced, kept here as the oracle (reference implementations stay in the
tests when the program drops them):

* routes — :meth:`Topology.latency_between`'s resumable per-source search
  against the full Dijkstra it used to run, floats compared with ``==``;
* event order — the simulator's tuple heap against a model that sorts
  ``(time, key, sequence)``, tombstones and compaction included;
* tables — the single-function :meth:`Table.insert` / :meth:`Table.delete`
  against the five-call ladder, down to bucket order in every index.

All three are derandomized: tier-1 must not flake.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.ast import Fact
from repro.datalog.errors import SchemaError
from repro.net.errors import NoRouteError, SimulationError
from repro.net.simulator import Simulator
from repro.net.topology import LinkSpec, Topology
from repro.storage.memory import (
    _DELETED_ABSENT,
    _DELETED_GONE,
    _DELETED_KEPT,
    _INSERTED_DUP,
    _INSERTED_NEW,
    InsertOutcome,
    Table,
    _freeze,
)

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


# ---------------------------------------------------------------------- #
# (a) routes
# ---------------------------------------------------------------------- #
def full_dijkstra(adjacency: Dict[Any, Dict[Any, float]], source: Any) -> Dict[Any, float]:
    """The parent commit's ``Topology._dijkstra``: one full run per source."""
    distances: Dict[Any, float] = {source: 0.0}
    heap: List[Tuple[float, int, Any]] = [(0.0, 0, source)]
    sequence = 0
    visited = set()
    while heap:
        distance, _, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for neighbor, latency in adjacency.get(node, {}).items():
            candidate = distance + latency
            if candidate < distances.get(neighbor, float("inf")):
                distances[neighbor] = candidate
                sequence += 1
                heapq.heappush(heap, (candidate, sequence, neighbor))
    return distances


NODES = [f"n{index}" for index in range(8)]
#: Few distinct values (ties), sums that round differently by order, zero.
LATENCIES = [0.0, 0.001, 0.002, 0.003, 0.01, 0.05, 0.1, 0.7]
node = st.sampled_from(NODES)
route_op = st.one_of(
    st.tuples(st.just("add"), node, node, st.sampled_from(LATENCIES)),
    st.tuples(st.just("add"), node, node, st.sampled_from(LATENCIES)),
    st.tuples(st.just("remove"), node, node),
    st.tuples(st.just("query"), node, node),
    st.tuples(st.just("query"), node, node),
    st.tuples(st.just("sweep"), node, st.permutations(NODES)),
    st.tuples(st.just("connected")),
)


@PROPERTY
@given(
    st.lists(
        st.tuples(st.just("add"), node, node, st.sampled_from(LATENCIES)),
        min_size=4,
        max_size=14,
    ),
    st.lists(route_op, min_size=10, max_size=60),
)
def test_resumable_routes_equal_full_dijkstra(graph, ops):
    topology = Topology()
    for name in NODES[:6]:  # n6, n7 only ever exist if a link names them
        topology.add_node(name)
    mirror: Dict[Any, Dict[Any, float]] = {name: {} for name in NODES[:6]}
    ops = graph + ops

    def check(source: Any, destination: Any) -> None:
        expected = 0.0 if source == destination else full_dijkstra(mirror, source).get(destination)
        if expected is None:
            with pytest.raises(NoRouteError):
                topology.latency_between(source, destination)
        else:
            assert topology.latency_between(source, destination) == expected

    for op in ops:
        if op[0] == "add":
            _, a, b, latency = op
            if a == b:
                continue
            topology.add_link(a, b, LinkSpec(latency=latency))
            mirror.setdefault(a, {})[b] = latency
            mirror.setdefault(b, {})[a] = latency
        elif op[0] == "remove":
            _, a, b = op
            assert topology.remove_link(a, b) == (b in mirror.get(a, {}))
            mirror.get(a, {}).pop(b, None)
            mirror.get(b, {}).pop(a, None)
        elif op[0] == "query":
            check(op[1], op[2])
        elif op[0] == "sweep":
            for destination in op[2]:
                check(op[1], destination)
        else:
            reachable = full_dijkstra(mirror, topology.nodes[0])
            assert topology.is_connected() == (len(reachable) == topology.node_count())


# ---------------------------------------------------------------------- #
# (b) event order
# ---------------------------------------------------------------------- #
class QueueModel:
    """What the simulator must do, by sorting ``(time, key, sequence)``."""

    def __init__(self, compact_min_cancelled: int, compact_ratio: float) -> None:
        self.now = 0.0
        self.safe_time = 0.0
        self.sequence = 0
        self.entries: List[Dict[str, Any]] = []  # physically queued, live or tombstone
        self.executed: List[int] = []
        self.compact_min_cancelled = compact_min_cancelled
        self.compact_ratio = compact_ratio
        self.tombstones = 0

    def live(self) -> List[Dict[str, Any]]:
        return [entry for entry in self.entries if not entry["cancelled"]]

    def schedule_at(self, time: float, key: Tuple, ident: int, spawn: Any) -> Optional[Dict]:
        if time < self.now or time < self.safe_time:
            return None  # the simulator raises
        entry = {
            "order": (time, key, self.sequence),
            "time": time,
            "id": ident,
            "spawn": spawn,
            "cancelled": False,
            "queued": True,
        }
        self.sequence += 1
        self.entries.append(entry)
        return entry

    def cancel(self, entry: Dict[str, Any]) -> None:
        if entry["cancelled"]:
            return
        entry["cancelled"] = True
        if not entry["queued"]:
            return
        self.tombstones += 1
        if (
            self.tombstones > self.compact_min_cancelled
            and self.tombstones > len(self.live()) * self.compact_ratio
        ):
            self.entries = self.live()
            self.tombstones = 0

    def peek(self) -> Optional[Dict[str, Any]]:
        """Next live entry; tombstones ahead of it leave the heap."""
        live = self.live()
        head = min(live, key=lambda entry: entry["order"]) if live else None
        kept = [
            entry
            for entry in self.entries
            if not entry["cancelled"] or (head is not None and entry["order"] > head["order"])
        ]
        self.tombstones -= len(self.entries) - len(kept)
        self.entries = kept
        return head

    def step(self, head: Dict[str, Any], spawned: List) -> None:
        self.entries.remove(head)
        head["queued"] = False
        self.now = head["time"]
        self.executed.append(head["id"])
        if head["spawn"] is not None:
            delay, key, ident = head["spawn"]
            spawned.append(self.schedule_at(self.now + delay, key, ident, None))

    def run(self, max_events: Optional[int], spawned: List) -> int:
        executed = 0
        while self.entries:
            head = self.peek()
            if head is None or (max_events is not None and executed >= max_events):
                break
            self.step(head, spawned)
            executed += 1
        return executed

    def run_window(self, horizon: float, max_events: Optional[int], spawned: List) -> int:
        executed = 0
        drained = True
        while True:
            head = self.peek()
            if head is None or head["time"] >= horizon:
                break
            if max_events is not None and executed >= max_events:
                drained = False
                break
            self.step(head, spawned)
            executed += 1
        self.safe_time = horizon if drained else max(self.safe_time, self.now)
        return executed


DELAYS = [0.0, 0.0, 0.001, 0.002, 0.005]
#: The default key, and delivery-shaped keys that collide on every prefix.
KEYS = [(), (), (0.0, 0, 0), (0.0, 0, 1), (0.0, 1, 0), (0.001, 0, 0)]
delay = st.sampled_from(DELAYS)
key = st.sampled_from(KEYS)
limit = st.one_of(st.none(), st.integers(0, 4))
event_op = st.one_of(
    st.tuples(st.just("schedule"), delay, key, st.one_of(st.none(), st.tuples(delay, key))),
    st.tuples(st.just("schedule"), delay, key, st.one_of(st.none(), st.tuples(delay, key))),
    st.tuples(st.just("schedule_at"), delay, key),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("run"), limit),
    st.tuples(st.just("run_window"), delay, limit),
)


@PROPERTY
@given(st.lists(event_op, min_size=10, max_size=50))
def test_tuple_heap_executes_in_time_key_sequence_order(ops):
    simulator = Simulator(compact_min_cancelled=2, compact_ratio=1.0)
    model = QueueModel(compact_min_cancelled=2, compact_ratio=1.0)
    executed: List[int] = []
    handles: List[Any] = []  # (simulator event, model entry) per successful schedule
    idents = iter(range(10_000))

    def schedule(time: float, key: Tuple, spawn: Any) -> None:
        ident = next(idents)
        child = None if spawn is None else (spawn[0], spawn[1], next(idents))

        def callback() -> None:
            executed.append(ident)
            if child is not None:
                handles.append(
                    [simulator.schedule(child[0], lambda: executed.append(child[2]), key=child[1])]
                )

        entry = model.schedule_at(time, key, ident, child)
        if entry is None:
            with pytest.raises(SimulationError):
                simulator.schedule_at(time, callback, key=key)
        else:
            handles.append([simulator.schedule_at(time, callback, key=key), entry])

    for op in ops:
        spawned: List = []
        if op[0] == "schedule":
            schedule(simulator.now + op[1], op[2], op[3])
        elif op[0] == "schedule_at":
            schedule(max(simulator.now, simulator.safe_time) + op[1], op[2], None)
        elif op[0] == "cancel":
            if op[1] < len(handles):
                event, entry = handles[op[1]]
                event.cancel()
                model.cancel(entry)
        elif op[0] == "run":
            assert simulator.run(max_events=op[1]) == model.run(op[1], spawned)
        else:
            horizon = max(simulator.safe_time, simulator.now) + op[1]
            assert simulator.run_window(horizon, op[2]) == model.run_window(horizon, op[2], spawned)
        # Children scheduled by callbacks: pair each handle with its model entry.
        for handle, entry in zip([h for h in handles if len(h) == 1], spawned):
            handle.append(entry)
        assert executed == model.executed
        assert simulator.now == model.now
        assert simulator.safe_time == model.safe_time
        assert simulator.pending_events == len(model.live())
        assert simulator.queue_length == len(model.entries)
    assert simulator.run() == model.run(None, [])
    assert executed == model.executed
    assert simulator.queue_length == 0 and simulator.pending_events == 0


# ---------------------------------------------------------------------- #
# (c) tables
# ---------------------------------------------------------------------- #
class LadderTable(Table):
    """``Table`` with the parent commit's insert/delete call ladder."""

    def _find(self, values):
        if values.__class__ is not tuple:
            values = tuple(values)
        try:
            return values, self._rows.get(values)
        except TypeError:
            row = tuple([_freeze(v) for v in values])
            return row, self._rows.get(row)

    def _admit(self, row):
        if self.arity is None:
            self.arity = len(row)
        elif len(row) != self.arity:
            raise SchemaError(
                f"relation {self.name!r} expects arity {self.arity}, got {len(row)}"
            )
        return row

    def _key_of(self, row):
        getter = self._key_getter
        if getter is None:
            return None
        return getter(row)

    def insert(self, values):
        row, count = self._find(values)
        if count is not None:
            self._rows[row] = count + 1
            return _INSERTED_DUP
        row = self._admit(row)
        replaced = None
        key = self._key_of(row)
        if key is not None:
            existing = self._by_key.get(key)
            if existing is not None and existing != row:
                self._remove_row(existing)
                replaced = Fact(self.name, existing, self.location_index)
            self._by_key[key] = row
        self._rows[row] = 1
        self._index_add(row)
        if replaced is None:
            return _INSERTED_NEW
        return InsertOutcome(became_visible=True, replaced=replaced)

    def delete(self, values):
        row, count = self._find(values)
        if count is None:
            return _DELETED_ABSENT
        if count <= 1:
            self._remove_row(row)
            return _DELETED_GONE
        self._rows[row] = count - 1
        return _DELETED_KEPT

    def _remove_row(self, row):
        self._rows.pop(row, None)
        key = self._key_of(row)
        if key is not None and self._by_key.get(key) == row:
            del self._by_key[key]
        self._index_remove(row)

    def _index_add(self, row):
        length = len(row)
        for max_position, getter, index in self._index_list:
            if max_position >= length:
                continue
            index.setdefault(getter(row), {})[row] = None

    def _index_remove(self, row):
        length = len(row)
        for max_position, getter, index in self._index_list:
            if max_position >= length:
                continue
            key = getter(row)
            bucket = index.get(key)
            if bucket is not None:
                bucket.pop(row, None)
                if not bucket:
                    del index[key]


def table_state(table: Table) -> Tuple:
    return (
        table.rows_with_counts(),
        list(table._by_key.items()),
        [
            (positions, [(key, list(bucket)) for key, bucket in index.items()])
            for positions, index in table._indexes.items()
        ],
        table.arity,
    )


attribute = st.one_of(
    st.sampled_from(["a", "b", "c"]),
    st.integers(0, 2),
    st.sampled_from([["a", "b"], ["b", "a"], [], ["a", ["b", 1]]]),  # lists freeze to tuples
    st.sampled_from([{"x", "y"}, {"y"}, set()]),  # sets freeze to sorted tuples
)
row = st.one_of(
    st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 2), attribute),
    st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 2), attribute).map(list),
    st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 2)),  # wrong arity once one is fixed
)
table_op = st.one_of(
    st.tuples(st.just("insert"), row),
    st.tuples(st.just("insert"), row),
    st.tuples(st.just("delete"), row),
    st.tuples(st.just("index"), st.sampled_from([(0,), (1,), (0, 2), (2,)])),
)


@PROPERTY
@given(
    st.sampled_from([(), (0,), (0, 1)]),
    st.sampled_from([None, 3]),
    st.lists(table_op, min_size=8, max_size=40),
)
def test_single_function_table_mutations_equal_the_ladder(key_positions, arity, ops):
    table = Table("t", arity, key_positions)
    oracle = LadderTable("t", arity, key_positions)
    for verb, argument in ops:
        if verb == "index":
            for each in (table, oracle):
                try:
                    each.ensure_index(argument)
                except SchemaError:
                    pass  # position past the declared arity: refused by both
        else:
            try:
                expected = getattr(oracle, verb)(argument)
            except SchemaError:
                with pytest.raises(SchemaError):
                    getattr(table, verb)(argument)
            else:
                assert getattr(table, verb)(argument) == expected
        assert table_state(table) == table_state(oracle)
        assert list(table.rows()) == list(oracle.rows())
