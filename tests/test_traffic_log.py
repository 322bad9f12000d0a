"""The packed traffic log answers exactly what a plain list of rows would.

``TrafficStats`` stores each message as three array entries (time, size,
interned route code).  ``ListOracle`` below keeps the obvious
list-of-tuples log and computes every view from it; both are fed the same
sequence and must agree on every view the figures and the shell read.
"""

from __future__ import annotations

import pickle
import random
from collections import defaultdict

import pytest

from repro.net.stats import TrafficStats

KINDS = ("delta", "prov", "ctl")
ADDRESSES = ("a", "b", 7, 11, ("g", 0), ("g", 1))


class ListOracle:
    """One ``(time, source, destination, size, kind)`` tuple per message."""

    def __init__(self):
        self.rows = []

    def record(self, time, source, destination, size, kind):
        self.rows.append((time, source, destination, size, kind))

    def reset(self):
        self.rows.clear()

    def _rows(self, kinds):
        return self.rows if kinds is None else [r for r in self.rows if r[4] in set(kinds)]

    def total_bytes(self, kinds=None):
        return sum(row[3] for row in self._rows(kinds))

    def total_messages(self, kinds=None):
        return len(self._rows(kinds))

    def kind_totals(self):
        totals = {}
        for _, _, _, size, kind in self.rows:
            messages, sent = totals.get(kind, (0, 0))
            totals[kind] = (messages + 1, sent + size)
        return dict(sorted(totals.items()))

    def bytes_by_sender(self):
        per_node = defaultdict(int)
        for _, source, _, size, _ in self.rows:
            per_node[source] += size
        return dict(per_node)

    def last_activity_time(self, kinds=None):
        return max((row[0] for row in self._rows(kinds)), default=0.0)

    def bandwidth_timeseries(self, bucket, node_count, start=0.0, end=None, kinds=None):
        rows = self._rows(kinds)
        if end is None:
            end = max((row[0] for row in rows), default=start) + bucket
        buckets = defaultdict(float)
        for time, _, _, size, _ in rows:
            if start <= time < end:
                buckets[int((time - start) // bucket)] += size
        total = max(int((end - start) / bucket + 0.999), 1)
        denominator = bucket * max(node_count, 1)
        return [(start + i * bucket, buckets.get(i, 0.0) / denominator) for i in range(total)]

    def snapshot(self):
        return {
            "messages_sent": len(self.rows),
            "total_bytes": self.total_bytes(),
            "total_messages": self.total_messages(),
            "kind_totals": {
                kind: {"messages": messages, "bytes": size}
                for kind, (messages, size) in self.kind_totals().items()
            },
            "bytes_by_sender": {
                str(node): size
                for node, size in sorted(self.bytes_by_sender().items(), key=lambda i: str(i[0]))
            },
            "last_activity_time": self.last_activity_time(),
        }

    def __len__(self):
        return len(self.rows)


def messages(seed: int, count: int):
    rng = random.Random(seed)
    time = 0.0
    sequence = []
    for _ in range(count):
        time += rng.choice((0.0, 0.0005, 0.001, 0.013))
        source, destination = rng.sample(ADDRESSES, 2)
        sequence.append((time, source, destination, rng.randint(1, 400), rng.choice(KINDS)))
    return sequence


def fed(sequence):
    packed, oracle = TrafficStats(), ListOracle()
    for message in sequence:
        packed.record(*message)
        oracle.record(*message)
    return packed, oracle


KIND_FILTERS = [None, ["delta"], ["prov", "ctl"], ["missing"], []]


def assert_same_views(packed, oracle):
    assert len(packed) == len(oracle)
    assert packed.kind_totals() == oracle.kind_totals()
    assert packed.snapshot() == oracle.snapshot()
    for kinds in KIND_FILTERS:
        assert packed.total_bytes(kinds) == oracle.total_bytes(kinds)
        assert packed.total_messages(kinds) == oracle.total_messages(kinds)
        assert packed.last_activity_time(kinds) == oracle.last_activity_time(kinds)
        assert packed.average_bytes_per_node(4, kinds) == oracle.total_bytes(kinds) / 4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_view_matches_the_list_oracle(seed):
    packed, oracle = fed(messages(seed, 600))
    assert_same_views(packed, oracle)
    assert all(isinstance(packed.total_bytes(kinds), int) for kinds in KIND_FILTERS)


@pytest.mark.parametrize("bucket", [0.001, 0.01, 0.25])
@pytest.mark.parametrize("window", [(0.0, None), (0.05, None), (0.02, 0.4), (1e3, None)])
@pytest.mark.parametrize("kinds", KIND_FILTERS)
def test_bandwidth_timeseries_matches_the_list_oracle(bucket, window, kinds):
    packed, oracle = fed(messages(5, 400))
    start, end = window
    expected = oracle.bandwidth_timeseries(bucket, 6, start=start, end=end, kinds=kinds)
    assert packed.bandwidth_timeseries(bucket, 6, start=start, end=end, kinds=kinds) == expected


def test_empty_and_reset_logs_match_the_oracle():
    packed, oracle = fed([])
    assert_same_views(packed, oracle)
    assert packed.bandwidth_timeseries(0.1, 2) == oracle.bandwidth_timeseries(0.1, 2)
    packed, oracle = fed(messages(3, 200))
    packed.reset()
    oracle.reset()
    assert_same_views(packed, oracle)
    for message in messages(4, 50):
        packed.record(*message)
        oracle.record(*message)
    assert_same_views(packed, oracle)


def test_a_pickled_log_keeps_every_view():
    packed, oracle = fed(messages(7, 300))
    clone = pickle.loads(pickle.dumps(packed))
    assert_same_views(clone, oracle)
    clone.record(9.0, "a", 7, 5, "delta")
    oracle.record(9.0, "a", 7, 5, "delta")
    assert_same_views(clone, oracle)
    assert len(packed) == 300
