"""Traffic statistics collection.

The experiment harness derives all of the paper's figures from the raw
per-message records collected here: total and per-node communication cost
(Figures 6, 7, 16), bandwidth over time (Figures 8-11, 13, 15, 16), query
completion latency distributions (Figures 12, 14), and fixpoint latency
(Figure 17).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.metrics import merged_counters

__all__ = [
    "MessageRecord",
    "TrafficStats",
    "LatencyStats",
    "cdf_points",
    "ENGINE_COUNTER_KEYS",
    "QUERY_COUNTER_KEYS",
    "aggregate_engine_stats",
    "aggregate_query_stats",
    "merge_counter_dicts",
    "merge_traffic_records",
    "merge_traffic_stats",
    "render_engine_stats",
]


@dataclass(frozen=True, slots=True)
class MessageRecord:
    """One sent message: when, who, how many bytes, and what kind.

    Slotted: paper-scale sweeps record hundreds of thousands of these per
    trial, so the per-instance dict would dominate the collector's memory.
    """

    time: float
    source: Any
    destination: Any
    size: int
    kind: str


class TrafficStats:
    """Accumulates :class:`MessageRecord` entries and answers questions.

    Bounded / streaming mode
    ------------------------
    By default every record is retained (the views below need the raw
    list).  With ``max_records=N`` the collector keeps only the first N
    raw records — million-message runs stop growing an unbounded list —
    while maintaining exact streaming aggregates for every *scalar* view:
    :meth:`total_bytes`, :meth:`total_messages`, :meth:`bytes_by_sender`,
    :meth:`average_bytes_per_node` and :meth:`last_activity_time` count
    dropped records too.  Only the record-shaped views
    (:meth:`records`, :meth:`bandwidth_timeseries`, ``len()``) are limited
    to the retained prefix; ``dropped_records`` says how much was shed.
    """

    def __init__(self, max_records: Optional[int] = None) -> None:
        if max_records is not None and max_records < 0:
            raise ValueError(f"max_records must be >= 0, got {max_records}")
        # One plain (time, source, destination, size, kind) tuple per
        # message — MessageRecord's field order; records() materializes.
        self._records: List[Tuple[float, Any, Any, int, str]] = []
        self._max_records = max_records
        self.dropped_records = 0
        # Streaming aggregates, maintained only in bounded mode (the
        # unbounded default computes every view from the raw records, so
        # the hot recording path stays a single append).
        self._kind_totals: Optional[Dict[str, List[float]]] = (
            None if max_records is None else {}
        )
        self._sender_kind_bytes: Dict[Tuple[Any, str], int] = {}
        #: Records one ``(time, source, destination, size, kind)`` row: the
        #: list's own ``append`` when unbounded, so billing a message costs
        #: the network no Python frame.
        self.append: Callable[[Tuple[float, Any, Any, int, str]], None] = (
            self._records.append if max_records is None else self._append_bounded
        )

    @property
    def max_records(self) -> Optional[int]:
        return self._max_records

    @property
    def messages_sent(self) -> int:
        return len(self._records) + self.dropped_records

    def record(self, time: float, source: Any, destination: Any, size: int, kind: str) -> None:
        self.append((time, source, destination, size, kind))

    def _append_bounded(self, row: Tuple[float, Any, Any, int, str]) -> None:
        time, source, _, size, kind = row
        if len(self._records) < self._max_records:
            self._records.append(row)
        else:
            self.dropped_records += 1
        totals = self._kind_totals.get(kind)
        if totals is None:
            self._kind_totals[kind] = [1, size, time]
        else:
            totals[0] += 1
            totals[1] += size
            if time > totals[2]:
                totals[2] = time
        sender_key = (source, kind)
        self._sender_kind_bytes[sender_key] = (
            self._sender_kind_bytes.get(sender_key, 0) + size
        )

    def reset(self) -> None:
        """Drop all records (used between experiment phases)."""
        self._records.clear()
        self.dropped_records = 0
        if self._kind_totals is not None:
            self._kind_totals = {}
        self._sender_kind_bytes = {}

    # ------------------------------------------------------------------ #
    # aggregate views
    # ------------------------------------------------------------------ #
    def records(self, kinds: Optional[Iterable[str]] = None) -> List[MessageRecord]:
        return [MessageRecord(*row) for row in self._rows(kinds)]

    def _rows(
        self, kinds: Optional[Iterable[str]]
    ) -> List[Tuple[float, Any, Any, int, str]]:
        """The retained raw tuples of the given *kinds* (all when ``None``)."""
        if kinds is None:
            return self._records
        wanted = set(kinds)
        return [row for row in self._records if row[4] in wanted]

    def _selected_kind_totals(
        self, kinds: Optional[Iterable[str]]
    ) -> List[List[float]]:
        assert self._kind_totals is not None
        if kinds is None:
            return list(self._kind_totals.values())
        wanted = set(kinds)
        return [
            totals for kind, totals in self._kind_totals.items() if kind in wanted
        ]

    def total_bytes(self, kinds: Optional[Iterable[str]] = None) -> int:
        if self._kind_totals is not None:
            return int(sum(totals[1] for totals in self._selected_kind_totals(kinds)))
        return sum(row[3] for row in self._rows(kinds))

    def total_messages(self, kinds: Optional[Iterable[str]] = None) -> int:
        if self._kind_totals is not None:
            return int(sum(totals[0] for totals in self._selected_kind_totals(kinds)))
        return len(self._rows(kinds))

    def kind_totals(self) -> Dict[str, Tuple[int, int]]:
        """Per-kind ``(messages, bytes)`` totals (exact in both modes)."""
        if self._kind_totals is not None:
            return {
                kind: (int(totals[0]), int(totals[1]))
                for kind, totals in sorted(self._kind_totals.items())
            }
        per_kind: Dict[str, List[int]] = {}
        for _, _, _, size, kind in self._records:
            totals = per_kind.setdefault(kind, [0, 0])
            totals[0] += 1
            totals[1] += size
        return {kind: (totals[0], totals[1]) for kind, totals in sorted(per_kind.items())}

    def bytes_by_sender(self, kinds: Optional[Iterable[str]] = None) -> Dict[Any, int]:
        """Bytes transmitted per sending node."""
        if self._kind_totals is not None:
            wanted = None if kinds is None else set(kinds)
            per_node: Dict[Any, int] = defaultdict(int)
            for (source, kind), size in self._sender_kind_bytes.items():
                if wanted is None or kind in wanted:
                    per_node[source] += size
            return dict(per_node)
        per_node = defaultdict(int)
        for _, source, _, size, _ in self._rows(kinds):
            per_node[source] += size
        return dict(per_node)

    def average_bytes_per_node(
        self, node_count: int, kinds: Optional[Iterable[str]] = None
    ) -> float:
        """Average communication cost per node in bytes (Figures 6, 7, 16)."""
        if node_count <= 0:
            return 0.0
        return self.total_bytes(kinds) / node_count

    def bandwidth_timeseries(
        self,
        bucket: float,
        node_count: int,
        start: float = 0.0,
        end: Optional[float] = None,
        kinds: Optional[Iterable[str]] = None,
    ) -> List[Tuple[float, float]]:
        """Average per-node bandwidth (bytes/second) in time buckets.

        Returns ``[(bucket_start_time, bytes_per_second_per_node), ...]``.
        """
        rows = self._rows(kinds)
        if end is None:
            end = max((row[0] for row in rows), default=start) + bucket
        buckets: Dict[int, float] = defaultdict(float)
        for time, _, _, size, _ in rows:
            if time < start or time >= end:
                continue
            buckets[int((time - start) // bucket)] += size
        series: List[Tuple[float, float]] = []
        total_buckets = max(int((end - start) / bucket + 0.999), 1)
        denominator = bucket * max(node_count, 1)
        for index in range(total_buckets):
            series.append((start + index * bucket, buckets.get(index, 0.0) / denominator))
        return series

    def snapshot(self) -> Dict[str, Any]:
        """A deep-copied, JSON-able summary of the collector.

        Everything in the returned dict is freshly built — callers (in
        particular service clients polling ``stats`` over the wire) can
        mutate it freely without corrupting the live counters.  Exact in
        both bounded and unbounded modes.
        """
        return {
            "messages_sent": self.messages_sent,
            "dropped_records": self.dropped_records,
            "total_bytes": self.total_bytes(),
            "total_messages": self.total_messages(),
            "kind_totals": {
                kind: {"messages": messages, "bytes": size}
                for kind, (messages, size) in self.kind_totals().items()
            },
            "bytes_by_sender": {
                str(node): size
                for node, size in sorted(
                    self.bytes_by_sender().items(), key=lambda item: str(item[0])
                )
            },
            "last_activity_time": self.last_activity_time(),
        }

    def last_activity_time(self, kinds: Optional[Iterable[str]] = None) -> float:
        """Time of the last recorded message (used as fixpoint latency)."""
        if self._kind_totals is not None:
            return max(
                (totals[2] for totals in self._selected_kind_totals(kinds)),
                default=0.0,
            )
        return max((row[0] for row in self._rows(kinds)), default=0.0)

    def __len__(self) -> int:
        return len(self._records)


class LatencyStats:
    """Collects completion latencies (e.g. of provenance queries).

    Empty-sample behaviour is defined: :meth:`mean` and
    :meth:`percentile` raise :class:`ValueError` (an empty collector has
    no mean — the old silent ``0.0`` let an accidentally empty workload
    masquerade as an instant one), while :meth:`cdf` returns the empty
    list (an empty distribution plots as nothing).
    """

    def __init__(self) -> None:
        self._samples: List[float] = []

    def record(self, latency: float) -> None:
        self._samples.append(latency)

    def extend(self, latencies: Iterable[float]) -> None:
        self._samples.extend(latencies)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def count(self) -> int:
        return len(self._samples)

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("LatencyStats.mean() on an empty sample set")
        return sum(self._samples) / len(self._samples)

    def percentile(self, fraction: float) -> float:
        """Return the latency at the given CDF *fraction* (0..1)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"percentile fraction must be in [0, 1], got {fraction}")
        if not self._samples:
            raise ValueError("LatencyStats.percentile() on an empty sample set")
        ordered = sorted(self._samples)
        index = min(int(fraction * len(ordered)), len(ordered) - 1)
        return ordered[index]

    def cdf(self, points: int = 50) -> List[Tuple[float, float]]:
        """``(latency, cumulative_fraction)`` pairs; ``[]`` when empty."""
        return cdf_points(self._samples, points)


#: Engine counters surfaced in benchmark reports, in display order.  The
#: planner/index counters let reports show *scan-count* reductions (how much
#: work the cost-based planner saved) rather than just wall-clock times.
ENGINE_COUNTER_KEYS = (
    "deltas_processed",
    "deltas_sent",
    "deltas_received",
    "rule_firings",
    "plans_compiled",
    "plans_recompiled",
    "indexes_registered",
    "index_lookups",
    "full_scans",
    "tuples_scanned",
)


def aggregate_engine_stats(
    stats_maps: Iterable[Dict[str, int]]
) -> Dict[str, int]:
    """Sum per-engine counter dicts into one network-wide view.

    Every key appearing in any engine's ``stats`` is summed; the well-known
    planner/evaluation counters of :data:`ENGINE_COUNTER_KEYS` are always
    present (zero when untouched) so reports have a stable schema.
    """
    return merged_counters(stats_maps, schema=ENGINE_COUNTER_KEYS)


#: Query-engine counters surfaced in benchmark reports, in display order.
#: The coalescing / batching / cache counters are what the multi-querier
#: scenarios report to show *message-count* reductions (how much traversal
#: work the concurrent query engine deduplicated) alongside raw bytes.
QUERY_COUNTER_KEYS = (
    "queries_started",
    "queries_completed",
    "coalesced_inflight",
    "coalesced_roots",
    "stale_drops",
    "deadline_expirations",
    "late_drops",
    "cache_entries",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_invalidations",
    "batches_sent",
    "messages_batched",
)


def aggregate_query_stats(stats_maps: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Sum per-node query-service counter dicts into one network-wide view.

    Mirrors :func:`aggregate_engine_stats`: every key appearing in any
    node's counters is summed, and the well-known keys of
    :data:`QUERY_COUNTER_KEYS` are always present (zero when untouched) so
    reports have a stable schema.
    """
    return merged_counters(stats_maps, schema=QUERY_COUNTER_KEYS)


def merge_counter_dicts(dicts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum same-keyed numeric counter dicts (cross-shard counter merge).

    Keys are emitted in sorted order so the merged dict is independent of
    shard iteration order (and of ``PYTHONHASHSEED``).
    """
    return merged_counters(dicts, sort=True)


def merge_traffic_records(
    record_lists: Iterable[Sequence[MessageRecord]],
    source_rank: Dict[Any, int],
) -> List[MessageRecord]:
    """Merge per-shard traffic records into one deterministic list.

    Each shard records exactly the messages its own hosts *sent* (senders
    are always local), so the union is exact.  Records are ordered by
    ``(time, source rank, per-source position)`` — per-source order is
    preserved from each shard's list, and the result is independent of
    shard count and drain order.  Every aggregate view
    (:class:`TrafficStats` totals, bandwidth timeseries, CDFs) is
    order-insensitive, so any consumer of the merged list sees exactly the
    serial engine's numbers.
    """
    indexed: List[Tuple[float, int, int, MessageRecord]] = []
    positions: Dict[Any, int] = {}
    for records in record_lists:
        for record in records:
            position = positions.get(record.source, 0)
            positions[record.source] = position + 1
            indexed.append(
                (record.time, source_rank.get(record.source, -1), position, record)
            )
    indexed.sort(key=lambda item: item[:3])
    return [item[3] for item in indexed]


def merge_traffic_stats(
    stats_list: Iterable["TrafficStats"],
    source_rank: Dict[Any, int],
) -> "TrafficStats":
    """Fold per-shard :class:`TrafficStats` into one merged collector."""
    merged = TrafficStats()
    for record in merge_traffic_records(
        [stats.records() for stats in stats_list], source_rank
    ):
        merged.record(record.time, record.source, record.destination, record.size, record.kind)
    return merged


def render_engine_stats(totals: Dict[str, int]) -> str:
    """One-line human-readable summary of aggregated engine counters."""
    parts = [f"{key}={totals[key]}" for key in ENGINE_COUNTER_KEYS if key in totals]
    extra = sorted(set(totals) - set(ENGINE_COUNTER_KEYS))
    parts.extend(f"{key}={totals[key]}" for key in extra)
    return " ".join(parts)


def cdf_points(samples: Sequence[float], points: int = 50) -> List[Tuple[float, float]]:
    """Compute a CDF over *samples* as ``(value, fraction <= value)`` pairs."""
    if not samples:
        return []
    ordered = sorted(samples)
    total = len(ordered)
    maximum = ordered[-1]
    minimum = ordered[0]
    if points <= 1 or maximum == minimum:
        return [(maximum, 1.0)]
    step = (maximum - minimum) / (points - 1)
    result: List[Tuple[float, float]] = []
    for index in range(points):
        value = minimum + index * step
        fraction = bisect_right(ordered, value) / total
        result.append((value, fraction))
    return result
