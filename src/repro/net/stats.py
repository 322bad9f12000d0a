"""Traffic statistics collection.

The experiment harness derives all of the paper's figures from the raw
per-message records collected here: total and per-node communication cost
(Figures 6, 7, 16), bandwidth over time (Figures 8-11, 13, 15, 16), query
completion latency distributions (Figures 12, 14, through
:class:`LatencyStats` and :func:`cdf_points`), and fixpoint latency
(Figure 17).

The log is packed and columnar: one ``array`` each of send times, sizes
and *route codes*, where a route is an interned ``(source, destination,
kind)`` triple.  A message costs 20 bytes and no Python object, so a long
run's log is neither a memory hog nor something the cycle collector has to
walk.  Scalar views reduce the columns (per-route totals first, then a
fold over the few distinct routes); :meth:`TrafficStats.records` and the
bandwidth series decode rows on demand.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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


#: An interned ``(source, destination, kind)`` triple.
_Route = Tuple[Any, Any, str]


class TrafficStats:
    """A packed log of every sent message, and the views the figures use."""

    def __init__(self) -> None:
        self._times = array("d")
        self._sizes = array("q")
        self._codes = array("i")
        #: Route code -> ``(source, destination, kind)``, and its inverse.
        self._routes: List[_Route] = []
        self._route_codes: Dict[_Route, int] = {}

    def record(self, time: float, source: Any, destination: Any, size: int, kind: str) -> None:
        route = (source, destination, kind)
        code = self._route_codes.get(route)
        if code is None:
            code = self._route_codes[route] = len(self._routes)
            self._routes.append(route)
        self._times.append(time)
        self._sizes.append(size)
        self._codes.append(code)

    def reset(self) -> None:
        """Drop all records (used between experiment phases)."""
        del self._times[:], self._sizes[:], self._codes[:]
        self._routes.clear()
        self._route_codes.clear()

    # ------------------------------------------------------------------ #
    # aggregate views
    # ------------------------------------------------------------------ #
    def records(self, kinds: Optional[Iterable[str]] = None) -> List[MessageRecord]:
        routes = self._routes
        wanted = self._wanted_codes(kinds)
        return [
            MessageRecord(time, routes[code][0], routes[code][1], size, routes[code][2])
            for time, size, code in zip(self._times, self._sizes, self._codes)
            if wanted is None or code in wanted
        ]

    def _wanted_codes(self, kinds: Optional[Iterable[str]]) -> Optional[Set[int]]:
        """Codes of the routes carrying one of *kinds* (``None``: all)."""
        if kinds is None:
            return None
        kinds = set(kinds)
        return {code for code, route in enumerate(self._routes) if route[2] in kinds}

    def _per_route(self) -> List[Tuple[_Route, int, int]]:
        """``(route, messages, bytes)`` of every route, in first-use order."""
        messages = Counter(self._codes)
        totals = [0] * len(self._routes)
        for code, size in zip(self._codes, self._sizes):
            totals[code] += size
        return [(route, messages[code], totals[code]) for code, route in enumerate(self._routes)]

    def total_bytes(self, kinds: Optional[Iterable[str]] = None) -> int:
        wanted = self._wanted_codes(kinds)
        if wanted is None:
            return sum(self._sizes)
        return sum(compress(self._sizes, map(wanted.__contains__, self._codes)))

    def total_messages(self, kinds: Optional[Iterable[str]] = None) -> int:
        wanted = self._wanted_codes(kinds)
        if wanted is None:
            return len(self._codes)
        return sum(map(wanted.__contains__, self._codes))

    def kind_totals(self) -> Dict[str, Tuple[int, int]]:
        """Per-kind ``(messages, bytes)`` totals."""
        return _kind_totals(self._per_route())

    def bytes_by_sender(self, kinds: Optional[Iterable[str]] = None) -> Dict[Any, int]:
        """Bytes transmitted per sending node."""
        return _bytes_by_sender(self._per_route(), kinds)

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
        wanted = self._wanted_codes(kinds)
        if end is None:
            end = self._last_time(wanted, default=start) + bucket
        buckets: Dict[int, float] = defaultdict(float)
        for time, size, code in zip(self._times, self._sizes, self._codes):
            if time < start or time >= end or (wanted is not None and code not in wanted):
                continue
            buckets[int((time - start) // bucket)] += size
        series: List[Tuple[float, float]] = []
        total_buckets = max(int((end - start) / bucket + 0.999), 1)
        denominator = bucket * max(node_count, 1)
        for index in range(total_buckets):
            series.append((start + index * bucket, buckets.get(index, 0.0) / denominator))
        return series

    def snapshot(self) -> Dict[str, Any]:
        """A freshly built, JSON-able summary of the collector.

        Callers (in particular service clients polling ``stats`` over the
        wire) can mutate it freely without corrupting the live log.
        """
        per_route = self._per_route()
        return {
            "messages_sent": len(self._codes),
            "total_bytes": self.total_bytes(),
            "total_messages": len(self._codes),
            "kind_totals": {
                kind: {"messages": messages, "bytes": size}
                for kind, (messages, size) in _kind_totals(per_route).items()
            },
            "bytes_by_sender": {
                str(node): size
                for node, size in sorted(
                    _bytes_by_sender(per_route, None).items(),
                    key=lambda item: str(item[0]),
                )
            },
            "last_activity_time": self.last_activity_time(),
        }

    def last_activity_time(self, kinds: Optional[Iterable[str]] = None) -> float:
        """Time of the last recorded message (used as fixpoint latency)."""
        return self._last_time(self._wanted_codes(kinds), default=0.0)

    def _last_time(self, wanted: Optional[Set[int]], default: float) -> float:
        if wanted is None:
            return max(self._times, default=default)
        return max(compress(self._times, map(wanted.__contains__, self._codes)), default=default)

    def __len__(self) -> int:
        return len(self._codes)


def _kind_totals(per_route: List[Tuple[_Route, int, int]]) -> Dict[str, Tuple[int, int]]:
    per_kind: Dict[str, Tuple[int, int]] = {}
    for (_, _, kind), messages, size in per_route:
        seen, sent = per_kind.get(kind, (0, 0))
        per_kind[kind] = (seen + messages, sent + size)
    return dict(sorted(per_kind.items()))


def _bytes_by_sender(
    per_route: List[Tuple[_Route, int, int]], kinds: Optional[Iterable[str]]
) -> Dict[Any, int]:
    wanted = None if kinds is None else set(kinds)
    per_node: Dict[Any, int] = {}
    for (source, _, kind), _, size in per_route:
        if wanted is None or kind in wanted:
            per_node[source] = per_node.get(source, 0) + size
    return per_node


class LatencyStats:
    """Collects completion latencies (e.g. of provenance queries).

    Empty-sample behaviour is defined: :meth:`mean` and
    :meth:`percentile` raise :class:`ValueError` (an empty collector has
    no mean — the old silent ``0.0`` let an accidentally empty workload
    masquerade as an instant one).  Latency curves come from
    :func:`cdf_points`, which returns ``[]`` for no samples.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []

    def extend(self, latencies: Iterable[float]) -> None:
        self._samples.extend(latencies)

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


#: Engine counters surfaced in benchmark reports, in display order.  The
#: planner/index counters let reports show *scan-count* reductions (how much
#: work indexed join plans saved) rather than just wall-clock times.
ENGINE_COUNTER_KEYS = (
    "deltas_processed",
    "deltas_sent",
    "deltas_received",
    "rule_firings",
    "plans_compiled",
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
