"""A labelled metrics registry and the generic keyed counter merge.

The repository grew three hand-rolled counter-merge loops
(:func:`repro.net.stats.aggregate_engine_stats`,
:func:`~repro.net.stats.aggregate_query_stats`,
:func:`~repro.net.stats.merge_counter_dicts`); they are now thin wrappers
over :func:`merged_counters`, which reproduces each one's key ordering
exactly (schema keys first in declaration order, extras in insertion
order, or fully sorted) so merged dicts stay byte-identical to the
pre-refactor output.

:class:`MetricsRegistry` holds labelled counters and gauges behind one
canonical :meth:`~MetricsRegistry.snapshot`; it is what
:meth:`repro.core.api.ExspanNetwork.metrics_snapshot` fills.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple, Union

__all__ = ["merged_counters", "MetricsRegistry"]

Number = Union[int, float]
#: Canonical label identity: sorted ``(key, value)`` items.
LabelItems = Tuple[Tuple[str, str], ...]


def merged_counters(
    maps: Iterable[Mapping[str, Any]],
    schema: Sequence[str] = (),
    sort: bool = False,
) -> Dict[str, Any]:
    """Sum same-keyed numeric dicts into one.

    ``schema`` keys are pre-seeded to zero (and therefore lead the output
    in declaration order, giving reports a stable layout); other keys
    follow in first-appearance order, or fully sorted with ``sort=True``
    (the ``PYTHONHASHSEED``-independent form cross-shard merges need).
    """
    totals: Dict[str, Any] = {key: 0 for key in schema}
    for counters in maps:
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    if sort:
        return dict(sorted(totals.items()))
    return totals


def _labels_key(labels: Mapping[str, Any]) -> LabelItems:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _render_key(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Counters and gauges with labels.

    All views are canonical: series are keyed ``name{label=value,...}``
    with sorted label items, and snapshots sort every key — so a snapshot
    is deterministic under any insertion order and any hash seed.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], Number] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Number] = {}

    # ------------------------------------------------------------------ #
    # instruments
    # ------------------------------------------------------------------ #
    def inc(self, name: str, value: Number = 1, **labels: Any) -> None:
        """Add *value* to the counter series ``name{labels}``."""
        key = (name, _labels_key(labels))
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: Number, **labels: Any) -> None:
        """Set the gauge series ``name{labels}`` to *value*."""
        self._gauges[(name, _labels_key(labels))] = value

    def absorb_counters(
        self, counters: Mapping[str, Number], prefix: str = "", **labels: Any
    ) -> None:
        """Fold a plain counter dict (one of the legacy stats maps) in."""
        for key, value in counters.items():
            self.inc(f"{prefix}{key}", value, **labels)

    # ------------------------------------------------------------------ #
    # snapshot
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Canonical JSON-able view of every series."""
        counters = {
            _render_key(name, labels): value
            for (name, labels), value in self._counters.items()
        }
        gauges = {
            _render_key(name, labels): value
            for (name, labels), value in self._gauges.items()
        }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
        }
