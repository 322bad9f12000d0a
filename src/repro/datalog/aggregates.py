"""Incremental aggregate maintenance for NDlog aggregate rules.

An aggregate rule such as ``sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).``
groups its input relation on the non-aggregate head attributes (here
``S, D``) and maintains one output tuple per group whose aggregate position
holds ``min(C)`` over the group's members.

The paper restricts the provenance rewrite to MIN and MAX (Section 4.2.2);
the runtime nonetheless supports COUNT, SUM and AGGLIST because the
provenance *query* programs in Section 5 rely on ``COUNT<*>`` and
``AGGLIST<RID, RLoc>``.

Each :class:`AggregateState` instance tracks one group and supports
incremental insertion and deletion of contributing values, reporting the new
aggregate value after every change so the engine can emit the corresponding
delete+insert pair for the derived tuple.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional

from .errors import EvaluationError

__all__ = ["AggregateState", "SUPPORTED_AGGREGATES"]

SUPPORTED_AGGREGATES = ("min", "max", "count", "sum", "agglist")


class AggregateState:
    """Incrementally maintained aggregate over a multiset of values."""

    __slots__ = ("func", "_values", "_count", "_sum", "_best")

    def __init__(self, func: str):
        if func not in SUPPORTED_AGGREGATES:
            raise EvaluationError(f"unsupported aggregate function {func!r}")
        self.func = func
        #: value -> multiplicity, in first-seen order
        self._values: Dict[Hashable, int] = {}
        self._count = 0
        self._sum: Any = 0
        # Cached MIN/MAX winner.  ``None`` means "recompute lazily": without
        # it every current() pays an O(group) scan, which turns the hot
        # best-path maintenance into quadratic work as groups grow.
        self._best: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, value: Any) -> None:
        """Record one occurrence of *value* in the group."""
        key = tuple(value) if isinstance(value, list) else value
        values = self._values
        values[key] = values.get(key, 0) + 1
        self._count += 1
        func = self.func
        if func == "sum":
            self._sum += value
        elif func == "min":
            best = self._best
            if best is not None and key < best:
                self._best = key
        elif func == "max":
            best = self._best
            if best is not None and key > best:
                self._best = key

    def delete(self, value: Any) -> None:
        """Remove one occurrence of *value*; ignores values never inserted."""
        key = tuple(value) if isinstance(value, list) else value
        values = self._values
        count = values.get(key)
        if count is None:
            return
        if count > 1:
            values[key] = count - 1
        else:
            del values[key]
            if key == self._best:
                self._best = None  # winner left: recompute on next current()
        self._count -= 1
        if self.func == "sum":
            self._sum -= value

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def current(self) -> Any:
        """Return the aggregate's current value.

        Raises :class:`EvaluationError` when the group is empty and the
        aggregate has no natural identity (MIN / MAX / AGGLIST); the engine
        deletes the derived tuple instead of calling this.
        """
        func = self.func
        if func == "min" or func == "max":
            best = self._best
            if best is None:
                if not self._count:
                    raise EvaluationError(f"aggregate {func} over an empty group")
                best = self._best = (min if func == "min" else max)(self._values)
            return best
        if func == "count":
            return self._count
        if func == "sum":
            return self._sum
        if not self._count:
            raise EvaluationError(f"aggregate {func} over an empty group")
        if func == "agglist":
            items: List[Any] = []
            for value, multiplicity in self._values.items():
                entry = list(value) if isinstance(value, tuple) else value
                items.extend([entry] * multiplicity)
            return items
        raise EvaluationError(f"unsupported aggregate function {self.func!r}")

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AggregateState({self.func}, n={self._count})"
