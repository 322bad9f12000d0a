"""Cost model for join ordering.

The model estimates how many rows a lookup against one body atom will yield
given the set of variables already bound.  It is deliberately simple — the
same shape classical Datalog evaluators use:

* the base cardinality is the *live* row count of the relation's local
  fragment (taken from the owning :class:`~repro.storage.memory.Catalog`),
  so plans compiled after tables have filled up see real sizes;
* every bound argument position multiplies the estimate by a fixed
  selectivity factor (equality predicates on hash-indexed positions);
* a lookup whose bound positions cover the relation's declared primary key
  yields at most one row;
* a lookup with no bound positions is a full scan of the fragment.

Estimates only steer ordering — a wrong estimate can never change results,
only performance — so a coarse model with deterministic tie-breaking is
preferable to a clever one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

from ...storage.memory import Catalog
from .normalize import AtomSignature

__all__ = ["CostEstimate", "CatalogStatistics", "CostModel", "DEFAULT_SELECTIVITY"]

#: Fraction of a relation assumed to survive one equality constraint.
DEFAULT_SELECTIVITY = 0.1


@dataclass(frozen=True)
class CostEstimate:
    """Estimated outcome of scanning one atom under a set of bound variables."""

    #: expected number of rows the lookup yields.
    rows: float
    #: argument positions that will be constrained at lookup time.
    bound_positions: Tuple[int, ...]
    #: True when no position is constrained (full fragment scan).
    full_scan: bool
    #: True when the constrained positions cover the declared primary key.
    key_covered: bool


class CatalogStatistics:
    """Live relation statistics backed by a node's catalog."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog

    def cardinality(self, name: str) -> int:
        """Current row count of the local fragment of *name* (0 if absent)."""
        table = self._catalog.get(name)
        return len(table) if table is not None else 0

    def key_positions(self, name: str) -> Tuple[int, ...]:
        """Declared primary-key positions of *name* (empty when keyless)."""
        table = self._catalog.get(name)
        return table.key_positions if table is not None else ()

    def snapshot(self, names: Iterable[str]) -> dict:
        """Cardinalities of the given relations, for plan staleness checks."""
        return {name: self.cardinality(name) for name in sorted(set(names))}


class CostModel:
    """Estimates lookup costs from live catalog statistics."""

    def __init__(
        self,
        statistics: CatalogStatistics,
        selectivity: float = DEFAULT_SELECTIVITY,
    ):
        if not 0.0 < selectivity <= 1.0:
            raise ValueError(f"selectivity must be in (0, 1], got {selectivity}")
        self.statistics = statistics
        self.selectivity = selectivity

    def bound_positions(
        self, signature: AtomSignature, bound_vars: FrozenSet[str]
    ) -> Tuple[int, ...]:
        """Argument positions constrainable when *bound_vars* are known.

        Constants are always constrainable, variable positions when the
        variable is bound.
        """
        positions = set(signature.const_positions)
        for name, var_positions in signature.var_positions.items():
            if name in bound_vars:
                positions.update(var_positions)
        return tuple(sorted(positions))

    def estimate(
        self,
        signature: AtomSignature,
        bound_vars: FrozenSet[str],
        cardinality: Optional[int] = None,
    ) -> CostEstimate:
        """Estimate the rows yielded by scanning *signature* under *bound_vars*."""
        positions = self.bound_positions(signature, bound_vars)
        rows = (
            cardinality
            if cardinality is not None
            else self.statistics.cardinality(signature.name)
        )
        keys = self.statistics.key_positions(signature.name)
        key_covered = bool(keys) and set(keys) <= set(positions)
        if not positions:
            return CostEstimate(
                rows=float(rows), bound_positions=(), full_scan=True, key_covered=False
            )
        if key_covered:
            estimated = min(float(rows), 1.0)
        else:
            estimated = float(rows) * (self.selectivity ** len(positions))
            if rows > 0:
                estimated = max(estimated, 1.0)
        return CostEstimate(
            rows=estimated,
            bound_positions=positions,
            full_scan=False,
            key_covered=key_covered,
        )
