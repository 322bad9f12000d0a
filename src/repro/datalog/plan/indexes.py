"""Planner-selected secondary indexes.

Tables store rows hashed by the full tuple; equality lookups on a subset of
argument positions need a secondary hash index over exactly those
positions.  The :class:`IndexManager` is the planner's bookkeeper for these
indexes: when a compiled plan decides a step will constrain positions
``(0, 2)`` of relation ``path``, the manager materializes that index up
front (so the first delta does not pay a lazy build during evaluation) and
records it, and the table keeps it consistent incrementally on every
insert and delete.

The manager also owns the counter benchmarks read: how many indexes were
registered, which — together with the engine's ``tuples_scanned`` /
``index_lookups`` counters — lets reports show scan-count reductions
rather than just wall-clock.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, MutableMapping, Optional, Set, Tuple

from ...storage.memory import Catalog

__all__ = ["IndexManager"]


class IndexManager:
    """Creates and tracks the secondary indexes chosen by the planner."""

    def __init__(
        self,
        catalog: Catalog,
        counters: Optional[MutableMapping[str, int]] = None,
    ):
        self.catalog = catalog
        self.counters: MutableMapping[str, int] = (
            counters if counters is not None else defaultdict(int)
        )
        self._registered: Dict[str, Set[Tuple[int, ...]]] = {}

    def require(self, name: str, positions: Iterable[int]) -> Tuple[int, ...]:
        """Ensure a hash index on *positions* of relation *name* exists.

        Returns the canonical (sorted) position tuple, or ``()`` when no
        position is given (a full scan needs no index).  Safe to call
        repeatedly; the index is built once and maintained incrementally by
        the table afterwards.
        """
        canonical = tuple(sorted(set(positions)))
        if not canonical:
            return ()
        registered = self._registered.setdefault(name, set())
        if canonical not in registered:
            self.catalog.table(name).ensure_index(canonical)
            registered.add(canonical)
            self.counters["indexes_registered"] += 1
        return canonical

    def registered(self) -> Dict[str, List[Tuple[int, ...]]]:
        """Relation name -> sorted list of registered index position sets."""
        return {
            name: sorted(positions) for name, positions in self._registered.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        count = sum(len(v) for v in self._registered.values())
        return f"IndexManager(indexes={count})"
