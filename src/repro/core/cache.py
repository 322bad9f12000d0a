"""Distributed query-result caching with invalidation (Section 6.1).

Whenever a provenance sub-query completes at a node, the node caches the
result keyed by the vertex it resolved (a tuple VID or a rule-execution
RID) and the query customization it was computed under.  Later queries that
reach the same node and need the same subgraph return the cached result
without further traversal — the paper's "cache(@N, VID, Results)" table.

Cache entries are invalidated when the underlying tuples change: every entry
records which *parent* entries (possibly on other nodes) consumed it, and an
invalidation walks those reverse pointers, sending a small invalidation flag
between nodes rather than re-shipping provenance (Section 6.1, "Cache
invalidation").

The cache is **bounded**: entries live in LRU order and inserting past
``capacity`` evicts the least recently used entry.  Eviction is handled as
a (conservative) invalidation of the evicted entry's dependents — their
cached results are still correct, but once the reverse pointer is dropped
there would be no way to reach them when the underlying tuple *does*
change, so they are recomputed on their next miss instead of risking
staleness.  This is what lets eviction garbage-collect the per-key
dependent bookkeeping outright, keeping memory proportional to the bound.

Two further structural properties:

* a per-vertex key index maps ``(kind, identifier)`` to every cache key
  (across query specs) touching that vertex, so
  :meth:`QueryResultCache.invalidate_vertex` is proportional to the keys it
  actually drops instead of a scan over all entries;
* dependents are kept in insertion order and returned as ordered tuples,
  so the invalidation fan-out (and therefore message ordering) is
  deterministic under any ``PYTHONHASHSEED``.

Generational dependents
-----------------------
``put`` *replaces* the key's dependent set with the consumers of the new
result generation (the ``dependents`` argument).  Re-caching a result after
an invalidation therefore never inherits reverse pointers from the previous
generation — stale dependents used to leak across generations and trigger
spurious cross-node invalidations.  A ``put`` that overwrites a *live*
entry merges instead: with coalescing disabled two resolutions of the same
key can race, and both sets of parents consumed an identical value.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

__all__ = [
    "CacheKey",
    "CacheEntry",
    "Dependent",
    "QueryResultCache",
    "DEFAULT_CACHE_CAPACITY",
    "vertex_of",
]

#: A cache key: ("v" | "r", spec name, VID or RID).
CacheKey = Tuple[str, str, str]

#: A reverse pointer: (node holding the parent entry, the parent's key).
Dependent = Tuple[Any, CacheKey]

#: Default per-node entry bound.  Large enough that the paper's query
#: workloads (Figures 11-15) never evict — the bound is a memory-safety
#: backstop for long-running serving deployments, not a working-set knob.
DEFAULT_CACHE_CAPACITY = 4096


def vertex_of(key: CacheKey) -> Tuple[str, str]:
    """The ``(kind, identifier)`` vertex a cache key refers to.

    Keys the cache's per-vertex entry index; the query service's in-flight
    index spells the same ``(key[0], key[2])`` inline on its hot path.
    """
    return (key[0], key[2])


@dataclass(slots=True)
class CacheEntry:
    """A cached sub-query result plus bookkeeping for invalidation.

    ``height`` is the height of the provenance subgraph the result covers
    (levels of vid/rule vertices below this one).  Only *complete*
    resolutions are cached, and a lookup serves the entry only when the
    requester's remaining depth budget is at least ``height`` — i.e. when
    the requester's own traversal would have explored the same (full)
    subgraph.  That makes every cached value independent of the depth
    budget it happened to be computed under, which is what keeps
    concurrent resolution bit-identical to serial resolution even for
    depth-bounded query specs.
    """

    key: CacheKey
    result: Any
    cached_at: float
    height: int = 0
    hits: int = 0


class QueryResultCache:
    """Per-node bounded LRU cache of provenance query results."""

    def __init__(
        self,
        node: Any,
        capacity: int = DEFAULT_CACHE_CAPACITY,
        on_watch: Optional[Callable[[], None]] = None,
    ):
        """``on_watch`` is called whenever the cache goes from watching no
        vertex to watching one — the moment tuple updates start to matter
        (see :meth:`watches_vertices`)."""
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.node = node
        self.capacity = capacity
        self.on_watch = on_watch
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        # key -> ordered set (dict keyed by dependent, value unused) of the
        # (parent node, parent key) pairs that consumed this result.
        self._dependents: Dict[CacheKey, Dict[Dependent, None]] = {}
        # (kind, identifier) -> ordered set of keys present in _entries
        # and/or _dependents; replaces invalidate_vertex's O(entries) scan.
        self._by_vertex: Dict[Tuple[str, str], Dict[CacheKey, None]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        # Hits recorded against entries that have since left the cache
        # (evicted, invalidated, overwritten or cleared); keeps the global
        # hit counter reconcilable with the live entries' per-entry hits.
        self.retired_hits = 0

    # ------------------------------------------------------------------ #
    # vertex index maintenance
    # ------------------------------------------------------------------ #
    def _index_add(self, key: CacheKey) -> None:
        if not self._by_vertex and self.on_watch is not None:
            self.on_watch()
        self._by_vertex.setdefault(vertex_of(key), {})[key] = None

    def watches_vertices(self) -> bool:
        """True while some vertex's update could invalidate something here.

        The vertex index covers cached entries *and* keys that only carry
        reverse pointers, so when it is empty no tuple update can drop an
        entry or reach a dependent.
        """
        return bool(self._by_vertex)

    def _index_discard(self, key: CacheKey) -> None:
        """Drop *key* from the vertex index once nothing references it."""
        if key in self._entries or key in self._dependents:
            return
        vertex = vertex_of(key)
        keys = self._by_vertex.get(vertex)
        if keys is not None:
            keys.pop(key, None)
            if not keys:
                del self._by_vertex[vertex]

    # ------------------------------------------------------------------ #
    # storage / lookup
    # ------------------------------------------------------------------ #
    def put(
        self,
        key: CacheKey,
        result: Any,
        now: float,
        dependents: Iterable[Dependent] = (),
        height: int = 0,
    ) -> Tuple[Dependent, ...]:
        """Cache *result* under *key*; returns dependents displaced by eviction.

        *dependents* are the consumers of this result generation.  They
        replace any dependents left over from a previous generation of the
        key — unless a live entry is being overwritten, in which case the
        old value is identical (same vertex, same spec, same underlying
        tuples) and the sets merge.

        The caller must forward the returned dependents through the usual
        invalidation fan-out: they belonged to entries evicted to make room
        and their reverse pointers have been garbage-collected.
        """
        existing = self._entries.pop(key, None)
        if existing is not None:
            self.retired_hits += existing.hits
        else:
            # Fresh generation: reverse pointers recorded against any prior
            # (invalidated / evicted) generation must not leak into it.
            self._dependents.pop(key, None)
        fresh = {dependent: None for dependent in dependents}
        if fresh:
            self._dependents.setdefault(key, {}).update(fresh)
        self._entries[key] = CacheEntry(
            key=key, result=result, cached_at=now, height=height
        )
        self._index_add(key)
        displaced: Dict[Dependent, None] = {}
        while len(self._entries) > self.capacity:
            victim_key, victim = self._entries.popitem(last=False)
            self.evictions += 1
            self.retired_hits += victim.hits
            displaced.update(self._dependents.pop(victim_key, {}))
            self._index_discard(victim_key)
        return tuple(displaced)

    def get(self, key: CacheKey, budget: Optional[int] = None) -> Optional[CacheEntry]:
        """Look up *key*; with *budget*, serve only depth-compatible entries.

        An entry whose ``height`` exceeds the requester's remaining depth
        budget counts as a miss: the requester's own traversal would have
        truncated, so serving the (complete) cached value would make the
        answer depend on who populated the cache first.
        """
        entry = self._entries.get(key)
        if entry is None or (budget is not None and budget < entry.height):
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self.hits += 1
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # dependency tracking
    # ------------------------------------------------------------------ #
    def add_dependent(self, key: CacheKey, parent_node: Any, parent_key: CacheKey) -> None:
        """Record that *parent_key* at *parent_node* was computed from *key*."""
        self._dependents.setdefault(key, {})[(parent_node, parent_key)] = None
        self._index_add(key)

    # ------------------------------------------------------------------ #
    # invalidation
    # ------------------------------------------------------------------ #
    def invalidate(self, key: CacheKey) -> Tuple[Dependent, ...]:
        """Drop *key* locally and return the dependents that must be notified.

        The caller (the query service) forwards an invalidation message to
        each remote dependent and recurses locally for local dependents.
        """
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.retired_hits += entry.hits
            self.invalidations += 1
        dependents = tuple(self._dependents.pop(key, ()))
        self._index_discard(key)
        return dependents

    def invalidate_vertex(self, kind: str, identifier: str) -> Tuple[Dependent, ...]:
        """Invalidate every cached result for the vertex across all specs."""
        keys = self._by_vertex.get((kind, identifier))
        if not keys:
            return ()
        to_notify: Dict[Dependent, None] = {}
        for key in list(keys):
            to_notify.update((dependent, None) for dependent in self.invalidate(key))
        return tuple(to_notify)

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def live_hits(self) -> int:
        """Hits recorded against entries still resident in the cache."""
        return sum(entry.hits for entry in self._entries.values())

    def stats(self) -> Dict[str, int]:
        """Counters; ``hits == live_hits + retired_hits`` always holds."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "live_hits": self.live_hits(),
            "retired_hits": self.retired_hits,
        }
