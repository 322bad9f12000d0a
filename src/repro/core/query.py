"""Distributed querying of reference-based provenance (Section 5).

The provenance of a tuple is reconstructed by recursively traversing the
distributed ``prov`` / ``ruleExec`` tables: the node storing the tuple looks
up its derivations in ``prov``, asks each rule's location for the rule
execution metadata (``ruleExec``), which in turn resolves the provenance of
the rule's input tuples, until base tuples are reached.  Results flow back
along the reverse path.

The paper expresses this traversal as ten NDlog rules (``edb1``, ``idb1`` –
``idb4``, ``rv1`` – ``rv4``) customized by three user-defined functions —
``f_pEDB``, ``f_pIDB`` and ``f_pRULE``.  This module implements the same
protocol as an explicit distributed service (one
:class:`ProvenanceQueryService` per node exchanging messages over the
simulated network), parameterized by a :class:`QuerySpec` holding the three
UDFs plus the traversal order, threshold and caching policy of Section 6.
Implementing the traversal natively rather than as NDlog rules keeps the
continuation bookkeeping explicit while preserving the message pattern (and
therefore the bandwidth / latency behaviour) of the paper's rules.

A vertex costs one index probe (``prov`` by VID, ``ruleExec`` by RID) whose
raw rows ``(loc, vid, rid, rloc)`` / ``(rloc, rid, rule, inputs)`` are read
in place.  A VID becomes a :class:`~repro.datalog.ast.Fact` only for a base
tuple (null RID; only ``f_edb`` reads it), so a node that visits only
derived tuples never builds the store's VID index.

Concurrency model
-----------------
The service is a *concurrent, pipelined* engine: any number of root queries
may be in flight at one node, and their traversals interleave freely on the
event loop.  Three mechanisms, always on (none is a setting), keep the
multi-querier workload cheap while staying **result-identical to serial
resolution**:

* **In-flight sub-query coalescing** — a traversal reaching a vertex whose
  resolution is already in flight for the same ``(spec, vertex, depth
  budget)`` attaches a *waiter* to the pending resolution instead of
  re-walking the distributed subgraph; every waiter receives the one
  computed result.  Root queries to a remote target coalesce the same way
  on the issuing node, so k concurrent queries for one remote vertex cost
  one ``provQuery`` / ``provResult`` pair.  Resolutions are deterministic
  functions of the local store, the spec and the depth budget (the random
  moonwalk draws from a per-``(spec, node, vertex)`` seeded generator),
  which is what makes a coalesced result bit-identical to a re-issued
  walk.
* **Deterministic aggregation** — a vertex's child results are combined in
  derivation order (and a rule's in input order) via index slots, never in
  message-arrival order, so annotations do not depend on how concurrent
  traversals interleave on the wire.
* **Per-destination batching** — all ``prov`` traffic generated while
  handling one message (or one locally issued query) is flushed through
  the host outbox at the end of the turn: payloads for the same
  destination share a single message envelope (see
  :mod:`repro.net.host`), cutting per-message header overhead for the
  fan-outs the traversal produces.

Depth budgets and the cache interact carefully: every completed resolution
reports the *height* of the subgraph it covered, truncated resolutions
(some descendant ran out of depth) report no height and are **never
cached**, and a cached entry is served only to requesters whose remaining
budget is at least the entry's height — i.e. only when their own traversal
would have produced the identical full value.  Cached values are therefore
independent of the depth budget they were computed under, which keeps
concurrent issuance bit-identical to serial issuance even for
depth-bounded specs.

Cache writes are also guarded against concurrent updates: when a vertex is
invalidated while its resolution is in flight, the resolution is marked
*dirty* — its (point-in-time) result is still delivered to waiters, but it
is not cached, and invalidations are propagated to the waiters' parent
entries so no cache retains a value derived from the pre-update subgraph.

Message kinds exchanged (all under the ``"prov"`` message kind, so query
traffic can be separated from protocol maintenance traffic in the traffic
statistics):

* ``provQuery`` / ``provResult`` — resolve a tuple vertex (rule ``idb2`` /
  ``idb4``);
* ``ruleQuery`` / ``ruleResult`` — resolve a rule execution vertex (rules
  ``rv1`` – ``rv4``);
* ``invalidate`` — cache invalidation flag (Section 6.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..datalog.ast import Fact
from ..net.host import Host
from ..net.message import Message, TRACE_CONTEXT_KEY
from .cache import (
    DEFAULT_CACHE_CAPACITY,
    CacheKey,
    Dependent,
    QueryResultCache,
)
from .errors import QueryError
from .rewrite import PROV_TABLE, RULE_EXEC_TABLE
from .provenance_store import ProvenanceStore, rule_inputs
from .vid import fact_vid

__all__ = [
    "TraversalOrder",
    "QuerySpec",
    "QueryOutcome",
    "ProvenanceQueryService",
    "PROV_MESSAGE_KIND",
]

PROV_MESSAGE_KIND = "prov"

#: Default bound on recursion depth, guarding against (disallowed) cyclic
#: provenance and runaway traversals.
DEFAULT_MAX_DEPTH = 64


class TraversalOrder(Enum):
    """Order in which alternative derivations of a tuple are explored."""

    BFS = "bfs"
    DFS = "dfs"
    DFS_THRESHOLD = "dfs-threshold"
    RANDOM_MOONWALK = "random-moonwalk"


@dataclass
class QuerySpec:
    """A provenance query customization.

    The three user-defined functions mirror Section 5.2:

    * ``f_edb(vid, fact, node)`` — annotation of a base tuple;
    * ``f_idb(results, vid, node)`` — combine the annotations of a tuple's
      alternative derivations (the ``+`` of the semiring);
    * ``f_rule(results, rule_label, node)`` — combine the annotations of a
      rule execution's inputs (the ``·`` of the semiring).
    """

    name: str
    f_edb: Callable[[str, Optional[Fact], Any], Any]
    f_idb: Callable[[Sequence[Any], str, Any], Any]
    f_rule: Callable[[Sequence[Any], str, Any], Any]
    missing: Callable[[], Any] = lambda: None
    traversal: TraversalOrder = TraversalOrder.BFS
    threshold_met: Optional[Callable[[Any], bool]] = None
    moonwalk_width: int = 1
    use_cache: bool = False
    max_depth: int = DEFAULT_MAX_DEPTH


@dataclass
class QueryOutcome:
    """The completed result of one root provenance query.

    ``partial`` is set when the query's deadline expired before the
    distributed traversal finished: ``result`` then holds the spec's
    ``missing()`` value and ``unresolved`` lists the issuer-local frontier
    — the ``(destination, query kind, vertex)`` triples of every remote
    sub-query still awaiting a reply when the deadline fired.
    """

    query_id: str
    vid: str
    result: Any
    issued_at: float
    completed_at: float
    issuer: Any
    target: Any
    partial: bool = False
    unresolved: Tuple[Tuple[str, ...], ...] = ()

    @property
    def latency(self) -> float:
        return self.completed_at - self.issued_at


#: Height of the resolved subgraph (vid/rule levels below the vertex), or
#: ``None`` when the resolution was truncated by the depth budget.
_Height = Optional[int]

#: A continuation receiving a resolved value plus its subgraph height.
_Continuation = Callable[[Any, _Height], None]

#: A waiter: the (node, parent cache key) that will consume the result —
#: ``None`` for root queries — plus the continuation to invoke with it.
_Waiter = Tuple[Optional[Dependent], _Continuation]


#: A propagated trace context (``(trace_id, parent_span_id)``); shipped on
#: protocol payloads under :data:`~repro.net.message.TRACE_CONTEXT_KEY` so a
#: distributed traversal renders as one causally-linked tree across hosts.
_Tc = Optional[Tuple[str, str]]


def _end_with(span: Any, continuation: _Continuation) -> _Continuation:
    """Wrap *continuation* to close *span* once the resolution completes."""

    def done(result: Any, height: _Height) -> None:
        span.end()
        continuation(result, height)

    return done


def _combine_heights(child_heights: Sequence[_Height]) -> _Height:
    """Height of a vertex above its children; ``None`` taints the parent."""
    tallest = 0
    for height in child_heights:
        if height is None:
            return None
        if height > tallest:
            tallest = height
    return tallest + 1


class _InFlight:
    """One pending vertex resolution that concurrent traversals share."""

    __slots__ = ("key", "depth", "waiters", "dirty")

    def __init__(self, key: CacheKey, depth: int, waiters: List[_Waiter]):
        self.key = key
        self.depth = depth
        self.waiters = waiters
        #: Set when the vertex is invalidated mid-resolution: the result is
        #: still delivered but never cached, and consumers are invalidated.
        self.dirty = False


class _SlotFanIn:
    """Collect indexed child results; fire once every slot is filled.

    Results land in child-index slots, not arrival order, so the combined
    annotation is independent of message interleaving; heights are folded
    alongside (any truncated child taints the aggregate).
    """

    __slots__ = ("slots", "heights", "remaining", "on_all")

    def __init__(self, count: int, on_all: Callable[[List[Any], _Height], None]):
        self.slots: List[Any] = [None] * count
        self.heights: List[_Height] = [None] * count
        self.remaining = count
        self.on_all = on_all

    def collector(self, index: int) -> _Continuation:
        def accept(result: Any, height: _Height) -> None:
            self.slots[index] = result
            self.heights[index] = height
            self.remaining -= 1
            if self.remaining == 0:
                self.on_all(self.slots, _combine_heights(self.heights))

        return accept


@dataclass(slots=True)
class _Sequential:
    """One DFS (or DFS-threshold) walk over a vertex's derivations.

    Continuations must not refer to themselves: a self-naming ``advance``
    closure is a reference cycle, which left every finished walk to the
    cycle collector.  Each child gets the bound method :meth:`on_child`
    instead; nothing points back at this object, so refcounting frees it.
    """

    service: "ProvenanceQueryService"
    vid: str
    parent_key: CacheKey
    spec: QuerySpec
    remaining: List[Any]
    results: List[Any]
    finish: Callable[[List[Any], _Height], None]
    depth: int
    tc: _Tc
    heights: List[_Height] = field(default_factory=list)

    def threshold_reached(self) -> bool:
        spec = self.spec
        if spec.traversal is not TraversalOrder.DFS_THRESHOLD:
            return False
        if spec.threshold_met is None or not self.results:
            return False
        partial = spec.f_idb(list(self.results), self.vid, self.service.node)
        return bool(spec.threshold_met(partial))

    def advance(self) -> None:
        if not self.remaining or self.threshold_reached():
            self.finish(self.results, _combine_heights(self.heights))
            return
        row = self.remaining.pop(0)
        self.service._ask_rule_vertex(
            row[2], row[3], self.spec, self.parent_key, self.on_child, self.depth, self.tc
        )

    def on_child(self, result: Any, height: _Height) -> None:
        self.results.append(result)
        self.heights.append(height)
        self.advance()


class ProvenanceQueryService:
    """The provenance query protocol endpoint running at one node."""

    def __init__(
        self,
        host: Host,
        store: ProvenanceStore,
        clock: Callable[[], float],
        tracer: Any = None,
    ):
        self.host = host
        self.store = store
        self.node = host.address
        self.clock = clock
        #: Optional :class:`repro.obs.tracer.Tracer`; every resolution then
        #: opens a span linked into its root query's trace, across hosts.
        self.tracer = tracer
        self.cache = QueryResultCache(
            self.node, DEFAULT_CACHE_CAPACITY, on_watch=self._watch_updates
        )
        #: Whether :meth:`on_tuple_update` is registered with the engine.
        self._watching_updates = False
        self._specs: Dict[str, QuerySpec] = {}
        # qid -> continuations awaiting the (single) remote result.
        self._continuations: Dict[str, List[_Continuation]] = {}
        # (cache key, depth budget) -> pending local resolution, plus a
        # (kind, identifier) index so invalidation taints matching
        # resolutions without scanning everything in flight.
        self._inflight: Dict[Tuple[CacheKey, int], _InFlight] = {}
        self._inflight_index: Dict[Tuple[str, str], Dict[Tuple[CacheKey, int], None]] = {}
        # (target node, spec, vid) -> qid of the pending remote root query.
        self._remote_roots: Dict[Tuple[Any, str, str], str] = {}
        self._qid_root: Dict[str, Tuple[Any, str, str]] = {}
        # qid -> (destination repr, query kind, vertex) of the pending
        # remote sub-query; the deadline machinery reports this frontier.
        self._continuation_dest: Dict[str, Tuple[str, str, str]] = {}
        self._sequence = 0
        self.queries_started = 0
        self.queries_completed = 0
        self.coalesced_inflight = 0
        self.coalesced_roots = 0
        self.stale_drops = 0
        self.deadline_expirations = 0
        self.late_drops = 0
        #: Optional hook invoked after each root query is issued with the
        #: current id sequence; the fault injector journals it so a
        #: restarted node resumes numbering past every pre-crash query id.
        self.on_root_issued: Optional[Callable[[int], None]] = None
        host.register_handler(PROV_MESSAGE_KIND, self._on_message)

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def register_spec(self, spec: QuerySpec) -> None:
        """Install a query customization (done on every node ahead of time)."""
        self._specs[spec.name] = spec

    def spec(self, name: str) -> QuerySpec:
        try:
            return self._specs[name]
        except KeyError:
            raise QueryError(
                f"node {self.node!r} has no registered query spec {name!r}"
            ) from None

    def spec_names(self) -> List[str]:
        """Names of every registered query spec (sorted; shell completion)."""
        return sorted(self._specs)

    # ------------------------------------------------------------------ #
    # public query API
    # ------------------------------------------------------------------ #
    def query(
        self,
        vid: str,
        target_node: Any,
        spec_name: str,
        on_complete: Callable[[QueryOutcome], None],
        deadline: Optional[float] = None,
    ) -> str:
        """Issue a root query for *vid* stored at *target_node*.

        ``on_complete`` is invoked (at this node) once the provenance result
        has been computed and shipped back.  Any number of root queries may
        be in flight at once.

        ``deadline`` is an optional simulated-time budget: when it elapses
        before the traversal completes, the query finishes *once* with a
        partial :class:`QueryOutcome` (``result`` is the spec's ``missing``
        value, ``unresolved`` names the pending remote frontier) and the
        eventual real result is counted in ``late_drops`` instead of being
        delivered twice.
        """
        spec = self.spec(spec_name)
        query_id = self._fresh_id()
        issued_at = self.clock()
        self.queries_started += 1
        tracer = self.tracer
        root_span = None
        tc: _Tc = None
        if tracer is not None:
            root_span = tracer.begin(
                "query.root",
                cat="query",
                host=self.node,
                trace=(tracer.new_trace(), None),
                vid=vid,
                spec=spec_name,
                target=target_node,
                qid=query_id,
            )
            tc = root_span.context()

        fired = {"done": False, "timer": None}

        def finish_once(
            result: Any,
            partial: bool,
            unresolved: Tuple[Tuple[str, ...], ...],
        ) -> None:
            if fired["done"]:
                self.late_drops += 1
                return
            fired["done"] = True
            timer = fired["timer"]
            if timer is not None:
                timer.cancel()
            self.queries_completed += 1
            if root_span is not None:
                if partial:
                    root_span.add(partial=True, unresolved=len(unresolved))
                root_span.end()
            on_complete(
                QueryOutcome(
                    query_id=query_id,
                    vid=vid,
                    result=result,
                    issued_at=issued_at,
                    completed_at=self.clock(),
                    issuer=self.node,
                    target=target_node,
                    partial=partial,
                    unresolved=unresolved,
                )
            )

        def finish(result: Any, height: _Height) -> None:
            finish_once(result, False, ())

        def expire() -> None:
            if fired["done"]:  # pragma: no cover - timer raced completion
                return
            self.deadline_expirations += 1
            frontier = tuple(sorted(self._continuation_dest.values()))
            finish_once(spec.missing(), True, frontier)

        if deadline is not None:
            fired["timer"] = self.host.network.simulator.schedule(deadline, expire)

        self.host.begin_turn()
        try:
            if target_node == self.node:
                self._resolve_vid(
                    vid, spec, finish, parent=None, depth=spec.max_depth, tc=tc
                )
            else:
                self._ask_remote_root(vid, target_node, spec, query_id, finish, tc=tc)
        finally:
            self.host.end_turn()
        if self.on_root_issued is not None:
            self.on_root_issued(self._sequence)
        return query_id

    def _ask_remote_root(
        self,
        vid: str,
        target_node: Any,
        spec: QuerySpec,
        query_id: str,
        finish: _Continuation,
        tc: _Tc = None,
    ) -> None:
        """Issue (or coalesce onto) a remote root query for *vid*.

        Coalescing (here and for in-flight sub-queries) relies on the
        simulated network's reliable, loss-free delivery: every query gets
        exactly one result, so a pending slot always drains.  A deployment
        with message loss or host failure would need a timeout that
        re-issues the walk and expires the slot.
        """
        root = (target_node, spec.name, vid)
        pending = self._remote_roots.get(root)
        if pending is not None:
            self._continuations[pending].append(finish)
            self.coalesced_roots += 1
            return
        self._remote_roots[root] = query_id
        self._qid_root[query_id] = root
        self._ask(
            target_node, query_id, "provQuery", "vid", vid, spec, None, spec.max_depth, tc, finish
        )

    def _ask(
        self,
        destination: Any,
        query_id: str,
        query_type: str,
        id_key: str,
        identifier: str,
        spec: QuerySpec,
        parent: Any,
        depth: int,
        tc: _Tc,
        on_result: _Continuation,
    ) -> None:
        """Send one ``provQuery`` / ``ruleQuery`` and await its single result."""
        self._continuations[query_id] = [on_result]
        self._continuation_dest[query_id] = (repr(destination), query_type, identifier)
        payload = {
            "type": query_type,
            "qid": query_id,
            id_key: identifier,
            "spec": spec.name,
            "ret": self.node,
            "parent": parent,
            "depth": depth,
        }
        if tc is not None:
            payload[TRACE_CONTEXT_KEY] = list(tc)
        self._send(destination, payload)

    def query_fact(
        self,
        fact: Fact,
        target_node: Any,
        spec_name: str,
        on_complete: Callable[[QueryOutcome], None],
    ) -> str:
        """Convenience wrapper computing the VID of *fact* first."""
        return self.query(fact_vid(fact), target_node, spec_name, on_complete)

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #
    def _send(self, destination: Any, payload: Dict[str, Any]) -> None:
        """Ship one protocol payload, batched per destination by the host."""
        self.host.enqueue(destination, PROV_MESSAGE_KIND, payload)

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        kind = payload.get("type")
        request = self._REQUESTS.get(kind)
        if request is not None:
            self._handle_query(payload, *request)
        elif kind in ("provResult", "ruleResult"):
            qid = payload["qid"]
            root = self._qid_root.pop(qid, None)
            if root is not None and self._remote_roots.get(root) == qid:
                del self._remote_roots[root]
            self._continuation_dest.pop(qid, None)
            continuations = self._continuations.pop(qid, None)
            for continuation in continuations or ():
                continuation(payload["result"], payload.get("h"))
        elif kind == "invalidate":
            self._invalidate_key(tuple(payload["key"]))
        else:  # pragma: no cover - defensive
            raise QueryError(f"unknown provenance message type {kind!r}")

    def _handle_query(
        self, payload: Dict[str, Any], reply_type: str, id_key: str, resolve: Callable[..., None]
    ) -> None:
        """Resolve a ``provQuery`` / ``ruleQuery`` here and ship the result back."""
        spec = self.spec(payload["spec"])

        def reply(result: Any, height: _Height) -> None:
            self._send(
                payload["ret"],
                {
                    "type": reply_type,
                    "qid": payload["qid"],
                    id_key: payload[id_key],
                    "result": result,
                    "h": height,
                },
            )

        parent = payload.get("parent")
        tc = payload.get(TRACE_CONTEXT_KEY)
        resolve(
            self,
            payload[id_key],
            spec,
            reply,
            parent=None if parent is None else (parent[0], tuple(parent[1])),
            depth=payload.get("depth", spec.max_depth),
            tc=None if tc is None else (tc[0], tc[1]),
        )

    # ------------------------------------------------------------------ #
    # in-flight resolution bookkeeping
    # ------------------------------------------------------------------ #
    def _drop_record(self, record: _InFlight) -> None:
        """Deregister a resolution (completed, or aborted without caching)."""
        slot = (record.key, record.depth)
        if self._inflight.get(slot) is record:
            del self._inflight[slot]
            vertex = (record.key[0], record.key[2])
            slots = self._inflight_index.get(vertex)
            if slots is not None:
                slots.pop(slot, None)
                if not slots:
                    del self._inflight_index[vertex]

    def _finish_resolution(
        self, record: _InFlight, spec: QuerySpec, result: Any, height: _Height
    ) -> None:
        """Complete a resolution: cache (when eligible), fan out to waiters.

        A result is cached only when the resolution is *clean* (no
        invalidation landed mid-flight) and *complete* (``height`` is not
        ``None``: no descendant was truncated by the depth budget, so the
        value is independent of the budget it was computed under).
        """
        self._drop_record(record)
        if spec.use_cache:
            parents = tuple(
                {parent: None for parent, _ in record.waiters if parent is not None}
            )
            if record.dirty:
                # The subgraph changed under this resolution: deliver the
                # point-in-time result but keep it (and anything computed
                # from it) out of every cache.
                self.stale_drops += 1
                self._notify_dependents(parents)
            elif height is not None:
                displaced = self.cache.put(
                    record.key, result, dependents=parents, height=height
                )
                if displaced:
                    self._notify_dependents(displaced)
        for _, on_done in record.waiters:
            on_done(result, height)

    # ------------------------------------------------------------------ #
    # vertex resolution: one prologue, one expansion step per vertex kind
    # ------------------------------------------------------------------ #
    def _open_vertex(
        self,
        tag: str,
        span_name: str,
        id_attr: str,
        identifier: str,
        spec: QuerySpec,
        on_done: _Continuation,
        parent: Optional[Dependent],
        depth: int,
        tc: _Tc,
    ) -> Optional[Tuple[_InFlight, _Tc]]:
        """The prologue every vertex resolution shares.

        Opens the span, serves a cached answer (recording *parent* as its
        dependent), cuts the walk at the depth budget and coalesces onto a
        pending resolution.  Returns ``None`` when one of those answered,
        else the freshly opened record and the trace context for children.
        The depth budget is part of the coalescing check: a traversal that
        reaches the vertex with a different remaining depth could explore a
        different frontier when the bound binds, so it resolves separately.
        """
        tracer = self.tracer
        if tracer is not None:
            span = tracer.begin(
                span_name,
                cat="query",
                host=self.node,
                trace=tc,
                **{id_attr: identifier, "depth": depth},
            )
            tc = span.context()
            on_done = _end_with(span, on_done)
        key: CacheKey = (tag, spec.name, identifier)
        if spec.use_cache:
            entry = self.cache.get(key, budget=depth)
            if entry is not None:
                if parent is not None:
                    self.cache.add_dependent(key, parent[0], parent[1])
                on_done(entry.result, entry.height)
                return None
        if depth <= 0:
            on_done(spec.missing(), None)
            return None
        slot = (key, depth)
        pending = self._inflight.get(slot)
        if pending is not None:
            pending.waiters.append((parent, on_done))
            self.coalesced_inflight += 1
            return None
        record = self._inflight[slot] = _InFlight(key, depth, [(parent, on_done)])
        vertex = (tag, identifier)  # cache.vertex_of(key), without the call
        slots = self._inflight_index.get(vertex)
        if slots is None:
            self._inflight_index[vertex] = {slot: None}
        else:
            slots[slot] = None
        if not self._watching_updates:
            self._watch_updates()
        return record, tc

    def _answer_unknown(self, record: _InFlight, spec: QuerySpec) -> None:
        """Answer a vertex with no local ``prov`` / ``ruleExec`` row.

        The missing answer is never cached (the row may appear later), but
        an ancestor embedding it may be: keep the reverse pointer, so that
        when the row does arrive, ``invalidate_vertex`` finds the dependent
        and drops the stale ancestor.  Only the opener waits on a record
        this young.
        """
        ((parent, on_done),) = record.waiters
        if spec.use_cache and parent is not None:
            self.cache.add_dependent(record.key, parent[0], parent[1])
        self._drop_record(record)
        on_done(spec.missing(), 1)

    def _resolve_vid(
        self,
        vid: str,
        spec: QuerySpec,
        on_done: _Continuation,
        parent: Optional[Dependent],
        depth: int,
        tc: _Tc = None,
    ) -> None:
        """Resolve a tuple vertex (rules ``edb1``, ``idb1`` – ``idb4``)."""
        opened = self._open_vertex(
            "v", "query.resolve", "vid", vid, spec, on_done, parent, depth, tc
        )
        if opened is None:
            return
        record, tc = opened
        rows = self.store.probe(PROV_TABLE, vid)
        if not rows:
            self._answer_unknown(record, spec)
            return

        # Rows are (loc, vid, rid, rloc); the live bucket is read through
        # here, before any continuation runs.
        is_base = False
        derivations = []
        for row in rows:
            if row[2] is None:
                is_base = True
            else:
                derivations.append(row)
        initial_results: List[Any] = []
        if is_base:
            initial_results.append(spec.f_edb(vid, self.store.fact_for_vid(vid), self.node))

        def finish(results: List[Any], height: _Height) -> None:
            self._finish_resolution(
                record, spec, spec.f_idb(list(results), vid, self.node), height
            )

        if not derivations:
            finish(initial_results, 1)
            return

        if spec.traversal is TraversalOrder.RANDOM_MOONWALK:
            width = max(1, min(spec.moonwalk_width, len(derivations)))
            derivations = self._moonwalk_rng(vid).sample(derivations, width)

        if spec.traversal in (TraversalOrder.BFS, TraversalOrder.RANDOM_MOONWALK):
            fan_in = _SlotFanIn(
                len(derivations),
                lambda slots, height: finish(initial_results + slots, height),
            )
            for index, row in enumerate(derivations):
                self._ask_rule_vertex(
                    row[2], row[3], spec, record.key, fan_in.collector(index), depth, tc
                )
        else:
            _Sequential(
                self, vid, record.key, spec, derivations, initial_results, finish, depth, tc
            ).advance()

    def _moonwalk_rng(self, vid: str) -> random.Random:
        """Derivation sampler for the random moonwalk.

        Seeded per ``(node, vertex)`` so that the sample drawn at a vertex
        does not depend on how many walks this service ran before — the
        property that makes moonwalk resolutions coalescable and makes
        concurrent issuance bit-identical to serial issuance.  (The ``0``
        in the seed string keeps the walks of earlier artifacts.)
        """
        return random.Random(f"moonwalk-0-{self.node}-{vid}")

    def _ask_rule_vertex(
        self,
        rid: str,
        rule_location: Any,
        spec: QuerySpec,
        parent_key: CacheKey,
        on_result: _Continuation,
        depth: int,
        tc: _Tc = None,
    ) -> None:
        """Resolve a rule-execution vertex, locally or via a remote query."""
        if rule_location == self.node:
            self._resolve_rid(
                rid,
                spec,
                on_result,
                parent=(self.node, parent_key),
                depth=depth - 1,
                tc=tc,
            )
            return
        self._ask(
            rule_location,
            self._fresh_id(),
            "ruleQuery",
            "rid",
            rid,
            spec,
            (self.node, list(parent_key)),
            depth - 1,
            tc,
            on_result,
        )

    def _resolve_rid(
        self,
        rid: str,
        spec: QuerySpec,
        on_done: _Continuation,
        parent: Optional[Dependent],
        depth: int,
        tc: _Tc = None,
    ) -> None:
        """Resolve a rule-execution vertex (rules ``rv1`` – ``rv4``)."""
        opened = self._open_vertex("r", "query.rule", "rid", rid, spec, on_done, parent, depth, tc)
        if opened is None:
            return
        record, tc = opened
        # Rows are (rloc, rid, rule, inputs); a RID names one execution.
        row = next(iter(self.store.probe(RULE_EXEC_TABLE, rid)), None)
        if row is None:
            self._answer_unknown(record, spec)
            return

        children = rule_inputs(row)

        def finish(results: List[Any], height: _Height) -> None:
            self._finish_resolution(
                record, spec, spec.f_rule(list(results), row[2], self.node), height
            )

        if not children:
            finish([], 1)
            return

        fan_in = _SlotFanIn(len(children), finish)
        for index, child_vid in enumerate(children):
            # The rule executed here, so its input tuples are stored here.
            self._resolve_vid(
                child_vid,
                spec,
                fan_in.collector(index),
                parent=(self.node, record.key),
                depth=depth - 1,
                tc=tc,
            )

    #: Request type -> (result type, id key, resolver): what the one query
    #: handler reads, resolves and answers for each vertex kind.
    _REQUESTS = {
        "provQuery": ("provResult", "vid", _resolve_vid),
        "ruleQuery": ("ruleResult", "rid", _resolve_rid),
    }

    # ------------------------------------------------------------------ #
    # cache invalidation (Section 6.1)
    # ------------------------------------------------------------------ #
    def _watch_updates(self) -> None:
        """Subscribe to the engine's tuple updates (idempotent).

        Called at the only two points where something an update could
        invalidate comes into being: a resolution going in flight and the
        cache starting to watch a vertex.  Until then the engine has no
        listener from this service and maintenance pays nothing for it.
        """
        if not self._watching_updates:
            self._watching_updates = True
            self.store.engine.add_update_listener(self.on_tuple_update)

    def on_tuple_update(self, action: str, fact: Fact) -> None:
        """Engine update listener: a local materialized tuple (dis)appeared.

        Ordinary tuples invalidate their own vertex.  Changes to the
        ``prov`` / ``ruleExec`` tables invalidate the vertex they *describe*
        instead: an update that adds (or retracts) an alternative derivation
        of a tuple leaves the tuple itself untouched, so without this the
        vertex's cached result would silently keep the old derivation set —
        the stale-dependent hole the invalidation protocol must not have.

        With nothing in flight and no vertex watched by the cache there is
        nothing to taint or drop: the service unsubscribes, and the next
        :meth:`_watch_updates` subscribes it again.
        """
        if not self._inflight_index and not self.cache.watches_vertices():
            self._watching_updates = False
            self.store.engine.remove_update_listener(self.on_tuple_update)
            return
        if fact.name == PROV_TABLE:
            kind, identifier = "v", fact.values[1]
        elif fact.name == RULE_EXEC_TABLE:
            kind, identifier = "r", fact.values[1]
        else:
            kind, identifier = "v", fact_vid(fact)
        self.host.begin_turn()
        try:
            self._mark_dirty(kind, identifier)
            self._notify_dependents(self.cache.invalidate_vertex(kind, identifier))
        finally:
            self.host.end_turn()

    def _invalidate_key(self, key: CacheKey) -> None:
        self._mark_dirty(key[0], key[2], only_key=key)
        self._notify_dependents(self.cache.invalidate(key))

    def _mark_dirty(
        self, kind: str, identifier: str, only_key: Optional[CacheKey] = None
    ) -> None:
        """Taint pending resolutions whose vertex was just invalidated."""
        slots = self._inflight_index.get((kind, identifier))
        if not slots:
            return
        for slot in slots:
            if only_key is None or slot[0] == only_key:
                self._inflight[slot].dirty = True

    def _notify_dependents(self, dependents: Sequence[Dependent]) -> None:
        for node, parent_key in dependents:
            if node == self.node:
                self._invalidate_key(parent_key)
            else:
                self._send(node, {"type": "invalidate", "key": list(parent_key)})

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def query_stats(self) -> Dict[str, int]:
        """Counters for this node's query engine (see ``QUERY_COUNTER_KEYS``)."""
        cache = self.cache.stats()
        return {
            "queries_started": self.queries_started,
            "queries_completed": self.queries_completed,
            "coalesced_inflight": self.coalesced_inflight,
            "coalesced_roots": self.coalesced_roots,
            "stale_drops": self.stale_drops,
            "deadline_expirations": self.deadline_expirations,
            "late_drops": self.late_drops,
            "cache_entries": cache["entries"],
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "cache_evictions": cache["evictions"],
            "cache_invalidations": cache["invalidations"],
            "batches_sent": self.host.batches_sent,
            "messages_batched": self.host.messages_batched,
        }

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _fresh_id(self) -> str:
        self._sequence += 1
        return f"{self.node}#{self._sequence}"
