"""Per-node NDlog evaluation engine (batched pipelined semi-naive evaluation).

Each network node runs one :class:`NDlogEngine`.  The engine owns the node's
:class:`~repro.storage.memory.Catalog` of materialized tables, a FIFO queue
of pending :class:`Delta` updates, and a compiled form of the NDlog program.

Evaluation follows the pipelined semi-naive (PSN) strategy described in the
declarative networking literature and summarized in Section 4.2 of the
ExSPAN paper:

* every insertion or deletion of a tuple is a *delta*;
* deltas are processed in FIFO order;
* for a rule ``d :- d1, ..., dn`` and a delta on ``dk``, the engine joins the
  delta tuple against the materialized fragments of the other body
  predicates, evaluates assignments and conditions, and produces head deltas;
* head deltas whose location specifier equals the local address are enqueued
  locally, everything else is handed to the ``send`` callback (wired to the
  network substrate by :mod:`repro.net.host`);
* duplicate derivations are tracked with per-tuple derivation counts so a
  tuple is only propagated when it first appears and only deleted when its
  last derivation disappears (cascaded deletions).

There is one way to run a rule.  Every (rule, trigger position) pair is
compiled by the greedy planner (:mod:`repro.datalog.plan`) into a plan
with generated or closure-compiled executors, and :meth:`NDlogEngine.run`
drains the queue in maximal runs of consecutive deltas sharing one
(predicate, action) pair.  Batching amortizes the per-delta dispatch
(event check, table resolution, rule-list lookup, counter updates) without
reordering anything: deltas inside a batch are still applied and fired
strictly in FIFO order, and derived deltas always join the back of the
queue.  The term-tree interpreter and the nested-loop join this executor
must equal live in the test suite (``tests/oracle/``).

A *sink* table — a materialised predicate no rule reads, such as ``prov``
and ``ruleExec`` under reference provenance — is not queued at all: a
locally derived sink row is applied where it is emitted (see
:meth:`NDlogEngine._refresh_sinks`), which keeps every table's row order
because a sink has no firings.

The engine exposes two extension points used by the ExSPAN provenance layer:

* an :class:`AnnotationPolicy` for *value-based* provenance, which attaches
  an annotation to every tuple and combines annotations through joins and
  unions (the annotation travels with remote deltas and its serialized size
  is charged to the message);
* *rule listeners*, callbacks invoked on every successful rule firing, used
  for centralized provenance collection and for debugging.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .aggregates import AggregateState
from .ast import (
    Assignment,
    Atom,
    Condition,
    Fact,
    Program,
    Rule,
    is_event_predicate,
)
from ..storage.memory import Catalog, Table, freeze_value
from .errors import EvaluationError, ValidationError
from .functions import FunctionRegistry, default_registry
from .plan import (
    CatalogStatistics,
    CompiledDeltaPlan,
    IndexManager,
    PlanCompiler,
    compile_term,
    explain_plans,
)
from .plan.compiler import STALENESS_CHECK_PERIOD
from .terms import AggregateSpec, Constant, Variable

__all__ = [
    "Delta",
    "RuleFiring",
    "AnnotationPolicy",
    "NDlogEngine",
    "INSERT",
    "DELETE",
    "REFRESH",
]


INSERT = "insert"
DELETE = "delete"
#: A provenance-annotation update for an already-present tuple.  Only used
#: in value-based provenance mode: when a tuple gains a new alternative
#: derivation, its merged annotation must be re-propagated to every tuple
#: derived from it (the "propagation of provenance updates" the paper cites
#: as a cost of value-based distribution).
REFRESH = "refresh"


@dataclass(slots=True)
class Delta:
    """A single insertion, deletion or annotation refresh of a fact."""

    action: str
    fact: Fact
    annotation: Any = None

    def __post_init__(self) -> None:
        if self.action not in (INSERT, DELETE, REFRESH):
            raise ValueError(f"invalid delta action {self.action!r}")

    @property
    def is_insert(self) -> bool:
        return self.action == INSERT

    @property
    def is_refresh(self) -> bool:
        return self.action == REFRESH

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        sign = {"insert": "+", "delete": "-", "refresh": "~"}[self.action]
        return f"{sign}{self.fact}"


@dataclass(frozen=True, slots=True)
class RuleFiring:
    """Details of one successful rule execution, passed to rule listeners."""

    rule: Rule
    action: str
    head_fact: Fact
    body_facts: Tuple[Fact, ...]
    binding: Mapping[str, Any]
    node: Any


class AnnotationPolicy:
    """Strategy object for value-based provenance annotations.

    Subclasses define how annotations are created for base tuples, combined
    across a rule's body (join / ``·``), merged across alternative
    derivations (union / ``+``), and how many bytes an annotation contributes
    to a network message.

    ``propagate_updates`` controls whether a change to an existing tuple's
    annotation (a new alternative derivation arriving) is re-propagated to
    the tuples derived from it via REFRESH deltas.  Full propagation models
    the paper's "propagation of provenance updates" cost of value-based
    provenance, but its cascades can be expensive on dense provenance graphs
    (that is the paper's point); it is therefore opt-in.
    """

    propagate_updates: bool = False

    def base(self, fact: Fact) -> Any:
        """Annotation of an externally-inserted base tuple."""
        raise NotImplementedError

    def combine(self, rule: Rule, body_annotations: Sequence[Any], node: Any) -> Any:
        """Annotation of a tuple derived by *rule* from the given inputs."""
        raise NotImplementedError

    def merge(self, existing: Any, new: Any) -> Any:
        """Merge annotations of two alternative derivations of the same tuple."""
        raise NotImplementedError

    def size(self, annotation: Any) -> int:
        """Serialized size in bytes charged to messages carrying *annotation*."""
        raise NotImplementedError


@dataclass
class _CompiledAggregateRule:
    """Runtime state of an aggregate rule: group -> aggregate + emitted row."""

    rule: Rule
    aggregate_index: int
    spec: AggregateSpec
    groups: Dict[Tuple[Any, ...], AggregateState] = field(default_factory=dict)
    emitted: Dict[Tuple[Any, ...], Tuple[Any, ...]] = field(default_factory=dict)
    #: closure-compiled evaluators of the non-aggregate head arguments, in
    #: head order (equivalent to Term.evaluate).
    group_fns: Tuple[Any, ...] = ()


class _Firing:
    """One (rule, trigger position) registration with its resolved plan.

    The run loop iterates these instead of re-looking plans up in the
    ``(id(rule), position)`` dict on every delta; ``plan`` is swapped in
    place on staleness recompiles.
    """

    __slots__ = ("rule", "position", "plan")

    def __init__(self, rule: Rule, position: int, plan: CompiledDeltaPlan):
        self.rule = rule
        self.position = position
        self.plan = plan


class NDlogEngine:
    """The NDlog runtime for a single node."""

    def __init__(
        self,
        address: Any,
        program: Optional[Program] = None,
        functions: Optional[FunctionRegistry] = None,
        send: Optional[Callable[[Any, Delta], None]] = None,
        annotation_policy: Optional[AnnotationPolicy] = None,
    ):
        self.address = address
        self.functions = functions if functions is not None else default_registry()
        self.catalog = Catalog()
        self._send = send
        self.annotation_policy = annotation_policy
        self._queue: deque[Delta] = deque()
        self._firings_by_predicate: Dict[str, List[_Firing]] = defaultdict(list)
        #: name -> (is event, table or None, firings): everything run()
        #: needs to know about a predicate, resolved on first sight
        #: (:meth:`_resolve`) and dropped whenever the rule set changes.
        self._dispatch: Dict[str, Tuple[bool, Optional[Table], Sequence[_Firing]]] = {}
        self._aggregate_rules: Dict[str, _CompiledAggregateRule] = {}
        self._rule_listeners: List[Callable[[RuleFiring], None]] = []
        self._update_listeners: List[Callable[[str, Fact], None]] = []
        self._annotations: Dict[Tuple[str, Tuple[Any, ...]], Any] = {}
        self.rules: List[Rule] = []
        self.stats: Dict[str, int] = defaultdict(int)
        #: Tracer installed via :meth:`set_tracer`; ``None`` when untraced.
        #: Never feeds :attr:`stats` — engine counters are part of the
        #: deterministic state digest and must not see tracing.
        self.tracer = None
        #: True where the fused path runs (see :meth:`_refresh_sinks`).
        self._lean = False
        #: Sink predicate name -> its applier (see :meth:`_refresh_sinks`):
        #: the tables whose derived rows are applied where they are emitted.
        #: Empty unless the fused path runs.
        self._sinks: Dict[str, Callable[[str, Tuple[Any, ...], int], None]] = {}
        # keyed by (id(rule), position): rule *identity*, not label, because
        # load_program may be called more than once and distinct rules with
        # the same label must not clobber each other's plans (self.rules
        # keeps every rule alive, so ids stay stable)
        self._plans: Dict[Tuple[int, int], CompiledDeltaPlan] = {}
        self._statistics = CatalogStatistics(self.catalog)
        self.index_manager = IndexManager(self.catalog, counters=self.stats)
        self._plan_compiler = PlanCompiler(self._statistics, self.index_manager)
        if program is not None:
            self.load_program(program)

    # ------------------------------------------------------------------ #
    # program loading
    # ------------------------------------------------------------------ #
    def load_program(self, program: Program) -> None:
        """Compile *program* into the engine (may be called more than once)."""
        program.validate()
        for decl in program.declarations:
            if not self.catalog.has_table(decl.name):
                self.catalog.declare(decl)
        self._dispatch.clear()
        for rule in program.rules:
            self._install_rule(rule)  # program.validate() checked every rule
        self._refresh_sinks()
        for fact in program.facts:
            if fact.location == self.address:
                self.insert(fact)

    def add_rule(self, rule: Rule) -> None:
        """Register a single rule with the engine."""
        rule.validate()
        self._install_rule(rule)
        self._refresh_sinks()

    def _install_rule(self, rule: Rule) -> None:
        aggregate = rule.head.aggregate()
        # Aggregate state is keyed by rule label, so an aggregate rule's
        # label must name no other installed rule.
        if rule.label in self._aggregate_rules or (
            aggregate is not None
            and any(installed.label == rule.label for installed in self.rules)
        ):
            raise ValidationError(
                f"rule label {rule.label!r} is shared with an aggregate rule"
            )
        self.rules.append(rule)
        if aggregate is not None:
            index, spec = aggregate
            self._aggregate_rules[rule.label] = _CompiledAggregateRule(
                rule=rule,
                aggregate_index=index,
                spec=spec,
                group_fns=tuple(
                    compile_term(arg)
                    for position, arg in enumerate(rule.head.args)
                    if position != index
                ),
            )
        for position, atom in enumerate(rule.body_atoms):
            plan = self._plan_compiler.compile(rule, position)
            self._plans[(id(rule), position)] = plan
            self.stats["plans_compiled"] += 1
            self._firings_by_predicate[atom.name].append(_Firing(rule, position, plan))
        # A predicate already seen with no firings must pick this rule up.
        self._dispatch.clear()

    def _refresh_sinks(self) -> None:
        """Recompute which tables are applied where their rows are emitted.

        A *sink* is a materialised predicate that some rule derives and no
        rule reads — ``prov`` and ``ruleExec`` under reference provenance.
        It has no firings, and every row of it reaches this node through
        the one FIFO queue, so applying a locally derived row at emission
        (the table write, primary-key eviction and update listeners, with
        no :class:`Delta` and no queue entry) keeps each table's row order,
        bucket order and per-table listener sequence.  Exactness needs one
        guard, kept both here and in :meth:`enqueue`: a predicate is a sink
        only while none of its deltas is queued, so a sink that receives a
        delta from outside the engine's own emissions is queued again.

        Only where the fused path runs (``_lean``) — no annotation policy,
        no rule listener, no tracer; otherwise the map stays empty and every
        row is queued, which keeps traced spans unchanged.
        """
        self._sinks = {}
        self._lean = (
            self.annotation_policy is None
            and not self._rule_listeners
            and self.tracer is None
        )
        if not self._lean:
            return
        pending = {delta.fact.name for delta in self._queue}
        for rule in self.rules:
            name = rule.head.name
            if (
                name in self._sinks
                or name in pending
                or self._firings_by_predicate.get(name)
                or is_event_predicate(name)
            ):
                continue
            self._sinks[name] = self._sink_applier(name)

    def _sink_applier(self, name: str) -> Callable[[str, Tuple[Any, ...], int], None]:
        """``apply(action, values, location_index)`` for sink table *name*.

        The body of run()'s fused singleton path for a table with no
        firings.  The table is resolved on first use, as the queued path
        would create it; the :class:`Fact` is built only for a listener.
        """
        catalog = self.catalog
        stats = self.stats
        table = catalog.get(name)

        def apply(action: str, values: Tuple[Any, ...], location_index: int) -> None:
            nonlocal table
            stats["deltas_processed"] += 1
            if table is None:
                table = catalog.table(name, len(values))
            if action == INSERT:
                outcome = table.insert(values)
                if not outcome.became_visible:
                    return
                if outcome.replaced is not None:
                    self._retract_replaced((), outcome.replaced)
            elif action == DELETE:
                if not table.delete(values).became_invisible:
                    return
                if self._annotations:
                    self._clear_annotation(Fact(name, values, location_index))
            else:
                return  # REFRESH carries nothing without a policy
            if self._update_listeners:
                self._notify_update(action, Fact(name, values, location_index))

        return apply

    def explain(self, label: Optional[str] = None) -> str:
        """Render the compiled evaluation plans (``EXPLAIN`` for NDlog).

        Returns the plans of every (rule, delta position) pair, or just the
        rule named by *label*.  A label with no exact match falls back to
        prefix matching (``label_*``) so asking for a source rule like
        ``sp1`` shows its provenance-rewritten variants (``sp1_phead``,
        ``sp1_pexec``, ...).
        """

        def matching(predicate) -> List[CompiledDeltaPlan]:
            return sorted(
                (plan for plan in self._plans.values() if predicate(plan.rule.label)),
                key=lambda plan: (plan.rule.label, plan.trigger_position),
            )

        if label is None:
            plans = matching(lambda _: True)
        else:
            plans = matching(lambda rule_label: rule_label == label)
            if not plans:
                plans = matching(lambda rule_label: rule_label.startswith(label + "_"))
        if not plans:
            return f"no compiled plans for rule label {label!r}"
        return explain_plans(plans)

    def add_rule_listener(self, listener: Callable[[RuleFiring], None]) -> None:
        """Register a callback invoked after every successful rule firing."""
        self._rule_listeners.append(listener)
        self._refresh_sinks()

    def add_update_listener(self, listener: Callable[[str, Fact], None]) -> None:
        """Register a callback invoked when a materialized tuple appears/disappears.

        The callback receives ``(action, fact)`` where action is ``"insert"``
        when the tuple first becomes visible and ``"delete"`` when its last
        derivation is removed.  The ExSPAN query layer uses this hook for
        cache invalidation (Section 6.1).
        """
        self._update_listeners.append(listener)

    def remove_update_listener(self, listener: Callable[[str, Fact], None]) -> None:
        """Unregister *listener*; a listener may remove itself mid-notification.

        The list is replaced, not mutated: a notification loop already
        running keeps iterating the list it started with.
        """
        self._update_listeners = [
            registered
            for registered in self._update_listeners
            if registered != listener
        ]

    def set_send(self, send: Callable[[Any, Delta], None]) -> None:
        """Set the callback used to ship deltas to remote nodes."""
        self._send = send

    def set_tracer(self, tracer) -> None:
        """Install (or remove, with ``None``) an observability tracer.

        Enabling tracing rebinds :meth:`run`, :meth:`_process_batch` and
        :meth:`_fire_rules` to traced wrappers through the instance dict, so
        the untraced hot path carries *zero* per-delta overhead — not even a
        ``tracer is None`` check — which is what keeps the disabled-tracer
        cost on the batch benchmarks at noise level.
        """
        self.tracer = tracer
        if tracer is None:
            self.__dict__.pop("run", None)
            self.__dict__.pop("_process_batch", None)
            self.__dict__.pop("_fire_rules", None)
        else:
            self.__dict__["run"] = self._traced_run
            self.__dict__["_process_batch"] = self._traced_process_batch
            self.__dict__["_fire_rules"] = self._traced_fire_rules
        self._refresh_sinks()

    def _traced_run(self, max_steps: Optional[int] = None) -> int:
        if not self._queue:
            return type(self).run(self, max_steps)
        with self.tracer.span(
            "fixpoint.round", cat="engine", host=self.address
        ) as span:
            steps = type(self).run(self, max_steps)
            span.add(deltas=steps)
        return steps

    def _traced_process_batch(self, name: str, action: str, batch) -> None:
        with self.tracer.span(
            "engine.batch",
            cat="engine",
            host=self.address,
            predicate=name,
            action=action,
            deltas=len(batch),
        ):
            type(self)._process_batch(self, name, action, batch)

    def _traced_fire_rules(self, firings, delta: Delta) -> None:
        with self.tracer.span(
            "plan.exec",
            cat="engine",
            host=self.address,
            predicate=delta.fact.name,
            action=delta.action,
            rule=",".join(firing.rule.label for firing in firings),
        ):
            type(self)._fire_rules(self, firings, delta)

    # ------------------------------------------------------------------ #
    # external updates
    # ------------------------------------------------------------------ #
    def insert(self, fact: Fact, annotation: Any = None) -> None:
        """Enqueue insertion of a base or derived *fact* at this node."""
        fact = _hashable_fact(fact)
        if annotation is None and self.annotation_policy is not None:
            annotation = self.annotation_policy.base(fact)
        self.enqueue(Delta(INSERT, fact, annotation))

    def delete(self, fact: Fact) -> None:
        """Enqueue deletion of *fact* at this node."""
        self.enqueue(Delta(DELETE, _hashable_fact(fact)))

    def enqueue(self, delta: Delta) -> None:
        """Add *delta* to this node's FIFO processing queue.

        A delta for a sink table turns that sink back into a queued table:
        rows the engine derives later must stay behind this one.
        """
        if self._sinks:
            self._sinks.pop(delta.fact.name, None)
        self._queue.append(delta)

    def receive(self, delta: Delta) -> None:
        """Entry point for deltas arriving from the network."""
        self.stats["deltas_received"] += 1
        self.enqueue(delta)

    @property
    def pending(self) -> int:
        """Number of deltas waiting in the local queue."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # evaluation loop
    # ------------------------------------------------------------------ #
    def run(self, max_steps: Optional[int] = None) -> int:
        """Process queued deltas until the queue drains (local fixpoint).

        Returns the number of queued deltas processed; ``max_steps`` bounds
        them.  Rows of sink tables are applied where they are emitted (see
        :meth:`_refresh_sinks`): they count in ``deltas_processed`` but
        never occupy the queue.

        It drains maximal runs of *consecutive* deltas sharing one
        (predicate, action) pair and processes them together.  Derived
        deltas always join the back of the queue, exactly as when they are
        produced one delta at a time, so batching changes dispatch cost
        only — never processing order or results.
        """
        queue = self._queue
        dispatch = self._dispatch
        # With no annotation to merge and no span to emit, a singleton is
        # applied and fired right here (the body of _apply_insert /
        # _apply_delete / _fire_rules, minus their frames).
        fused = self.annotation_policy is None and self.tracer is None
        steps = 0
        singletons = 0
        try:
            while queue:
                if max_steps is not None and steps >= max_steps:
                    break
                delta = queue.popleft()
                fact = delta.fact
                name = fact.name
                action = delta.action
                limit = None if max_steps is None else max_steps - steps
                if queue and (limit is None or limit >= 2):
                    head = queue[0]
                    if head.fact.name == name and head.action == action:
                        # A run of same-(predicate, action) deltas: drain it and
                        # process with one dispatch.  `limit` bounds the batch so
                        # run(max_steps=N) never processes more than N deltas.
                        batch = [delta, queue.popleft()]
                        while queue and (limit is None or len(batch) < limit):
                            head = queue[0]
                            if head.fact.name != name or head.action != action:
                                break
                            batch.append(queue.popleft())
                        self._process_batch(name, action, batch)
                        steps += len(batch)
                        continue
                # Singleton: skip the batch list entirely.
                singletons += 1
                steps += 1
                resolved = dispatch.get(name)
                if resolved is None:
                    resolved = self._resolve(name, fact.arity)
                is_event, table, firings = resolved
                if not fused:
                    if is_event:
                        if firings:
                            self._fire_rules(firings, delta)
                    elif action == INSERT:
                        self._apply_insert(table, firings, delta)
                    elif action == DELETE:
                        self._apply_delete(table, firings, delta)
                    else:
                        self._apply_refresh(table, firings, delta)
                    continue
                values = fact.values
                if not is_event:
                    if action == INSERT:
                        outcome = table.insert(values)
                        if not outcome.became_visible:
                            continue
                        if outcome.replaced is not None:
                            self._retract_replaced(firings, outcome.replaced)
                    elif action == DELETE:
                        if not table.delete(values).became_invisible:
                            continue
                        if self._annotations:
                            self._clear_annotation(fact)
                    else:
                        continue  # REFRESH carries nothing without a policy
                    if self._update_listeners:
                        self._notify_update(action, fact)
                for firing in firings:
                    plan = firing.plan
                    if plan.fused_exec is not None:
                        plan.fused_exec(plan, self, values, delta)
                    else:
                        # Multi-step plans: staleness checks and recompiles.
                        self._fire_rules((firing,), delta)
        finally:
            self.stats["deltas_processed"] += singletons
        return steps

    def _resolve(
        self, name: str, arity: int
    ) -> Tuple[bool, Optional[Table], Sequence[_Firing]]:
        """Resolve and cache *name*'s ``(is event, table or None, firings)``."""
        is_event = is_event_predicate(name)
        resolved = self._dispatch[name] = (
            is_event,
            None if is_event else self.catalog.table(name, arity),
            self._firings_by_predicate.get(name, ()),
        )
        return resolved

    def _process_batch(self, name: str, action: str, batch: Sequence[Delta]) -> None:
        """Apply one (predicate, action) run of deltas, strictly in order."""
        self.stats["deltas_processed"] += len(batch)
        is_event, table, firings = self._dispatch.get(name) or self._resolve(
            name, batch[0].fact.arity
        )
        if is_event:
            # Events are transient: they trigger rules but never materialize.
            # Deletion deltas flow through events too, so that cascaded
            # deletions reach the prov / ruleExec tables maintained by the
            # provenance rewrite (Section 4.2.1).
            if firings:
                for delta in batch:
                    self._fire_rules(firings, delta)
            return
        if action == INSERT:
            for delta in batch:
                self._apply_insert(table, firings, delta)
        elif action == DELETE:
            for delta in batch:
                self._apply_delete(table, firings, delta)
        else:
            for delta in batch:
                self._apply_refresh(table, firings, delta)

    # ------------------------------------------------------------------ #
    # delta application
    # ------------------------------------------------------------------ #
    def _apply_insert(self, table: Table, firings, delta: Delta) -> None:
        fact = delta.fact
        outcome = table.insert(fact.values)
        if outcome.replaced is not None:
            self._retract_replaced(firings, outcome.replaced)
        annotation_changed = False
        if self.annotation_policy is not None and delta.annotation is not None:
            annotation_changed = self._store_annotation(fact, delta.annotation)
        if outcome.became_visible:
            if self._update_listeners:
                self._notify_update(INSERT, fact)
            self._fire_rules(firings, delta)
        elif annotation_changed and self.annotation_policy.propagate_updates:
            # Value-based provenance: a new alternative derivation changed
            # this tuple's annotation, so the update must be propagated to
            # everything derived from it.
            self._fire_rules(
                firings, Delta(REFRESH, fact, self._lookup_annotation(fact))
            )

    def _retract_replaced(self, firings, replaced: Fact) -> None:
        """Propagate a primary-key eviction as the deletion it is."""
        self._clear_annotation(replaced)
        if self._update_listeners:
            self._notify_update(DELETE, replaced)
        self._fire_rules(firings, Delta(DELETE, replaced))

    def _apply_delete(self, table: Table, firings, delta: Delta) -> None:
        fact = delta.fact
        outcome = table.delete(fact.values)
        if outcome.became_invisible:
            self._clear_annotation(fact)
            if self._update_listeners:
                self._notify_update(DELETE, fact)
            self._fire_rules(firings, delta)

    def _apply_refresh(self, table: Table, firings, delta: Delta) -> None:
        # Annotation update for a tuple that is (normally) already stored.
        if self.annotation_policy is None or delta.annotation is None:
            return
        fact = delta.fact
        if fact.values not in table:
            # The refresh raced ahead of the insert (deltas from different
            # derivations interleave freely).  Apply it as an insert *at
            # this queue position*: re-enqueueing at the back would let the
            # converted insert jump behind deltas that arrived after it —
            # and behind the rest of its own batch — reordering annotation
            # merges relative to FIFO arrival order.
            self._apply_insert(table, firings, Delta(INSERT, fact, delta.annotation))
            return
        changed = self._store_annotation(fact, delta.annotation)
        if changed:
            self._fire_rules(
                firings, Delta(REFRESH, fact, self._lookup_annotation(fact))
            )

    def _notify_update(self, action: str, fact: Fact) -> None:
        for listener in self._update_listeners:
            listener(action, fact)

    def _fire_rules(self, firings, delta: Delta) -> None:
        """Fire every registered (rule, position) for *delta*'s predicate.

        Firings run in rule registration order, so head deltas are enqueued
        in the same order however each plan executes.
        """
        values = delta.fact.values
        for firing in firings:
            plan = firing.plan
            fused = plan.fused_exec
            if fused is not None:
                # Fully fused path (zero- and one-step plans): trigger
                # match + probe + literals + emission in one generated
                # function, no binding dict.  Such plans never go stale
                # (staleness needs >= 2 reorderable steps).
                fused(plan, self, values, delta)
                continue
            binder = plan.trigger_binder
            if binder is not None:
                binding = binder(values)
            else:
                binding = self._match_atom(plan.trigger_atom, values, {})
            if binding is None:
                continue
            # Plans are compiled against whatever the tables held at
            # add_rule time, so multi-step plans are re-costed against live
            # cardinalities every STALENESS_CHECK_PERIOD trigger matches.  A
            # different join order never changes results, only scan counts.
            if (
                plan.multi_step
                and plan.executions % STALENESS_CHECK_PERIOD == 0
                and plan.is_stale(self._statistics)
            ):
                plan = self._plan_compiler.compile(firing.rule, firing.position)
                plan.executions = 1  # keep the staleness period aligned
                firing.plan = plan
                self._plans[(id(firing.rule), firing.position)] = plan
                self.stats["plans_recompiled"] += 1
            plan.execute(self, delta, binding)

    def _match_atom(
        self, atom: Atom, values: Sequence[Any], binding: Mapping[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Unify *atom*'s arguments with *values*, extending *binding*."""
        if len(values) != len(atom.args):
            return None
        extended = dict(binding)
        for arg, value in zip(atom.args, values):
            if isinstance(arg, Variable):
                if arg.is_wildcard:
                    continue
                bound = extended.get(arg.name, _UNBOUND)
                if bound is _UNBOUND:
                    extended[arg.name] = value
                elif bound != value:
                    return None
            elif isinstance(arg, Constant):
                if arg.value != value:
                    return None
            else:
                # expression argument: must be evaluable under current binding
                try:
                    expected = arg.evaluate(extended, self.functions)
                except EvaluationError:
                    return None
                if expected != value:
                    return None
        return extended

    def _finalize_binding(
        self,
        rule: Rule,
        binding: Dict[str, Any],
        matched: List[Tuple[Atom, Fact]],
        delta: Delta,
    ) -> None:
        """Evaluate assignments and conditions, then emit the head delta."""
        env = dict(binding)
        for literal in rule.body:
            if isinstance(literal, Assignment):
                try:
                    env[literal.variable.name] = literal.expression.evaluate(
                        env, self.functions
                    )
                except EvaluationError as exc:
                    raise EvaluationError(
                        f"rule {rule.label}: failed to evaluate {literal}: {exc}"
                    ) from exc
            elif isinstance(literal, Condition):
                try:
                    if not literal.expression.evaluate(env, self.functions):
                        return
                except EvaluationError as exc:
                    raise EvaluationError(
                        f"rule {rule.label}: failed to evaluate {literal}: {exc}"
                    ) from exc
        body_facts = tuple(fact for _, fact in matched)
        if rule.label in self._aggregate_rules:
            self._apply_aggregate(rule, env, body_facts, delta)
            return
        head_values = self._evaluate_head(rule.head, env)
        head_fact = Fact(rule.head.name, head_values, rule.head.location_index)
        self._emit(rule, delta.action, head_fact, env, body_facts, delta)

    def _evaluate_head(self, head: Atom, env: Mapping[str, Any]) -> List[Any]:
        values: List[Any] = []
        for arg in head.args:
            if isinstance(arg, AggregateSpec):
                raise EvaluationError(
                    "aggregate head attribute reached scalar evaluation"
                )
            values.append(arg.evaluate(env, self.functions))
        return values

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    def _apply_aggregate(
        self,
        rule: Rule,
        env: Mapping[str, Any],
        body_facts: Tuple[Fact, ...],
        delta: Delta,
    ) -> None:
        compiled = self._aggregate_rules[rule.label]
        spec = compiled.spec
        functions = self.functions
        group_key = tuple([fn(env, functions) for fn in compiled.group_fns])
        if spec.is_star:
            aggregated_value: Any = 1
        elif len(spec.variables_) == 1:
            aggregated_value = env[spec.variables_[0]]
        else:
            aggregated_value = tuple(env[name] for name in spec.variables_)
        state = compiled.groups.get(group_key)
        if state is None:
            state = AggregateState(spec.func)
            compiled.groups[group_key] = state
        head = rule.head
        emitted = compiled.emitted
        if delta.action == REFRESH:
            # Annotation refresh: the group's membership is unchanged, but the
            # annotation of the currently-emitted row must be re-propagated.
            emitted_row = emitted.get(group_key)
            if emitted_row is not None:
                emitted_fact = Fact(head.name, emitted_row, head.location_index)
                self._emit(rule, REFRESH, emitted_fact, env, body_facts, delta)
            return
        if delta.action == INSERT:
            state.insert(aggregated_value)
        else:
            state.delete(aggregated_value)

        old_row = emitted.get(group_key)
        new_row: Optional[Tuple[Any, ...]] = None
        if not state.is_empty:
            index = compiled.aggregate_index
            new_row = group_key[:index] + (state.current(),) + group_key[index:]
        if new_row == old_row:
            return
        # On the fused path the pair skips _emit: no policy to combine, no
        # listener to tell.  Either way the delete goes out before the insert.
        lean = self._lean and not self._rule_listeners
        if old_row is not None:
            old_fact = Fact(head.name, old_row, head.location_index)
            if lean:
                self.stats["rule_firings"] += 1
                self._route(rule, DELETE, old_fact, None)
            else:
                self._emit(rule, DELETE, old_fact, env, body_facts, delta)
            del emitted[group_key]
        if new_row is not None:
            new_fact = Fact(head.name, new_row, head.location_index)
            emitted[group_key] = new_row
            if lean:
                self.stats["rule_firings"] += 1
                self._route(rule, INSERT, new_fact, None)
            else:
                self._emit(rule, INSERT, new_fact, env, body_facts, delta)

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def _emit(
        self,
        rule: Rule,
        action: str,
        head_fact: Fact,
        env: Mapping[str, Any],
        body_facts: Tuple[Fact, ...],
        source_delta: Delta,
    ) -> None:
        self.stats["rule_firings"] += 1
        if self._rule_listeners and action != REFRESH:
            firing = RuleFiring(
                rule=rule,
                action=action,
                head_fact=head_fact,
                body_facts=body_facts,
                binding=dict(env),
                node=self.address,
            )
            for listener in self._rule_listeners:
                listener(firing)

        annotation = None
        if self.annotation_policy is not None and action in (INSERT, REFRESH):
            body_annotations = [
                self._annotation_for(fact, source_delta) for fact in body_facts
            ]
            annotation = self.annotation_policy.combine(
                rule, body_annotations, self.address
            )
        self._route(rule, action, head_fact, annotation)

    def _route(
        self, rule: Rule, action: str, head_fact: Fact, annotation: Any
    ) -> None:
        """Deliver one derived row: a local sink, the local queue, or the wire."""
        destination = head_fact.values[head_fact.location_index]
        if destination == self.address:
            sink = self._sinks.get(head_fact.name)
            if sink is not None:
                sink(action, head_fact.values, head_fact.location_index)
                return
        # Construct the delta without __init__: `action` was validated when
        # the source delta (or aggregate emission constant) was built.
        delta = _new_delta(Delta)
        delta.action = action
        delta.fact = head_fact
        delta.annotation = annotation
        if destination == self.address:
            self._queue.append(delta)
        else:
            self.stats["deltas_sent"] += 1
            if self._send is None:
                raise EvaluationError(
                    f"rule {rule.label} derived remote tuple {head_fact} but no "
                    "send callback is configured"
                )
            self._send(destination, delta)

    # ------------------------------------------------------------------ #
    # annotations (value-based provenance support)
    # ------------------------------------------------------------------ #
    def _store_annotation(self, fact: Fact, annotation: Any) -> bool:
        """Merge *annotation* into the store; return True when it changed."""
        key = (fact.name, fact.values)
        existing = self._annotations.get(key)
        if existing is None:
            self._annotations[key] = annotation
            return True
        merged = self.annotation_policy.merge(existing, annotation)
        self._annotations[key] = merged
        return not self._annotations_equal(existing, merged)

    @staticmethod
    def _annotations_equal(left: Any, right: Any) -> bool:
        try:
            return bool(left == right)
        except Exception:  # pragma: no cover - exotic annotation types
            return left is right

    def _lookup_annotation(self, fact: Fact) -> Any:
        return self._annotations.get((fact.name, fact.values))

    def _clear_annotation(self, fact: Fact) -> None:
        if self._annotations:
            self._annotations.pop((fact.name, fact.values), None)

    def _annotation_for(self, fact: Fact, source_delta: Delta) -> Any:
        if (
            fact.name == source_delta.fact.name
            and tuple(fact.values) == tuple(source_delta.fact.values)
            and source_delta.annotation is not None
        ):
            return source_delta.annotation
        stored = self._lookup_annotation(fact)
        if stored is not None:
            return stored
        if self.annotation_policy is not None:
            return self.annotation_policy.base(fact)
        return None

    def annotation_of(self, fact: Fact) -> Any:
        """Public accessor for a stored value-based provenance annotation."""
        return self._lookup_annotation(_hashable_fact(fact))

    # ------------------------------------------------------------------ #
    # convenience queries
    # ------------------------------------------------------------------ #
    def table_rows(self, name: str) -> List[Tuple[Any, ...]]:
        """Return the rows of local table *name* (sorted, for stable tests)."""
        table = self.catalog.get(name)  # a read creates nothing
        return [] if table is None else sorted(table.rows(), key=repr)

    def has_fact(self, name: str, values: Sequence[Any]) -> bool:
        table = self.catalog.get(name)
        return table is not None and tuple(values) in table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NDlogEngine(address={self.address!r}, rules={len(self.rules)})"


class _Unbound:
    __slots__ = ()


_UNBOUND = _Unbound()

#: Raw allocator used by _emit to skip Delta.__init__ validation for
#: internally-constructed deltas (their action is always already valid).
_new_delta = Delta.__new__


def _hashable_fact(fact: Fact) -> Fact:
    """*fact* as the engine stores it: list and set attributes frozen.

    The boundary for facts handed in from outside (``insert_fact``, the
    service, replayed journals).  Everything the engine derives from them
    is then hashable by construction — the list builtins return tuples —
    so rows, aggregate groups and annotation keys are used as they are.
    """
    try:
        hash(fact.values)
    except TypeError:
        return Fact(
            fact.name, tuple(map(freeze_value, fact.values)), fact.location_index
        )
    return fact
