"""Per-node NDlog evaluation engine (pipelined semi-naive evaluation).

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
compiled by the planner (:mod:`repro.datalog.plan`) into a plan that
depends only on the rule and runs as one generated function, and
:meth:`NDlogEngine.run` takes one delta at a time: pop it, apply it, fire
its plans.  The term-tree
interpreter and the nested-loop join this executor must equal live in the
test suite (``tests/oracle/``).

A *sink* table — a materialised predicate no rule reads, such as ``prov``
and ``ruleExec`` under reference provenance — is not queued at all: a
locally derived sink row is applied where it is emitted (see
:meth:`NDlogEngine._refresh_sinks`), which keeps every table's row order
because a sink has no firings.

Value-based provenance plugs in as an :class:`AnnotationPolicy`, fixed at
construction, which attaches an annotation to every tuple and combines
annotations through joins and unions (the annotation travels with remote
deltas and its serialized size is charged to the message).  Reference
provenance needs no hook: it is rewritten rules (:mod:`repro.core.modes`).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .aggregates import AggregateState
from .ast import Atom, Fact, Program, Rule, is_event_predicate
from ..storage.memory import Catalog, Table, freeze_value
from .errors import EvaluationError, ValidationError
from .functions import FunctionRegistry, default_registry
from .plan import CompiledDeltaPlan, IndexManager, PlanCompiler, explain_plans
from .plan.compiler import finalize, match_atom
from .terms import AggregateSpec, Variable

__all__ = [
    "Delta",
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

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        sign = {"insert": "+", "delete": "-", "refresh": "~"}[self.action]
        return f"{sign}{self.fact}"


class AnnotationPolicy:
    """Strategy object for value-based provenance annotations.

    Subclasses define ``base(fact)``, the annotation of an inserted base
    tuple; ``combine(rule, body_annotations, node)``, the join (``·``) of a
    rule's inputs; ``merge(existing, new)``, the union (``+``) of two
    alternative derivations; and ``size(annotation)``, the bytes an
    annotation adds to a network message.

    ``propagate_updates`` controls whether a change to an existing tuple's
    annotation (a new alternative derivation arriving) is re-propagated to
    the tuples derived from it via REFRESH deltas.  Full propagation models
    the paper's "propagation of provenance updates" cost of value-based
    provenance, but its cascades can be expensive on dense provenance graphs
    (that is the paper's point); it is therefore opt-in.
    """

    propagate_updates: bool = False


@dataclass
class _CompiledAggregateRule:
    """Runtime state of an aggregate rule: group -> aggregate + emitted row.

    A group is dropped once its state is empty.  Under reference provenance
    a MIN/MAX rule has a ``<label>_ptmp`` twin, Section 4.2.2's join-back of
    the derived row against the body; when :func:`_feeds_twin` holds, the
    twin's plans read ``support`` (derived row -> the body matches that yield
    it, in the order they appeared; a one-atom body's match is its row) and
    ``folded`` (the ``(derived row, match)`` pairs ``folded_delta`` folded,
    looked up in ``head``) instead of joining.
    """

    rule: Rule
    aggregate_index: int
    spec: AggregateSpec
    groups: Dict[Tuple[Any, ...], AggregateState] = field(default_factory=dict)
    emitted: Dict[Tuple[Any, ...], Tuple[Any, ...]] = field(default_factory=dict)
    support: Optional[Dict[Tuple[Any, ...], List[Tuple[Any, ...]]]] = None
    head: Optional[Table] = None
    folded_delta: Optional[Delta] = None
    folded: List[Tuple[Tuple[Any, ...], Tuple[Any, ...]]] = field(default_factory=list)


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
        self._policy = annotation_policy
        self._queue: deque[Delta] = deque()
        #: predicate -> the plans its deltas trigger, in rule registration
        #: order; a plan never changes once compiled.
        self._firings_by_predicate: Dict[str, List[CompiledDeltaPlan]] = defaultdict(list)
        #: name -> (is event, table or None, firings): everything run()
        #: needs to know about a predicate, resolved on first sight
        #: (:meth:`_resolve`) and dropped whenever the rule set changes.
        self._dispatch: Dict[str, Tuple[bool, Optional[Table], Sequence[CompiledDeltaPlan]]] = {}
        self._aggregate_rules: Dict[str, _CompiledAggregateRule] = {}
        self._update_listeners: List[Callable[[str, Fact], None]] = []
        self._annotations: Dict[Tuple[str, Tuple[Any, ...]], Any] = {}
        self.rules: List[Rule] = []
        self.stats: Dict[str, int] = defaultdict(int)
        #: Optional :class:`repro.obs.tracer.Tracer`; ``None`` when untraced.
        #: Never feeds :attr:`stats` — engine counters are part of the
        #: deterministic state digest and must not see tracing.
        self.tracer = None
        #: Sink predicate name -> its applier (see :meth:`_refresh_sinks`):
        #: the tables whose derived rows are applied where they are emitted.
        #: Empty under an annotation policy.
        self._sinks: Dict[str, Callable[[str, Tuple[Any, ...], int], None]] = {}
        # keyed by (id(rule), position): rule *identity*, not label, because
        # load_program may be called more than once and distinct rules with
        # the same label must not clobber each other's plans (self.rules
        # keeps every rule alive, so ids stay stable)
        self._plans: Dict[Tuple[int, int], CompiledDeltaPlan] = {}
        self.index_manager = IndexManager(self.catalog, counters=self.stats)
        self._plan_compiler = PlanCompiler(
            self.index_manager, annotated=annotation_policy is not None
        )
        if program is not None:
            self.load_program(program)

    @property
    def annotation_policy(self) -> Optional[AnnotationPolicy]:
        """Fixed at construction: plans are generated with or without it."""
        return self._policy

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
                rule=rule, aggregate_index=index, spec=spec
            )
        # Without a policy (whose plans pass no matches), a MIN/MAX rule's
        # record can feed its join-back twin.
        fed = self._aggregate_rules.get(rule.label[:-5]) if rule.label.endswith("_ptmp") else None
        if fed and not (self._policy or fed.groups) and _feeds_twin(fed.rule, rule, self.catalog):
            fed.support, fed.head = {}, self.catalog.table(fed.rule.head.name)
        else:
            fed = None
        for position, atom in enumerate(rule.body_atoms):
            plan = self._plan_compiler.compile(rule, position, fed and fed.rule)
            self._plans[(id(rule), position)] = plan
            self.stats["plans_compiled"] += 1
            self._firings_by_predicate[atom.name].append(plan)
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

        Only with no annotation policy; otherwise the map stays empty and
        every row is queued.
        """
        self._sinks = {}
        if self._policy is not None:
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

    # ------------------------------------------------------------------ #
    # external updates
    # ------------------------------------------------------------------ #
    def insert(self, fact: Fact, annotation: Any = None) -> None:
        """Enqueue insertion of a base or derived *fact* at this node."""
        fact = _hashable_fact(fact)
        if annotation is None and self._policy is not None:
            annotation = self._policy.base(fact)
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

    # ------------------------------------------------------------------ #
    # evaluation loop
    # ------------------------------------------------------------------ #
    def run(self) -> int:
        """Process queued deltas until the queue drains (local fixpoint).

        One delta at a time, in FIFO order: pop it, apply it to its table,
        fire the plans its predicate triggers.  Derived local deltas join
        the back of the queue.  Returns the number of queued deltas
        processed.  Rows of sink tables are applied where they are emitted
        (see :meth:`_refresh_sinks`): they count in ``deltas_processed``
        but never occupy the queue.

        With a tracer set, a run that finds deltas queued is one
        ``fixpoint.round`` span, and every delta that fires a plan one
        ``plan.exec`` span (see :meth:`_fire_rules`).
        """
        tracer = self.tracer
        if tracer is None or not self._queue:
            return self._drain(None)
        with tracer.span("fixpoint.round", cat="engine", host=self.address) as span:
            steps = self._drain(tracer)
            span.add(deltas=steps)
        return steps

    def _drain(self, tracer) -> int:
        """:meth:`run`'s delta loop; *tracer* is ``self.tracer``, read once.

        Every mode applies and fires a delta right here.  Events never
        materialize; their deletions still fire, so cascaded deletions reach
        the provenance rewrite's prov / ruleExec tables (Section 4.2.1).
        Under a policy an insert stores or merges its annotation and a
        REFRESH merges into a stored tuple; a changed annotation is
        re-propagated (on an insert, only if ``propagate_updates``).
        """
        queue = self._queue
        dispatch = self._dispatch
        policy = self._policy
        steps = 0
        try:
            while queue:
                delta = queue.popleft()
                steps += 1
                fact = delta.fact
                name = fact.name
                action = delta.action
                resolved = dispatch.get(name)
                if resolved is None:
                    resolved = self._resolve(name, fact.arity)
                is_event, table, firings = resolved
                values = fact.values
                if not is_event:
                    if action == REFRESH:
                        if policy is None or delta.annotation is None:
                            continue
                        if values in table:
                            if self._store_annotation(fact, delta.annotation):
                                self._fire_rules(
                                    firings, Delta(REFRESH, fact, self._lookup_annotation(fact))
                                )
                            continue
                        # Raced ahead of its insert: apply it as that insert
                        # *here*, or annotation merges leave FIFO order.
                        action = INSERT
                        delta = Delta(INSERT, fact, delta.annotation)
                    if action == INSERT:
                        outcome = table.insert(values)
                        if outcome.replaced is not None:
                            self._retract_replaced(firings, outcome.replaced)
                        if policy is not None and delta.annotation is not None:
                            changed = self._store_annotation(fact, delta.annotation)
                            if not outcome.became_visible:  # a new derivation
                                if changed and policy.propagate_updates:
                                    self._fire_rules(
                                        firings,
                                        Delta(REFRESH, fact, self._lookup_annotation(fact)),
                                    )
                                continue
                        if not outcome.became_visible:
                            continue
                    else:
                        if not table.delete(values).became_invisible:
                            continue
                        if self._annotations:
                            self._clear_annotation(fact)
                    if self._update_listeners:
                        self._notify_update(action, fact)
                if tracer is not None:
                    self._fire_rules(firings, delta)
                    continue
                for plan in firings:
                    plan.fused_exec(plan, self, values, delta)
        finally:
            self.stats["deltas_processed"] += steps
        return steps

    def _resolve(
        self, name: str, arity: int
    ) -> Tuple[bool, Optional[Table], Sequence[CompiledDeltaPlan]]:
        """Resolve and cache *name*'s ``(is event, table or None, firings)``."""
        is_event = is_event_predicate(name)
        resolved = self._dispatch[name] = (
            is_event,
            None if is_event else self.catalog.table(name, arity),
            self._firings_by_predicate.get(name, ()),
        )
        return resolved

    # ------------------------------------------------------------------ #
    # delta application
    # ------------------------------------------------------------------ #
    def _retract_replaced(self, firings, replaced: Fact) -> None:
        """Propagate a primary-key eviction as the deletion it is."""
        self._clear_annotation(replaced)
        if self._update_listeners:
            self._notify_update(DELETE, replaced)
        self._fire_rules(firings, Delta(DELETE, replaced))

    def _notify_update(self, action: str, fact: Fact) -> None:
        for listener in self._update_listeners:
            listener(action, fact)

    def _fire_rules(self, firings, delta: Delta) -> None:
        """Fire every registered (rule, position) for *delta*'s predicate.

        Firings run in rule registration order, so head deltas are enqueued
        in the same order however each plan executes.  With a tracer set,
        a non-empty firing list is one ``plan.exec`` span.
        """
        if not firings:
            return
        values = delta.fact.values
        tracer = self.tracer
        if tracer is None:
            for plan in firings:
                plan.fused_exec(plan, self, values, delta)
            return
        with tracer.span(
            "plan.exec",
            cat="engine",
            host=self.address,
            predicate=delta.fact.name,
            action=delta.action,
            rule=",".join(plan.rule.label for plan in firings),
        ):
            for plan in firings:
                plan.fused_exec(plan, self, values, delta)

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    def _aggregate(
        self, rule: Rule, group_key: tuple, value: Any, delta: Delta, derived=None, match=None
    ) -> Optional[Tuple[Any, ...]]:
        """Fold one match into its group; route the old row's delete first.

        *derived* and *match* (the derived row, and the matched body rows or
        a one-atom body's row) are recorded when the join-back twin reads them.
        Returns the row to insert
        (or, for a REFRESH, which changes no group, the current row to
        re-emit) for the caller to annotate and route, or ``None`` when
        there is nothing to emit.
        """
        compiled = self._aggregate_rules[rule.label]
        emitted = compiled.emitted
        action = delta.action
        if action == REFRESH:
            return emitted.get(group_key)
        groups = compiled.groups
        state = groups.get(group_key)
        if state is None:
            state = groups[group_key] = AggregateState(compiled.spec.func)
        if action == INSERT:
            state.insert(value)
        else:
            state.delete(value)
        support = compiled.support
        if support is not None and derived is not None:
            # A list, not a set: removal compares, appending hashes nothing.
            matches = support.get(derived)
            if action == INSERT:
                if matches is None:
                    support[derived] = [match]
                else:
                    matches.append(match)
            elif matches is not None and match in matches:
                matches.remove(match)
                if not matches:
                    del support[derived]
            if compiled.folded_delta is not delta:
                compiled.folded_delta, compiled.folded = delta, []
            compiled.folded.append((derived, match))
        old_row = emitted.get(group_key)
        row = None
        if state._count:
            index, current = compiled.aggregate_index, state.current()
            if old_row is not None and ((old := old_row[index]) is current or old == current):
                return None  # the winner stands: its row is built only when it moves
            row = group_key[:index] + (current,) + group_key[index:]
        else:
            del groups[group_key]
            if old_row is None:
                return None
        if old_row is not None:
            head = rule.head
            self.stats["rule_firings"] += 1
            self._route(rule, DELETE, Fact(head.name, old_row, head.location_index), None)
            del emitted[group_key]
        if row is not None:
            emitted[group_key] = row
        return row

    def _rebuild_support(self) -> None:
        """Re-derive the support records from the tables (after a restore),
        enumerating body matches over rows in insertion order."""
        for compiled in self._aggregate_rules.values():
            if compiled.support is None:
                continue
            compiled.support, rule, index = {}, compiled.rule, compiled.aggregate_index
            matches = [({}, ())]
            for atom in rule.body_atoms:
                rows = self.catalog.table(atom.name).rows()
                matches = [
                    (extended, match + (row,))
                    for binding, match in matches
                    for row in rows
                    if (extended := match_atom(atom, row, binding)) is not None
                ]
            for binding, match in matches:
                if (result := finalize(rule, binding, self.functions)) is not None:
                    derived = result[0][:index] + (result[1],) + result[0][index:]
                    body = match[0] if len(match) == 1 else match
                    compiled.support.setdefault(derived, []).append(body)

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
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
        merged = self._policy.merge(existing, annotation)
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

    # ------------------------------------------------------------------ #
    # debugging
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NDlogEngine(address={self.address!r}, rules={len(self.rules)})"


#: Raw allocator used by _route to skip Delta.__init__ validation for
#: internally-constructed deltas (their action is always already valid).
_new_delta = Delta.__new__


def _feeds_twin(aggregate: Rule, twin: Rule, catalog: Catalog) -> bool:
    """Does the record hold what the join-back *twin* finds, in its order?

    The twin joins ``h(derived)`` with a wildcard-free body of distinct
    predicates other than ``h``.  One body atom keeps index-bucket order;
    more need every body variable in the head and ``h``'s key variables in
    every body atom (one match per derived row, at most one in ``h``).
    """
    head, atoms = aggregate.head, aggregate.body_atoms
    index, spec = head.aggregate()
    if spec.is_star or len(spec.variables_) != 1:
        return False
    args = [*head.args[:index], Variable(spec.variables_[0]), *head.args[index + 1 :]]
    derived = Atom(head.name, args, head.location_index)
    if (
        list(twin.body_atoms) != [derived, *atoms]
        or len({head.name, *(atom.name for atom in atoms)}) != len(atoms) + 1
        or any(arg == Variable("_") for atom in twin.body_atoms for arg in atom.args)
    ):
        return False
    if len(atoms) == 1:
        return True
    table = catalog.get(head.name)
    keys = {args[position] for position in (table.key_positions if table is not None else ())}
    return bool(keys) and all(
        set(atom.variables()) <= set(derived.variables()) and keys <= set(atom.args)
        for atom in atoms
    )


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
