"""Compiled per-(rule, delta-position) evaluation plans.

For every rule and every body-atom position a delta can arrive at, the
:class:`PlanCompiler` produces a :class:`CompiledDeltaPlan`:

* the remaining body atoms in the order chosen by the
  :class:`~repro.datalog.plan.optimizer.GreedyOptimizer`;
* per step, a precomputed *lookup specification* — which argument positions
  are constrained at runtime and where each constraint value comes from
  (a bound variable, a constant, or an expression over bound variables);
* per step, how many leading non-atom body literals (assignments and
  conditions) become evaluable once the step's variables are bound, so
  conditions prune join branches as early as possible (selection pushdown);
* the secondary indexes each step needs, registered eagerly with the
  :class:`~repro.datalog.plan.indexes.IndexManager`.

Every plan carries two execution forms:

* :meth:`CompiledDeltaPlan.execute` — the *batched-pipeline* form built
  from closure-compiled primitives (:mod:`.compiled_exec`): trigger
  binders, per-step matchers, precomputed index key tuples and compiled
  literal/head evaluators.  This is what the engine's batched delta
  pipeline runs.
* :meth:`CompiledDeltaPlan.execute_interpreted` — the original
  term-tree-walking interpreter, retained verbatim.  The legacy per-delta
  pipeline (``pipeline="delta"``) runs it, the equivalence tests compare
  the two, and the speedup benchmarks use it as the "before" measurement.

Equivalence with the naive path is a hard requirement (the engine's results
feed provenance VIDs and annotations), so both executions are careful to
mirror the naive semantics exactly:

* lookup constraints are built only from variables bound by the trigger
  atom and earlier *atoms* — never from assignment-derived variables, which
  the naive path also ignores during matching;
* pushed-down literals are evaluated with the same overwrite-in-body-order
  semantics as finalization, and any :class:`EvaluationError` defers the
  literal (and everything after it) back to finalization instead of
  pruning, so error behaviour is unchanged;
* matched body facts are handed to the engine in the naive order (trigger
  first, then remaining atoms in body order) regardless of the join order,
  keeping provenance annotation combination bit-identical;
* the ``index_lookups`` / ``full_scans`` / ``tuples_scanned`` counters are
  incremented identically by both forms (they are stored in benchmark
  artifacts the CI regression gate byte-compares).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..ast import Assignment, Atom, Fact, Rule
from ..catalog import freeze_value
from ..errors import EvaluationError
from .compiled_exec import (
    compile_head,
    compile_head_tuple,
    compile_literals,
    compile_step_matcher,
    compile_term,
    compile_trigger_binder,
    generate_finalizer,
    generate_one_step_executor,
    generate_zero_step_executor,
)
from .cost import CatalogStatistics, CostModel
from .indexes import IndexManager
from .join_graph import JoinGraph, construct_join_graph
from .normalize import LiteralInfo, NormalizedRule, normalize_rule
from .optimizer import GreedyOptimizer, JoinOrder

__all__ = ["LookupSpec", "CompiledStep", "CompiledDeltaPlan", "PlanCompiler"]

#: Plans with at least two join steps are checked for staleness every this
#: many executions (single-step plans cannot benefit from reordering).
STALENESS_CHECK_PERIOD = 64
#: A relation must grow or shrink by this factor ...
STALENESS_RATIO = 8.0
#: ... and by at least this many rows before a plan is considered stale.
STALENESS_MIN_DELTA = 32

#: Compiled key-source kinds (see _ExecStep).
_KEY_VAR = 0
_KEY_CONST = 1
_KEY_EXPR = 2

#: Process-wide memo of the join-order-independent compiled parts of a
#: plan, keyed by (id(rule), trigger position).  Values pin the rule object
#: so a recycled id can never alias a different rule; the cache is dropped
#: wholesale at the (generous) limit to stay bounded across long sweeps.
_STATIC_PARTS: Dict[Tuple[int, int], Tuple[Any, ...]] = {}
_STATIC_PARTS_LIMIT = 4096

#: Process-wide memo of a rule's normal form and join graph, keyed by
#: id(rule) under the same pinning and wholesale limit: rules are immutable
#: and every node's compiler analyses the same program.
_ANALYSES: Dict[int, Tuple[NormalizedRule, JoinGraph]] = {}


@dataclass(frozen=True)
class LookupSpec:
    """How to compute the constraint value for one argument position."""

    position: int
    kind: str  # "var" | "const" | "expr"
    source: Any  # variable name | constant value | Term


@dataclass(frozen=True)
class CompiledStep:
    """One join step of a compiled plan."""

    atom: Atom
    body_position: int
    lookups: Tuple[LookupSpec, ...]
    #: canonical index position tuple ( () means full fragment scan ).
    index_positions: Tuple[int, ...]
    #: leading non-atom literals evaluable once this step has matched.
    literal_prefix: int
    #: optimizer metadata, used by explain() only.
    estimated_rows: float
    connected: bool
    key_covered: bool


class _ExecStep:
    """Runtime form of one join step: closures instead of term trees."""

    __slots__ = (
        "atom",
        "name",
        "location_index",
        "body_position",
        "matcher",
        "full_positions",
        "full_sources",
        "fallback_positions",
        "fallback_sources",
        "has_expr",
        "prefix_literals",
    )

    def __init__(self, step: CompiledStep, bound_vars, literals_c):
        atom = step.atom
        self.atom = atom
        self.name = atom.name
        self.location_index = atom.location_index
        self.body_position = step.body_position
        self.matcher = compile_step_matcher(atom, bound_vars)
        self.prefix_literals = literals_c[: step.literal_prefix]
        # Key sources in canonical (sorted-position) order — the order
        # Table.lookup derives from a constraints dict, and the order the
        # registered indexes hash their keys in.
        ordered = sorted(step.lookups, key=lambda spec: spec.position)
        sources = []
        fallback_positions = []
        fallback_sources = []
        has_expr = False
        for spec in ordered:
            if spec.kind == "var":
                source = (_KEY_VAR, spec.source)
                fallback_positions.append(spec.position)
                fallback_sources.append(source)
            elif spec.kind == "const":
                source = (_KEY_CONST, freeze_value(spec.source))
                fallback_positions.append(spec.position)
                fallback_sources.append(source)
            else:
                source = (_KEY_EXPR, compile_term(spec.source))
                has_expr = True
            sources.append(source)
        self.full_positions = tuple(spec.position for spec in ordered)
        self.full_sources = tuple(sources)
        self.fallback_positions = tuple(fallback_positions)
        self.fallback_sources = tuple(fallback_sources)
        self.has_expr = has_expr

    def build_key(self, sources, binding, functions) -> Tuple[Any, ...]:
        """Evaluate the key sources; EvaluationError propagates (expr only)."""
        key = []
        for kind, payload in sources:
            if kind == _KEY_VAR:
                key.append(freeze_value(binding[payload]))
            elif kind == _KEY_CONST:
                key.append(payload)
            else:
                key.append(freeze_value(payload(binding, functions)))
        return tuple(key)


@dataclass
class CompiledDeltaPlan:
    """A ready-to-run evaluation plan for one (rule, trigger position)."""

    rule: Rule
    trigger_position: int
    trigger_atom: Atom
    steps: Tuple[CompiledStep, ...]
    #: leading non-atom literals evaluable from the trigger binding alone.
    initial_literal_prefix: int
    #: non-trigger atom positions in body order (canonical fact ordering).
    body_order: Tuple[Tuple[int, Atom], ...]
    literals: Tuple[LiteralInfo, ...]
    #: relation -> local cardinality when the plan was compiled.
    cardinality_snapshot: Mapping[str, int]
    estimated_scan: float
    executions: int = 0

    def __post_init__(self) -> None:
        # Closure-compiled runtime forms (see module docstring).  These are
        # pure specializations: they never change results, only dispatch.
        #
        # Everything that does not depend on the chosen join order — the
        # trigger binder, literal/head closures and the two exec-generated
        # functions — is memoized per (rule, trigger position) in a
        # process-wide cache: every node of a network loads the same
        # program, and staleness recompiles only reorder join steps, so
        # regenerating (and re-`compile()`-ing) these per engine and per
        # recompile wasted a large share of network construction time.
        self.multi_step = len(self.steps) >= 2
        key = (id(self.rule), self.trigger_position)
        cached = _STATIC_PARTS.get(key)
        if cached is None or cached[0] is not self.rule:
            is_aggregate = self.rule.is_aggregate_rule
            head = None if is_aggregate else self.rule.head
            literals_c = compile_literals(self.literals)
            label = f"{self.rule.label}@{self.trigger_position}"
            if not self.steps:
                fused = generate_zero_step_executor(
                    self.trigger_atom, self.literals, head, is_aggregate, label
                )
            elif len(self.steps) == 1:
                # A single-step plan has exactly one possible join order, so
                # its fused executor is as stable as the zero-step one.
                fused = generate_one_step_executor(
                    self.trigger_atom,
                    self.steps[0],
                    self.literals,
                    head,
                    is_aggregate,
                    self.initial_literal_prefix,
                    label,
                )
            else:
                fused = None
            cached = (
                self.rule,  # pins the id against reuse after GC
                compile_trigger_binder(self.trigger_atom),
                literals_c,
                None if is_aggregate else compile_head(self.rule.head),
                None if is_aggregate else compile_head_tuple(self.rule.head),
                generate_finalizer(self.literals, head, is_aggregate, label),
                fused,
                is_aggregate,
            )
            if len(_STATIC_PARTS) >= _STATIC_PARTS_LIMIT:
                _STATIC_PARTS.clear()
            _STATIC_PARTS[key] = cached
        (
            _rule,
            self.trigger_binder,
            literals_c,
            self._head_fns,
            self._head_tuple,
            self._finalize_c,
            self.fused_exec,
            self._is_aggregate,
        ) = cached
        self._literals_c = literals_c
        self._initial_prefix_literals = literals_c[: self.initial_literal_prefix]
        bound = {
            arg.name
            for arg in self.trigger_atom.args
            if getattr(arg, "is_wildcard", None) is False
        }
        exec_steps = []
        for step in self.steps:
            exec_steps.append(_ExecStep(step, frozenset(bound), literals_c))
            bound.update(
                arg.name
                for arg in step.atom.args
                if getattr(arg, "is_wildcard", None) is False
            )
        self._exec_steps = tuple(exec_steps)

    # ------------------------------------------------------------------ #
    # staleness
    # ------------------------------------------------------------------ #
    def should_check_staleness(self) -> bool:
        return (
            len(self.steps) >= 2
            and self.executions % STALENESS_CHECK_PERIOD == 0
        )

    def is_stale(self, statistics: CatalogStatistics) -> bool:
        """True when join-relevant cardinalities drifted far from compile time.

        Reordering can only help plans with two or more steps, so
        single-step plans never go stale.
        """
        if len(self.steps) < 2:
            return False
        for name, old in self.cardinality_snapshot.items():
            new = statistics.cardinality(name)
            low, high = min(old, new), max(old, new)
            if high - low >= STALENESS_MIN_DELTA and high >= STALENESS_RATIO * max(low, 1):
                return True
        return False

    # ------------------------------------------------------------------ #
    # batched-pipeline execution (closure-compiled fast path)
    # ------------------------------------------------------------------ #
    def execute(self, engine, delta, binding: Dict[str, Any]) -> None:
        """Run the compiled plan for *delta* given the trigger *binding*."""
        self.executions += 1
        if not self._exec_steps:
            finalize = self._finalize_c
            if finalize is not None:
                finalize(self, engine, binding, (delta.fact,), delta)
            else:
                self._finalize(engine, binding, (delta.fact,), delta)
            return
        if self._initial_prefix_literals and not self._apply_prefix(
            engine, binding, self._initial_prefix_literals
        ):
            return
        self._join_compiled(engine, delta, binding, 0, {})

    def _join_compiled(
        self,
        engine,
        delta,
        binding: Dict[str, Any],
        step_index: int,
        facts: Dict[int, Fact],
    ) -> None:
        step = self._exec_steps[step_index]
        table = engine.catalog.table(step.name)
        stats = engine.stats
        functions = engine.functions
        positions = step.full_positions
        key = None
        if positions:
            if step.has_expr:
                try:
                    key = step.build_key(step.full_sources, binding, functions)
                except EvaluationError:
                    # Same fallback as the interpreter: drop every
                    # expression constraint, keep the var/const ones, and
                    # let the per-row match filter (identically to naive).
                    positions = step.fallback_positions
                    if positions:
                        key = step.build_key(
                            step.fallback_sources, binding, functions
                        )
            else:
                key = step.build_key(step.full_sources, binding, functions)
        if positions:
            stats["index_lookups"] += 1
            bucket = table.probe(positions, key)
            if bucket:
                rows = bucket
                scanned = len(bucket)
            else:
                rows = ()
                scanned = 0
        else:
            stats["full_scans"] += 1
            rows = table.rows()
            scanned = len(rows)
        matcher = step.matcher
        prefix = step.prefix_literals
        last = step_index + 1 == len(self._exec_steps)
        finalize = self._finalize_c
        for row in rows:
            if matcher is not None:
                extended = matcher(row, binding)
            else:
                extended = engine._match_atom(step.atom, row, binding)
            if extended is None:
                continue
            if prefix and not self._apply_prefix(engine, extended, prefix):
                continue
            facts[step.body_position] = Fact(step.name, row, step.location_index)
            if last:
                body_facts = (delta.fact, *(facts[p] for p, _ in self.body_order))
                if finalize is not None:
                    finalize(self, engine, extended, body_facts, delta)
                else:
                    self._finalize(engine, extended, body_facts, delta)
            else:
                self._join_compiled(engine, delta, extended, step_index + 1, facts)
        stats["tuples_scanned"] += scanned

    def _finalize(self, engine, binding, body_facts, delta) -> None:
        """Compiled finalization: literals, then aggregate or head emission.

        Mirrors ``NDlogEngine._finalize_binding`` exactly, including the
        error-message wrapping.  Unlike the interpreter it takes *ownership*
        of ``binding`` instead of copying it into a fresh environment: every
        caller on the compiled path hands over a dict built for exactly one
        finalization (the trigger binder's, or a step matcher's extension),
        so mutating it in place is unobservable.
        """
        env = binding
        functions = engine.functions
        for is_assign, name, fn, literal in self._literals_c:
            if is_assign:
                try:
                    env[name] = fn(env, functions)
                except EvaluationError as exc:
                    raise EvaluationError(
                        f"rule {self.rule.label}: failed to evaluate {literal}: {exc}"
                    ) from exc
            else:
                try:
                    passed = fn(env, functions)
                except EvaluationError as exc:
                    raise EvaluationError(
                        f"rule {self.rule.label}: failed to evaluate {literal}: {exc}"
                    ) from exc
                if not passed:
                    return
        if self._is_aggregate:
            engine._apply_aggregate(self.rule, env, body_facts, delta)
            return
        head = self.rule.head
        head_tuple = self._head_tuple
        if head_tuple is not None:
            head_values: Any = head_tuple(env)
        else:
            head_values = [fn(env, functions) for fn in self._head_fns]
        head_fact = Fact(head.name, head_values, head.location_index)
        engine._emit(self.rule, delta.action, head_fact, env, body_facts, delta)

    def _finalize_replay(self, engine, body_facts, delta) -> None:
        """Re-run one finalization through the interpreter.

        The generated finalizer (:func:`.compiled_exec.generate_finalizer`)
        delegates here on *any* exception: evaluation is pure, so replaying
        from a freshly reconstructed binding reproduces the interpreter's
        exact behaviour — including its wrapped error messages — without
        the generated code carrying per-literal error handling.  The
        binding is rebuilt from the already-matched body facts (the
        generated code may have mutated its env before failing).
        """
        binding = engine._match_atom(self.trigger_atom, body_facts[0].values, {})
        matched = [(self.trigger_atom, body_facts[0])]
        for (_, atom), fact in zip(self.body_order, body_facts[1:]):
            if binding is None:
                break
            binding = engine._match_atom(atom, fact.values, binding)
            matched.append((atom, fact))
        if binding is None:  # pragma: no cover - facts matched moments ago
            raise EvaluationError(
                f"rule {self.rule.label}: internal error re-matching body facts"
            )
        engine._finalize_binding(self.rule, binding, matched, delta)

    @staticmethod
    def _apply_prefix(engine, binding, literals) -> bool:
        """Compiled pushdown prefix; same deferral semantics as interpreted."""
        env = dict(binding)
        functions = engine.functions
        for is_assign, name, fn, _literal in literals:
            if is_assign:
                try:
                    env[name] = fn(env, functions)
                except EvaluationError:
                    return True
            else:
                try:
                    if not fn(env, functions):
                        return False
                except EvaluationError:
                    return True
        return True

    # ------------------------------------------------------------------ #
    # interpreted execution (legacy pipeline and equivalence reference)
    # ------------------------------------------------------------------ #
    def execute_interpreted(self, engine, delta, binding: Dict[str, Any]) -> None:
        """Run the plan by walking term trees (the pre-batching code path)."""
        self.executions += 1
        if not self.steps:
            matched = [(self.trigger_atom, delta.fact)]
            engine._finalize_binding(self.rule, binding, matched, delta)
            return
        if self.initial_literal_prefix and not self._apply_literal_prefix(
            engine, binding, self.initial_literal_prefix
        ):
            return
        facts: Dict[int, Fact] = {}
        self._join(engine, delta, binding, 0, facts)

    def _join(
        self,
        engine,
        delta,
        binding: Dict[str, Any],
        step_index: int,
        facts: Dict[int, Fact],
    ) -> None:
        if step_index == len(self.steps):
            matched = [(self.trigger_atom, delta.fact)]
            for position, atom in self.body_order:
                matched.append((atom, facts[position]))
            engine._finalize_binding(self.rule, binding, matched, delta)
            return
        step = self.steps[step_index]
        constraints = self._constraints(engine, step, binding)
        table = engine.catalog.table(step.atom.name)
        stats = engine.stats
        if constraints:
            stats["index_lookups"] += 1
        else:
            stats["full_scans"] += 1
        scanned = 0
        for row in table.lookup(constraints):
            scanned += 1
            extended = engine._match_atom(step.atom, row, binding)
            if extended is None:
                continue
            if step.literal_prefix and not self._apply_literal_prefix(
                engine, extended, step.literal_prefix
            ):
                continue
            facts[step.body_position] = Fact(
                step.atom.name, row, step.atom.location_index
            )
            self._join(engine, delta, extended, step_index + 1, facts)
        stats["tuples_scanned"] += scanned

    def _constraints(
        self, engine, step: CompiledStep, binding: Dict[str, Any]
    ) -> Dict[int, Any]:
        """Build the {position: value} lookup constraints for *step*.

        If any expression constraint fails to evaluate, every expression
        constraint is dropped and only the variable/constant ones remain:
        that fallback position set is also pre-registered by the compiler,
        so the lookup never builds an untracked index inside the evaluation
        loop.  Dropping constraints is always safe — the surviving rows are
        filtered by ``_match_atom`` exactly as the naive path would.
        """
        constraints: Dict[int, Any] = {}
        expr_specs = []
        for spec in step.lookups:
            if spec.kind == "var":
                constraints[spec.position] = binding[spec.source]
            elif spec.kind == "const":
                constraints[spec.position] = spec.source
            else:
                expr_specs.append(spec)
        for spec in expr_specs:
            try:
                value = spec.source.evaluate(binding, engine.functions)
            except EvaluationError:
                # The naive path evaluates the expression per row inside
                # _match_atom and rejects rows on EvaluationError; fall back
                # to the var/const index so it does the same here.
                for dropped in expr_specs:
                    constraints.pop(dropped.position, None)
                break
            constraints[spec.position] = value
        return constraints

    def _apply_literal_prefix(
        self, engine, binding: Mapping[str, Any], count: int
    ) -> bool:
        """Evaluate the first *count* non-atom literals; False prunes.

        Mirrors finalization: literals run in body order against an
        environment seeded with the atom bindings, assignments overwrite.
        An EvaluationError stops pushdown (the literal runs again at
        finalization, which owns error reporting), it never prunes.

        Prefixes are cumulative — step k re-evaluates literals [0, count)
        rather than slicing from the previous step's count.  That repeats
        some assignment evaluations on bodies with three or more atoms, but
        it keeps the environment construction textually identical to
        finalization's (the equivalence-critical property); the repeated
        work is bounded by the prefix length, which is zero unless the
        prefix contains a pruning condition.
        """
        env = dict(binding)
        functions = engine.functions
        for info in self.literals[:count]:
            literal = info.literal
            if isinstance(literal, Assignment):
                try:
                    env[literal.variable.name] = literal.expression.evaluate(
                        env, functions
                    )
                except EvaluationError:
                    return True
            else:
                try:
                    if not literal.expression.evaluate(env, functions):
                        return False
                except EvaluationError:
                    return True
        return True


class PlanCompiler:
    """Compiles (rule, delta position) pairs into executable plans."""

    def __init__(
        self,
        statistics: CatalogStatistics,
        index_manager: IndexManager,
        optimizer: Optional[GreedyOptimizer] = None,
        cost_model: Optional[CostModel] = None,
    ):
        self.statistics = statistics
        self.index_manager = index_manager
        self.cost_model = (
            cost_model if cost_model is not None else CostModel(statistics)
        )
        self.optimizer = (
            optimizer if optimizer is not None else GreedyOptimizer(self.cost_model)
        )

    @staticmethod
    def _analysis(rule: Rule) -> Tuple[NormalizedRule, JoinGraph]:
        cached = _ANALYSES.get(id(rule))
        if cached is None or cached[0].rule is not rule:
            normalized = normalize_rule(rule)
            cached = (normalized, construct_join_graph(normalized))
            if len(_ANALYSES) >= _STATIC_PARTS_LIMIT:
                _ANALYSES.clear()
            _ANALYSES[id(rule)] = cached
        return cached

    def compile(self, rule: Rule, trigger_position: int) -> CompiledDeltaPlan:
        """Compile the delta plan for *rule* triggered at *trigger_position*."""
        normalized, graph = self._analysis(rule)
        trigger = normalized.signature(trigger_position)
        order: JoinOrder = self.optimizer.order(normalized, graph, trigger_position)

        bound = set(trigger.variables)
        initial_prefix = self._pruning_prefix(normalized, frozenset(bound))
        steps: List[CompiledStep] = []
        for index, ordered in enumerate(order.steps):
            signature = ordered.signature
            estimate = ordered.estimate
            lookups = self._lookup_specs(signature, estimate.bound_positions, bound)
            index_positions = self.index_manager.require(
                signature.name, estimate.bound_positions
            )
            # Pre-register the fallback index used when an expression
            # constraint fails to evaluate at runtime (see _constraints), so
            # that path never lazily builds an untracked index mid-delta.
            fallback = tuple(
                spec.position for spec in lookups if spec.kind != "expr"
            )
            if fallback and len(fallback) < len(lookups):
                self.index_manager.require(signature.name, fallback)
            bound.update(signature.variables)
            is_last = index == len(order.steps) - 1
            # Pushdown after the last step buys nothing: finalization runs
            # immediately afterwards and evaluates every literal anyway.
            prefix = (
                0 if is_last else self._pruning_prefix(normalized, frozenset(bound))
            )
            steps.append(
                CompiledStep(
                    atom=signature.atom,
                    body_position=signature.position,
                    lookups=lookups,
                    index_positions=index_positions,
                    literal_prefix=prefix,
                    estimated_rows=estimate.rows,
                    connected=ordered.connected,
                    key_covered=estimate.key_covered,
                )
            )
        body_order = tuple(
            (signature.position, signature.atom)
            for signature in normalized.atoms
            if signature.position != trigger_position
        )
        snapshot = self.statistics.snapshot(
            signature.name for signature in normalized.atoms
        )
        return CompiledDeltaPlan(
            rule=rule,
            trigger_position=trigger_position,
            trigger_atom=trigger.atom,
            steps=tuple(steps),
            initial_literal_prefix=initial_prefix if steps else 0,
            body_order=body_order,
            literals=normalized.literals,
            cardinality_snapshot=snapshot,
            estimated_scan=order.estimated_scan,
        )

    @staticmethod
    def _pruning_prefix(normalized: NormalizedRule, bound: frozenset) -> int:
        """Evaluable literal prefix, but only when it can actually prune.

        A prefix made solely of assignments never rejects a binding, and
        finalization re-evaluates every literal anyway — so pushing it down
        would be pure re-computation.  Only prefixes containing at least one
        condition are worth evaluating early.
        """
        count = normalized.evaluable_literal_prefix(bound)
        if any(not info.is_assignment for info in normalized.literals[:count]):
            return count
        return 0

    def _lookup_specs(
        self,
        signature,
        bound_positions: Tuple[int, ...],
        bound_vars: set,
    ) -> Tuple[LookupSpec, ...]:
        position_to_var: Dict[int, str] = {}
        for name, positions in signature.var_positions.items():
            for position in positions:
                position_to_var[position] = name
        specs: List[LookupSpec] = []
        for position in bound_positions:
            if position in signature.const_positions:
                specs.append(
                    LookupSpec(
                        position=position,
                        kind="const",
                        source=signature.const_positions[position],
                    )
                )
            elif position in position_to_var and position_to_var[position] in bound_vars:
                specs.append(
                    LookupSpec(
                        position=position, kind="var", source=position_to_var[position]
                    )
                )
            else:
                specs.append(
                    LookupSpec(
                        position=position,
                        kind="expr",
                        source=signature.atom.args[position],
                    )
                )
        return tuple(specs)
