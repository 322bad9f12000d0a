"""Closure-compiled and generated executors of compiled delta plans.

Interpreting a rule walks :class:`~repro.datalog.terms.Term` trees and
re-classifies every atom argument (variable? constant? expression?) on
every delta.  That generic dispatch dominates the per-node fixpoint cost
once join *order* is already optimal, so this module compiles each
(rule, trigger position) plan down to plain Python once, at plan-compile
time:

* :func:`compile_term` — one closure per term, mirroring ``Term.evaluate``
  exactly (same values, same :class:`EvaluationError` messages, same
  operator semantics including NDlog string ``+`` coercion);
* :func:`compile_trigger_binder` — a matcher turning a delta's value tuple
  into the trigger binding without per-argument ``isinstance`` dispatch;
* :func:`compile_step_matcher` — the per-row unification check of one join
  step, specialized against the statically-known set of bound variables;
* :func:`compile_literals` / :func:`compile_head` — the rule's non-atom
  literal sequence and head-argument evaluators.

Equivalence with term-tree evaluation (``Term.evaluate``,
``NDlogEngine._match_atom`` and ``_finalize_binding``) is the hard
requirement — results feed provenance VIDs, annotations and the committed
benchmark baselines, and ``tests/oracle/`` holds the interpreters they are
checked against — so every compiled form either reproduces those semantics
exactly or declines to compile (returns ``None``) and the caller falls back
to the generic code.  Expression arguments inside atoms are the one
declined case: matching evaluates them under the partially-extended
binding of the *same* atom, which a static specialization cannot mirror
safely.
"""

from __future__ import annotations

from operator import itemgetter
from types import CodeType
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..ast import Assignment, Atom, is_event_predicate
from ...storage.memory import freeze_value
from ..errors import EvaluationError
from ..functions import _f_sha1, _sha1_cache, _sha1_counts
from ..terms import (
    AggregateSpec,
    BinaryOp,
    Constant,
    FunctionCall,
    Term,
    UnaryOp,
    Variable,
    _BINARY_EVALUATORS,
    _as_text,
)

__all__ = [
    "CompiledTerm",
    "compile_term",
    "compile_trigger_binder",
    "compile_step_matcher",
    "compile_literals",
    "compile_head",
    "compile_head_tuple",
    "generate_finalizer",
    "generate_zero_step_executor",
    "generate_one_step_executor",
]

#: A compiled term: ``fn(env, functions) -> value`` (raises EvaluationError).
CompiledTerm = Callable[[Dict[str, Any], Any], Any]


# ---------------------------------------------------------------------- #
# term compilation
# ---------------------------------------------------------------------- #
def compile_term(term: Term) -> CompiledTerm:
    """Compile *term* into a closure equivalent to ``term.evaluate``."""
    if isinstance(term, Variable):
        name = term.name

        def run_variable(env, functions, _name=name):
            try:
                return env[_name]
            except KeyError:
                raise EvaluationError(f"unbound variable {_name!r}") from None

        return run_variable

    if isinstance(term, Constant):
        value = term.value
        return lambda env, functions, _v=value: _v

    if isinstance(term, UnaryOp):
        op = term.op
        operand = compile_term(term.operand)
        if op == "-":
            return lambda env, functions: -operand(env, functions)
        if op == "!":
            return lambda env, functions: not operand(env, functions)

        def run_bad_unary(env, functions, _op=op, _operand=operand):
            # Mirror UnaryOp.evaluate: the operand is evaluated before the
            # unknown operator is reported.
            _operand(env, functions)
            raise EvaluationError(f"unknown unary operator {_op!r}")

        return run_bad_unary

    if isinstance(term, BinaryOp):
        return _compile_binary(term)

    if isinstance(term, FunctionCall):
        return _compile_call(term)

    if isinstance(term, AggregateSpec):

        def run_aggregate(env, functions):
            raise EvaluationError(
                "aggregate specifications cannot be evaluated as scalar terms"
            )

        return run_aggregate

    # Unknown Term subclass: defer to its own evaluate (still correct).
    return lambda env, functions, _t=term: _t.evaluate(env, functions)


def _plain_variable(term: Term) -> bool:
    return isinstance(term, Variable) and not term.is_wildcard


def _simple_getter(term: Term) -> Optional[Callable[[Dict[str, Any]], Any]]:
    """A C-speed value getter for a plain variable or constant, else None.

    Variable getters raise ``KeyError`` on unbound names; callers translate
    that to the interpreter's ``EvaluationError`` with the same message.
    """
    if _plain_variable(term):
        return itemgetter(term.name)
    if isinstance(term, Constant):
        value = term.value
        return lambda env, _v=value: _v
    return None


def _compile_call(term: FunctionCall) -> CompiledTerm:
    name = term.name

    # Specialization: a (possibly empty) constant prefix followed by plain
    # variables — the exact shape of the rewrite layer's VID assignments,
    # ``f_sha1("link", S, D, C)``.  One itemgetter call fetches every
    # argument at C speed instead of one closure call per argument.
    split = len(term.args)
    for index, arg in enumerate(term.args):
        if not isinstance(arg, Constant):
            split = index
            break
    tail = term.args[split:]
    if tail and all(_plain_variable(arg) for arg in tail):
        consts = tuple(arg.value for arg in term.args[:split])
        names = tuple(arg.name for arg in tail)
        getter = itemgetter(*names)
        single = len(names) == 1

        def run_fast_call(
            env, functions, _name=name, _consts=consts, _get=getter, _single=single
        ):
            try:
                fetched = _get(env)
            except KeyError as missing:
                raise EvaluationError(
                    f"unbound variable {missing.args[0]!r}"
                ) from None
            if _single:
                values = [*_consts, fetched]
            else:
                values = [*_consts, *fetched]
            target = functions._functions.get(_name)
            if target is None:
                return functions.call(_name, values)
            return target(values)

        return run_fast_call

    arg_fns = tuple(compile_term(arg) for arg in term.args)

    def run_call(env, functions, _name=name, _args=arg_fns):
        # Resolve the builtin directly from the registry dict; the `call`
        # wrapper is kept for the unknown-function error path so the raised
        # exception is identical.
        target = functions._functions.get(_name)
        values = [fn(env, functions) for fn in _args]
        if target is None:
            return functions.call(_name, values)
        return target(values)

    return run_call


def _compile_binary(term: BinaryOp) -> CompiledTerm:
    op = term.op
    evaluator = _BINARY_EVALUATORS.get(op)
    if evaluator is None:

        def run_bad(env, functions, _op=op):
            raise EvaluationError(f"unknown binary operator {_op!r}")

        return run_bad

    # Specialization: both operands are plain variables or constants (the
    # common comparison / arithmetic shape) — skip the operand closures.
    left_get = _simple_getter(term.left)
    right_get = _simple_getter(term.right)
    if left_get is not None and right_get is not None:
        if op == "+":

            def run_fast_plus(env, functions, _l=left_get, _r=right_get):
                try:
                    lv = _l(env)
                    rv = _r(env)
                except KeyError as missing:
                    raise EvaluationError(
                        f"unbound variable {missing.args[0]!r}"
                    ) from None
                if isinstance(lv, str) or isinstance(rv, str):
                    return _as_text(lv) + _as_text(rv)
                try:
                    return lv + rv
                except TypeError as exc:
                    raise EvaluationError(
                        f"type error evaluating {lv!r} + {rv!r}: {exc}"
                    ) from exc

            return run_fast_plus

        def run_fast_binary(
            env, functions, _l=left_get, _r=right_get, _op=op, _ev=evaluator
        ):
            try:
                lv = _l(env)
                rv = _r(env)
            except KeyError as missing:
                raise EvaluationError(
                    f"unbound variable {missing.args[0]!r}"
                ) from None
            try:
                return _ev(lv, rv)
            except TypeError as exc:
                raise EvaluationError(
                    f"type error evaluating {lv!r} {_op} {rv!r}: {exc}"
                ) from exc

        return run_fast_binary

    left = compile_term(term.left)
    right = compile_term(term.right)

    if op == "+":

        def run_plus(env, functions, _l=left, _r=right):
            lv = _l(env, functions)
            rv = _r(env, functions)
            if isinstance(lv, str) or isinstance(rv, str):
                return _as_text(lv) + _as_text(rv)
            try:
                return lv + rv
            except TypeError as exc:
                raise EvaluationError(
                    f"type error evaluating {lv!r} + {rv!r}: {exc}"
                ) from exc

        return run_plus

    def run_binary(env, functions, _l=left, _r=right, _op=op, _ev=evaluator):
        lv = _l(env, functions)
        rv = _r(env, functions)
        try:
            return _ev(lv, rv)
        except TypeError as exc:
            raise EvaluationError(
                f"type error evaluating {lv!r} {_op} {rv!r}: {exc}"
            ) from exc

    return run_binary


# ---------------------------------------------------------------------- #
# atom argument classification (shared by binder and step matcher)
# ---------------------------------------------------------------------- #
def _classify_args(
    atom: Atom, bound_vars: frozenset
) -> Optional[
    Tuple[
        List[Tuple[int, Any]],  # constant checks: (position, value)
        List[Tuple[int, str]],  # checks against the incoming binding
        List[Tuple[int, int]],  # within-row repeats: (position, first position)
        List[Tuple[int, str]],  # fresh bindings: (position, variable name)
    ]
]:
    """Statically classify *atom*'s arguments; ``None`` when not compilable.

    ``bound_vars`` is the set of variables guaranteed bound before this atom
    is matched (empty for trigger atoms).  Expression arguments make the
    atom non-compilable: the interpreter evaluates them under the partially
    extended binding of the same atom, which only the generic path mirrors.
    """
    const_checks: List[Tuple[int, Any]] = []
    bound_checks: List[Tuple[int, str]] = []
    repeat_checks: List[Tuple[int, int]] = []
    fresh_binds: List[Tuple[int, str]] = []
    first_seen: Dict[str, int] = {}
    for position, arg in enumerate(atom.args):
        if isinstance(arg, Variable):
            if arg.is_wildcard:
                continue
            name = arg.name
            if name in bound_vars:
                bound_checks.append((position, name))
            elif name in first_seen:
                repeat_checks.append((position, first_seen[name]))
            else:
                first_seen[name] = position
                fresh_binds.append((position, name))
        elif isinstance(arg, Constant):
            const_checks.append((position, arg.value))
        else:
            return None
    return const_checks, bound_checks, repeat_checks, fresh_binds


# ---------------------------------------------------------------------- #
# trigger binder
# ---------------------------------------------------------------------- #
def compile_trigger_binder(
    atom: Atom,
) -> Optional[Callable[[Tuple[Any, ...]], Optional[Dict[str, Any]]]]:
    """Compile the trigger-atom match ``values -> binding`` (or ``None``).

    Returns ``None`` when the atom holds expression arguments, in which case
    the engine falls back to its generic ``_match_atom``.
    """
    classified = _classify_args(atom, frozenset())
    if classified is None:
        return None
    const_checks, _bound, repeat_checks, fresh_binds = classified
    arity = len(atom.args)

    if not const_checks and not repeat_checks and len(fresh_binds) == arity:
        # Fast path: every argument is a distinct plain variable.
        names = tuple(name for _, name in fresh_binds)

        def bind_all(values, _arity=arity, _names=names):
            if len(values) != _arity:
                return None
            return dict(zip(_names, values))

        return bind_all

    consts = tuple(const_checks)
    repeats = tuple(repeat_checks)
    binds = tuple(fresh_binds)

    def bind(values, _arity=arity, _consts=consts, _repeats=repeats, _binds=binds):
        if len(values) != _arity:
            return None
        for position, expected in _consts:
            if expected != values[position]:
                return None
        for position, first in _repeats:
            if values[first] != values[position]:
                return None
        return {name: values[position] for position, name in _binds}

    return bind


# ---------------------------------------------------------------------- #
# join-step matcher
# ---------------------------------------------------------------------- #
def compile_step_matcher(
    atom: Atom, bound_vars: frozenset
) -> Optional[
    Callable[[Tuple[Any, ...], Dict[str, Any]], Optional[Dict[str, Any]]]
]:
    """Compile the per-row match of one join step.

    ``bound_vars`` must hold exactly the variables bound by the trigger atom
    and every earlier step (assignment-derived variables are never in the
    binding on this path, matching the interpreter).  Returns ``None`` for
    atoms with expression arguments.
    """
    classified = _classify_args(atom, bound_vars)
    if classified is None:
        return None
    const_checks, bound_checks, repeat_checks, fresh_binds = classified
    arity = len(atom.args)
    consts = tuple(const_checks)
    bounds = tuple(bound_checks)
    repeats = tuple(repeat_checks)
    binds = tuple(fresh_binds)

    def match(
        row,
        binding,
        _arity=arity,
        _consts=consts,
        _bounds=bounds,
        _repeats=repeats,
        _binds=binds,
    ):
        if len(row) != _arity:
            return None
        for position, expected in _consts:
            if expected != row[position]:
                return None
        for position, name in _bounds:
            if binding[name] != row[position]:
                return None
        for position, first in _repeats:
            if row[first] != row[position]:
                return None
        extended = dict(binding)
        for position, name in _binds:
            extended[name] = row[position]
        return extended

    return match


# ---------------------------------------------------------------------- #
# literal sequence and head
# ---------------------------------------------------------------------- #
def compile_literals(
    literal_infos,
) -> Tuple[Tuple[bool, Optional[str], CompiledTerm, Any], ...]:
    """Compile the rule's non-atom literals (in body order).

    Each entry is ``(is_assignment, bound_name, fn, literal)`` where
    ``literal`` is the source AST node (kept for error messages, which must
    match the interpreter's byte for byte).
    """
    compiled = []
    for info in literal_infos:
        literal = info.literal
        if isinstance(literal, Assignment):
            compiled.append(
                (
                    True,
                    literal.variable.name,
                    compile_term(literal.expression),
                    literal,
                )
            )
        else:
            compiled.append((False, None, compile_term(literal.expression), literal))
    return tuple(compiled)


def compile_head(atom: Atom) -> Tuple[CompiledTerm, ...]:
    """Compile the head atom's argument evaluators (non-aggregate rules)."""
    return tuple(compile_term(arg) for arg in atom.args)


def compile_head_tuple(
    atom: Atom,
) -> Optional[Callable[[Dict[str, Any]], Tuple[Any, ...]]]:
    """All-variable head fast path: one itemgetter builds the value tuple.

    Returns ``None`` unless every head argument is a plain variable (the
    shape of all of the provenance rewrite's bookkeeping rules); callers
    fall back to :func:`compile_head` otherwise.
    """
    if not atom.args or not all(_plain_variable(arg) for arg in atom.args):
        return None
    names = tuple(arg.name for arg in atom.args)
    getter = itemgetter(*names)
    if len(names) == 1:

        def head_single(env, _get=getter):
            try:
                return (_get(env),)
            except KeyError as missing:
                raise EvaluationError(
                    f"unbound variable {missing.args[0]!r}"
                ) from None

        return head_single

    def head_tuple(env, _get=getter):
        try:
            return _get(env)
        except KeyError as missing:
            raise EvaluationError(f"unbound variable {missing.args[0]!r}") from None

    return head_tuple


# ---------------------------------------------------------------------- #
# source-level finalizer generation
# ---------------------------------------------------------------------- #
def _plus(left: Any, right: Any) -> Any:
    """NDlog ``+``: string concatenation wins when either side is a string."""
    if isinstance(left, str) or isinstance(right, str):
        return _as_text(left) + _as_text(right)
    return left + right


#: Binary operators whose Python spelling matches the interpreter's
#: evaluator lambda exactly (``+`` needs the string-coercion helper and the
#: boolean operators need explicit bool()).
_DIRECT_BINARY_OPS = frozenset(
    ("-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=")
)


def _env_resolver(name: str) -> str:
    return f"env[{name!r}]"


def _term_source(
    term: Term, resolve: Callable[[str], Optional[str]] = _env_resolver
) -> Optional[str]:
    """Python expression source for *term*, or ``None`` when not supported.

    ``resolve`` maps a variable name to its source expression (an ``env``
    subscript by default; the zero-step executor resolves trigger variables
    to positional ``values[i]`` reads and assigned variables to generated
    locals).  The generated code runs inside a catch-all try whose handler
    replays the whole finalization through the interpreter, so raw
    ``KeyError`` / ``TypeError`` raised by this source never leak: the
    replay re-raises the interpreter's wrapped :class:`EvaluationError`
    instead.
    """
    if isinstance(term, Variable):
        return resolve(term.name)
    if isinstance(term, Constant):
        value = term.value
        if value is None or value is True or value is False:
            return repr(value)
        if type(value) in (str, int, float):  # repr round-trips exactly
            return repr(value)
        return None
    if isinstance(term, UnaryOp):
        inner = _term_source(term.operand, resolve)
        if inner is None:
            return None
        if term.op == "-":
            return f"(-{inner})"
        if term.op == "!":
            return f"(not {inner})"
        return None
    if isinstance(term, BinaryOp):
        left = _term_source(term.left, resolve)
        right = _term_source(term.right, resolve)
        if left is None or right is None:
            return None
        op = term.op
        if op == "+":
            return f"_plus({left}, {right})"
        if op in _DIRECT_BINARY_OPS:
            return f"({left} {op} {right})"
        if op == "&&":
            return f"(bool({left}) and bool({right}))"
        if op == "||":
            return f"(bool({left}) or bool({right}))"
        return None
    if isinstance(term, FunctionCall):
        args = [_term_source(arg, resolve) for arg in term.args]
        if any(arg is None for arg in args):
            return None
        # Registry lookup stays at call time (engines may re-register
        # builtins); a missing name raises KeyError -> interpreter replay
        # -> the usual UnknownFunctionError.
        return f"functions._functions[{term.name!r}]([{', '.join(args)}])"
    return None


def _tuple_source(sources: List[str]) -> str:
    """A tuple display of *sources*: ``(a, b, )``, ``(a, )`` or ``()``."""
    return "(" + "".join(source + ", " for source in sources) + ")"


def _assignment_source(
    target: str,
    expression: Term,
    indent: str,
    resolve: Callable[[str], Optional[str]] = _env_resolver,
) -> Optional[List[str]]:
    """Source lines assigning *expression* to *target* (``None``: unsupported).

    An ``f_sha1`` call — every VID and RID the provenance rewrite computes
    — probes the process-wide memo inline and calls the registered builtin
    only on a miss (which counts the miss and fills the memo).  A hit counts
    as one, exactly as inside the builtin.  The memo is skipped when
    ``f_sha1`` was re-registered (the registered function wins) and misses
    whenever caching is off (the memo is then empty); an unhashable key
    falls through to the builtin, which hashes it directly.
    """
    i = indent
    if isinstance(expression, FunctionCall) and expression.name == "f_sha1":
        args = [_term_source(arg, resolve) for arg in expression.args]
        if any(arg is None for arg in args):
            return None
        return [
            f"{i}_key = {_tuple_source(args)}",
            f"{i}try:",
            f"{i}    {target} = _sha1_get(_key) "
            "if functions._functions['f_sha1'] is _f_sha1 else None",
            f"{i}except TypeError:",
            f"{i}    {target} = None",
            f"{i}if {target} is None:",
            f"{i}    {target} = functions._functions['f_sha1']([*_key])",
            f"{i}else:",
            f"{i}    _sha1_counts[0] += 1",
        ]
    source = _term_source(expression, resolve)
    if source is None:
        return None
    return [f"{i}{target} = {source}"]


def generate_finalizer(
    literal_infos, head: Optional[Atom], is_aggregate: bool, label: str
) -> Optional[Callable[..., None]]:
    """Generate a straight-line finalizer function for one compiled plan.

    Translates the rule's non-atom literal sequence plus the head emission
    into exec-compiled Python source, eliminating the per-literal dispatch
    of the closure-based finalizer.  Signature of the generated function:
    ``finalize(plan, engine, env, body_facts, delta)``; it takes ownership
    of ``env`` exactly like ``CompiledDeltaPlan._finalize``.

    Error handling is *replay-based*: evaluation is pure, so on any
    exception the handler delegates the entire finalization to the
    interpreted ``plan._finalize_replay`` which reproduces the exact
    interpreter behaviour (including wrapped error messages).  Emission and
    aggregate application are stateful and therefore sit outside the
    guarded region — they run exactly once on either path.

    Returns ``None`` when any term falls outside the supported source
    subset; callers keep the closure-based finalizer for those plans.

    *label* (``rule@trigger-position``, here and in the fused executors)
    goes into the code object's filename: profilers key functions by
    ``(filename, line, name)``, and without it every generated function
    would share one label and overwrite the others' rows.
    """
    lines = [
        "def finalize(plan, engine, env, body_facts, delta):",
        "    functions = engine.functions",
        "    try:",
    ]
    for info in literal_infos:
        literal = info.literal
        if isinstance(literal, Assignment):
            assigned = _assignment_source(
                f"env[{literal.variable.name!r}]", literal.expression, "        "
            )
            if assigned is None:
                return None
            lines.extend(assigned)
        else:
            source = _term_source(literal.expression)
            if source is None:
                return None
            lines.append(f"        if not {source}:")
            lines.append("            return")
    if is_aggregate:
        emit = ["    engine._apply_aggregate(plan.rule, env, body_facts, delta)"]
    else:
        if head is None:
            return None
        head_sources = [_term_source(arg) for arg in head.args]
        if any(source is None for source in head_sources):
            return None
        lines.append(f"        _values = {_tuple_source(head_sources)}")
        emit = [
            f"    _fact = _Fact({head.name!r}, _values, {head.location_index!r})",
            "    engine._emit(plan.rule, delta.action, _fact, env, body_facts, delta)",
        ]
    if lines[-1] != "    try:":  # something to guard
        lines.append("    except Exception:")
        lines.append("        plan._finalize_replay(engine, body_facts, delta)")
        lines.append("        return")
    else:
        lines = lines[:-1]  # nothing to guard: drop the try
    namespace: Dict[str, Any] = {}
    _fill_runtime_namespace(namespace)
    _define("\n".join(lines + emit), f"<plan-finalizer {label}>", namespace)
    return namespace["finalize"]


def generate_zero_step_executor(
    trigger_atom: Atom,
    literal_infos,
    head: Optional[Atom],
    is_aggregate: bool,
    label: str,
) -> Optional[Callable[..., None]]:
    """Generate the fully fused executor for a plan with no join steps.

    Zero-step plans — every bookkeeping rule the provenance rewrite emits —
    spend their whole budget on dict traffic: a binder dict per delta, an
    ``env`` read per variable occurrence.  This generator fuses trigger
    matching, literal evaluation and head emission into one exec-compiled
    function over the delta's raw value tuple: trigger variables become
    positional ``values[i]`` reads, assigned variables become Python
    locals, and the binding dict is only materialized when a rule listener
    actually needs it.  Signature: ``execute0(plan, engine, values, delta)``.

    Semantics are identical to ``CompiledDeltaPlan.execute`` on a zero-step
    plan: same trigger-match checks, same ``executions`` accounting, and
    the same replay-based error handling (see :func:`generate_finalizer`).
    Returns ``None`` when the rule needs the dict-based path (aggregate
    head, expression trigger arguments, unsupported terms).
    """
    if is_aggregate:
        return None  # _apply_aggregate reads the env mapping directly
    if head is None:
        return None
    classified = _classify_args(trigger_atom, frozenset())
    if classified is None:
        return None
    const_checks, _bound, repeat_checks, fresh_binds = classified
    arity = len(trigger_atom.args)

    sources: Dict[str, str] = {
        name: f"values[{position}]" for position, name in fresh_binds
    }

    def resolve(name: str) -> Optional[str]:
        return sources.get(name)

    namespace: Dict[str, Any] = {}
    lines = [
        "def execute0(plan, engine, values, delta):",
        f"    if len(values) != {arity}:",
        "        return",
    ]
    for index, (position, value) in enumerate(const_checks):
        namespace[f"_const{index}"] = value
        lines.append(f"    if _const{index} != values[{position}]:")
        lines.append("        return")
    for position, first in repeat_checks:
        lines.append(f"    if values[{first}] != values[{position}]:")
        lines.append("        return")
    lines.append("    plan.executions += 1")
    lines.append("    functions = engine.functions")
    lines.append("    try:")
    local_index = 0
    assigned_order: List[str] = []  # assignment targets, first-written order
    for info in literal_infos:
        literal = info.literal
        if isinstance(literal, Assignment):
            local = f"_local{local_index}"
            local_index += 1
            assigned = _assignment_source(
                local, literal.expression, "        ", resolve
            )
            if assigned is None:
                return None
            name = literal.variable.name
            if name not in assigned_order and name not in sources:
                assigned_order.append(name)
            lines.extend(assigned)
            sources[name] = local
        else:
            source = _term_source(literal.expression, resolve)
            if source is None:
                return None
            lines.append(f"        if not {source}:")
            lines.append("            return")
    head_sources = [_term_source(arg, resolve) for arg in head.args]
    if any(source is None for source in head_sources):
        return None
    lines.append(f"        _values = {_tuple_source(head_sources)}")
    lines.append("    except Exception:")
    lines.append("        plan._finalize_replay(engine, (delta.fact,), delta)")
    lines.append("        return")
    # The env dict exists only for rule listeners; reproduce the
    # interpreter's exact key order — trigger variables in argument order,
    # then assignment targets in first-written order (overwritten trigger
    # variables keep their position but carry the final value).
    env_pairs = [
        f"{name!r}: {sources[name]}" for _, name in fresh_binds
    ] + [f"{name!r}: {sources[name]}" for name in assigned_order]
    lines.extend(
        _emit_source(
            indent="    ",
            head_name=head.name,
            head_location_index=head.location_index,
            env_literal="{" + ", ".join(env_pairs) + "}",
            body_facts_source="(delta.fact,)",
        )
    )
    _fill_runtime_namespace(namespace)
    source_text = "\n".join(lines)
    _define(source_text, f"<plan-zero-step {label}>", namespace)
    return namespace["execute0"]


def _emit_source(
    indent: str,
    head_name: str,
    head_location_index: int,
    env_literal: str,
    body_facts_source: str,
) -> List[str]:
    """Source lines emitting the head row from a fused executor.

    When the engine has no annotation policy and no rule listeners — the
    reference-provenance configuration the rewrite runs under — the entire
    ``_emit`` body is inlined: counter bump, then a local sink applied in
    place, or a fact and a delta allocated without their ``__init__`` (the
    values are a tuple, the action the source delta's) and enqueued or
    sent.  Only a materialised head can be a sink (``NDlogEngine._sinks``),
    so event heads carry no sink probe.  Every other configuration falls back to
    ``engine._emit`` with the listener env built outside the replay guard
    (all names it reads were bound inside it).  Semantics and counters are
    identical to ``NDlogEngine._emit`` in both branches.
    """
    i = indent
    loc = repr(head_location_index)
    fact = f"_Fact({head_name!r}, _values, {loc})"
    lines = [
        f"{i}if engine.annotation_policy is None and not engine._rule_listeners:",
        f"{i}    stats = engine.stats",
        f'{i}    stats["rule_firings"] += 1',
        f"{i}    _dest = _values[{loc}]",
    ]
    j = i + "    "
    if not is_event_predicate(head_name):
        lines += [
            f"{j}if _dest == engine.address and "
            f"(_sink := engine._sinks.get({head_name!r})) is not None:",
            f"{j}    _sink(delta.action, _values, {loc})",
            f"{j}else:",
        ]
        j += "    "
    return lines + [
        f"{j}_fact = _new_fact(_Fact)",
        f"{j}_fact.name = {head_name!r}",
        f"{j}_fact.values = _values",
        f"{j}_fact.location_index = {loc}",
        f"{j}_d = _new_delta(_Delta)",
        f"{j}_d.action = delta.action",
        f"{j}_d.fact = _fact",
        f"{j}_d.annotation = None",
        f"{j}if _dest == engine.address:",
        f"{j}    engine._queue.append(_d)",
        f"{j}else:",
        f'{j}    stats["deltas_sent"] += 1',
        f"{j}    _send = engine._send",
        f"{j}    if _send is None:",
        f"{j}        raise _EvaluationError(",
        f'{j}            f"rule {{plan.rule.label}} derived remote tuple '
        f'{{_fact}} but no send callback is configured"',
        f"{j}        )",
        f"{j}    _send(_dest, _d)",
        f"{i}else:",
        f"{i}    if engine._rule_listeners:",
        f"{i}        env = {env_literal}",
        f"{i}    else:",
        f"{i}        env = None",
        f"{i}    engine._emit(plan.rule, delta.action, {fact}, env,"
        f" {body_facts_source}, delta)",
    ]


#: Generated source text -> its compiled code.  Rules of one shape (every
#: ``*_pexec`` rule of the provenance rewrite, say) generate the same text,
#: so each shape is compiled once per process; the wholesale drop at the
#: limit keeps the memo bounded across long sweeps.
_CODE: Dict[str, CodeType] = {}
_CODE_LIMIT = 4096


def _define(source_text: str, filename: str, namespace: Dict[str, Any]) -> None:
    """Execute generated *source_text* into *namespace*, labelled *filename*.

    The label goes into every code object's filename: profilers key
    functions by ``(filename, line, name)``, so two rules sharing one
    compiled shape must still show up as two rows.
    """
    code = _CODE.get(source_text)
    if code is None:
        if len(_CODE) >= _CODE_LIMIT:
            _CODE.clear()
        code = _CODE[source_text] = compile(source_text, filename, "exec")
    exec(_relabel(code, filename), namespace)  # noqa: S102


def _relabel(code: CodeType, filename: str) -> CodeType:
    if code.co_filename == filename:
        return code
    return code.replace(
        co_filename=filename,
        co_consts=tuple(
            _relabel(const, filename) if isinstance(const, CodeType) else const
            for const in code.co_consts
        ),
    )


def _fill_runtime_namespace(namespace: Dict[str, Any]) -> None:
    """Bind the runtime helpers the generated code references."""
    from ..ast import Fact  # local imports: ast must not depend on this module
    from ..engine import Delta

    namespace["_plus"] = _plus
    namespace["_Fact"] = Fact
    namespace["_Delta"] = Delta
    namespace["_new_delta"] = Delta.__new__
    namespace["_new_fact"] = Fact.__new__
    namespace["_EvaluationError"] = EvaluationError
    namespace["_f_sha1"] = _f_sha1
    namespace["_sha1_get"] = _sha1_cache.get
    namespace["_sha1_counts"] = _sha1_counts


def generate_one_step_executor(
    trigger_atom: Atom,
    step,  # CompiledStep (not imported: avoids a module cycle)
    literal_infos,
    head: Optional[Atom],
    is_aggregate: bool,
    initial_literal_prefix: int,
    label: str,
) -> Optional[Callable[..., None]]:
    """Generate the fused executor for a plan with exactly one join step.

    Extends :func:`generate_zero_step_executor` with an inlined index
    probe: the lookup key is built positionally from the delta's values,
    the bucket is fetched once, and per-row matching/finalization runs over
    positional ``row[j]`` reads — no binding dict, no per-row closure
    dispatch.  Counter updates (``index_lookups`` / ``full_scans`` /
    ``tuples_scanned``) are identical to the dict-based path.

    Returns ``None`` whenever any piece needs the general machinery
    (aggregates, expression arguments, pushed-down literal prefixes).
    """
    if is_aggregate or head is None or initial_literal_prefix:
        return None
    trigger_classified = _classify_args(trigger_atom, frozenset())
    if trigger_classified is None:
        return None
    t_consts, _tb, t_repeats, t_binds = trigger_classified
    trigger_vars = frozenset(name for _, name in t_binds)
    step_atom: Atom = step.atom
    step_classified = _classify_args(step_atom, trigger_vars)
    if step_classified is None:
        return None
    s_consts, s_bounds, s_repeats, s_binds = step_classified
    if step.literal_prefix:
        return None
    lookups = sorted(step.lookups, key=lambda spec: spec.position)
    if any(spec.kind == "expr" for spec in lookups):
        return None

    sources: Dict[str, str] = {
        name: f"values[{position}]" for position, name in t_binds
    }
    trigger_sources = dict(sources)
    step_new_sources = {name: f"row[{position}]" for position, name in s_binds}
    sources.update(step_new_sources)

    def resolve(name: str) -> Optional[str]:
        return sources.get(name)

    namespace: Dict[str, Any] = {}
    arity = len(trigger_atom.args)
    lines = [
        "def execute1(plan, engine, values, delta):",
        f"    if len(values) != {arity}:",
        "        return",
    ]
    for index, (position, value) in enumerate(t_consts):
        namespace[f"_tconst{index}"] = value
        lines.append(f"    if _tconst{index} != values[{position}]:")
        lines.append("        return")
    for position, first in t_repeats:
        lines.append(f"    if values[{first}] != values[{position}]:")
        lines.append("        return")
    lines.append("    plan.executions += 1")
    lines.append("    functions = engine.functions")
    lines.append(f"    table = engine.catalog.table({step_atom.name!r})")
    lines.append("    stats = engine.stats")
    if lookups:
        key_parts = []
        for index, spec in enumerate(lookups):
            if spec.kind == "const":
                namespace[f"_kconst{index}"] = freeze_value(spec.source)
                key_parts.append(f"_kconst{index}")
            else:
                source = trigger_sources.get(spec.source)
                if source is None:  # pragma: no cover - compiler guarantees
                    return None
                key_parts.append(f"_freeze({source})")
        if len(key_parts) == 1:
            key_tuple = f"({key_parts[0]},)"
        else:
            key_tuple = "(" + ", ".join(key_parts) + ")"
        positions = tuple(spec.position for spec in lookups)
        lines.append('    stats["index_lookups"] += 1')
        lines.append(f"    bucket = table.probe({positions!r}, {key_tuple})")
        lines.append("    if bucket:")
        lines.append("        rows = bucket")
        lines.append("        scanned = len(bucket)")
        lines.append("    else:")
        lines.append("        rows = ()")
        lines.append("        scanned = 0")
    else:
        lines.append('    stats["full_scans"] += 1')
        lines.append("    rows = table.rows()")
        lines.append("    scanned = len(rows)")
    step_arity = len(step_atom.args)
    lines.append("    for row in rows:")
    lines.append(f"        if len(row) != {step_arity}:")
    lines.append("            continue")
    for index, (position, value) in enumerate(s_consts):
        namespace[f"_sconst{index}"] = value
        lines.append(f"        if _sconst{index} != row[{position}]:")
        lines.append("            continue")
    for position, name in s_bounds:
        lines.append(f"        if {trigger_sources[name]} != row[{position}]:")
        lines.append("            continue")
    for position, first in s_repeats:
        lines.append(f"        if row[{first}] != row[{position}]:")
        lines.append("            continue")
    local_index = 0
    assigned_order: List[str] = []
    row_sources = dict(sources)  # per-row resolution incl. assignment locals

    def resolve_row(name: str) -> Optional[str]:
        return row_sources.get(name)

    body = []
    for info in literal_infos:
        literal = info.literal
        if isinstance(literal, Assignment):
            local = f"_local{local_index}"
            local_index += 1
            assigned = _assignment_source(
                local, literal.expression, "            ", resolve_row
            )
            if assigned is None:
                return None
            name = literal.variable.name
            if name not in assigned_order and name not in sources:
                assigned_order.append(name)
            body.extend(assigned)
            row_sources[name] = local
        else:
            source = _term_source(literal.expression, resolve_row)
            if source is None:
                return None
            body.append(f"            if not {source}:")
            body.append("                continue")
    head_sources = [_term_source(arg, resolve_row) for arg in head.args]
    if any(source is None for source in head_sources):
        return None
    # The matched row as a Fact is read only off the hot path (error
    # replay, rule listeners, annotation policies): built where it is used.
    body_facts = (
        f"(delta.fact, _Fact({step_atom.name!r}, row, "
        f"{step_atom.location_index!r}))"
    )
    lines.append("        try:")
    lines.extend(body)
    lines.append(f"            _values = {_tuple_source(head_sources)}")
    lines.append("        except Exception:")
    lines.append(f"            plan._finalize_replay(engine, {body_facts}, delta)")
    lines.append("            continue")
    env_pairs = (
        [f"{name!r}: {row_sources[name]}" for _, name in t_binds]
        + [f"{name!r}: {row_sources[name]}" for _, name in s_binds]
        + [f"{name!r}: {row_sources[name]}" for name in assigned_order]
    )
    lines.extend(
        _emit_source(
            indent="        ",
            head_name=head.name,
            head_location_index=head.location_index,
            env_literal="{" + ", ".join(env_pairs) + "}",
            body_facts_source=body_facts,
        )
    )
    lines.append('    stats["tuples_scanned"] += scanned')
    _fill_runtime_namespace(namespace)
    namespace["_freeze"] = freeze_value
    source_text = "\n".join(lines)
    _define(source_text, f"<plan-one-step {label}>", namespace)
    return namespace["execute1"]
