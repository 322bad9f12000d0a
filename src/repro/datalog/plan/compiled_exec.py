"""The generated executor of a compiled delta plan.

Interpreting a rule walks :class:`~repro.datalog.terms.Term` trees and
re-classifies every atom argument on every delta.  Instead, every
(rule, trigger position) plan is translated once, at plan-compile time,
into the Python source of one function and ``exec``-compiled:
``execute(plan, engine, values, delta)`` runs the whole plan over the
delta's raw value tuple —

* the trigger match: arity, constant and repeated-variable checks;
* every join step as a nested loop over one index probe (or full scan) in
  the plan's join order, its table's arity checked once per probe, matched
  over positional ``row[j]`` reads;
* the pushed-down literal prefixes, at the trigger and after each step;
* the rule's assignments and conditions, with assigned variables as
  Python locals;
* head emission (for an aggregate head, its group key and value handed to
  ``NDlogEngine._aggregate``), with the annotation under a policy
  (``CompiledDeltaPlan.annotated``: no policy, no annotation code).

Variables never live in a binding dict on this path: a trigger variable is
``values[i]``, a step variable ``rowK[j]``; only a pushed-down prefix that
raised builds one, as ``_prefix_replay``'s argument.  There is one
emission, this inline one.

Equivalence with term-tree evaluation (``Term.evaluate`` through the
planner's ``match_atom`` and ``finalize``) is the hard requirement —
results feed provenance VIDs, annotations and the committed benchmark
baselines, and ``tests/oracle/`` holds the interpreters they are checked
against.  Errors are therefore *replayed* rather than mirrored:

* any exception while finalizing a match hands the matched rows to
  ``CompiledDeltaPlan._finalize_replay``, which re-evaluates the literals
  and the head through the interpreter and so raises (or not) exactly as
  it would; what it returns — the head row, an aggregate head's group key
  and value, or ``None`` to prune — is emitted as the generated code's own;
* any exception in a pushed-down prefix asks
  ``CompiledDeltaPlan._prefix_replay`` whether the binding survives: an
  :class:`EvaluationError` defers the prefix to finalization, it never
  prunes.

A term the source subset does not cover compiles to a call that raises, so
it, too, is evaluated by the replay.
"""

from __future__ import annotations

from types import CodeType
from typing import Any, Callable, Dict, List

from ..ast import Assignment, Atom, Fact, is_event_predicate
from ...storage.memory import freeze_value
from ..errors import EvaluationError
from ..functions import BUILTINS, _f_sha1, _sha1_cache, _sha1_counts
from ..terms import BinaryOp, Constant, FunctionCall, Term, Variable, _as_text

__all__ = ["generate_executor"]


def _plus(left: Any, right: Any) -> Any:
    """NDlog ``+``: string concatenation wins when either side is a string."""
    if isinstance(left, str) or isinstance(right, str):
        return _as_text(left) + _as_text(right)
    return left + right


def _unsupported() -> Any:
    """Stand-in for a term outside the source subset: the replay evaluates it."""
    raise EvaluationError("term evaluated by the interpreter")


#: Binary operators whose Python spelling matches the interpreter's
#: evaluator lambda exactly (``+`` needs the string-coercion helper).
_DIRECT_BINARY_OPS = frozenset(("-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="))
#: ``&&`` / ``||`` evaluate both operands, as the interpreter does.
_BOOLEAN_OPS = {"&&": "&", "||": "|"}


class _Source:
    """Source text for one generated executor: lines plus its namespace."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.namespace: Dict[str, Any] = {}
        self.locals = 0

    def constant(self, value: Any) -> str:
        """An expression for *value*: a literal, or a name bound to it."""
        if value is None or value is True or value is False:
            return repr(value)
        if type(value) in (int, str):  # repr round-trips exactly
            return repr(value)
        name = f"_c{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def term(self, term: Term, sources: Dict[str, str]) -> str:
        """Python expression for *term*, variables read through *sources*."""
        if isinstance(term, Variable):
            return sources.get(term.name, "_unsupported()")
        if isinstance(term, Constant):
            return self.constant(term.value)
        if isinstance(term, BinaryOp):
            op = term.op
            if op == "+" or op in _DIRECT_BINARY_OPS or op in _BOOLEAN_OPS:
                left = self.term(term.left, sources)
                right = self.term(term.right, sources)
                if op == "+":
                    return f"_plus({left}, {right})"
                if op in _BOOLEAN_OPS:
                    return f"(bool({left}) {_BOOLEAN_OPS[op]} bool({right}))"
                return f"({left} {op} {right})"
        if isinstance(term, FunctionCall) and term.name in BUILTINS:
            # Bound once, here: an unknown name is unsupported, so the
            # replay raises the interpreter's UnknownFunctionError.
            name = f"_{term.name}"
            self.namespace[name] = BUILTINS[term.name]
            args = ", ".join(self.term(arg, sources) for arg in term.args)
            return f"{name}([{args}])"
        return "_unsupported()"

    def assign(self, target: str, expression: Term, sources: Dict[str, str], indent: str) -> None:
        """Assign *expression* to the local *target*.

        An ``f_sha1`` call — every VID and RID the provenance rewrite
        computes — probes the process-wide memo inline and calls the
        builtin only on a miss (which counts the miss and fills the memo).
        A hit counts as one, exactly as inside the builtin; an unhashable
        key falls through to the builtin, which hashes it directly.
        """
        i = indent
        if isinstance(expression, FunctionCall) and expression.name == "f_sha1":
            args = [self.term(arg, sources) for arg in expression.args]
            self.lines += [
                f"{i}_key = {_tuple(args)}",
                f"{i}try:",
                f"{i}    {target} = _sha1_get(_key)",
                f"{i}except TypeError:",
                f"{i}    {target} = None",
                f"{i}if {target} is None:",
                f"{i}    {target} = _f_sha1([*_key])",
                f"{i}else:",
                f"{i}    _sha1_counts[0] += 1",
            ]
        else:
            self.lines.append(f"{i}{target} = {self.term(expression, sources)}")

    def literals(self, infos, sources: Dict[str, str], indent: str, prune: str, local: str):
        """Evaluate *infos* in body order; a failed condition runs *prune*.

        Assigned variables become locals named *local* + a counter, and
        *sources* is updated in place.
        """
        for info in infos:
            literal = info.literal
            if isinstance(literal, Assignment):
                target = f"{local}{self.locals}"
                self.locals += 1
                self.assign(target, literal.expression, sources, indent)
                sources[literal.variable.name] = target
            else:
                self.lines.append(f"{indent}if not {self.term(literal.expression, sources)}:")
                self.lines.append(f"{indent}    {prune}")


def _tuple(sources: List[str]) -> str:
    """A tuple display of *sources*: ``(a, b, )``, ``(a, )`` or ``()``."""
    return "(" + "".join(source + ", " for source in sources) + ")"


def _dict(names: List[str], sources: Dict[str, str]) -> str:
    return "{" + ", ".join(f"{name!r}: {sources[name]}" for name in names) + "}"


def _atom_checks(
    atom: Atom,
    row: str,
    sources: Dict[str, str],
    out: _Source,
    indent: str,
    prune: str,
    arity: bool = True,
) -> List[str]:
    """Match *atom* against the tuple *row*; returns its fresh variables.

    Checks arity (unless the caller checked the row's table once, *arity*
    false), constants, variables bound earlier (read through *sources*)
    and repeats within the row, running *prune* on a mismatch; fresh
    variables are added to *sources* as ``row[j]`` reads.
    """
    checks = [f"len({row}) != {len(atom.args)}"] if arity else []
    fresh: List[str] = []
    local: Dict[str, str] = {}
    for position, arg in enumerate(atom.args):
        value = f"{row}[{position}]"
        if isinstance(arg, Variable):
            if arg.is_wildcard:
                continue
            if arg.name in sources:
                checks.append(f"{sources[arg.name]} != {value}")
            elif arg.name in local:
                checks.append(f"{local[arg.name]} != {value}")
            else:
                local[arg.name] = value
                fresh.append(arg.name)
        else:
            checks.append(f"{out.constant(arg.value)} != {value}")
    for check in checks:
        out.lines.append(f"{indent}if {check}:")
        out.lines.append(f"{indent}    {prune}")
    sources.update(local)
    return fresh


def _annotation_source(plan, rows: Dict[int, str], indent: str) -> List[str]:
    """Lines binding ``_ann``: ``NDlogEngine._annotation_for`` of every body
    row, combined in body order (trigger first, whatever the join order).
    A :class:`Fact` is built only for ``policy.base``."""
    i, trigger = indent, plan.trigger_atom.name
    lines = [
        f"{i}_dann = _a0 = delta.annotation",
        f"{i}if _a0 is None and (_a0 := engine._annotations.get(({trigger!r}, values))) is None:",
        f"{i}    _a0 = engine._policy.base(delta.fact)",
    ]
    for k, (position, atom) in enumerate(plan.body_order, start=1):
        row, name, keyword = rows[position], atom.name, "if"
        if name == trigger:  # the trigger row takes the delta's annotation
            lines += [f"{i}if _dann is not None and {row} == values:", f"{i}    _a{k} = _dann"]
            keyword = "elif"
        fact = f"_Fact({name!r}, {row}, {atom.location_index})"
        lines += [
            f"{i}{keyword} (_a{k} := engine._annotations.get(({name!r}, {row}))) is None:",
            f"{i}    _a{k} = engine._policy.base({fact})",
        ]
    annotations = ", ".join(f"_a{k}" for k in range(len(plan.body_order) + 1))
    return lines + [f"{i}_ann = engine._policy.combine(plan.rule, [{annotations}], engine.address)"]


def _emit_source(plan, rows: Dict[int, str], indent: str, action="delta.action") -> List[str]:
    """Lines emitting the head row ``_values`` as *action* (an expression).

    The counter bump; the annotation under a policy (``None`` for a
    delete); then, without a policy, a local sink applied in place (only a
    materialised head can be one), or else a fact and a delta allocated
    without their ``__init__`` and enqueued or sent.
    """
    i, head = indent, plan.rule.head
    loc = head.location_index
    lines = [f'{i}stats["rule_firings"] += 1', f"{i}_dest = _values[{loc}]"]
    if plan.annotated:
        lines += [f"{i}_ann = None", f'{i}if {action} != "delete":']
        lines += _annotation_source(plan, rows, i + "    ")
    elif not is_event_predicate(head.name):
        lines += [
            f"{i}if _dest == engine.address and "
            f"(_sink := engine._sinks.get({head.name!r})) is not None:",
            f"{i}    _sink({action}, _values, {loc})",
            f"{i}else:",
        ]
        i += "    "
    return lines + [
        f"{i}_fact = _new_fact(_Fact)",
        f"{i}_fact.name = {head.name!r}",
        f"{i}_fact.values = _values",
        f"{i}_fact.location_index = {loc}",
        f"{i}_d = _new_delta(_Delta)",
        f"{i}_d.action = {action}",
        f"{i}_d.fact = _fact",
        f"{i}_d.annotation = {'_ann' if plan.annotated else None}",
        f"{i}if _dest == engine.address:",
        f"{i}    engine._queue.append(_d)",
        f"{i}else:",
        f'{i}    stats["deltas_sent"] += 1',
        f"{i}    _send = engine._send",
        f"{i}    if _send is None:",
        f"{i}        raise _EvaluationError(",
        f'{i}            f"rule {{plan.rule.label}} derived remote tuple '
        f'{{_fact}} but no send callback is configured"',
        f"{i}        )",
        f"{i}    _send(_dest, _d)",
    ]


def _aggregate_source(plan, rows: Dict[int, str], indent: str) -> List[str]:
    """Lines folding ``_key`` / ``_value`` into the head's group.

    ``NDlogEngine._aggregate`` routes the delete of a replaced row and
    returns the row to insert (or, for a refresh, to re-emit), emitted
    here.  Without a policy it also gets the derived row and the matched
    body rows (a one-atom body's row) for the support record.
    """
    i, head = indent, plan.rule.head
    index, spec = head.aggregate()
    twin = ""
    if not plan.annotated and not spec.is_star and len(spec.variables_) == 1:
        key = [f"_key[{position}]" for position in range(head.arity - 1)]
        body = [rows.get(position, "values") for position in range(len(plan.rule.body_atoms))]
        derived = _tuple(key[:index] + ["_value"] + key[index:])
        twin = f", {derived}, {body[0] if len(body) == 1 else _tuple(body)}"
    return [
        f"{i}_values = engine._aggregate(plan.rule, _key, _value, delta{twin})",
        f"{i}if _values is not None:",
        f'{i}    _action = "refresh" if delta.action == "refresh" else "insert"',
        *_emit_source(plan, rows, i + "    ", "_action"),
    ]


def _fed_source(plan, aggregate, indent: str) -> List[str]:
    """Lines looping ``_match`` (body rows, or the row of a one-atom body)
    over what *aggregate*'s record holds for its join-back twin *plan*: on
    the derived row, the matches that yield it; on a body delta, those it
    just folded whose ``_derived`` row is in the table now (see
    ``NDlogEngine._install_rule``).
    """
    i = indent
    lines = [f"{i}_c = engine._aggregate_rules[{aggregate.label!r}]"]
    if plan.trigger_position == 0:
        return lines + [
            f"{i}if not (_matches := _c.support.get(values)):",
            f"{i}    return",
            f"{i}for _match in _matches:",
        ]
    return lines + [
        f"{i}if _c.folded_delta is not delta:",
        f"{i}    return",
        f"{i}_c.folded_delta = None",
        f"{i}_head = _c.head",
        f"{i}for _derived, _match in _c.folded:",
        f"{i}    if _derived not in _head:",
        f"{i}        continue",
    ]


def generate_executor(plan) -> Callable[..., None]:
    """Generate ``execute(plan, engine, values, delta)`` for *plan*.

    *plan* is a :class:`~.compiler.CompiledDeltaPlan` (not imported: the
    compiler imports this module).  Counters — ``index_lookups`` /
    ``full_scans`` / ``tuples_scanned`` and the emission counters — move
    exactly where the interpreter moves them.
    """
    out = _Source()
    rule = plan.rule
    lines = out.lines
    lines.append("def execute(plan, engine, values, delta):")
    sources: Dict[str, str] = {}
    bound = _atom_checks(plan.trigger_atom, "values", sources, out, "    ", "return")
    lines.append("    stats = engine.stats")
    indent, prune = "    ", "return"
    _prefix(out, plan, plan.initial_literal_prefix, bound, sources, indent, prune)
    rows = {}
    if plan.fed_by is not None:
        lines += _fed_source(plan, plan.fed_by, indent)
        indent, prune = indent + "    ", "continue"
    for depth, step in enumerate(plan.steps):
        atom = step.atom
        if plan.fed_by is not None:  # a recorded match stands in for the steps
            row = rows[step.body_position] = f"row{depth}"
            position, single = step.body_position, len(rule.body_atoms) == 2
            match = "_match" if single else f"_match[{position - 1}]"
            lines.append(f"{indent}{row} = " + (match if position else "_derived"))
            bound += _atom_checks(atom, row, sources, out, indent, prune)
            continue
        # Key parts in sorted-position order: the order the registered
        # indexes hash their keys in.
        lookups = sorted(step.lookups, key=lambda spec: spec.position)
        lines.append(f"{indent}table = engine.catalog.table({atom.name!r})")
        if lookups:
            key = [
                sources[spec.source]
                if spec.kind == "var"
                else out.constant(freeze_value(spec.source))
                for spec in lookups
            ]
            positions = tuple(spec.position for spec in lookups)
            # A hashable value is its own frozen image: freeze on TypeError.
            frozen = _tuple([f"_freeze({part})" for part in key])
            lines += [
                f'{indent}stats["index_lookups"] += 1',
                f"{indent}try:",
                f"{indent}    rows{depth} = table.probe({positions!r}, {_tuple(key)})",
                f"{indent}except TypeError:",
                f"{indent}    rows{depth} = table.probe({positions!r}, {frozen})",
                f"{indent}if rows{depth}:",
                f"{indent}    scanned{depth} = len(rows{depth})",
                f"{indent}else:",
                f"{indent}    rows{depth} = ()",
                f"{indent}    scanned{depth} = 0",
            ]
        else:
            lines += [
                f'{indent}stats["full_scans"] += 1',
                f"{indent}rows{depth} = table.rows()",
                f"{indent}scanned{depth} = len(rows{depth})",
            ]
        # A table holds rows of one arity (``Table.insert`` raises otherwise):
        # check it once per probe, after the counters moved.
        row = rows[step.body_position] = f"row{depth}"
        lines += [
            f"{indent}if table.arity != {len(atom.args)}:",
            f"{indent}    rows{depth} = ()",
            f"{indent}for {row} in rows{depth}:",
        ]
        indent, prune = indent + "    ", "continue"
        bound += _atom_checks(atom, row, sources, out, indent, prune, arity=False)
        _prefix(out, plan, step.literal_prefix, bound, sources, indent, prune)
    lines.append(f"{indent}try:")
    out.literals(plan.literals, sources, indent + "    ", prune, "_local")
    head = rule.head
    aggregate = head.aggregate()
    if aggregate is None:
        values = _tuple([out.term(arg, sources) for arg in head.args])
        lines.append(f"{indent}    _values = {values}")
        replayed = "_values"
    else:
        index, spec = aggregate
        key = _tuple(
            [out.term(arg, sources) for position, arg in enumerate(head.args) if position != index]
        )
        if spec.is_star:
            value = "1"
        elif len(spec.variables_) == 1:
            value = sources.get(spec.variables_[0], "_unsupported()")
        else:
            value = _tuple([sources.get(name, "_unsupported()") for name in spec.variables_])
        lines += [f"{indent}    _key = {key}", f"{indent}    _value = {value}"]
        replayed = "_key, _value"
    join_rows = _tuple(["values", *(f"row{depth}" for depth in range(len(plan.steps)))])
    lines += [
        f"{indent}except Exception:",
        f"{indent}    if (_replayed := plan._finalize_replay({join_rows})) is None:",
        f"{indent}        {prune}",
        f"{indent}    {replayed} = _replayed",
    ]
    emit = _emit_source if aggregate is None else _aggregate_source
    lines += emit(plan, rows, indent)
    for depth in reversed(range(0 if plan.fed_by else len(plan.steps))):
        lines.append(f'{"    " * (depth + 1)}stats["tuples_scanned"] += scanned{depth}')
    namespace = out.namespace
    _fill_runtime_namespace(namespace)
    _define("\n".join(lines), f"<plan {rule.label}@{plan.trigger_position}>", namespace)
    return namespace["execute"]


def _prefix(out: _Source, plan, count: int, bound, sources, indent: str, prune: str) -> None:
    """Pushed-down literal prefix: a failed condition prunes.

    Evaluated on copies (the binding is unchanged, finalization re-runs
    every literal); on any exception ``plan._prefix_replay`` decides, with
    the interpreter's semantics, whether the binding survives.
    """
    if not count:
        return
    out.lines.append(f"{indent}try:")
    out.literals(plan.literals[:count], dict(sources), indent + "    ", prune, "_prefix")
    out.lines += [
        f"{indent}except Exception:",
        f"{indent}    if not plan._prefix_replay({_dict(bound, sources)}, {count}):",
        f"{indent}        {prune}",
    ]


#: Generated source text -> its compiled code.  Rules of one shape (every
#: ``*_pexec`` rule of the provenance rewrite, say) generate the same text,
#: so each shape is compiled once per process; the wholesale drop at the
#: limit keeps the memo bounded across long sweeps.
_CODE: Dict[str, CodeType] = {}
_CODE_LIMIT = 4096


def _define(source_text: str, filename: str, namespace: Dict[str, Any]) -> None:
    """Execute generated *source_text* into *namespace*, labelled *filename*.

    The label (``rule@trigger-position``) goes into every code object's
    filename: profilers key functions by ``(filename, line, name)``, so two
    rules sharing one compiled shape must still show up as two rows.
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
    from ..engine import Delta  # local import: the engine imports this package

    namespace["_plus"] = _plus
    namespace["_unsupported"] = _unsupported
    namespace["_freeze"] = freeze_value
    namespace["_Fact"] = Fact
    namespace["_Delta"] = Delta
    namespace["_new_delta"] = Delta.__new__
    namespace["_new_fact"] = Fact.__new__
    namespace["_EvaluationError"] = EvaluationError
    namespace["_f_sha1"] = _f_sha1
    namespace["_sha1_get"] = _sha1_cache.get
    namespace["_sha1_counts"] = _sha1_counts
