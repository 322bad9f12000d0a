"""Columnar batch evaluation core (``pipeline="columnar"``).

The batched pipeline (PR 3) amortizes *dispatch* but still evaluates one
delta tuple at a time: every delta pays a ``_fire_rules`` walk, a per-tuple
index probe, per-tuple counter updates and a queue round-trip.  Worse, the
provenance rewrite's emission pattern *alternates* predicates (each
``eProvTmp`` delta emits a ``ruleExec`` row and an ``eProvMsg`` event, so
the queue reads ``rE, eM, rE, eM, ...``), which means most deltas are
singleton runs that consecutive-run batching cannot group at all.

This module evaluates whole *windows* of the delta queue instead:

1. ``run()`` drains the queue into a window (bounded by ``max_steps``);
2. the window is cut into *segments* — maximal prefixes in which no
   predicate writes a table that another grouped predicate reads — via the
   per-predicate read/write sets of the compiled plans;
3. within a segment, deltas are regrouped by predicate into
   :class:`ColumnBlock` batches (non-consecutive deltas included, original
   queue order preserved inside each block);
4. table mutations are applied per block in queue order, then each
   (rule, trigger) firing runs as one *batch kernel* over the whole block:
   a selection vector of trigger-matching deltas, a precomputed key column,
   one :meth:`~repro.datalog.catalog.Table.probe_many` bulk index probe,
   and a tight emission loop over the probed buckets;
5. every emission is buffered per source delta and *replayed* in exact
   per-delta, per-firing order afterwards — local head deltas join the
   back of the queue and remote ones hit the send callback in precisely
   the sequence the per-tuple pipelines produce.

Because all original window deltas precede any derived delta in FIFO
order, and the segment conflict check guarantees each firing joins against
the same table state it would have seen under per-tuple processing, the
fixpoints, VIDs, provenance rows, annotations and ``stats`` counters are
bit-identical to ``pipeline="batched"`` and ``pipeline="delta"`` — the
equivalence sweep in ``tests/test_plan_equivalence.py`` enforces this, and
both older pipelines are retained as oracles.

Anything the kernels cannot batch safely falls back to the batched
pipeline's own code paths at the finest grain that stays correct:

* engines with an annotation policy or rule listeners run the batched
  loop wholesale (``NDlogEngine.run`` checks before entering this module);
* predicates whose plans read their own table (self-joins) or re-cost
  themselves against live cardinalities (multi-step staleness checks)
  process apply+fire per delta, in order, with emissions buffered;
* aggregate and multi-step plans fire through the engine's per-delta
  machinery inside :func:`run_generic_firing` (emissions redirected).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..aggregates import AggregateState
from ..ast import Atom, is_event_predicate
from ..errors import EvaluationError
from ..functions import (
    _DEFAULTS as _DEFAULT_FUNCTIONS,
    _sha1_cache,
    _stringify,
    note_sha1_hits,
    sha1_for_preimage,
)
from ..terms import BinaryOp, Constant, FunctionCall, UnaryOp, Variable
from .compiled_exec import _DIRECT_BINARY_OPS, _classify_args, _plus
from .compiler import STALENESS_CHECK_PERIOD, CompiledDeltaPlan

__all__ = [
    "ColumnBlock",
    "batch_kernel_for",
    "describe_kernel",
    "process_window",
    "predicate_info",
]


# ---------------------------------------------------------------------- #
# per-predicate dispatch metadata
# ---------------------------------------------------------------------- #
#: Group evaluation modes (see :class:`PredicateInfo.mode`).
EVENT = "event"  #: transient predicate: no table, fire kernels only
VECTOR = "vector"  #: materialized: batch apply phase, then batch kernels
SEQUENTIAL = "sequential"  #: per-delta apply+fire (self-join / staleness)


class PredicateInfo:
    """How the columnar pipeline evaluates one predicate's delta blocks.

    ``reads`` is the union of every table the predicate's firings consult:
    join-step fragments for 0/1-step plans, and — for multi-step plans,
    whose staleness re-costing reads live cardinalities — every body
    relation of the rule.  The segment builder uses it (with ``writes`` =
    the predicate itself when materialized) to decide which predicates may
    share a segment without observing each other's mutations early.
    """

    __slots__ = ("name", "is_event", "mode", "reads", "firings", "kernels")

    def __init__(self, name, is_event, mode, reads, firings, kernels):
        self.name = name
        self.is_event = is_event
        self.mode = mode
        self.reads = reads
        self.firings = firings
        self.kernels = kernels


def predicate_info(engine, name: str) -> PredicateInfo:
    """Build (and cache on the engine) the dispatch metadata for *name*."""
    is_event = engine._event_names.get(name)
    if is_event is None:
        is_event = engine._event_names[name] = is_event_predicate(name)
    firings = engine._firings_by_predicate.get(name, ())
    reads: set = set()
    sequential = False
    kernels: List[Optional[Callable]] = []
    for firing in firings:
        plan = firing.plan
        if plan is None:
            # Uncompiled rule: the generic path plans lazily and may touch
            # any body fragment — treat every body atom as read and keep
            # the whole trigger predicate per-delta when materialized.
            reads.update(atom.name for atom in firing.rule.body_atoms)
            if not is_event:
                sequential = True
            kernels.append(None)
            continue
        if plan.multi_step:
            # Staleness re-costing compares live cardinalities of every
            # body relation (the trigger's own table included), so batch
            # apply/fire phase separation could flip a recompile decision.
            reads.update(plan.cardinality_snapshot.keys())
            reads.update(step.atom.name for step in plan.steps)
            if not is_event:
                sequential = True
            kernels.append(None)
            continue
        for step in plan.steps:
            reads.add(step.atom.name)
        kernels.append(batch_kernel_for(plan))
    if not is_event and name in reads:
        sequential = True  # self-join: each firing must see prior mutations
    if is_event:
        mode = EVENT
    elif sequential:
        mode = SEQUENTIAL
    else:
        mode = VECTOR
    info = PredicateInfo(name, is_event, mode, frozenset(reads), firings, kernels)
    engine._columnar_info[name] = info
    return info


class ColumnBlock:
    """One predicate's deltas within a segment, in queue order.

    ``items`` holds ``(slot, delta)`` pairs where ``slot`` is the delta's
    position inside the window segment — the key under which its buffered
    emissions are replayed.  Columns are extracted lazily; the batch
    kernels build their probe-key columns from these positional reads.
    """

    __slots__ = ("info", "items")

    def __init__(self, info: PredicateInfo):
        self.info = info
        self.items: List[Tuple[int, Any]] = []

    def __len__(self) -> int:
        return len(self.items)

    def column(self, position: int) -> List[Any]:
        """Extract one trigger-attribute column across the block."""
        return [delta.fact.values[position] for _, delta in self.items]


class _Ready(list):
    """Emissions already produced (sequential groups), awaiting replay."""

    __slots__ = ()


class EmissionCapture:
    """Stand-in for the engine queue / send callback during buffering.

    Installed over ``engine._queue`` (it only needs ``append``) and —
    when a real send callback exists — ``engine._send`` while per-delta
    fallback code runs, so every emission lands in the current delta's
    ordered buffer instead of escaping early.  When no send callback is
    configured ``engine._send`` is left as ``None`` so ``_emit`` raises
    the exact per-tuple :class:`EvaluationError`.
    """

    __slots__ = ("out",)

    def __init__(self):
        self.out: Optional[List[Any]] = None

    def append(self, delta) -> None:
        self.out.append(delta)

    def send(self, destination, delta) -> None:
        self.out.append((destination, delta))


# ---------------------------------------------------------------------- #
# batch kernel generation
# ---------------------------------------------------------------------- #
#: Generated batch kernels memoized per (rule identity, trigger position),
#: mirroring the compiler's _STATIC_PARTS idiom: every node runs the same
#: program, and 0/1-step plans are never reordered by staleness recompiles,
#: so one codegen pass serves every engine in the network.
_KERNELS: Dict[Tuple[int, int], Tuple[Any, Optional[Callable]]] = {}
_KERNELS_LIMIT = 4096


def batch_kernel_for(plan: CompiledDeltaPlan) -> Optional[Callable]:
    """The generated batch kernel for *plan*, or ``None`` (generic path)."""
    try:
        return plan._batch_kernel
    except AttributeError:
        pass
    key = (id(plan.rule), plan.trigger_position)
    cached = _KERNELS.get(key)
    if cached is not None and cached[0] is plan.rule:
        kernel = cached[1]
    else:
        is_aggregate = plan.rule.is_aggregate_rule
        head = None if is_aggregate else plan.rule.head
        label = f"{plan.rule.label}@{plan.trigger_position}"
        if is_aggregate:
            if not plan.steps:
                kernel = generate_aggregate_kernel(
                    plan.trigger_atom, plan.literals, plan.rule, label
                )
            else:
                kernel = None
        elif not plan.steps:
            kernel = generate_zero_step_kernel(
                plan.trigger_atom, plan.literals, head, is_aggregate, label
            )
        elif len(plan.steps) == 1:
            kernel = generate_one_step_kernel(
                plan.trigger_atom,
                plan.steps[0],
                plan.literals,
                head,
                is_aggregate,
                plan.initial_literal_prefix,
                label,
            )
        else:
            kernel = None
        if len(_KERNELS) >= _KERNELS_LIMIT:
            _KERNELS.clear()
        _KERNELS[key] = (plan.rule, kernel)
    plan._batch_kernel = kernel
    return kernel


def _replay(plan, engine, body_facts, delta, buffer) -> None:
    """Replay one failed finalization with emissions redirected to *buffer*.

    Mirrors the per-tuple executors' replay-based error handling (see
    :func:`..compiled_exec.generate_finalizer`): evaluation is pure, so the
    interpreter reproduces the exact wrapped error — but its emissions go
    through ``engine._emit``, which must feed the ordered buffer here.
    """
    capture = engine._columnar_capture
    saved_queue = engine._queue
    saved_send = engine._send
    saved_out = capture.out
    capture.out = buffer
    engine._queue = capture
    if saved_send is not None:
        engine._send = capture.send
    try:
        plan._finalize_replay(engine, body_facts, delta)
    finally:
        capture.out = saved_out
        engine._queue = saved_queue
        engine._send = saved_send


#: Sentinel a generated kernel returns when its runtime guard finds a
#: builtin it inlined (``f_sha1`` / ``f_concat``) rebound on this engine —
#: the caller falls back to :func:`run_generic_firing`, which consults the
#: live registry per tuple exactly like the batched pipeline.
GENERIC_FALLBACK = object()


def _stringify_part(value) -> str:
    """``functions._stringify`` with C fast paths for the hot part types.

    The dynamic non-string parts of provenance preimages are integer
    costs and VID buffers / path vectors — flat sequences of strings
    (tuples, or lists on facts handed in from outside) — for which
    ``str`` and ``"".join`` render the identical text
    without the per-element Python recursion.  A sequence member that is
    not a string raises TypeError and falls back to the general renderer.
    """
    cls = value.__class__
    if cls is int:  # exact: bool has __class__ bool, floats fall through
        return str(value)
    if cls is list or cls is tuple:
        try:
            return "".join(value)
        except TypeError:
            return _stringify(value)
    return _stringify(value)


def _concat2(a, b) -> tuple:
    """``f_concat(A, B)`` specialized to two arguments (path extension).

    Produces exactly ``functions._f_concat([a, b])`` — one level of
    list/tuple flattening — without the per-call argument-list allocation
    and registry dispatch.
    """
    if isinstance(a, (list, tuple)):
        result = list(a)
    else:
        result = [a]
    if isinstance(b, (list, tuple)):
        result.extend(b)
    else:
        result.append(b)
    return tuple(result)

#: Expressions cheap and pure enough to evaluate twice in a conditional
#: (a local name or a positional subscript of one).
_SIMPLE_EXPR = re.compile(r"^[_A-Za-z]\w*(\[\d+\])?$").match


class _KernelExprs:
    """Compiles rule terms into kernel source, inlining the ``f_sha1`` memo.

    The provenance rewrite evaluates ``f_sha1(f_concat(...))`` on every
    derived tuple; through the registry that costs a list allocation, an
    argument-freezing cache key and several dispatches per call.  Because
    ``_stringify`` flattens nested sequences recursively, stripping
    ``f_concat`` / ``f_append`` layers inside an ``f_sha1`` argument list is
    preimage-preserving — so the builder emits straight-line code that
    concatenates the stringified parts and memoizes the digest by the
    preimage string itself (see :func:`~repro.datalog.functions.sha1_for_preimage`).

    ``inlined`` collects the builtin names whose *default* bindings the
    generated code assumed; the kernel guards on them at call time and
    returns :data:`GENERIC_FALLBACK` when an engine re-registered one.
    ``used`` collects builtins still dispatched through the registry, whose
    lookups are hoisted to one ``dict.get`` per batch.
    """

    __slots__ = (
        "namespace",
        "inlined",
        "used",
        "uses_sha1",
        "_temps",
        "str_exprs",
        "list_exprs",
        "const_strs",
    )

    def __init__(self, namespace: Dict[str, Any]):
        self.namespace = namespace
        self.inlined: Set[str] = set()
        self.used: Set[str] = set()
        self.uses_sha1 = False
        self._temps = 0
        #: Expression strings statically known to evaluate to ``str``
        #: (sha1 digests, string constants) — their preimage parts skip the
        #: ``_stringify`` wrapper entirely.
        self.str_exprs: Set[str] = set()
        #: Expression strings known to evaluate to a list whose elements
        #: are the recorded known-str expression strings (inlined
        #: ``f_append`` / ``f_concat`` results) — sha1 preimages splice the
        #: elements in directly instead of walking the list at runtime.
        self.list_exprs: Dict[str, List[str]] = {}
        #: Expression string -> raw value for string constants, so sha1
        #: preimage splicing can merge them into adjacent literal parts.
        self.const_strs: Dict[str, str] = {}

    def _temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    # -- expression compilation ------------------------------------- #
    def term_source(
        self, term, resolve, prelude: List[str], indent: str
    ) -> Optional[str]:
        """Like ``compiled_exec._term_source`` plus builtin inlining.

        Multi-statement constructs (the sha1 memo probe) are appended to
        *prelude*; the return value is always a plain expression.
        """
        if isinstance(term, Variable):
            return resolve(term.name)
        if isinstance(term, Constant):
            value = term.value
            if value is None or value is True or value is False:
                return repr(value)
            if type(value) is str:
                source = repr(value)
                self.str_exprs.add(source)
                self.const_strs[source] = value
                return source
            if type(value) in (int, float):
                return repr(value)
            return None
        if isinstance(term, UnaryOp):
            inner = self.term_source(term.operand, resolve, prelude, indent)
            if inner is None:
                return None
            if term.op == "-":
                return f"(-{inner})"
            if term.op == "!":
                return f"(not {inner})"
            return None
        if isinstance(term, BinaryOp):
            left = self.term_source(term.left, resolve, prelude, indent)
            right = self.term_source(term.right, resolve, prelude, indent)
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
            if term.name == "f_sha1":
                return self._sha1_source(term, resolve, prelude, indent)
            args = [
                self.term_source(arg, resolve, prelude, indent)
                for arg in term.args
            ]
            if any(arg is None for arg in args):
                return None
            name = term.name
            if name == "f_member" and len(args) == 2:
                # ``f_member(L, X)`` — the membership test is the exact
                # expression the registry builtin evaluates, so inlining
                # it (the per-probed-row loop-detection filter) preserves
                # both results and error behaviour.
                self.inlined.add("f_member")
                seq, value = args
                if not _SIMPLE_EXPR(seq):
                    seq = f"({seq})"
                if not _SIMPLE_EXPR(value):
                    value = f"({value})"
                return f"({value} in ({seq} or ()))"
            if name == "f_item" and len(args) in (1, 2):
                # ``f_item(L)`` / ``f_item(L, <int const>)`` — a plain
                # subscript.  Out-of-range / non-sequence errors surface as
                # IndexError/TypeError, which the kernel's except clause
                # replays through the interpreter into the exact wrapped
                # EvaluationError the registry builtin raises.
                index_src = "0"
                inlineable = True
                if len(args) == 2:
                    arg = term.args[1]
                    if isinstance(arg, Constant) and type(arg.value) is int:
                        index_src = repr(arg.value)
                    else:
                        inlineable = False
                if inlineable:
                    self.inlined.add("f_item")
                    seq = args[0]
                    if not _SIMPLE_EXPR(seq):
                        seq = f"({seq})"
                    return f"{seq}[{index_src}]"
            elif name in ("f_concat", "f_append"):
                # All-known-element builds become tuple literals, and their
                # element lists are remembered so downstream sha1 preimages
                # splice the parts in without walking the list at runtime.
                elements: Optional[List[str]] = []
                for arg_src in args:
                    if arg_src in self.str_exprs:
                        elements.append(arg_src)
                    elif arg_src in self.list_exprs:
                        elements.extend(self.list_exprs[arg_src])
                    else:
                        elements = None
                        break
                if elements is not None:
                    self.inlined.add(name)
                    source = "(" + "".join(f"{element}, " for element in elements) + ")"
                    self.list_exprs[source] = elements
                    return source
                if len(args) == 2:
                    # Dynamic two-argument build (path extension): a
                    # specialized helper skips the argument-list
                    # allocation and registry dispatch per call.
                    self.inlined.add(name)
                    return f"_concat2({args[0]}, {args[1]})"
            elif name == "f_empty" and not args:
                self.inlined.add("f_empty")
                self.list_exprs["()"] = []
                return "()"
            self.used.add(name)
            return f"_fn_{name}([{', '.join(args)}])"
        return None

    def _sha1_source(
        self, term: FunctionCall, resolve, prelude: List[str], indent: str
    ) -> Optional[str]:
        """Inline one ``f_sha1`` call site: preimage build + memo probe."""
        parts: List[str] = []
        const_parts: List[str] = []

        def flush_const() -> None:
            if const_parts:
                parts.append(repr("".join(const_parts)))
                const_parts.clear()

        def add_part(part) -> bool:
            if isinstance(part, FunctionCall) and part.name in (
                "f_concat",
                "f_append",
                "f_empty",
            ):
                # Preimage-preserving flattening (see class docstring).
                self.inlined.add(part.name)
                return all(add_part(sub) for sub in part.args)
            if isinstance(part, Constant):
                value = part.value
                # Constant parts stringify at generation time; the branches
                # mirror functions._stringify exactly.
                if value is None:
                    return True
                if value is True or value is False:
                    const_parts.append("1" if value else "0")
                    return True
                if type(value) is str:
                    const_parts.append(value)
                    return True
                if type(value) is int:
                    const_parts.append(str(value))
                    return True
                if type(value) is float:
                    const_parts.append(
                        str(int(value)) if value.is_integer() else str(value)
                    )
                    return True
                return False
            source = self.term_source(part, resolve, prelude, indent)
            if source is None:
                return False
            known_list = self.list_exprs.get(source)
            if known_list is not None:
                # A statically-built list of known strings: splice its
                # elements into the preimage directly.
                for element in known_list:
                    const = self.const_strs.get(element)
                    if const is not None:
                        const_parts.append(const)
                    else:
                        flush_const()
                        parts.append(element)
                return True
            if source in self.str_exprs:
                const = self.const_strs.get(source)
                if const is not None:
                    const_parts.append(const)
                else:
                    flush_const()
                    parts.append(source)
                return True
            flush_const()
            if not _SIMPLE_EXPR(source):
                temp = self._temp()
                prelude.append(f"{indent}{temp} = {source}")
                source = temp
            parts.append(
                f"({source} if {source}.__class__ is str"
                f" else _strpart({source}))"
            )
            return True

        for arg in term.args:
            if not add_part(arg):
                return None
        flush_const()
        self.inlined.add("f_sha1")
        self.uses_sha1 = True
        preimage = self._temp()
        digest = self._temp()
        joined = " + ".join(parts) if parts else repr("")
        prelude.append(f"{indent}{preimage} = {joined}")
        prelude.append(f"{indent}{digest} = _sha1get({preimage})")
        prelude.append(f"{indent}if {digest} is None:")
        prelude.append(f"{indent}    {digest} = _sha1miss({preimage})")
        prelude.append(f"{indent}else:")
        prelude.append(f"{indent}    _hits += 1")
        self.str_exprs.add(digest)
        return digest

    # -- kernel assembly helpers ------------------------------------ #
    def preamble_lines(self, indent: str) -> List[str]:
        """Guard + hoist lines to place before a kernel's batch loop."""
        lines = [f"{indent}_fns = engine.functions._functions"]
        if self.inlined:
            checks = " or ".join(
                f"_fns.get({name!r}) is not _def_{name}"
                for name in sorted(self.inlined)
            )
            lines.append(f"{indent}if {checks}:")
            lines.append(f"{indent}    return _GENERIC")
            for name in sorted(self.inlined):
                self.namespace[f"_def_{name}"] = _DEFAULT_FUNCTIONS[name]
        for name in sorted(self.used):
            lines.append(f"{indent}_fn_{name} = _fns.get({name!r})")
        if self.uses_sha1:
            lines.append(f"{indent}_hits = 0")
        return lines

    def flush_lines(self, indent: str) -> List[str]:
        """Counter-flush lines for the kernel's ``finally`` block."""
        if not self.uses_sha1:
            return []
        return [f"{indent}if _hits:", f"{indent}    _note_sha1_hits(_hits)"]


def _fill_kernel_namespace(namespace: Dict[str, Any]) -> None:
    from ..ast import Fact
    from ..catalog import freeze_value
    from ..engine import Delta  # runtime import: engine imports this module

    namespace["_Fact"] = Fact
    namespace["_Delta"] = Delta
    namespace["_new_delta"] = Delta.__new__
    namespace["_EvaluationError"] = EvaluationError
    namespace["_replay"] = _replay
    namespace["_GENERIC"] = GENERIC_FALLBACK
    namespace["_stringify"] = _stringify
    namespace["_strpart"] = _stringify_part
    namespace["_concat2"] = _concat2
    namespace["_sha1get"] = _sha1_cache.get
    namespace["_sha1miss"] = sha1_for_preimage
    namespace["_note_sha1_hits"] = note_sha1_hits
    namespace["_freeze"] = freeze_value


def _emit_kernel_source(indent: str, head: Atom) -> List[str]:
    """Source lines emitting one head delta into the current slot buffer.

    The inlined body of ``NDlogEngine._emit`` for the
    no-policy/no-listener configuration the columnar pipeline requires,
    with the queue append replaced by the buffered ``_o.append`` and the
    counter bumps accumulated locally (flushed once per kernel call).
    """
    i = indent
    loc = head.location_index
    return [
        f"{i}_firings += 1",
        f"{i}_d = _new_delta(_Delta)",
        f"{i}_d.action = _action",
        f"{i}_d.fact = _Fact({head.name!r}, _hvals, {loc!r})",
        f"{i}_d.annotation = None",
        f"{i}_dest = _hvals[{loc!r}]",
        f"{i}if _dest == _address:",
        f"{i}    _o.append(_d)",
        f"{i}else:",
        f"{i}    _sent += 1",
        f"{i}    if _sendcb is None:",
        f"{i}        raise _EvaluationError(",
        f'{i}            f"rule {{plan.rule.label}} derived remote tuple '
        f'{{_d.fact}} but no send callback is configured"',
        f"{i}        )",
        f"{i}    _o.append((_dest, _d))",
    ]


def _literal_lines(
    builder: _KernelExprs, literal_infos, sources: Dict[str, str], indent: str
) -> Optional[List[str]]:
    """Guarded assignment/condition lines over positional value reads."""
    from ..ast import Assignment

    resolve = sources.get
    lines: List[str] = []
    local_index = 0
    for info in literal_infos:
        literal = info.literal
        source = builder.term_source(literal.expression, resolve, lines, indent)
        if source is None:
            return None
        if isinstance(literal, Assignment):
            if _SIMPLE_EXPR(source):
                # Pure positional read or temp: alias the variable to it
                # directly instead of copying into a fresh local (values
                # are immutable for the lifetime of the item iteration).
                sources[literal.variable.name] = source
                continue
            local = f"_local{local_index}"
            local_index += 1
            lines.append(f"{indent}{local} = {source}")
            sources[literal.variable.name] = local
            if source in builder.str_exprs:
                builder.str_exprs.add(local)
            else:
                elements = builder.list_exprs.get(source)
                if elements is not None:
                    builder.list_exprs[local] = elements
        else:
            lines.append(f"{indent}if not {source}:")
            lines.append(f"{indent}    continue")
    return lines


def _head_tuple_lines(
    builder: _KernelExprs, head: Atom, sources: Dict[str, str], indent: str
) -> Optional[List[str]]:
    """Prelude + the ``_hvals`` line building the head value tuple."""
    resolve = sources.get
    lines: List[str] = []
    parts = []
    for arg in head.args:
        source = builder.term_source(arg, resolve, lines, indent)
        if source is None:
            return None
        parts.append(source)
    if len(parts) == 1:
        lines.append(f"{indent}_hvals = ({parts[0]},)")
    else:
        lines.append(f"{indent}_hvals = (" + ", ".join(parts) + ")")
    return lines


def generate_zero_step_kernel(
    trigger_atom: Atom,
    literal_infos,
    head: Optional[Atom],
    is_aggregate: bool,
    label: str = "",
) -> Optional[Callable]:
    """Generate the batch kernel for a plan with no join steps.

    Semantically the loop body is ``generate_zero_step_executor`` (same
    trigger checks, same ``executions`` accounting, same replay-based
    error handling), but evaluated over a whole :class:`ColumnBlock` with
    the engine attribute reads, counter flushes and emission plumbing
    hoisted out of the per-delta path.  Signature:
    ``kernel(plan, engine, items, out)`` with ``items`` a list of
    ``(slot, delta)`` pairs and ``out`` the per-slot emission buffers.
    """
    if is_aggregate or head is None:
        return None
    classified = _classify_args(trigger_atom, frozenset())
    if classified is None:
        return None
    const_checks, _bound, repeat_checks, fresh_binds = classified
    arity = len(trigger_atom.args)
    sources = {name: f"_values[{position}]" for position, name in fresh_binds}
    namespace: Dict[str, Any] = {"_plus": _plus}
    builder = _KernelExprs(namespace)
    body = [
        "    try:",
        "        for _j, _delta in items:",
        "            _values = _delta.fact.values",
        f"            if len(_values) != {arity}:",
        "                continue",
    ]
    for index, (position, value) in enumerate(const_checks):
        namespace[f"_const{index}"] = value
        body.append(f"            if _const{index} != _values[{position}]:")
        body.append("                continue")
    for position, first in repeat_checks:
        body.append(f"            if _values[{first}] != _values[{position}]:")
        body.append("                continue")
    body.append("            _matched += 1")
    body.append("            _o = out[_j]")
    body.append("            _action = _delta.action")
    body.append("            try:")
    literals = _literal_lines(
        builder, literal_infos, sources, indent="                "
    )
    if literals is None:
        return None
    body.extend(literals)
    head_lines = _head_tuple_lines(builder, head, sources, "                ")
    if head_lines is None:
        return None
    body.extend(head_lines)
    body.append("            except Exception:")
    body.append(
        "                _replay(plan, engine, (_delta.fact,), _delta, _o)"
    )
    body.append("                continue")
    body.extend(_emit_kernel_source("            ", head))
    body.append("    finally:")
    body.append("        plan.executions += _matched")
    body.append("        _stats = engine.stats")
    body.append("        if _firings:")
    body.append('            _stats["rule_firings"] += _firings')
    body.append("        if _sent:")
    body.append('            _stats["deltas_sent"] += _sent')
    body.extend(builder.flush_lines("        "))
    lines = ["def kernel0(plan, engine, items, out):"]
    lines.extend(builder.preamble_lines("    "))
    lines.append("    _address = engine.address")
    lines.append("    _sendcb = engine._send")
    lines.append("    _firings = 0")
    lines.append("    _sent = 0")
    lines.append("    _matched = 0")
    lines.extend(body)
    _fill_kernel_namespace(namespace)
    source_text = "\n".join(lines)
    filename = f"<columnar-zero-step:{label}>" if label else "<columnar-zero-step>"
    exec(compile(source_text, filename, "exec"), namespace)  # noqa: S102
    kernel = namespace["kernel0"]
    kernel._source = source_text  # retained for EXPLAIN / debugging
    return kernel


def generate_aggregate_kernel(
    trigger_atom: Atom,
    literal_infos,
    rule,
    label: str = "",
) -> Optional[Callable]:
    """Generate the batch kernel for a zero-step aggregate plan.

    Inlines ``NDlogEngine._apply_aggregate`` — positional group-value
    reads, the hash-or-freeze group key, the :class:`AggregateState`
    update and the delete+insert (or refresh) emission pair — into one
    loop over the block, with ``executions`` / ``rule_firings`` /
    ``deltas_sent`` accounting batched exactly like the scalar kernels.
    The per-group dictionaries live on the engine's
    ``_CompiledAggregateRule`` entry, so generic-path firings (replays,
    other pipelines) and kernel firings maintain one shared state.
    """
    aggregate = rule.head.aggregate()
    if aggregate is None:
        return None
    agg_index, spec = aggregate
    head = rule.head
    classified = _classify_args(trigger_atom, frozenset())
    if classified is None:
        return None
    const_checks, _bound, repeat_checks, fresh_binds = classified
    arity = len(trigger_atom.args)
    sources = {name: f"_values[{position}]" for position, name in fresh_binds}
    namespace: Dict[str, Any] = {"_plus": _plus, "_AggState": AggregateState}
    builder = _KernelExprs(namespace)
    body = [
        "    try:",
        "        for _j, _delta in items:",
        "            _values = _delta.fact.values",
        f"            if len(_values) != {arity}:",
        "                continue",
    ]
    for index, (position, value) in enumerate(const_checks):
        namespace[f"_const{index}"] = value
        body.append(f"            if _const{index} != _values[{position}]:")
        body.append("                continue")
    for position, first in repeat_checks:
        body.append(f"            if _values[{first}] != _values[{position}]:")
        body.append("                continue")
    body.append("            _matched += 1")
    body.append("            _o = out[_j]")
    body.append("            _action = _delta.action")
    body.append("            try:")
    guarded = _literal_lines(
        builder, literal_infos, sources, indent="                "
    )
    if guarded is None:
        return None
    resolve = sources.get
    # Group values in head order (skipping the aggregate position), then
    # the aggregated value — the evaluation order of _apply_aggregate.
    group_names: List[str] = []
    key_parts: List[str] = []
    for position, arg in enumerate(head.args):
        if position == agg_index:
            continue
        source = builder.term_source(arg, resolve, guarded, "                ")
        if source is None:
            return None
        name = f"_g{len(group_names)}"
        guarded.append(f"                {name} = {source}")
        group_names.append(name)
        key_parts.append(name)
    if spec.is_star:
        aval_source = "1"
    else:
        aval_parts = []
        for var in spec.variables_:
            source = resolve(var)
            if source is None:
                return None
            aval_parts.append(source)
        if len(aval_parts) == 1:
            aval_source = aval_parts[0]
        else:
            aval_source = "(" + ", ".join(aval_parts) + ")"
    guarded.append(f"                _aval = {aval_source}")
    body.extend(guarded)
    body.append("            except Exception:")
    body.append(
        "                _replay(plan, engine, (_delta.fact,), _delta, _o)"
    )
    body.append("                continue")
    if len(key_parts) == 1:
        body.append(f"            _gkey = ({key_parts[0]},)")
    else:
        body.append("            _gkey = (" + ", ".join(key_parts) + ")")
    body.append("            _state = _groups_get(_gkey)")
    body.append("            if _state is None:")
    body.append(f"                _state = _AggState({spec.func!r})")
    body.append("                _groups[_gkey] = _state")
    body.append('            if _action == "refresh":')
    body.append("                _hvals = _emitted_get(_gkey)")
    body.append("                if _hvals is not None:")
    body.extend(_emit_kernel_source("                    ", head))
    body.append("                continue")
    body.append('            if _action == "insert":')
    body.append("                _state.insert(_aval)")
    body.append("            else:")
    body.append("                _state.delete(_aval)")
    body.append("            _orow = _emitted_get(_gkey)")
    body.append("            if _state.is_empty:")
    body.append("                _nrow = None")
    body.append("            else:")
    body.append("                _res = _state.current()")
    row_parts = []
    group_iter = iter(group_names)
    for position in range(len(head.args)):
        name = "_res" if position == agg_index else next(group_iter)
        row_parts.append(name)
    if len(row_parts) == 1:
        body.append(f"                _nrow = ({row_parts[0]},)")
    else:
        body.append("                _nrow = (" + ", ".join(row_parts) + ")")
    body.append("            if _nrow == _orow:")
    body.append("                continue")
    body.append("            if _orow is not None:")
    body.append("                _hvals = _orow")
    body.append('                _action = "delete"')
    body.extend(_emit_kernel_source("                ", head))
    body.append("                del _emitted[_gkey]")
    body.append("            if _nrow is not None:")
    body.append("                _emitted[_gkey] = _nrow")
    body.append("                _hvals = _nrow")
    body.append('                _action = "insert"')
    body.extend(_emit_kernel_source("                ", head))
    body.append("    finally:")
    body.append("        plan.executions += _matched")
    body.append("        _stats = engine.stats")
    body.append("        if _firings:")
    body.append('            _stats["rule_firings"] += _firings')
    body.append("        if _sent:")
    body.append('            _stats["deltas_sent"] += _sent')
    body.extend(builder.flush_lines("        "))
    lines = ["def kernelA(plan, engine, items, out):"]
    lines.extend(builder.preamble_lines("    "))
    lines.append(f"    _compiled = engine._aggregate_rules[{rule.label!r}]")
    lines.append("    _groups = _compiled.groups")
    lines.append("    _groups_get = _groups.get")
    lines.append("    _emitted = _compiled.emitted")
    lines.append("    _emitted_get = _emitted.get")
    lines.append("    _address = engine.address")
    lines.append("    _sendcb = engine._send")
    lines.append("    _firings = 0")
    lines.append("    _sent = 0")
    lines.append("    _matched = 0")
    lines.extend(body)
    _fill_kernel_namespace(namespace)
    source_text = "\n".join(lines)
    filename = f"<columnar-aggregate:{label}>" if label else "<columnar-aggregate>"
    exec(compile(source_text, filename, "exec"), namespace)  # noqa: S102
    kernel = namespace["kernelA"]
    kernel._source = source_text  # retained for EXPLAIN / debugging
    return kernel


def generate_one_step_kernel(
    trigger_atom: Atom,
    step,  # CompiledStep
    literal_infos,
    head: Optional[Atom],
    is_aggregate: bool,
    initial_literal_prefix: int,
    label: str = "",
) -> Optional[Callable]:
    """Generate the vectorized hash-join kernel for a one-step plan.

    The probe is evaluated column-wise: one pass over the block builds a
    *selection vector* of trigger-matching deltas plus the frozen probe-key
    column, one :meth:`~repro.datalog.catalog.Table.probe_many` call
    fetches every bucket from the build-side hash index, and the emission
    loop walks ``(delta, bucket)`` pairs with positional row reads.  Safe
    because the segment conflict check guarantees the probed fragment is
    not mutated while the block fires; counters (``index_lookups`` /
    ``full_scans`` / ``tuples_scanned``) match the per-tuple executors as
    exact sums.
    """
    if is_aggregate or head is None or initial_literal_prefix:
        return None
    trigger_classified = _classify_args(trigger_atom, frozenset())
    if trigger_classified is None:
        return None
    t_consts, _tb, t_repeats, t_binds = trigger_classified
    step_atom: Atom = step.atom
    step_classified = _classify_args(
        step_atom, frozenset(name for _, name in t_binds)
    )
    if step_classified is None:
        return None
    s_consts, s_bounds, s_repeats, s_binds = step_classified
    if step.literal_prefix:
        return None
    lookups = sorted(step.lookups, key=lambda spec: spec.position)
    if any(spec.kind == "expr" for spec in lookups):
        return None

    sources = {name: f"_values[{position}]" for position, name in t_binds}
    trigger_sources = dict(sources)
    sources.update({name: f"row[{position}]" for position, name in s_binds})

    namespace: Dict[str, Any] = {"_plus": _plus}
    builder = _KernelExprs(namespace)
    arity = len(trigger_atom.args)
    step_arity = len(step_atom.args)
    # --- probe phase: selection vector + key column over the block ---
    body = ["    for _item in items:"]
    body.append("        _values = _item[1].fact.values")
    body.append(f"        if len(_values) != {arity}:")
    body.append("            continue")
    for index, (position, value) in enumerate(t_consts):
        namespace[f"_tconst{index}"] = value
        body.append(f"        if _tconst{index} != _values[{position}]:")
        body.append("            continue")
    for position, first in t_repeats:
        body.append(f"        if _values[{first}] != _values[{position}]:")
        body.append("            continue")
    body.append("        _sel_append(_item)")
    if lookups:
        from .compiled_exec import _frozen_const

        key_parts = []
        for index, spec in enumerate(lookups):
            if spec.kind == "const":
                namespace[f"_kconst{index}"] = _frozen_const(spec.source)
                key_parts.append(f"_kconst{index}")
            else:
                source = trigger_sources.get(spec.source)
                if source is None:  # pragma: no cover - compiler guarantees
                    return None
                # Inline the dominant str fast path of catalog._freeze.
                key_parts.append(
                    f"({source} if {source}.__class__ is str"
                    f" else _freeze({source}))"
                )
        if len(key_parts) == 1:
            key_tuple = f"({key_parts[0]},)"
        else:
            key_tuple = "(" + ", ".join(key_parts) + ")"
        positions = tuple(spec.position for spec in lookups)
        body.append(f"        _keys_append({key_tuple})")
    body.append("    _matched = len(_sel)")
    if lookups:
        body.append(f"    _buckets = table.probe_many({positions!r}, _keys)")
    else:
        body.append("    _rows = table.rows_list()")
        body.append("    _nrows = len(_rows)")
    body.append("    try:")
    # --- emission loop over (delta, bucket) pairs ---
    if lookups:
        body.append("        for (_j, _delta), _bucket in zip(_sel, _buckets):")
        body.append("            if not _bucket:")
        body.append("                continue")
        body.append("            _scanned += len(_bucket)")
        rows_source = "_bucket"
    else:
        body.append("        for _j, _delta in _sel:")
        body.append("            _scanned += _nrows")
        rows_source = "_rows"
    body.append("            _o = out[_j]")
    body.append("            _dfact = _delta.fact")
    body.append("            _values = _dfact.values")
    body.append("            _action = _delta.action")
    body.append(f"            for row in {rows_source}:")
    body.append(f"                if len(row) != {step_arity}:")
    body.append("                    continue")
    for index, (position, value) in enumerate(s_consts):
        namespace[f"_sconst{index}"] = value
        body.append(f"                if _sconst{index} != row[{position}]:")
        body.append("                    continue")
    for position, name in s_bounds:
        body.append(
            f"                if {trigger_sources[name]} != row[{position}]:"
        )
        body.append("                    continue")
    for position, first in s_repeats:
        body.append(f"                if row[{first}] != row[{position}]:")
        body.append("                    continue")
    body.append("                try:")
    literals = _literal_lines(
        builder, literal_infos, sources, indent="                    "
    )
    if literals is None:
        return None
    body.extend(literals)
    head_lines = _head_tuple_lines(
        builder, head, sources, "                    "
    )
    if head_lines is None:
        return None
    body.extend(head_lines)
    body.append("                except Exception:")
    body.append(
        "                    _replay(plan, engine, (_dfact, _Fact("
        f"{step_atom.name!r}, row, {step_atom.location_index!r})), _delta, _o)"
    )
    body.append("                    continue")
    body.extend(_emit_kernel_source("                ", head))
    body.append("    finally:")
    body.append("        plan.executions += _matched")
    body.append("        _stats = engine.stats")
    body.append("        if _matched:")
    if lookups:
        body.append('            _stats["index_lookups"] += _matched')
    else:
        body.append('            _stats["full_scans"] += _matched')
    body.append('            _stats["tuples_scanned"] += _scanned')
    body.append("        if _firings:")
    body.append('            _stats["rule_firings"] += _firings')
    body.append("        if _sent:")
    body.append('            _stats["deltas_sent"] += _sent')
    body.extend(builder.flush_lines("        "))
    lines = ["def kernel1(plan, engine, items, out):"]
    lines.extend(builder.preamble_lines("    "))
    lines.append("    _address = engine.address")
    lines.append("    _sendcb = engine._send")
    lines.append(f"    table = engine.catalog.table({step_atom.name!r})")
    lines.append("    _firings = 0")
    lines.append("    _sent = 0")
    lines.append("    _scanned = 0")
    lines.append("    _sel = []")
    lines.append("    _sel_append = _sel.append")
    if lookups:
        lines.append("    _keys = []")
        lines.append("    _keys_append = _keys.append")
    lines.extend(body)
    _fill_kernel_namespace(namespace)
    source_text = "\n".join(lines)
    filename = f"<columnar-one-step:{label}>" if label else "<columnar-one-step>"
    exec(compile(source_text, filename, "exec"), namespace)  # noqa: S102
    kernel = namespace["kernel1"]
    kernel._source = source_text  # retained for EXPLAIN / debugging
    return kernel


# ---------------------------------------------------------------------- #
# generic (per-delta) fallback firing
# ---------------------------------------------------------------------- #
def run_generic_firing(engine, firing, items, out) -> None:
    """Run one firing per-delta over a block, with emissions buffered.

    Replicates ``NDlogEngine._fire_rules``'s fast path for a single
    firing — including the staleness-recompile block with identical
    ``executions`` alignment — under the emission capture, so aggregate,
    multi-step and not-yet-compiled plans behave exactly as in the batched
    pipeline while their emissions still replay in window order.
    """
    capture = engine._columnar_capture
    saved_queue = engine._queue
    saved_send = engine._send
    engine._queue = capture
    if saved_send is not None:
        engine._send = capture.send
    statistics = engine._statistics
    try:
        for _j, delta in items:
            capture.out = out[_j]
            plan = firing.plan
            if plan is None:
                engine._evaluate_delta_rule(firing.rule, firing.position, delta)
                continue
            fused = plan.fused_exec
            if fused is not None:
                fused(plan, engine, delta.fact.values, delta)
                continue
            values = delta.fact.values
            binder = plan.trigger_binder
            if binder is not None:
                binding = binder(values)
            else:
                binding = engine._match_atom(plan.trigger_atom, values, {})
            if binding is None:
                continue
            if (
                plan.multi_step
                and plan.executions % STALENESS_CHECK_PERIOD == 0
                and plan.is_stale(statistics)
            ):
                plan = engine._plan_compiler.compile(firing.rule, firing.position)
                plan.executions = 1
                firing.plan = plan
                engine._plans[(id(firing.rule), firing.position)] = plan
                engine.stats["plans_recompiled"] += 1
            plan.execute(engine, delta, binding)
    finally:
        capture.out = None
        engine._queue = saved_queue
        engine._send = saved_send


def _run_sequential_block(engine, block: ColumnBlock, pending) -> None:
    """Per-delta apply+fire for self-reading / staleness-checked predicates.

    Exactly the batched pipeline's per-delta path (same ``_apply_*`` /
    ``_fire_rules`` calls, so mutation-visibility and recompile timing are
    identical), with emissions captured into per-slot ``_Ready`` buffers
    for ordered replay.
    """
    info = block.info
    firings = info.firings
    capture = engine._columnar_capture
    saved_queue = engine._queue
    saved_send = engine._send
    engine._queue = capture
    if saved_send is not None:
        engine._send = capture.send
    try:
        if info.is_event:
            for slot, delta in block.items:
                buffer = _Ready()
                capture.out = buffer
                if firings:
                    engine._fire_rules(firings, delta)
                pending[slot] = buffer
            return
        table = engine.catalog.table(info.name, block.items[0][1].fact.arity)
        for slot, delta in block.items:
            buffer = _Ready()
            capture.out = buffer
            action = delta.action
            if action == "insert":
                engine._apply_insert(table, firings, delta)
            elif action == "delete":
                engine._apply_delete(table, firings, delta)
            else:
                engine._apply_refresh(table, firings, delta)
            pending[slot] = buffer
    finally:
        capture.out = None
        engine._queue = saved_queue
        engine._send = saved_send


# ---------------------------------------------------------------------- #
# the window evaluator
# ---------------------------------------------------------------------- #
def _apply_vector_block(engine, block: ColumnBlock, pending, out) -> Optional[list]:
    """Apply a materialized block's table mutations, in queue order.

    Returns the block's fire-phase work list — ``(out_index, delta)``
    pairs, in slot order, with the evicted-row DELETE before its replacing
    INSERT exactly as ``_apply_insert`` orders them — and points each
    fired slot's ``pending`` entry at its freshly allocated emission
    buffers; firing itself is deferred to the segment's kernel phase.
    Update listeners run here, during the apply — for distinct facts
    their relative order across predicates is not observable (cache
    invalidation and provenance-index maintenance commute), and per-fact
    order is preserved because a fact's deltas all sit in this one block.
    """
    from ..engine import DELETE, Delta

    items = block.items
    info = block.info
    table = engine.catalog.table(info.name, items[0][1].fact.arity)
    listeners = engine._update_listeners
    has_firings = bool(info.firings)
    out_append = out.append
    if not listeners:
        # No observers of individual outcomes: one bulk catalog call per
        # block, returning compact per-delta fire codes (None / True /
        # evicted Fact) instead of outcome objects.
        codes = table.apply_delta_block([item[1] for item in items])
        if not has_firings:
            return None
        fire: List[Any] = []
        fire_append = fire.append
        for (slot, delta), code in zip(items, codes):
            if code is True:
                buffer: List[Any] = []
                fire_append((len(out), delta))
                out_append(buffer)
                pending[slot] = (buffer,)
            elif code is not None:
                evicted: List[Any] = []
                fire_append((len(out), Delta(DELETE, code)))
                out_append(evicted)
                buffer = []
                fire_append((len(out), delta))
                out_append(buffer)
                pending[slot] = (evicted, buffer)
        return fire
    insert = table.insert
    delete = table.delete
    for slot, delta in items:
        action = delta.action
        if action == "insert":
            outcome = insert(delta.fact.values)
            replaced = outcome.replaced
            if replaced is not None:
                for listener in listeners:
                    listener(DELETE, replaced)
                if outcome.became_visible:
                    for listener in listeners:
                        listener("insert", delta.fact)
                if has_firings:
                    if outcome.became_visible:
                        pending[slot] = (Delta(DELETE, replaced), delta)
                    else:  # pragma: no cover - insert with key always visible
                        pending[slot] = (Delta(DELETE, replaced),)
            elif outcome.became_visible:
                for listener in listeners:
                    listener("insert", delta.fact)
                if has_firings:
                    pending[slot] = (delta,)
        elif action == "delete":
            outcome = delete(delta.fact.values)
            if outcome.became_invisible:
                for listener in listeners:
                    listener(DELETE, delta.fact)
                if has_firings:
                    pending[slot] = (delta,)
        # REFRESH without an annotation policy is a no-op (the policy case
        # never reaches the columnar evaluator).
    if not has_firings:
        return None
    # Convert the per-slot fire tuples into work-list + buffer form.
    fire = []
    fire_append = fire.append
    for slot, _delta in items:
        fires = pending[slot]
        if fires is None:
            continue
        buffers = []
        for fire_delta in fires:
            buffer = []
            fire_append((len(out), fire_delta))
            out_append(buffer)
            buffers.append(buffer)
        pending[slot] = buffers
    return fire


def process_window(engine, window: List[Any], tracer=None) -> None:
    """Evaluate one drained window of the delta queue (see module doc)."""
    engine.stats["deltas_processed"] += len(window)
    counters = engine.columnar_counters
    counters["windows"] += 1
    counters["deltas"] += len(window)
    infos = engine._columnar_info
    n = len(window)
    start = 0
    while start < n:
        # ---- segment: conflict-free regrouping by predicate ---- #
        blocks: Dict[str, ColumnBlock] = {}
        appends: Dict[str, Any] = {}
        appends_get = appends.get
        order: List[str] = []
        seg_reads: set = set()
        seg_writes: set = set()
        index = start
        slot = 0
        while index < n:
            delta = window[index]
            name = delta.fact.name
            append = appends_get(name)
            if append is None:
                info = infos.get(name)
                if info is None:
                    info = predicate_info(engine, name)
                if order and (
                    name in seg_reads or not seg_writes.isdisjoint(info.reads)
                ):
                    break  # conflict: close the segment before this delta
                block = ColumnBlock(info)
                blocks[name] = block
                appends[name] = append = block.items.append
                order.append(name)
                seg_reads |= info.reads
                if not info.is_event:
                    seg_writes.add(name)
            append((slot, delta))
            slot += 1
            index += 1
        width = slot
        start = index
        counters["segments"] += 1
        #: per-slot outcome: None | tuple of deltas to fire | _Ready list
        pending: List[Any] = [None] * width

        # ---- apply phase (fire work lists built alongside) ---- #
        out: List[List[Any]] = []
        out_append = out.append
        fire_lists: List[Tuple[ColumnBlock, List[Tuple[int, Any]]]] = []
        for name in order:
            block = blocks[name]
            mode = block.info.mode
            if mode == EVENT:
                counters["event_deltas"] += len(block.items)
                if block.info.firings:
                    items = []
                    items_append = items.append
                    for slot, delta in block.items:
                        buffer: List[Any] = []
                        items_append((len(out), delta))
                        out_append(buffer)
                        pending[slot] = (buffer,)
                    fire_lists.append((block, items))
            elif mode == VECTOR:
                counters["vector_deltas"] += len(block.items)
                items = _apply_vector_block(engine, block, pending, out)
                if items:
                    fire_lists.append((block, items))
            else:
                _run_sequential_block(engine, block, pending)
                counters["sequential_deltas"] += len(block.items)

        # ---- fire phase: batch kernels over per-predicate items ---- #
        for block, items in fire_lists:
            name = block.info.name
            firings = block.info.firings
            kernels = block.info.kernels
            for position, firing in enumerate(firings):
                kernel = kernels[position]
                if tracer is not None:
                    with tracer.span(
                        "engine.columnar.kernel",
                        cat="engine",
                        host=engine.address,
                        predicate=name,
                        rule=firing.rule.label,
                        deltas=len(items),
                        vectorized=kernel is not None,
                    ):
                        if kernel is not None and (
                            kernel(firing.plan, engine, items, out)
                            is not GENERIC_FALLBACK
                        ):
                            counters["kernel_batches"] += 1
                        else:
                            counters["generic_batches"] += 1
                            run_generic_firing(engine, firing, items, out)
                elif kernel is not None and (
                    kernel(firing.plan, engine, items, out)
                    is not GENERIC_FALLBACK
                ):
                    counters["kernel_batches"] += 1
                else:
                    counters["generic_batches"] += 1
                    run_generic_firing(engine, firing, items, out)

        # ---- replay: emissions in exact per-delta, per-firing order ---- #
        queue_append = engine._queue.append
        send = engine._send
        for entry in pending:
            if entry is None:
                continue
            if entry.__class__ is _Ready:
                for emission in entry:
                    if emission.__class__ is tuple:
                        send(emission[0], emission[1])
                    else:
                        queue_append(emission)
            else:
                for buffer in entry:
                    for emission in buffer:
                        if emission.__class__ is tuple:
                            send(emission[0], emission[1])
                        else:
                            queue_append(emission)


# ---------------------------------------------------------------------- #
# EXPLAIN support
# ---------------------------------------------------------------------- #
def describe_kernel(plan: CompiledDeltaPlan) -> List[str]:
    """Human-readable kernel sequence for one plan (``\\explain`` output)."""
    if plan.rule.is_aggregate_rule:
        if plan.steps or batch_kernel_for(plan) is None:
            return [
                "per-delta fallback: aggregate plan outside the generated-"
                "kernel subset (emissions still buffered + replayed in order)"
            ]
        return [
            "batch kernel: selection vector over trigger column block "
            "-> grouped aggregate state transitions -> ordered "
            "retract/emit pairs"
        ]
    if len(plan.steps) >= 2:
        return [
            f"per-delta fallback: {len(plan.steps)}-step plan re-costs "
            "against live cardinalities (staleness checks pin per-delta "
            "ordering)"
        ]
    kernel = batch_kernel_for(plan)
    if kernel is None:
        return [
            "per-delta fallback: plan uses expression arguments or pushed-"
            "down literal prefixes outside the generated-kernel subset"
        ]
    if not plan.steps:
        return [
            "batch kernel: selection vector over trigger column block "
            "-> vectorized literal/VID evaluation -> ordered emission"
        ]
    step = plan.steps[0]
    if step.index_positions:
        build = (
            f"build side {step.atom.name}(hash index on positions "
            f"{list(step.index_positions)})"
        )
        probe = "probe_many bulk lookup over frozen key column"
    else:
        build = f"build side {step.atom.name}(full fragment, materialized once)"
        probe = "nested scan per selected delta"
    return [
        f"batch kernel: selection vector + key column -> {build} -> "
        f"{probe} -> ordered emission"
    ]
