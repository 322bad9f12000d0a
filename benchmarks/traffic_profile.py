"""Which ``src/`` functions does real traffic call?  A whole-process call profile.

Every Python process started under :func:`record` loads a generated
``sitecustomize`` that installs a call-only trace function (``sys.settrace``
and ``threading.settrace``; it returns ``None``, so no line events) and
collects the code object of every call.  A process writes its record when
it exits: at interpreter exit, at ``os._exit`` (how forked workers end) and
just before it SIGKILLs itself (the durability gate's crash phase).  So
threads, forked shard workers, the service thread and every subprocess that
inherits ``PYTHONPATH`` are all in the profile.

The report lists the functions under a source root (default ``src/``) that
no recorded process called, with the line count per file.  A function
nested in an uncalled function is not listed again.  :data:`LISTED` names
the uncalled functions that stay, each with its reason; ``--check`` fails
on an uncalled function it does not name and on an entry that is called
or gone.

Usage::

    python benchmarks/traffic_profile.py --all --out /tmp/tp      # replay the traffic
    python benchmarks/traffic_profile.py --report --out /tmp/tp   # uncalled src/ functions
    python benchmarks/traffic_profile.py --check --out /tmp/tp    # ... each one LISTED
    python benchmarks/traffic_profile.py --out /tmp/tp -- python examples/quickstart.py

``--all`` replays: the four examples; the scenario list;
``run --all --quick --shards 2`` compared with ``benchmarks/baselines``
(counters, then the advisory wall-clock view); the traced fig 13/7 run;
the sqlite ``query_concurrency`` run and the durability gate; the faulted
fig 16 run, resumed without faults and compared with the clean one; the
chaos gate; the ablation and tracer-overhead benchmarks; the Fig. 6 report
with its shape checks; the seven ruler workloads; an embedded operator
session (fault plan, link cost update, query, metrics, snapshot); and the
golden shell session against a live server.  It takes about 8 minutes on 2
cores, and stops at the first step that fails.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import subprocess
import sys
import time
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

#: The recorder, written into ``<out>/hook/sitecustomize.py`` by :func:`record`.
HOOK = '''\
import atexit, os, signal, sys, threading

_DIR = os.environ.get("TRAFFIC_PROFILE_DIR")
_ROOT = os.environ.get("TRAFFIC_PROFILE_ROOT", "")
if _DIR:
    _codes = set()
    _add = _codes.add

    def _trace(frame, event, arg):
        _add(frame.f_code)

    def _dump():
        rows = set()
        for code in list(_codes):
            path = os.path.realpath(code.co_filename)
            if path.startswith(_ROOT):
                rows.add(f"{path}\\t{code.co_firstlineno}\\t{code.co_name}\\n")
        name = os.path.join(_DIR, f"calls-{os.getpid()}-{os.urandom(4).hex()}.tsv")
        with open(name, "w", encoding="utf-8") as handle:
            handle.writelines(sorted(rows))

    _exit, _kill = os._exit, os.kill

    def _dump_and_exit(status):
        _dump()
        _exit(status)

    def _dump_and_kill(pid, sig):
        if pid == os.getpid() and sig == signal.SIGKILL:
            _dump()
        _kill(pid, sig)

    os._exit, os.kill = _dump_and_exit, _dump_and_kill
    atexit.register(_dump)
    threading.settrace(_trace)
    sys.settrace(_trace)
'''


def record(
    command: Sequence[str],
    out_dir: str,
    root: str = SRC,
    stdin: Optional[str] = None,
    background: bool = False,
):
    """Run *command* with the recorder on ``PYTHONPATH`` (and ``src`` after it).

    Returns the ``CompletedProcess``, or the ``Popen`` when *background*.
    """
    hook_dir = os.path.join(out_dir, "hook")
    calls_dir = os.path.join(out_dir, "calls")
    os.makedirs(hook_dir, exist_ok=True)
    os.makedirs(calls_dir, exist_ok=True)
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w", encoding="utf-8") as handle:
        handle.write(HOOK)
    inherited = os.environ.get("PYTHONPATH")
    environment = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([hook_dir, SRC] + ([inherited] if inherited else [])),
        TRAFFIC_PROFILE_DIR=calls_dir,
        TRAFFIC_PROFILE_ROOT=os.path.realpath(root),
    )
    if background:
        return subprocess.Popen(list(command), cwd=REPO, env=environment, stdout=subprocess.DEVNULL)
    return subprocess.run(
        list(command), cwd=REPO, env=environment, input=stdin, capture_output=True, text=True
    )


def called(out_dir: str) -> Set[Tuple[str, int]]:
    """``(real path, first line)`` of every code object any process called."""
    seen: Set[Tuple[str, int]] = set()
    for name in glob.glob(os.path.join(out_dir, "calls", "calls-*.tsv")):
        with open(name, encoding="utf-8") as handle:
            for line in handle:
                path, first_line, _ = line.rstrip("\n").split("\t")
                seen.add((path, int(first_line)))
    return seen


class Function(NamedTuple):
    path: str
    qualname: str
    first_line: int
    lines: int


def _functions(
    path: str, body: Sequence[ast.stmt], prefix: str
) -> Iterator[Tuple[Function, Sequence[ast.stmt]]]:
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(path, node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A decorated function's code starts at its first decorator.
            first = min([node.lineno] + [item.lineno for item in node.decorator_list])
            yield Function(path, prefix + node.name, first, node.end_lineno - first + 1), node.body


def _modules(root: str) -> Iterator[Tuple[str, Sequence[ast.stmt]]]:
    for directory, _, files in sorted(os.walk(os.path.realpath(root))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    yield path, ast.parse(handle.read(), path).body


def uncalled(root: str, seen: Set[Tuple[str, int]]) -> List[Function]:
    """Functions under *root* that no recorded process called, outermost only."""
    missing: List[Function] = []

    def walk(path: str, body: Sequence[ast.stmt], prefix: str) -> None:
        for function, inner in _functions(path, body, prefix):
            if (path, function.first_line) in seen:
                walk(path, inner, function.qualname + ".")
            else:
                missing.append(function)

    for path, body in _modules(root):
        walk(path, body, "")
    return missing


def key(function: Function, root: str) -> str:
    """``path:qualname``, the path relative to *root*: a :data:`LISTED` key."""
    return f"{os.path.relpath(function.path, os.path.realpath(root))}:{function.qualname}"


def check(root: str, out_dir: str, listed: Dict[str, str]) -> List[str]:
    """Every uncalled function is listed, and every listed one is uncalled."""
    missing = {key(function, root) for function in uncalled(root, called(out_dir))}
    existing = set()

    def walk(path: str, body: Sequence[ast.stmt], prefix: str) -> None:
        for function, inner in _functions(path, body, prefix):
            existing.add(key(function, root))
            walk(path, inner, function.qualname + ".")

    for path, body in _modules(root):
        walk(path, body, "")
    problems = [f"uncalled and not listed: {name}" for name in sorted(missing - set(listed))]
    for name in sorted(set(listed) - missing):
        problems.append(f"listed but {'called' if name in existing else 'gone'}: {name}")
    return problems


def report(root: str, out_dir: str) -> str:
    """Per-file totals, then one line per uncalled function and its listed reason."""
    missing = uncalled(root, called(out_dir))
    root = os.path.realpath(root)
    per_file: Dict[str, Tuple[int, int]] = {}
    for function in missing:
        count, lines = per_file.get(function.path, (0, 0))
        per_file[function.path] = (count + 1, lines + function.lines)
    total = sum(function.lines for function in missing)
    out = [f"uncalled functions under {root}: {len(missing)} functions, {total} lines"]
    out.append(f"  {'file':<44} {'functions':>9} {'lines':>6}")
    for path, (count, lines) in sorted(per_file.items()):
        out.append(f"  {os.path.relpath(path, root):<44} {count:>9} {lines:>6}")
    out.append("")
    for function in missing:
        where = f"{os.path.relpath(function.path, root)}:{function.first_line}"
        reason = LISTED.get(key(function, root), "NOT LISTED")
        out.append(f"  {where:<44} {function.qualname} ({function.lines} lines): {reason}")
    return "\n".join(out)


# ---------------------------------------------------------------------- #
# the uncalled functions that stay, and why
# ---------------------------------------------------------------------- #
#: ``path:qualname`` (path relative to ``src/``) -> why no traffic calls it.
#: Every reason is one of: an error path; a debugging dunder; interactive
#: only; an oracle a named test compares against; or the open ROADMAP item
#: that owns it.
DEBUG = "debugging dunder"
INTERACTIVE = "interactive only: a human at a terminal"
REPLAY = (
    "error path: when generated code raises (a builtin's own error, or an unknown "
    "builtin name, which compiles to _unsupported), the interpreter replay "
    "(CompiledDeltaPlan._finalize_replay) evaluates the rule's terms; "
    "tests/oracle's InterpretedEngine too (tests/test_sink_emission.py)"
)
ITEM_19 = "ROADMAP item 19: the paper-claim report built from artifacts"
LISTED: Dict[str, str] = {
    "repro/core/api.py:ExspanNetwork.random_tuple": (
        "ROADMAP item 2(p): the ruler still passes seed=, which only seeds this"
    ),
    "repro/core/bdd.py:BddManager.from_dnf": (
        "oracle: tests/test_core_bdd.py builds its reference BDDs from DNF"
    ),
    "repro/core/bdd.py:Bdd.evaluate": (
        "oracle: tests/test_core_bdd.py checks every BDD against its truth table"
    ),
    "repro/core/bdd.py:Bdd.__repr__": DEBUG,
    "repro/core/cache.py:QueryResultCache.__len__": DEBUG,
    "repro/core/provenance_graph.py:ProvenanceGraph.is_acyclic": (
        "oracle: tests/test_provenance_subgraph.py and tests/test_core_rewrite.py "
        "check every graph they build is acyclic"
    ),
    "repro/core/provenance_graph.py:ProvenanceGraph._acyclic_below": (
        "oracle: is_acyclic's walk"
    ),
    "repro/core/provenance_graph.py:ProvenanceGraph.__len__": DEBUG,
    "repro/core/query.py:ProvenanceQueryService.query.expire": (
        "error path: a query that misses its deadline"
    ),
    "repro/core/semiring.py:Literal.to_dnf": (
        "oracle: tests/test_core_query.py::TestOtherCustomizations compares a BDD "
        "answer with the polynomial answer's absorbed DNF; tests/test_core_vid_semiring.py::"
        "TestPolynomialProperties checks it against a derivability evaluator"
    ),
    "repro/core/semiring.py:Sum.to_dnf": "oracle: as Literal.to_dnf",
    "repro/core/semiring.py:Product.to_dnf": "oracle: as Literal.to_dnf",
    "repro/core/semiring.py:_Empty.to_dnf": "oracle: as Literal.to_dnf",
    "repro/core/semiring.py:_absorb_products": "oracle: as Literal.to_dnf",
    "repro/core/vid.py:rule_rid": (
        "oracle: tests/test_core_rewrite.py checks the rewritten rules' ruleExec "
        "RIDs against the paper's formula"
    ),
    "repro/datalog/aggregates.py:AggregateState.__len__": DEBUG,
    "repro/datalog/aggregates.py:AggregateState.__repr__": DEBUG,
    "repro/datalog/ast.py:Condition.__str__": DEBUG,
    "repro/datalog/ast.py:Assignment.__str__": DEBUG,
    "repro/datalog/ast.py:Rule._reject_expression_argument": (
        "error path: a body atom with an expression argument"
    ),
    "repro/datalog/ast.py:Rule.__str__": DEBUG,
    "repro/datalog/ast.py:Fact.__eq__": (
        "oracle: the value equality tests/test_engine_dispatch.py and "
        "tests/test_sink_emission.py compare emitted facts with"
    ),
    "repro/datalog/ast.py:Fact.__hash__": (
        "oracle: keeps a Fact, and the frozen QueryRequest and ScriptOp that hold one, "
        "hashable values; tests/test_service_protocol.py::test_facts_hash_as_values hashes them"
    ),
    "repro/datalog/ast.py:Fact.__repr__": DEBUG,
    "repro/datalog/ast.py:Program.__str__": DEBUG,
    "repro/datalog/ast.py:Program.__len__": DEBUG,
    "repro/datalog/engine.py:Delta.__str__": DEBUG,
    "repro/datalog/engine.py:NDlogEngine.__repr__": DEBUG,
    "repro/datalog/errors.py:ParseError.__init__": "error path: program text that does not parse",
    "repro/datalog/errors.py:UnknownFunctionError.__init__": (
        "error path: a rule calls an unbound function name"
    ),
    "repro/datalog/terms.py:Constant.evaluate": REPLAY,
    "repro/datalog/terms.py:BinaryOp.evaluate": REPLAY,
    "repro/datalog/terms.py:BinaryOp.__str__": DEBUG,
    "repro/datalog/terms.py:_as_text": REPLAY,
    "repro/datalog/terms.py:FunctionCall.evaluate": REPLAY,
    "repro/datalog/terms.py:FunctionCall.__str__": DEBUG,
    "repro/datalog/terms.py:AggregateSpec.evaluate": "error path: an aggregate used as a scalar",
    "repro/datalog/terms.py:AggregateSpec.__str__": DEBUG,
    "repro/datalog/plan/compiled_exec.py:_unsupported": (
        "error path: generated code reads a variable no step bound"
    ),
    "repro/datalog/plan/compiler.py:CompiledDeltaPlan._finalize_replay": REPLAY,
    "repro/datalog/plan/compiler.py:CompiledDeltaPlan._prefix_replay": REPLAY,
    "repro/datalog/plan/indexes.py:IndexManager.__repr__": DEBUG,
    "repro/experiments/metrics.py:FigureResult.summary": ITEM_19,
    "repro/experiments/reporting.py:_total": ITEM_19,
    "repro/experiments/orchestrator.py:Difference.render": (
        "error path: compare found a difference"
    ),
    "repro/net/errors.py:NetworkError.details": "error path: a NetworkError in a service reply",
    "repro/net/errors.py:UnknownNodeError.__init__": "error path: an address no node has",
    "repro/net/errors.py:UnknownNodeError.details": "error path: as NetworkError.details",
    "repro/net/errors.py:NoRouteError.details": "error path: as NetworkError.details",
    "repro/net/errors.py:SimulationError.__init__": (
        "error path: an event scheduled into the past"
    ),
    "repro/net/errors.py:SimulationError.details": "error path: as NetworkError.details",
    "repro/net/host.py:Host.__repr__": DEBUG,
    "repro/net/simulator.py:Simulator.safe_time": (
        "oracle: tests/test_simulator_loop.py compares it with its stepwise model"
    ),
    "repro/net/simulator.py:Simulator.pending_events": (
        "oracle: tests/test_simulator_loop.py compares it with its stepwise model"
    ),
    "repro/net/simulator.py:Simulator.queue_length": (
        "oracle: tests/test_simulator_loop.py compares it with its stepwise model"
    ),
    "repro/net/sharding.py:apply_script_serial": (
        "oracle: the serial run tests/test_sharding.py compares run_script against"
    ),
    "repro/net/sharding.py:ShardedExspanNetwork.run_script": (
        "oracle: the sharded side of tests/test_sharding.py's scripted "
        "serial == sharded equivalence"
    ),
    "repro/net/stats.py:TrafficStats.__len__": DEBUG,
    "repro/net/topology.py:Topology.__repr__": DEBUG,
    "repro/obs/tracer.py:Tracer.__len__": DEBUG,
    "repro/service/client.py:ServiceError.__init__": "error path: an error frame from the server",
    "repro/service/client.py:ServiceClient._reconnect": "error path: a dropped connection",
    "repro/service/protocol.py:ProtocolError.__init__": "error path: a malformed request",
    "repro/service/server.py:ServiceServer.stop": (
        "interactive only: the SIGINT/SIGTERM handler of python -m repro.service"
    ),
    "repro/service/server.py:ServiceServer._error_frame": "error path: a request that fails",
    "repro/shell/__init__.py:ExspanShell._external_pager": INTERACTIVE,
    "repro/shell/__init__.py:ExspanShell._builtin_pager": INTERACTIVE,
    "repro/shell/__init__.py:ExspanShell.completion_candidates": INTERACTIVE,
    "repro/shell/__init__.py:ExspanShell.run_interactive": INTERACTIVE,
    "repro/shell/__init__.py:ExspanShell._setup_readline": INTERACTIVE,
    "repro/storage/backend.py:StorageBackend.sql_query": (
        "error path: a SQL provenance query on the memory backend"
    ),
    "repro/storage/backend.py:StorageBackend.__repr__": DEBUG,
    "repro/storage/memory.py:Table.lookup": (
        "oracle: tests/oracle's InterpretedEngine reads tables through it"
    ),
    "repro/storage/memory.py:Table.__repr__": DEBUG,
}


# ---------------------------------------------------------------------- #
# the traffic
# ---------------------------------------------------------------------- #
PYTHON = sys.executable
EXPERIMENTS = [PYTHON, "-m", "repro.experiments"]
FAULTS = "seed=3; attempts=8; drop:*->*:p=0.2,n=20"
#: Each ruler workload (timed run and layer pass) is sized for this many
#: seconds: enough to reach every operation it mixes.
RULER_SECONDS = "2"


class Glob(str):
    """An argument pattern, expanded when its step runs (as a shell would)."""


def expand(argv: Sequence[str]) -> List[str]:
    out: List[str] = []
    for argument in argv:
        out.extend(sorted(glob.glob(argument)) if isinstance(argument, Glob) else [argument])
    return out


def traffic(work: str) -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` of every replayed command but the live-server session."""

    def out(name: str) -> str:
        return os.path.join(work, name)

    def bench(name: str) -> str:
        return os.path.join(REPO, "benchmarks", name)

    run = EXPERIMENTS + ["run", "--quick", "--no-resume"]
    compare = EXPERIMENTS + ["compare"]
    everything = run + ["--all", "--workers", "2", "--shards", "2", "--results-dir", out("all")]
    traced = run + ["13", "7", "--results-dir", out("traced"), "--trace", out("traces")]
    sqlite = run + ["query_concurrency", "--results-dir", out("sqlite"), "--storage", "sqlite"]
    gate = [bench("durability_gate.py"), "--candidate", out("sqlite"), "--work-dir", work]
    resumed = EXPERIMENTS + ["run", "--quick", "16", "--results-dir", out("faulted")]
    ablations = [bench("bench_ablations.py"), "-q", "--benchmark-disable", "-p", "no:cacheprovider"]
    steps = [
        (f"example {os.path.basename(path)}", [PYTHON, path])
        for path in sorted(glob.glob(os.path.join(REPO, "examples", "*.py")))
    ]
    steps += [
        ("scenario list", EXPERIMENTS + ["list"]),
        ("run --all --quick --shards 2", everything),
        ("compare with the baselines", compare + [bench("baselines"), out("all")]),
        ("wall-clock view", compare + [bench("baselines"), out("all"), "--wall-clock-only"]),
        ("traced fig 13/7", traced),
        ("untraced fig 13/7", run + ["13", "7", "--results-dir", out("untraced")]),
        ("traced == untraced", compare + [out("untraced"), out("traced")]),
        ("trace summary", EXPERIMENTS + ["trace", Glob(out("traces/TRACE_*.json"))]),
        ("sqlite query_concurrency", sqlite),
        ("durability gate", [PYTHON] + gate),
        ("clean fig 16", run + ["16", "--results-dir", out("clean")]),
        ("faulted fig 16", run + ["16", "--results-dir", out("faulted"), "--faults", FAULTS]),
        ("fig 16 resumed without faults", resumed),
        ("resumed == clean", compare + [out("clean"), out("faulted")]),
        ("chaos gate", [PYTHON, bench("chaos_gate.py")]),
        ("ablation benchmarks", [PYTHON, "-m", "pytest"] + ablations),
        ("tracer overhead", [PYTHON, bench("bench_obs_overhead.py"), "1"]),
        ("fig 6 report", [PYTHON, bench("bench_figures.py"), "--figure", "6"]),
    ]
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        workloads = [workload["name"] for workload in json.load(handle)["workloads"]]
    ruler = [PYTHON, bench("perf/run.py"), "--seed", "1", "--seconds", RULER_SECONDS]
    steps += [(f"ruler {name}", ruler + ["--workload", name]) for name in workloads]
    operator = [PYTHON, "-m", "repro.shell", "--topology", "line:4", "--program", "pathvector"]
    steps.append(("operator session", operator + ["--command", operator_session(work)]))
    return steps


def operator_session(work: str) -> str:
    """Embedded-shell commands an operator types that the golden session has
    not: a snapshot, a fault plan with its digest, a link cost update (a
    primary-key replacement) and a query under the plan, the metrics, and
    a delete and a query of the best path it took away (the unknown-vertex
    answer)."""
    return "; ".join(
        [
            f"\\snapshot {os.path.join(work, 'operator.ckpt')}",
            "\\faults straggler:n1:d=0.001 digest",
            "insert link(n0,n1,3)",
            "fixpoint",
            "query bestPathCost(n1,n3,2)",
            "\\metrics",
            "delete link(n0,n1,3)",
            "fixpoint",
            "query bestPathCost(n0,n1,3)",
        ]
    )


def golden_session(out_dir: str, work: str) -> Optional[str]:
    """Run the golden shell session against a live server; ``None`` when it matches."""
    golden = os.path.join(REPO, "tests", "golden")
    port_file = os.path.join(work, "port")
    if os.path.exists(port_file):
        os.remove(port_file)
    serve = ["--topology", "ring:5", "--program", "mincost", "--mode", "ref"]
    server = record(
        [PYTHON, "-m", "repro.service", *serve, "--port-file", port_file],
        out_dir,
        background=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (os.path.exists(port_file) and os.path.getsize(port_file)):
            if time.monotonic() > deadline or server.poll() is not None:
                return "the server never wrote its port"
            time.sleep(0.1)
        with open(port_file, encoding="utf-8") as handle:
            port = handle.read().strip()
        with open(os.path.join(golden, "shell_session.commands"), encoding="utf-8") as handle:
            commands = handle.read()
        shell = record(
            [PYTHON, "-m", "repro.shell", "--connect", f"127.0.0.1:{port}"],
            out_dir,
            stdin=commands,
        )
        with open(os.path.join(golden, "shell_session.txt"), encoding="utf-8") as handle:
            expected = handle.read()
        if shell.stdout != expected:
            return "the transcript differs from tests/golden/shell_session.txt"
        if server.wait(timeout=60) != 0:
            return f"the server exited {server.returncode} after \\shutdown"
        return None
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def replay(out_dir: str) -> int:
    work = os.path.join(out_dir, "work")
    os.makedirs(work, exist_ok=True)
    for label, argv in traffic(work):
        started = time.monotonic()
        result = record(expand(argv), out_dir)
        print(f"{label:<32} exit {result.returncode}  {time.monotonic() - started:6.1f} s")
        if result.returncode != 0:
            print(result.stdout[-4000:], result.stderr[-4000:], sep="\n")
            return 1
    started = time.monotonic()
    problem = golden_session(out_dir, work)
    print(f"{'golden shell session':<32} {problem or 'ok'}  {time.monotonic() - started:6.1f} s")
    return 1 if problem else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="profile directory (records accumulate)")
    parser.add_argument("--all", action="store_true", help="replay the traffic under the recorder")
    parser.add_argument("--report", action="store_true", help="list uncalled src/ functions")
    parser.add_argument(
        "--check", action="store_true", help="fail unless the uncalled functions are LISTED"
    )
    parser.add_argument("command", nargs="*", help="one command to record (after --)")
    args = parser.parse_args(argv)
    if not (args.command or args.all or args.report or args.check):
        parser.error("nothing to do: give --all, --report, --check or a command")
    out_dir = os.path.abspath(args.out)
    status = 0
    if args.command:
        result = record(args.command, out_dir)
        sys.stdout.write(result.stdout)
        sys.stderr.write(result.stderr)
        status = result.returncode
    if args.all:
        status = status or replay(out_dir)
    if args.report:
        print(report(SRC, out_dir))
    if args.check and not status:
        problems = check(SRC, out_dir, LISTED)
        for problem in problems:
            print(problem)
        print(f"check: {len(problems)} problem(s)")
        status = 1 if problems else 0
    return status


if __name__ == "__main__":
    sys.exit(main())
