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
nested in an uncalled function is not listed again.

Usage::

    python benchmarks/traffic_profile.py --all --out /tmp/tp      # replay the traffic
    python benchmarks/traffic_profile.py --report --out /tmp/tp   # uncalled src/ functions
    python benchmarks/traffic_profile.py --out /tmp/tp -- python examples/quickstart.py

``--all`` replays: the four examples; ``run --all --quick --shards 2``
compared with ``benchmarks/baselines``; the traced fig 13/7 run; the sqlite
``query_concurrency`` run and the durability gate; the faulted fig 16 run;
the chaos gate; the ablation and tracer-overhead benchmarks; the golden
shell session against a live server; and the seven ruler workloads.  It
takes about 7 minutes on 2 cores, and stops at the first step that fails.
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


def uncalled(root: str, seen: Set[Tuple[str, int]]) -> List[Function]:
    """Functions under *root* that no recorded process called, outermost only."""
    missing: List[Function] = []

    def walk(path: str, body: Sequence[ast.stmt], prefix: str) -> None:
        for function, inner in _functions(path, body, prefix):
            if (path, function.first_line) in seen:
                walk(path, inner, function.qualname + ".")
            else:
                missing.append(function)

    root = os.path.realpath(root)
    for directory, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    walk(path, ast.parse(handle.read(), path).body, "")
    return missing


def report(root: str, out_dir: str) -> str:
    """Per-file totals, then one line per uncalled function."""
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
        out.append(f"  {where:<44} {function.qualname} ({function.lines} lines)")
    return "\n".join(out)


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
    ablations = [bench("bench_ablations.py"), "-q", "--benchmark-disable", "-p", "no:cacheprovider"]
    steps = [
        (f"example {os.path.basename(path)}", [PYTHON, path])
        for path in sorted(glob.glob(os.path.join(REPO, "examples", "*.py")))
    ]
    steps += [
        ("run --all --quick --shards 2", everything),
        ("compare with the baselines", compare + [bench("baselines"), out("all")]),
        ("traced fig 13/7", traced),
        ("untraced fig 13/7", run + ["13", "7", "--results-dir", out("untraced")]),
        ("traced == untraced", compare + [out("untraced"), out("traced")]),
        ("trace summary", EXPERIMENTS + ["trace", Glob(out("traces/TRACE_*.json"))]),
        ("sqlite query_concurrency", sqlite),
        ("durability gate", [PYTHON] + gate),
        ("faulted fig 16", run + ["16", "--results-dir", out("faulted"), "--faults", FAULTS]),
        ("chaos gate", [PYTHON, bench("chaos_gate.py")]),
        ("ablation benchmarks", [PYTHON, "-m", "pytest"] + ablations),
        ("tracer overhead", [PYTHON, bench("bench_obs_overhead.py"), "1"]),
    ]
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        workloads = [workload["name"] for workload in json.load(handle)["workloads"]]
    ruler = [PYTHON, bench("perf/run.py"), "--seed", "1", "--seconds", RULER_SECONDS]
    steps += [(f"ruler {name}", ruler + ["--workload", name]) for name in workloads]
    return steps


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
    parser.add_argument("command", nargs="*", help="one command to record (after --)")
    args = parser.parse_args(argv)
    if not (args.command or args.all or args.report):
        parser.error("nothing to do: give --all, --report or a command")
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
    return status


if __name__ == "__main__":
    sys.exit(main())
