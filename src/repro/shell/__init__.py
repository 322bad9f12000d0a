"""Interactive operator console for the provenance query service.

``python -m repro.shell`` connects a small REPL to a running service
(``--connect host:port``) or spins up an embedded one (``--topology``/
``--program``/``--mode``), then lets an operator register specs, issue
provenance queries, mutate facts, run to fixpoint, and inspect
EXPLAIN output and derivation trees — all over the same wire protocol a
programmatic client uses, so everything the shell prints is exactly what
the service serves.

Interactive niceties (readline history, tab completion over predicates
and spec names) degrade gracefully when ``readline`` is unavailable, and
the ``--command``/stdin mode emits a deterministic transcript (prompt
lines echoed, no wall-clock anywhere) for the golden-transcript CI gate.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO

from ..core.errors import ProvenanceError
from ..service.client import ServiceClient, ServiceError
from ..service.protocol import FrameError

__all__ = ["ExspanShell", "parse_fact"]

PROMPT = "exspan> "

_HELP = """\
Statements
  query NAME(V1,...) [with SPEC]   resolve provenance for a tuple
  insert NAME(V1,...)              insert a base fact and process it
  delete NAME(V1,...)              delete a base fact and propagate
  fixpoint                         run the protocol to fixpoint
  tuples TABLE                     list a table's rows across all nodes
Specials
  \\spec KIND                       register a query spec (polynomial, bdd,
                                   nodeset, derivations, derivability)
  \\specs  \\tables  \\nodes          list registered specs / tables / nodes
  \\explain RULE                    EXPLAIN output for one rule
  \\prov NAME(V1,...) [DEPTH]       pretty-print the derivation tree
  \\stats                           network traffic statistics
  \\metrics                         metrics registry snapshot
  \\faults [PLAN] [digest]          install a fault plan / show injector
                                   state (PLAN is a fault-spec string,
                                   e.g. "drop:a->b:p=0.3"; "digest"
                                   prints the convergence digest)
  \\trace on|off                    per-query sim-time timing lines
  \\snapshot PATH                   checkpoint the network state to a file
  \\shutdown                        drain and stop the connected service
  \\help                            this text
  \\q                               quit"""


def parse_fact(text: str) -> Dict[str, Any]:
    """Parse ``name(v1,v2,...)`` into a wire fact (ints parsed, rest strings)."""
    text = text.strip()
    open_paren = text.find("(")
    if open_paren <= 0 or not text.endswith(")"):
        raise ProvenanceError(f"expected NAME(V1,V2,...), got {text!r}")
    name = text[:open_paren].strip()
    body = text[open_paren + 1 : -1].strip()
    values: List[Any] = []
    if body:
        for part in body.split(","):
            part = part.strip()
            if not part:
                raise ProvenanceError(f"empty value in fact {text!r}")
            try:
                values.append(int(part))
            except ValueError:
                values.append(part)
    return {"name": name, "values": values, "location_index": 0}


def _format_annotation(annotation: Dict[str, Any]) -> str:
    kind = annotation.get("kind")
    if kind == "polynomial":
        return f"polynomial {annotation.get('text')}"
    if kind == "bdd":
        products = annotation.get("products", [])
        rendered = " + ".join("*".join(product) for product in products) or "0"
        return f"bdd[{annotation.get('node_count')} nodes] {rendered}"
    if kind == "set":
        return "{" + ", ".join(str(value) for value in annotation.get("values", [])) + "}"
    if kind in ("bool", "int", "float", "str"):
        return f"{kind} {annotation.get('value')}"
    if kind == "none":
        return "(none)"
    return str(annotation)


class ExspanShell:
    """The REPL: parses one command at a time against a :class:`ServiceClient`."""

    def __init__(
        self,
        client: ServiceClient,
        out: TextIO = sys.stdout,
        echo: bool = False,
        default_spec: str = "polynomial",
        interactive: bool = False,
        pager: Optional[Callable[[str], None]] = None,
        page_threshold: int = 24,
    ) -> None:
        self.client = client
        self.out = out
        self.echo = echo
        self.default_spec = default_spec
        #: Long output (derivation trees, table dumps, EXPLAIN text) goes
        #: through a pager only in interactive mode; scripted transcripts
        #: stay plain so the golden-transcript CI gate never sees one.
        self.interactive = interactive
        self.pager = pager
        self.page_threshold = page_threshold
        self.trace = False
        self.running = True
        self._ensure_spec(default_spec)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def _print(self, text: str = "") -> None:
        self.out.write(text + "\n")

    def _page(self, text: str) -> None:
        """Print *text*, routing through a pager when it would scroll away.

        Only interactive sessions page; anything at or under
        ``page_threshold`` lines prints directly either way.  An injected
        ``pager`` callable wins, then ``$PAGER``, then the built-in
        screenful-at-a-time fallback.
        """
        if not self.interactive or text.count("\n") + 1 <= self.page_threshold:
            self._print(text)
            return
        if self.pager is not None:
            self.pager(text)
            return
        if self._external_pager(text):
            return
        self._builtin_pager(text)

    def _external_pager(self, text: str) -> bool:
        import os
        import subprocess

        command = os.environ.get("PAGER", "").strip()
        if not command:
            return False
        try:
            subprocess.run(command, input=text + "\n", shell=True, check=False, text=True)
            return True
        except OSError:  # pragma: no cover - PAGER misconfigured
            return False

    def _builtin_pager(self, text: str) -> None:
        lines = text.split("\n")
        step = max(self.page_threshold, 1)
        for start in range(0, len(lines), step):
            self._print("\n".join(lines[start : start + step]))
            if start + step < len(lines):
                try:
                    reply = input("--More-- (Enter continues, q stops) ")
                except (EOFError, KeyboardInterrupt):
                    self._print("")
                    return
                if reply.strip().lower().startswith("q"):
                    return

    def _ensure_spec(self, kind: str) -> str:
        return self.client.call("register_spec", spec={"kind": kind})["name"]

    # ------------------------------------------------------------------ #
    # completion (interactive mode only)
    # ------------------------------------------------------------------ #
    def completion_candidates(self) -> List[str]:
        """Everything worth completing: statements, specials, tables, specs."""
        words = [
            "query",
            "insert",
            "delete",
            "fixpoint",
            "tuples",
            "with",
            "\\spec",
            "\\specs",
            "\\tables",
            "\\nodes",
            "\\explain",
            "\\prov",
            "\\stats",
            "\\metrics",
            "\\faults",
            "\\trace",
            "\\snapshot",
            "\\shutdown",
            "\\help",
            "\\q",
        ]
        try:
            words.extend(self.client.call("tables")["tables"])
            words.extend(self.client.call("specs")["specs"])
        except (ServiceError, FrameError):
            pass
        return sorted(set(words))

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def handle(self, line: str) -> None:
        """Execute one command line; errors print, they never raise."""
        line = line.strip()
        if not line or line.startswith("#"):
            return
        if self.echo:
            self._print(PROMPT + line)
        try:
            self._dispatch(line)
        except ProvenanceError as exc:
            self._print(f"error: {exc}")
        except ServiceError as exc:
            self._print(f"error [{exc.code}]: {exc.message}")

    def _dispatch(self, line: str) -> None:
        if line.startswith("\\"):
            self._special(line)
            return
        head, _, rest = line.partition(" ")
        head = head.lower()
        rest = rest.strip()
        if head == "query":
            self._query(rest)
        elif head == "insert":
            result = self.client.call("insert", fact=parse_fact(rest))
            self._print(f"inserted; now={result['now']:.6f}")
        elif head == "delete":
            result = self.client.call("delete", fact=parse_fact(rest))
            self._print(f"deleted; now={result['now']:.6f}")
        elif head == "fixpoint":
            result = self.client.call("fixpoint")
            self._print(f"fixpoint at {result['fixpoint_time']:.6f}; now={result['now']:.6f}")
        elif head == "tuples":
            if not rest:
                raise ProvenanceError("tuples needs a table name")
            self._tuples(rest)
        elif head in ("quit", "exit"):
            self.running = False
        else:
            raise ProvenanceError(f"unknown command {head!r} (try \\help)")

    def _special(self, line: str) -> None:
        parts = line.split()
        command, args = parts[0], parts[1:]
        if command in ("\\q", "\\quit"):
            self.running = False
        elif command == "\\help":
            self._print(_HELP)
        elif command == "\\tables":
            self._print(" ".join(self.client.call("tables")["tables"]))
        elif command == "\\nodes":
            self._print(" ".join(self.client.call("nodes")["nodes"]))
        elif command == "\\specs":
            self._print(" ".join(self.client.call("specs")["specs"]))
        elif command == "\\spec":
            if not args:
                raise ProvenanceError("\\spec needs a spec kind")
            name = self._ensure_spec(args[0])
            self._print(f"registered {name}")
        elif command == "\\explain":
            if not args:
                raise ProvenanceError("\\explain needs a rule label")
            result = self.client.call("explain", rule=args[0])
            self._page(result["text"])
        elif command == "\\prov":
            if not args:
                raise ProvenanceError("\\prov needs a fact")
            params: Dict[str, Any] = {"fact": parse_fact(args[0])}
            if len(args) > 1:
                params["depth"] = int(args[1])
            result = self.client.call("prov", **params)
            self._page(result["tree"])
        elif command == "\\snapshot":
            if not args:
                raise ProvenanceError("\\snapshot needs a file path")
            result = self.client.call("snapshot", path=args[0])
            self._print(
                f"snapshot: {result['path']} ({result['nodes']} nodes, "
                f"{result['bytes']} bytes); now={result['now']:.6f}"
            )
        elif command == "\\stats":
            self._stats()
        elif command == "\\metrics":
            self._metrics()
        elif command == "\\faults":
            self._faults(args)
        elif command == "\\trace":
            if args and args[0] in ("on", "off"):
                self.trace = args[0] == "on"
            self._print(f"trace {'on' if self.trace else 'off'}")
        elif command == "\\shutdown":
            result = self.client.shutdown_server()
            self._print("server shutting down" if result.get("stopping") else str(result))
            self.running = False
        else:
            raise ProvenanceError(f"unknown special {command!r} (try \\help)")

    # ------------------------------------------------------------------ #
    # renderers
    # ------------------------------------------------------------------ #
    def _query(self, rest: str) -> None:
        if not rest:
            raise ProvenanceError("query needs a fact")
        fact_text, _, spec_text = rest.partition(" with ")
        spec = spec_text.strip() or self.default_spec
        self._ensure_spec(spec)
        result = self.client.call("query", fact=parse_fact(fact_text), spec=spec)
        self._print(f"vid: {result['vid']}")
        self._print(f"annotation: {_format_annotation(result['annotation'])}")
        if self.trace:
            issued = result["meta"]["issued_at"]
            completed = result["meta"]["completed_at"]
            self._print(
                f"trace: issued={issued:.6f} completed={completed:.6f} "
                f"latency={completed - issued:.6f}"
            )

    def _tuples(self, table: str) -> None:
        rows = self.client.call("tuples", table=table)["rows"]
        lines = [
            f"{node}: {table}({','.join(str(value) for value in values)})"
            for node, values in rows
        ]
        lines.append(f"({len(rows)} rows)")
        self._page("\n".join(lines))

    def _stats(self) -> None:
        stats = self.client.call("stats")
        self._print(f"messages_sent: {stats['messages_sent']}")
        self._print(f"total_bytes: {stats['total_bytes']}")
        for kind in sorted(stats.get("kind_totals", {})):
            totals = stats["kind_totals"][kind]
            self._print(f"  {kind}: messages={totals['messages']} bytes={totals['bytes']}")

    def _metrics(self) -> None:
        metrics = self.client.call("metrics")
        for section in ("counters", "gauges"):
            values = metrics.get(section, {})
            for name in sorted(values):
                self._print(f"{section[:-1]} {name} = {values[name]}")

    def _faults(self, args: Sequence[str]) -> None:
        params: Dict[str, Any] = {}
        # "digest" may trail a plan string; everything else is the plan.
        tokens = list(args)
        if tokens and tokens[-1] == "digest":
            params["digest"] = True
            tokens = tokens[:-1]
        if tokens:
            params["plan"] = " ".join(tokens)
        result = self.client.call("faults", **params)
        if result["installed"]:
            self._print(f"plan: {result['plan']}")
            for name in sorted(result["stats"]):
                self._print(f"  {name} = {result['stats'][name]}")
        else:
            self._print("no fault plan installed")
        if "convergence" in result:
            self._print(f"convergence: {result['convergence']}")

    # ------------------------------------------------------------------ #
    # loops
    # ------------------------------------------------------------------ #
    def run_script(self, lines: Sequence[str]) -> None:
        for line in lines:
            if not self.running:
                break
            self.handle(line)

    def run_interactive(self) -> None:
        self._setup_readline()
        self._print("exspan shell — \\help for commands, \\q to quit")
        while self.running:
            try:
                line = input(PROMPT)
            except EOFError:
                self._print("")
                break
            except KeyboardInterrupt:
                self._print("")
                continue
            self.handle(line)

    def _setup_readline(self) -> None:
        try:
            import readline
        except ImportError:  # pragma: no cover - platform-dependent
            return

        candidates = self.completion_candidates()

        def complete(text: str, state: int) -> Optional[str]:
            matches = [word for word in candidates if word.startswith(text)]
            return matches[state] if state < len(matches) else None

        readline.set_completer(complete)
        readline.set_completer_delims(" \t\n")
        readline.parse_and_bind("tab: complete")
