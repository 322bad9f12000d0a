"""Shell entry point: ``python -m repro.shell``.

Two ways to get a service:

* ``--connect HOST:PORT`` — attach to an already-running
  ``python -m repro.service``;
* otherwise an embedded server is started in-process from
  ``--topology``/``--program``/``--mode`` (same grammar as the service
  CLI) and torn down on exit.

Three ways to feed it commands: interactively (TTY), ``--command`` (one
or more scripted lines), or piped stdin.  Scripted modes echo each
command after the prompt so the output reads as a full transcript — the
CI golden-transcript gate depends on that.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from ..core.errors import ProvenanceError
from ..service.bootstrap import build_network
from ..service.client import ServiceClient
from ..service.protocol import FrameError
from ..service.server import ServiceThread
from . import ExspanShell


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shell",
        description="Interactive console for the provenance query service.",
    )
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT", help="attach to a running service"
    )
    parser.add_argument("--topology", default="ring:6", help="embedded-mode topology spec")
    parser.add_argument("--program", default="mincost", help="embedded-mode program spec")
    parser.add_argument("--mode", default="ref", help="embedded-mode provenance mode")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--command",
        "-c",
        action="append",
        default=None,
        metavar="LINE",
        help="run this command and exit (repeatable; semicolons split lines)",
    )
    return parser


def _split_commands(commands: List[str]) -> List[str]:
    lines: List[str] = []
    for command in commands:
        lines.extend(part.strip() for part in command.split(";") if part.strip())
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        try:
            address = (host or "127.0.0.1", int(port_text))
        except ValueError:
            print(f"bad --connect address {args.connect!r}", file=sys.stderr)
            return 2
        return _session(args, address)
    try:
        network = build_network(
            topology_spec=args.topology,
            program_spec=args.program,
            mode=args.mode,
            seed=args.seed,
        )
    except ProvenanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with ServiceThread(network) as embedded:
        return _session(args, embedded.address)


def _session(args: argparse.Namespace, address: Tuple[str, int]) -> int:
    scripted = args.command is not None or not sys.stdin.isatty()
    try:
        with ServiceClient(*address) as client:
            shell = ExspanShell(
                client, out=sys.stdout, echo=scripted, interactive=not scripted
            )
            if args.command is not None:
                shell.run_script(_split_commands(args.command))
            elif scripted:
                shell.run_script([line.rstrip("\n") for line in sys.stdin])
            else:
                shell.run_interactive()
    except (ConnectionError, FrameError) as exc:
        print(f"connection failed: {exc}", file=sys.stderr)
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
