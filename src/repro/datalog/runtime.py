"""Standalone multi-node runtime without the event simulator.

:class:`StandaloneNetwork` wires a set of :class:`NDlogEngine` instances
together with an in-memory message queue and zero latency.  It is the
easiest way to execute a distributed NDlog program when timing and byte
accounting do not matter — unit tests and the quickstart example use it;
the experiment harness uses the full simulator instead
(:mod:`repro.net.network` + :mod:`repro.core.api`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .ast import Fact, Program
from .engine import Delta, NDlogEngine
from .errors import EvaluationError

__all__ = ["StandaloneNetwork"]


class StandaloneNetwork:
    """Runs one engine per node and delivers remote deltas instantly."""

    def __init__(
        self,
        addresses: Iterable[Any],
        program: Optional[Program] = None,
    ):
        self.engines: Dict[Any, NDlogEngine] = {}
        self._pending: deque[Tuple[Any, Delta]] = deque()
        self.messages_sent = 0
        for address in addresses:
            self.engines[address] = NDlogEngine(address, send=self._make_sender(address))
        if program is not None:
            self.load_program(program)

    def _make_sender(self, source: Any) -> Callable[[Any, Delta], None]:
        def sender(destination: Any, delta: Delta) -> None:
            self.messages_sent += 1
            self._pending.append((destination, delta))

        return sender

    # ------------------------------------------------------------------ #
    # program and base facts
    # ------------------------------------------------------------------ #
    def load_program(self, program: Program) -> None:
        for engine in self.engines.values():
            engine.load_program(program)

    def engine(self, address: Any) -> NDlogEngine:
        return self.engines[address]

    def insert(self, fact: Fact) -> None:
        """Insert a base fact at the node named by its location specifier."""
        self._engine_for(fact).insert(fact)

    def _engine_for(self, fact: Fact) -> NDlogEngine:
        try:
            return self.engines[fact.location]
        except KeyError:
            raise EvaluationError(
                f"fact {fact} addressed to unknown node {fact.location!r}"
            ) from None

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, max_rounds: int = 1_000_000) -> int:
        """Run all engines to a global fixpoint; returns messages delivered."""
        delivered = 0
        engines = self.engines
        pending = self._pending
        for _ in range(max_rounds):
            progressed = False
            for engine in engines.values():
                if engine._queue:
                    engine.run()
                    progressed = True
            while pending:
                destination, delta = pending.popleft()
                engines[destination].receive(delta)
                delivered += 1
                progressed = True
            if not progressed:
                return delivered
        raise EvaluationError("StandaloneNetwork.run did not reach a fixpoint")

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def all_rows(self, name: str) -> List[Tuple[Any, ...]]:
        """Union of table *name* across every node (sorted for stable tests)."""
        rows: List[Tuple[Any, ...]] = []
        for engine in self.engines.values():
            table = engine.catalog.get(name)  # a read creates nothing
            if table is not None:
                rows.extend(table.rows())
        return sorted(rows, key=repr)

    def planner_stats(self) -> Dict[str, int]:
        """Aggregated planner / evaluation counters across every engine."""
        from ..net.stats import aggregate_engine_stats

        return aggregate_engine_stats(engine.stats for engine in self.engines.values())
