"""Churn injection.

Section 7.2 of the paper evaluates provenance maintenance under "a high
level of node churn and link failure", modeled by adding or deleting ten
randomly selected stub-to-stub links every 0.5 seconds in a 200-node
network, with addition and deletion equally likely.

:class:`ChurnGenerator` reproduces that workload against any object exposing
``add_link(a, b)`` and ``remove_link(a, b)`` callbacks — in practice
the :class:`~repro.core.api.ExspanNetwork` facade, which converts the
topology change into ``link`` tuple insertions / deletions on both endpoint
nodes (links are symmetric; an added link costs ``LinkSpec().cost``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from .simulator import Simulator
from .topology import TIER_STUB, Topology

__all__ = ["ChurnEvent", "ChurnGenerator"]


@dataclass(frozen=True)
class ChurnEvent:
    """A single applied churn action."""

    time: float
    action: str  # "add" | "delete"
    endpoint_a: Any
    endpoint_b: Any


class ChurnGenerator:
    """Schedules periodic random link additions and deletions."""

    def __init__(
        self,
        topology: Topology,
        simulator: Simulator,
        add_link: Callable[[Any, Any], None],
        remove_link: Callable[[Any, Any], None],
        links_per_round: int = 10,
        interval: float = 0.5,
        seed: int = 0,
        tier: str = TIER_STUB,
    ):
        self.topology = topology
        self.simulator = simulator
        self._add_link = add_link
        self._remove_link = remove_link
        self.links_per_round = links_per_round
        self.interval = interval
        self.tier = tier
        self._rng = random.Random(seed)
        self.events: List[ChurnEvent] = []
        # Candidate endpoints for new links: stub nodes only (as in the paper
        # churn applies to stub-to-stub links).
        self._stub_nodes = [
            node for node in topology.nodes if topology.node_kind(node) == "stub"
        ]

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def start(self, rounds: int, first_delay: Optional[float] = None) -> None:
        """Schedule *rounds* churn rounds starting after *first_delay*."""
        delay = self.interval if first_delay is None else first_delay
        for round_index in range(rounds):
            self.simulator.schedule(delay + round_index * self.interval, self._apply_round)

    # ------------------------------------------------------------------ #
    # churn application
    # ------------------------------------------------------------------ #
    def _apply_round(self) -> None:
        for _ in range(self.links_per_round):
            self._apply_one()

    def _apply_one(self) -> None:
        add = self._rng.random() < 0.5
        if add:
            pair = self._pick_absent_pair()
            if pair is None:
                return
            a, b = pair
            self._add_link(a, b)
            self.events.append(ChurnEvent(self.simulator.now, "add", a, b))
        else:
            pair = self._pick_existing_stub_link()
            if pair is None:
                return
            a, b = pair
            self._remove_link(a, b)
            self.events.append(ChurnEvent(self.simulator.now, "delete", a, b))

    def _pick_absent_pair(self) -> Optional[Tuple[Any, Any]]:
        if len(self._stub_nodes) < 2:
            return None
        for _ in range(32):
            a, b = self._rng.sample(self._stub_nodes, 2)
            if not self.topology.has_link(a, b):
                return a, b
        return None

    def _pick_existing_stub_link(self) -> Optional[Tuple[Any, Any]]:
        candidates = self.topology.links_by_tier(self.tier)
        if not candidates:
            return None
        a, b, _ = self._rng.choice(candidates)
        return a, b
