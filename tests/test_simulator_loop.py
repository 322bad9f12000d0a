"""The simulator's single event loop equals the step-by-step loop it replaced.

``Simulator`` runs ``run`` / ``run_until_idle`` / ``run_window`` through one
loop that pops, skips tombstones, sets the clock, calls back and counts in
place.  :class:`StepwiseSimulator` below is the loop it replaced — ``run``
and ``run_window`` peeking and calling ``step``, which pops one event through
``_pop`` — kept here as the oracle.  Hypothesis drives both with the same
scripts: scheduling (relative and absolute, with delivery-shaped keys that
collide on every prefix), cancelling from outside and from inside callbacks
(with a compaction floor low enough that a callback's cancel rebuilds the
queue while the loop is running), ``run(until)``, ``max_events``,
``run_window`` and ``next_event_time``.  Execution order, clock,
``events_executed``, ``pending_events``, ``queue_length`` and ``safe_time``
must agree after every step.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.errors import SimulationError
from repro.net.simulator import Simulator
from helpers import cancelled, compaction


@dataclass(slots=True)
class StepwiseEvent:
    time: float
    key: Tuple[Any, ...]
    sequence: int
    callback: Callable[[], None]
    cancelled: bool = False
    _owner: Optional["StepwiseSimulator"] = field(default=None, repr=False)

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._owner is not None:
            self._owner._note_cancelled()
            self._owner = None


class StepwiseSimulator:
    """The step-by-step loop: tuple heap entries, ``_peek`` / ``step`` / ``_pop``."""

    def __init__(self, compact_min_cancelled: int, compact_ratio: float) -> None:
        self.now = 0.0
        self.safe_time = 0.0
        self._sequence = 0
        self._queue: List[Tuple[float, Tuple[Any, ...], int, StepwiseEvent]] = []
        self.pending_events = 0
        self._cancelled_in_queue = 0
        self.compact_min_cancelled = compact_min_cancelled
        self.compact_ratio = compact_ratio
        self.events_executed = 0

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[[], None], key=()) -> StepwiseEvent:
        if delay < 0:
            raise SimulationError("negative delay")
        return self.schedule_at(self.now + delay, callback, key=key)

    def schedule_at(self, time: float, callback: Callable[[], None], key=()) -> StepwiseEvent:
        if time < self.now or time < self.safe_time:
            raise SimulationError("in the past")
        sequence = self._sequence
        self._sequence += 1
        event = StepwiseEvent(time, key, sequence, callback, False, self)
        heapq.heappush(self._queue, (time, key, sequence, event))
        self.pending_events += 1
        return event

    def _note_cancelled(self) -> None:
        self.pending_events -= 1
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue > self.compact_min_cancelled
            and self._cancelled_in_queue > self.pending_events * self.compact_ratio
        ):
            self._queue = [entry for entry in self._queue if not entry[3].cancelled]
            heapq.heapify(self._queue)
            self._cancelled_in_queue = 0

    def _pop(self) -> Optional[StepwiseEvent]:
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            event._owner = None
            self.pending_events -= 1
            return event
        return None

    def _peek(self) -> Optional[StepwiseEvent]:
        while self._queue and self._queue[0][3].cancelled:
            heapq.heappop(self._queue)
            self._cancelled_in_queue -= 1
        return self._queue[0][3] if self._queue else None

    def step(self) -> bool:
        event = self._pop()
        if event is None:
            return False
        self.now = event.time
        event.callback()
        self.events_executed += 1
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        executed = 0
        while self._queue:
            next_event = self._peek()
            if next_event is None:
                break
            if until is not None and next_event.time > until:
                self.now = until
                break
            if max_events is not None and executed >= max_events:
                break
            if self.step():
                executed += 1
        return executed

    def run_window(self, horizon: float, max_events: Optional[int] = None) -> int:
        if horizon < self.safe_time:
            raise SimulationError("horizon before safe time")
        executed = 0
        drained = True
        while True:
            next_event = self._peek()
            if next_event is None or next_event.time >= horizon:
                break
            if max_events is not None and executed >= max_events:
                drained = False
                break
            if self.step():
                executed += 1
        self.safe_time = horizon if drained else max(self.safe_time, self.now)
        return executed

    def next_event_time(self) -> Optional[float]:
        event = self._peek()
        return event.time if event is not None else None


class Driven:
    """One implementation under a script: its handles and execution log."""

    def __init__(self, simulator: Any) -> None:
        self.simulator = simulator
        self.handles: List[Any] = []
        self.log: List[Tuple[int, float]] = []
        self.idents = iter(range(100_000))

    def callback(self, ident: int, action: Any) -> Callable[[], None]:
        def fire() -> None:
            self.log.append((ident, self.simulator.now))
            if action is None:
                return
            if action[0] == "spawn":
                self.schedule(action[1], action[2], None, absolute=False)
            elif action[1] < len(self.handles):  # cancel from inside a callback
                self.handles[action[1]].cancel()

        return fire

    def schedule(self, delay: float, key: Tuple, action: Any, absolute: bool) -> bool:
        callback = self.callback(next(self.idents), action)
        simulator = self.simulator
        try:
            if absolute:
                time = max(simulator.now, simulator.safe_time) + delay
                self.handles.append(simulator.schedule_at(time, callback, key=key))
            else:
                self.handles.append(simulator.schedule(delay, callback, key=key))
        except SimulationError:
            return False
        return True

    def apply(self, op: Tuple) -> Any:
        simulator = self.simulator
        kind = op[0]
        if kind in ("schedule", "schedule_at"):
            return self.schedule(op[1], op[2], op[3], absolute=kind == "schedule_at")
        if kind == "cancel":
            if op[1] < len(self.handles):
                self.handles[op[1]].cancel()
            return None
        if kind == "run":
            until = None if op[1] is None else simulator.now + op[1]
            return simulator.run(until=until, max_events=op[2])
        if kind == "run_window":
            horizon = max(simulator.safe_time, simulator.now) + op[1]
            return simulator.run_window(horizon, op[2])
        return simulator.next_event_time()

    def state(self) -> Tuple:
        simulator = self.simulator
        return (
            list(self.log),
            simulator.now,
            simulator.events_executed,
            simulator.pending_events,
            simulator.queue_length,
            simulator.safe_time,
        )


DELAYS = st.sampled_from([0.0, 0.0, 0.001, 0.002, 0.005, 0.01])
#: The default key, and delivery-shaped keys that collide on every prefix.
KEYS = st.sampled_from([(), (), (0.0, 0, 0), (0.0, 0, 1), (0.0, 1, 0), (0.001, 0, 0)])
LIMITS = st.one_of(st.none(), st.integers(0, 5))
ACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("spawn"), DELAYS, KEYS),
    st.tuples(st.just("cancel"), st.integers(0, 15)),
)
OPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, KEYS, ACTIONS),
    st.tuples(st.just("schedule"), DELAYS, KEYS, ACTIONS),
    st.tuples(st.just("schedule_at"), DELAYS, KEYS, ACTIONS),
    st.tuples(st.just("cancel"), st.integers(0, 15)),
    st.tuples(st.just("run"), st.one_of(st.none(), DELAYS), LIMITS),
    st.tuples(st.just("run_window"), DELAYS, LIMITS),
    st.tuples(st.just("next_event_time")),
)


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(OPS, min_size=5, max_size=60),
    st.integers(0, 2),
    st.sampled_from([0.2, 0.5, 1.0]),
)
def test_one_loop_equals_the_stepwise_loop(ops, compact_floor, compact_ratio):
    loop = Driven(Simulator())
    oracle = Driven(StepwiseSimulator(compact_floor, compact_ratio))
    with compaction(compact_floor, compact_ratio):
        for op in ops:
            assert loop.apply(op) == oracle.apply(op), op
            assert loop.state() == oracle.state(), op
        assert loop.apply(("run", None, None)) == oracle.apply(("run", None, None))
    assert loop.state() == oracle.state()
    assert loop.simulator.queue_length == 0 and loop.simulator.pending_events == 0


@compaction(0, 1.0)
def test_cancel_from_a_callback_that_compacts_the_running_queue():
    """A callback's cancel rebuilds the queue mid-run; the loop keeps going."""
    simulator = Simulator()
    fired: List[str] = []
    victims = [simulator.schedule(2.0, lambda: fired.append("victim")) for _ in range(4)]

    def cancel_all() -> None:
        fired.append("canceller")
        for event in victims:
            event.cancel()

    simulator.schedule(1.0, cancel_all)
    simulator.schedule(3.0, lambda: fired.append("after"))
    assert simulator.run() == 2
    assert fired == ["canceller", "after"]
    assert simulator.compactions >= 1
    assert all(cancelled(event) and not event.pending for event in victims)
    assert simulator.queue_length == simulator.pending_events == 0

