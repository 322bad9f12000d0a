"""A small discrete-event simulator.

This is the reproduction's substitute for ns-3: it provides an event queue
ordered by simulated time, with deterministic tie-breaking for events
scheduled at the same instant.  All latencies are in seconds.

The simulator knows nothing about networks; :mod:`repro.net.network` builds
message delivery on top of :meth:`Simulator.schedule`.

Event ordering
--------------
Events are ordered by ``(time, key, sequence)``.  ``key`` is an optional
tuple supplied by the scheduler; events with equal keys fall back
to FIFO insertion order.  A heap entry is the plain tuple ``(time, key,
sequence, event)``: ``sequence`` is unique, so the heap orders entries by
C-level tuple comparison and never looks at the :class:`ScheduledEvent`
in the last slot (which only carries the callback and the cancellation
flag).  The network layer keys every message delivery by
``(send time, source rank, per-source send sequence)``, which makes the
execution order of same-instant deliveries a pure function of *which host
sent what, when*
rather than of global scheduling order.  That invariance is what lets the
sharded engine (:mod:`repro.net.sharding`) partition one simulation across
worker processes and still execute bit-identically to this single-process
simulator: a per-shard queue can reconstruct the very same total order
from local information only.

Windowed stepping
-----------------
:meth:`Simulator.run_window` executes every event strictly *before* an
exclusive horizon and then parks the clock there.  The sharded engine runs
each shard over conservative lookahead windows (the horizon is the window
barrier); events scheduled exactly at the horizon wait, because a
cross-shard message may still arrive at that instant.  ``safe_time`` is
the monotone horizon accounting: no event before it can ever be scheduled
again, which the barrier protocol asserts when it injects remote messages.

Cancelled events are lazily skipped at pop time (the classic tombstone
scheme), but the queue does not rot under churn-heavy workloads: the
simulator keeps a live-event counter (so :attr:`Simulator.pending_events`
is O(1) rather than an O(queue) scan) and compacts the heap whenever
tombstones outnumber live events by the configured ratio, so a workload
that schedules and cancels in a loop runs in memory proportional to the
*live* events only.  ``compact_min_cancelled`` and ``compact_ratio`` are
constructor knobs (huge sharded runs tune them through
:class:`~repro.core.api.ExspanNetwork`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from .errors import SimulationError

__all__ = ["Simulator", "ScheduledEvent", "COMPACT_MIN_CANCELLED", "COMPACT_RATIO"]

#: Default tombstone floor below which compaction is never attempted; keeps
#: tiny simulations from paying repeated heapify costs for a handful of
#: cancels.  Overridable per-instance via ``Simulator(compact_min_cancelled=...)``.
COMPACT_MIN_CANCELLED = 64

#: Default tombstones-to-live ratio that triggers compaction (``1.0`` =
#: compact once tombstones outnumber live events).  Overridable per-instance
#: via ``Simulator(compact_ratio=...)``.
COMPACT_RATIO = 1.0

#: Ordering key reserved for events scheduled without an explicit key
#: (timers, workload callbacks).  The empty tuple sorts before every
#: delivery key, so a timer scheduled at time *t* always runs before the
#: message deliveries of time *t* — deterministically, in both the serial
#: and the sharded engine.
_DEFAULT_KEY: Tuple[int, ...] = ()


@dataclass(slots=True)
class ScheduledEvent:
    """An event in the simulator queue (queued under time, key, sequence)."""

    time: float
    key: Tuple[int, ...]
    sequence: int
    callback: Callable[[], None]
    cancelled: bool = False
    # Back-reference so cancel() can keep the owner's live-event counter
    # exact; detached (None) once the event leaves the queue.
    _owner: Optional["Simulator"] = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event so that it is skipped when dequeued."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._owner is not None:
            self._owner._note_cancelled()
            self._owner = None


class Simulator:
    """Discrete-event simulator with a monotonically advancing clock."""

    def __init__(
        self,
        compact_min_cancelled: int = COMPACT_MIN_CANCELLED,
        compact_ratio: float = COMPACT_RATIO,
    ) -> None:
        if compact_min_cancelled < 0:
            raise SimulationError(
                f"compact_min_cancelled must be >= 0, got {compact_min_cancelled}"
            )
        if compact_ratio <= 0:
            raise SimulationError(f"compact_ratio must be > 0, got {compact_ratio}")
        self._now = 0.0
        self._sequence = 0
        # Heap of (time, key, sequence, event); see "Event ordering".
        self._queue: List[Tuple[float, Tuple[Any, ...], int, ScheduledEvent]] = []
        self._live = 0
        self._cancelled_in_queue = 0
        self._safe_time = 0.0
        self.compact_min_cancelled = compact_min_cancelled
        self.compact_ratio = compact_ratio
        self.events_executed = 0
        self.compactions = 0
        #: Optional :class:`repro.obs.tracer.Tracer`; when set, every event
        #: dispatch is wrapped in a ``sim.event`` span (simulated-time axis).
        self.tracer = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def safe_time(self) -> float:
        """Monotone horizon: no event strictly before it can be scheduled.

        Advanced by :meth:`run_window`; the sharded barrier protocol uses it
        to assert that injected cross-shard messages never travel into this
        shard's past (the conservative-lookahead guarantee).
        """
        return self._safe_time

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events, maintained in O(1)."""
        return self._live

    @property
    def queue_length(self) -> int:
        """Physical heap size including tombstones (compaction bounds it)."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        key: Tuple[int, ...] = _DEFAULT_KEY,
    ) -> ScheduledEvent:
        """Schedule *callback* to run *delay* seconds from now.

        Every relative delay funnels through :meth:`schedule_at` so there is
        exactly one place where absolute event times are produced — the
        single authoritative path that the monotonicity assertions (and the
        sharded barrier protocol) rely on.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, key=key)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        key: Tuple[int, ...] = _DEFAULT_KEY,
    ) -> ScheduledEvent:
        """Schedule *callback* at absolute simulated *time*.

        ``key`` participates in the event ordering between ``time`` and the
        FIFO sequence; see the module docstring.  Scheduling before the
        current clock or before :attr:`safe_time` raises — the latter
        guards the sharded window barriers against float round-off drift
        (an event sneaking into an already-executed window would silently
        diverge from the serial engine).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}",
                time=time, safe_time=self._safe_time,
            )
        if time < self._safe_time:
            raise SimulationError(
                f"cannot schedule event at {time} before safe time "
                f"{self._safe_time} (window-barrier violation)",
                time=time, safe_time=self._safe_time,
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = ScheduledEvent(time, key, sequence, callback, False, self)
        heapq.heappush(self._queue, (time, key, sequence, event))
        self._live += 1
        return event

    def _note_cancelled(self) -> None:
        """Called by :meth:`ScheduledEvent.cancel` while the event is queued."""
        self._live -= 1
        self._cancelled_in_queue += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap once tombstones dominate the live events."""
        if (
            self._cancelled_in_queue > self.compact_min_cancelled
            and self._cancelled_in_queue > self._live * self.compact_ratio
        ):
            self._queue = [entry for entry in self._queue if not entry[3].cancelled]
            heapq.heapify(self._queue)
            self._cancelled_in_queue = 0
            self.compactions += 1

    def _pop(self) -> Optional[ScheduledEvent]:
        """Pop the next live event, discarding tombstones along the way."""
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            event._owner = None
            self._live -= 1
            return event
        return None

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Execute the next pending event.  Returns False when queue is empty."""
        event = self._pop()
        if event is None:
            return False
        self._now = event.time
        tracer = self.tracer
        if tracer is None:
            event.callback()
        else:
            with tracer.span("sim.event", cat="sim"):
                event.callback()
        self.events_executed += 1
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue empties, *until* is reached, or
        *max_events* have executed.  Returns the number of events executed."""
        executed = 0
        while self._queue:
            next_event = self._peek()
            if next_event is None:
                break
            if until is not None and next_event.time > until:
                self._now = until
                break
            if max_events is not None and executed >= max_events:
                break
            if self.step():
                executed += 1
        return executed

    def run_window(self, horizon: float, max_events: Optional[int] = None) -> int:
        """Execute every event strictly before *horizon* (exclusive).

        The window's upper bound is exclusive because a conservatively
        lookahead-bounded remote message may still arrive exactly at the
        horizon; events parked there run in a later window, after the
        barrier exchange.  On return the clock rests at the last executed
        event (so fixpoint times match the serial engine) while
        :attr:`safe_time` advances to the horizon — scheduling anything
        before it afterwards raises.  Returns the number of events executed.
        """
        if horizon < self._safe_time:
            raise SimulationError(
                f"window horizon {horizon} precedes safe time {self._safe_time}"
            )
        executed = 0
        drained = True
        while True:
            next_event = self._peek()
            if next_event is None or next_event.time >= horizon:
                break
            if max_events is not None and executed >= max_events:
                # Truncated: live pre-horizon events remain, so the horizon
                # is NOT safe — their callbacks may legitimately schedule
                # before it.  The safe time only advances to "now".
                drained = False
                break
            if self.step():
                executed += 1
        self._safe_time = horizon if drained else max(self._safe_time, self._now)
        return executed

    def reopen_window(self, time: float) -> None:
        """Lower the safe time back to *time* (a global barrier re-entry).

        Only sound when the caller can guarantee nothing can arrive before
        *time* anymore — the sharded driver calls it at op barriers, where
        global quiescence (or the script-limit window cap) ensures every
        in-flight message at an earlier instant has been delivered.  New
        external inputs applied at *time* may then schedule work from that
        instant onward, even though earlier windows overshot it.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot reopen a window at {time} before current time {self._now}"
            )
        self._safe_time = min(self._safe_time, time)

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` when idle."""
        event = self._peek()
        return event.time if event is not None else None

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Run until no events remain (network fixpoint)."""
        return self.run(until=None, max_events=max_events)

    def _peek(self) -> Optional[ScheduledEvent]:
        while self._queue and self._queue[0][3].cancelled:
            heapq.heappop(self._queue)
            self._cancelled_in_queue -= 1
        return self._queue[0][3] if self._queue else None

    def advance_to(self, time: float) -> None:
        """Advance the clock with no events (used by workload generators)."""
        if time < self._now:
            raise SimulationError("cannot move the clock backwards")
        self._now = time
