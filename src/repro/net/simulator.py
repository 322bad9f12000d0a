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
to FIFO insertion order.  A heap entry is the :class:`ScheduledEvent`
itself, a list ``[time, key, sequence, callback, argument, owner]``:
``sequence`` is unique, so the heap orders entries by C-level comparison
of the first three slots and never looks at the rest.  The entry is also
the caller's handle (cancel it, ask whether it is pending), so an event
costs one object, and a message delivery carries its message in the
``argument`` slot instead of in a ``partial``.  The network layer keys
every message delivery by ``(send time, source rank, per-source send
sequence)``, which makes the execution order of same-instant deliveries a
pure function of *which host sent what, when* rather than of global
scheduling order.  That invariance is what lets the
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
constructor knobs that no network sets: they are the test seam that lets
the loop oracle (``tests/test_simulator_loop.py``) and the sharding tests
force compactions on small queues.
"""

from __future__ import annotations

import heapq
import math
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

_INFINITY = float("inf")


class ScheduledEvent(list):
    """A queued callback: ``[time, key, sequence, callback, argument, owner]``.

    The callback runs as ``callback()``, or ``callback(argument)`` when an
    argument was scheduled.  Cancelling clears the callback slot (the
    tombstone the run loop skips); the owner slot is cleared once the event
    leaves the queue, so it is ``None`` exactly when the event is no longer
    pending.
    """

    __slots__ = ()

    @property
    def pending(self) -> bool:
        """True while the event sits in its simulator's queue."""
        return self[5] is not None

    def cancel(self) -> None:
        """Mark the event so that it is skipped when dequeued."""
        owner = self[5]
        self[3] = self[5] = None
        if owner is not None:
            owner._note_cancelled()


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
        # Heap of ScheduledEvent entries; see "Event ordering".  Compaction
        # rewrites it in place, so the run loop's alias stays valid.
        self._queue: List[ScheduledEvent] = []
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
        callback: Callable[..., None],
        key: Tuple[int, ...] = _DEFAULT_KEY,
        argument: Any = None,
    ) -> ScheduledEvent:
        """Schedule *callback* at absolute simulated *time*.

        The callback is called with *argument* when one is given (a message
        delivery passes its message), else with no arguments.  ``key``
        participates in the event ordering between ``time`` and the FIFO
        sequence; see the module docstring.  Scheduling before the current
        clock or before :attr:`safe_time` raises — the latter guards the
        sharded window barriers against float round-off drift (an event
        sneaking into an already-executed window would silently diverge
        from the serial engine).
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
        event = ScheduledEvent((time, key, sequence, callback, argument, self))
        heapq.heappush(self._queue, event)
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
            queue = self._queue
            queue[:] = [event for event in queue if event[3] is not None]
            heapq.heapify(queue)
            self._cancelled_in_queue = 0
            self.compactions += 1

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _run(self, limit: float, max_events: Optional[int]) -> Tuple[int, Optional[float]]:
        """Execute live events due at or before *limit*, at most *max_events*.

        The one event loop behind :meth:`run`, :meth:`run_until_idle` and
        :meth:`run_window`: pop, skip tombstones, set the clock, call back,
        count.  Returns the number executed and the time of the next live
        event (``None`` when the queue drained).
        """
        queue = self._queue
        heappop = heapq.heappop
        tracer = self.tracer
        stop = -1 if max_events is None else max(max_events, 0)
        executed = 0
        while queue:
            event = queue[0]
            callback = event[3]
            if callback is None:
                heappop(queue)
                self._cancelled_in_queue -= 1
                continue
            time = event[0]
            if time > limit or executed == stop:
                return executed, time
            heappop(queue)
            event[5] = None
            self._live -= 1
            self._now = time
            argument = event[4]
            if tracer is not None:
                with tracer.span("sim.event", cat="sim"):
                    if argument is None:
                        callback()
                    else:
                        callback(argument)
            elif argument is None:
                callback()
            else:
                callback(argument)
            self.events_executed += 1
            executed += 1
        return executed, None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue empties, *until* is reached, or
        *max_events* have executed.  Returns the number of events executed."""
        executed, next_time = self._run(_INFINITY if until is None else until, max_events)
        if until is not None and next_time is not None and next_time > until:
            self._now = until
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
        # The largest float below the horizon: "at or before" it is exactly
        # "strictly before" the horizon.
        executed, next_time = self._run(math.nextafter(horizon, -_INFINITY), max_events)
        if next_time is None or next_time >= horizon:
            self._safe_time = horizon
        else:
            # Truncated by max_events: live pre-horizon events remain, so the
            # horizon is NOT safe — their callbacks may legitimately schedule
            # before it.  The safe time only advances to "now".
            self._safe_time = max(self._safe_time, self._now)
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
        return self._run(-_INFINITY, 0)[1]  # executes nothing, drops tombstones

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Run until no events remain (network fixpoint)."""
        return self.run(until=None, max_events=max_events)

    def advance_to(self, time: float) -> None:
        """Advance the clock with no events (used by workload generators)."""
        if time < self._now:
            raise SimulationError("cannot move the clock backwards")
        self._now = time
