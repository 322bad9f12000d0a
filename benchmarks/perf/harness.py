"""Measuring kit shared by every workload: clock, samples, guards, counters.

Nothing here knows a workload.  A :class:`Recorder` collects wall-clock
samples by name (and, in the traced run, the benchmark's own spans around
each call it makes), counts operations attempted and failed, and arms a
wall-clock timeout around every operation so a breach is a counted
failure instead of a hang.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import resource
import shutil
import signal
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

clock = time.perf_counter

#: Wall-clock budget of one operation.  The sizing run saw one
#: corner-to-corner ``bdd`` query on a 5x5 grid take 3.2 s and the same kind
#: on a 6x6 grid get OOM-killed; nothing a workload issues today comes near.
OP_TIMEOUT_S = 30.0

#: Address-space cap of a workload process (and of the shard workers it
#: forks).  Turns a runaway allocation into a ``MemoryError`` the recorder
#: counts, instead of an OOM kill that takes the result with it.
ADDRESS_SPACE_BYTES = 4 << 30

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class OpTimeout(Exception):
    """An operation overran :data:`OP_TIMEOUT_S`."""


class WorkloadAborted(Exception):
    """An operation failed; the network's state is unknown, so the run stops."""


def _on_alarm(signum: int, frame: Any) -> None:
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S:.0f} s")


def install_guards() -> None:
    """Cap the address space and route ``SIGALRM`` to :class:`OpTimeout`."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    signal.signal(signal.SIGALRM, _on_alarm)


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------- #
# the speed probe: how slow is this box right now?
# ---------------------------------------------------------------------- #
#: Seconds the probe takes on the reference box (2 cores, CPython 3.11) when
#: nothing else runs.  Only sets the scale: calibrated times read as on that
#: box, quiet.
PROBE_NOMINAL_S = 0.00145

#: At most one probe (~6 ms) per this many seconds of operations: ~4 % of a run.
PROBE_EVERY_S = 0.15

#: A duration is calibrated by the median probe reading within this many
#: seconds of its end: long enough to average ~30 readings (one reading
#: scatters ~10 %), short enough to follow a slow phase of ten seconds.
PROBE_WINDOW_S = 2.5


class SpeedProbe:
    """A fixed piece of interpreter work, timed between operations.

    The box this runs on shares its host: for tens of seconds at a time
    the same run takes 1.3-1.6x longer (pure arithmetic and dict traffic
    alike), then recovers.  One workload's ``wall_s`` spread 12.7 % over ten
    such runs; divided by the probe's reading it spread 3.2 %.  The probe
    looks dictionary entries up by tuple key in an order that defeats the
    cache and allocates tuples and strings, like the engine does.
    """

    def __init__(self) -> None:
        self.table = {(f"n{index % 977}", index): (index, str(index)) for index in range(1 << 14)}
        keys = list(self.table)
        self.keys = [keys[(index * 7919) % len(keys)] for index in range(6144)]

    def once(self) -> float:
        started = clock()
        table, total = self.table, 0
        for key in self.keys:
            row = table[key]
            total += row[0] + len(row[1])
        fresh = {}
        for index in range(2000):
            fresh[str(index)] = (index, total)
        return clock() - started

    def __call__(self) -> float:
        # The first pass pulls the table back into the cache the workload
        # just emptied and is thrown away, so a workload that touches less
        # memory does not make the box look faster.  The fastest of the next
        # three is the reading: interrupts and collections only ever add.
        self.once()
        return min(self.once(), self.once(), self.once())


#: One timed call: ``(when it ended, seconds it took)``.
Sample = Tuple[float, float]


class _Op:
    """One guarded operation: counted, timed out, and timed.

    The operation's duration is the sum of the laps recorded through
    :meth:`lap` — so a correctness check placed between two laps stays
    outside the timed region — or the whole block when no lap was taken.
    """

    __slots__ = ("_recorder", "_name", "_started", "_lapped")

    def __init__(self, recorder: "Recorder", name: str):
        self._recorder = recorder
        self._name = name
        self._lapped: Optional[float] = None

    def __enter__(self) -> "_Op":
        self._recorder.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        self._started = clock()
        return self

    def lap(self, name: str, started: float) -> float:
        ended = self._recorder.lap(name, started)
        self._lapped = (self._lapped or 0.0) + (ended - started)
        return ended

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> bool:
        ended = clock()
        signal.setitimer(signal.ITIMER_REAL, 0)
        recorder = self._recorder
        if exc_type is None:
            if self._lapped is None:
                recorder.lap(self._name, self._started, ended)
                recorder.busy.append((ended, ended - self._started))
            else:
                recorder.samples[self._name].append((ended, self._lapped))
                recorder.busy.append((ended, self._lapped))
            if ended - recorder.probed_at >= PROBE_EVERY_S:
                recorder.take_probe()
            return False
        if not issubclass(exc_type, Exception):
            return False  # KeyboardInterrupt / SystemExit pass through
        recorder.fail(f"{self._name}: {exc_type.__name__}: {exc}")
        raise WorkloadAborted(self._name) from exc


class Recorder:
    """Samples, spans and the attempted/failed ledger of one workload run."""

    def __init__(
        self, trace: bool = False, capture: bool = False, probe: Optional[SpeedProbe] = None
    ):
        #: name -> timed calls.  A dotted name (``rpc.ping``) belongs to the
        #: family before the dot (``rpc``).
        self.samples: Dict[str, List[Sample]] = defaultdict(list)
        #: Simulated query latencies (seconds of simulated time, not wall).
        self.sim_latencies: List[float] = []
        #: ``(span name, detail, start s, end s)`` — the benchmark's own
        #: spans, kept in memory; only collected in the traced run.
        self.spans: Optional[List[Tuple[str, str, float, float]]] = [] if trace else None
        #: Answers and frames kept for the kernels; only in the layer pass.
        self.kept: Optional[Dict[str, List[Any]]] = defaultdict(list) if capture else None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Every operation's timed regions, checks excluded; the worker
        #: empties it when the measured phase begins.
        self.busy: List[Sample] = []
        #: The probe (its table is ~5 MB: a twin's recorder shares it) and
        #: every reading taken.
        self.probe = probe or SpeedProbe()
        self.probes: List[Sample] = []
        self.probed_at = 0.0

    def take_probe(self) -> None:
        self.probes.append((clock(), self.probe()))
        self.probed_at = clock()

    def speed(self) -> Callable[[float], float]:
        """``slowness(t)``: how slow the box was around time *t*; 1.0 is the reference.

        The median reading within ``PROBE_WINDOW_S`` of *t*, or of the two
        readings nearest *t* when the window holds none.
        """
        times = [when for when, _ in self.probes]
        taken = [seconds for _, seconds in self.probes]

        def slowness(when: float) -> float:
            low = bisect.bisect_left(times, when - PROBE_WINDOW_S)
            high = bisect.bisect_right(times, when + PROBE_WINDOW_S)
            around = taken[low:high] or taken[max(0, low - 1) : low + 1]
            return percentile(around, 0.5) / PROBE_NOMINAL_S if around else 1.0

        return slowness

    def family(self, prefix: str) -> List[Sample]:
        """The samples of *prefix* and of its dotted members, in no order."""
        dotted = prefix + "."
        return [
            sample
            for name, samples in self.samples.items()
            if name == prefix or name.startswith(dotted)
            for sample in samples
        ]

    def measured(self, prefix: str) -> List[float]:
        """Durations of a sample family exactly as the clock read them."""
        return [seconds for _, seconds in self.family(prefix)]

    def calibrated(self, prefix: str) -> List[float]:
        """Durations of a sample family as on the reference box: each is
        divided by the box's slowness around the moment it ended."""
        slowness = self.speed()
        return [seconds / slowness(ended) for ended, seconds in self.family(prefix)]

    def busy_s(self) -> Tuple[float, float]:
        """Seconds inside timed regions: ``(as measured, calibrated)``."""
        slowness = self.speed()
        return (
            sum(seconds for _, seconds in self.busy),
            sum(seconds / slowness(ended) for ended, seconds in self.busy),
        )

    def lap(self, name: str, started: float, ended: Optional[float] = None) -> float:
        """Record one timed call that began at *started*; returns its end."""
        if ended is None:
            ended = clock()
        self.samples[name].append((ended, ended - started))
        if self.spans is not None:
            family, _, detail = name.partition(".")
            self.spans.append((f"bench.{family}", detail, started, ended))
        return ended

    def op(self, name: str = "op") -> _Op:
        return _Op(self, name)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, problems: List[str]) -> None:
        """Count one failed operation per problem an oracle reported."""
        for problem in problems:
            self.fail(problem)


# ---------------------------------------------------------------------- #
# process-level readings
# ---------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


class Scratch:
    """A per-process directory under ``out/`` for sqlite and checkpoint files."""

    def __init__(self) -> None:
        self.path = scratch_path(os.getpid())
        os.makedirs(self.path, exist_ok=True)

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def scratch_path(pid: int) -> str:
    return os.path.join(OUT_DIR, f"tmp-{pid}")


# ---------------------------------------------------------------------- #
# counters read through the facade
# ---------------------------------------------------------------------- #
#: Process-global memo counters: identical in every network's snapshot, so
#: they are taken from one network instead of being summed.
_PROCESS_WIDE = ("cache.sha1.", "cache.vid.")


def read_counters(networks: Iterable[Any]) -> Dict[str, float]:
    """``metrics_snapshot()`` of every network, flattened and summed."""
    totals: Dict[str, float] = {}
    for index, network in enumerate(networks):
        totals["table.rows"] = totals.get("table.rows", 0) + network.storage_stats()["rows"]
        snapshot = network.metrics_snapshot()
        for group in ("counters", "gauges"):
            for name, value in snapshot[group].items():
                if name.startswith(_PROCESS_WIDE):
                    if index == 0:
                        totals[name] = value
                else:
                    totals[name] = totals.get(name, 0) + value
    return totals


def counter_delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}
