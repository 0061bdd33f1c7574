"""Host speed: a fixed reference loop timed next to the program's work.

The benchmark was tuned on a shared 2-core host whose speed drifts by up
to 1.6x, in spells that last from under a second to minutes.  Such a
spell can cover a whole run, so no estimator within a run can filter it.
Instead, every time the benchmark reports is *normalised*: the process
doing the work times :func:`reference` right before and right after each
timed operation, and the operation's time is scaled by
``REFERENCE_S / mean(reference times)``.  A reported second is a second
at the host speed where the loop takes ``REFERENCE_S``, which is about
this host when quiet; the raw wall-clock figures are printed beside them.

The loop is the benchmark's own code, so a change to the program cannot
move it.  It allocates no container objects, so the program's heap and
its garbage collector do not slow it down either.
"""

from __future__ import annotations

import bisect
import threading
import time
from time import perf_counter

#: Seconds one :func:`reference` takes at the nominal host speed.
REFERENCE_S = 0.002

_ITERATIONS = 15000
_TABLE = {key: key * 7 for key in range(64)}


def _step(x: int, i: int) -> int:
    return (x * 31 + _TABLE[i & 63]) & 0xFFFF


def reference(clock=perf_counter) -> float:
    """Seconds this process takes for the fixed reference loop now."""
    t0 = clock()
    x = 0
    for i in range(_ITERATIONS):
        x = _step(x, i)
    return clock() - t0


class Sampler:
    """Times the reference loop every ``period_s`` on a thread of its own
    while other processes do the work under measurement.

    The loop is timed by the thread's CPU time, so waiting for a core,
    which that work itself causes, does not count; the host's own
    slowness does.  Time the hypervisor steals from the virtual CPUs
    does not show in CPU time, but it takes cores away from work that
    keeps them all busy, so each sample also reads the stolen share of
    CPU ticks.  Use as a context manager around the work."""

    def __init__(self, period_s: float = 0.25) -> None:
        self.period_s = period_s
        self.stamps: list[float] = []  # wall-clock (time.time) of each sample
        self.times: list[float] = []
        self.ticks: list[tuple[int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def _sample(self) -> None:
        seconds = reference(time.thread_time)
        self.stamps.append(time.time())
        self.times.append(seconds)
        self.ticks.append(_cpu_ticks())

    def _run(self) -> None:
        while True:
            self._sample()
            if self._stop.wait(self.period_s):
                return

    def mean(self, start: float | None = None, end: float | None = None) -> float:
        """The reference time over wall-clock ``[start, end]`` (all of it
        by default): the mean of the samples inside it (for an interval
        with none, the first sample after it, or the last one), divided
        by the share of CPU ticks not stolen between the samples around
        the interval."""
        lo = 0 if start is None else bisect.bisect_left(self.stamps, start)
        hi = len(self.stamps) if end is None else bisect.bisect_right(self.stamps, end)
        last = len(self.times) - 1
        if lo < hi:
            seconds = sum(self.times[lo:hi]) / (hi - lo)
        else:
            seconds = self.times[min(lo, last)]
        (steal0, all0), (steal1, all1) = self.ticks[max(lo - 1, 0)], self.ticks[min(hi, last)]
        stolen = (steal1 - steal0) / (all1 - all0) if all1 > all0 else 0.0
        return seconds / (1.0 - min(stolen, 0.9))


def _cpu_ticks() -> tuple[int, int]:
    """(stolen, all) CPU ticks of the host's CPUs since boot, from
    ``/proc/stat``: time the hypervisor gave a virtual CPU to someone else
    counts as stolen.  (0, 0) where the file is missing."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(field) for field in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def scale(seconds: float, *refs: float) -> float:
    """``seconds`` measured between reference times ``refs``, in nominal
    seconds."""
    return seconds * REFERENCE_S * len(refs) / sum(refs)
