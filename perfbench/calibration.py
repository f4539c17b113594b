"""Machine-speed calibration with the benchmark's own fixed kernels.

The host this benchmark was defined on (2 vCPUs of a shared Xeon machine)
changes speed by up to 2x between minutes and wanders within seconds,
independently of the program: a fixed pure-Python loop slows and speeds up
with it.  Ten 25 s runs of an unchanged program then spread by up to 0.36
of their median.  So the benchmark also times two fixed kernels that never
call digsym, and scales its end-to-end timings to the speed at which the
kernels take ``REFERENCE_S``.  A sample never runs at the same time as the
digsym work of its own process: it is taken between instances, or from a
signal handler while the program is paused, with the garbage collector
off so that the program's heap does not enter it.

The kernels cover the two kinds of work digsym's hot loops do: integer
arithmetic, and tuples built by generator plus set and deque traffic (as in
permutation composition and orbit enumeration).  Neither alone tracked the
workloads well on both serial workloads; their geometric mean did.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from collections import deque

# Geometric mean of the two kernel medians on the machine the benchmark was
# defined on (Intel Xeon at 2.0 GHz, 2 vCPUs, Python 3.11.7).
REFERENCE_S = 0.75e-3
WINDOW = 5
PERIOD_S = 0.1

_N = 12
_GENS = (tuple((i + 1) % _N for i in range(_N)), tuple((5 * i) % _N for i in range(_N)))


def _loop_kernel() -> int:
    x = 0
    for i in range(10000):
        x += i * i % 7
    return x


def _orbit_kernel() -> int:
    start = (0, 1)
    seen, queue = {start}, deque([start])
    while queue:
        t = queue.popleft()
        for g in _GENS:
            image = tuple(g[v] for v in t)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    p = _GENS[0]
    for _ in range(60):
        p = tuple(_GENS[1][i] for i in p)
    return len(seen)


def sample() -> tuple[float, float]:
    """One timing of each kernel, in seconds."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop_kernel()
        t1 = time.perf_counter()
        for _ in range(4):
            _orbit_kernel()
        return t1 - t0, time.perf_counter() - t1
    finally:
        if gc_was_on:
            gc.enable()


class Sampler:
    """Takes samples on request and every ``PERIOD_S`` of CPU time.

    The periodic samples come from a SIGPROF handler, which Python runs in
    the main thread between bytecodes: the program is paused while it
    samples, and the samples are spread evenly over the time the process
    computes, the middle of a long instance included.  ``spent`` adds up the
    time all samples took, so that callers can leave it out of theirs.
    ``record`` receives each sample.
    """

    def __init__(self, record, periodic: bool = True):
        self.record = record
        self.periodic = periodic
        self.spent = 0.0
        self._busy = False
        self._previous_handler = None

    def take(self) -> None:
        if self._busy:  # a signal arrived while sampling
            return
        self._busy = True
        try:
            t = time.perf_counter()
            self.record(sample())
            self.spent += time.perf_counter() - t
        finally:
            self._busy = False

    def __enter__(self):
        if self.periodic:
            self._previous_handler = signal.signal(signal.SIGPROF, lambda *_: self.take())
            signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, self._previous_handler)


def slowdown(samples: list[list[float]]) -> float:
    """How much slower than the reference the machine ran: above 1 is slower."""
    return statistics.median(_factors(samples))


def mean_slowdown(samples: list[list[float]]) -> float:
    """The slowdown averaged over the time the samples are spread across.

    A stretch of work run at slowdown k takes k times its reference time,
    so the average is harmonic: 1 / mean(1/k).
    """
    return 1 / statistics.fmean(1 / k for k in _factors(samples))


def local_slowdowns(samples: list[list[float]], starts: list[int]) -> list[float]:
    """The slowdown during each instance of a sequence run one after another.

    ``starts[i]`` is the index of the sample taken just before instance
    ``i``; the samples up to and including the next instance's (after the
    last instance, the one more a serial pass takes) were taken during or
    right after it.  An instance gets the mean slowdown of those, widened
    evenly on both sides to at least ``2 * WINDOW`` samples: a short
    instance gets its neighbourhood, a long one mostly its own samples.
    """
    ends = list(starts[1:]) + [starts[-1] + 1] if starts else []
    slowdowns = []
    for first, after in zip(starts, ends):
        widen = max(0, -(-(2 * WINDOW - (after - first + 1)) // 2))
        slowdowns.append(mean_slowdown(samples[max(0, first - widen): after + 1 + widen]))
    return slowdowns


def _factors(samples: list[list[float]]) -> list[float]:
    return [math.sqrt(s[0] * s[1]) / REFERENCE_S for s in samples]
