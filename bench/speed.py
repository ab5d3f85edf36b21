"""A speed probe that puts every timing on one reference scale.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 2.6x within seconds (neighbours on the same cores and caches): the
same pure-Python loop takes 55 ms in one moment and 90 ms the next. No
statistic over a run hides that, so every time the benchmark reports is
scaled to a fixed reference speed instead:

* A timer (``SIGALRM`` every ``PERIOD`` seconds) runs a small fixed kernel
  -- interpreter work plus small numpy calls, the mix hdql spends its time
  on -- in the one thread, between the bytecodes of whatever is running,
  and records how long the kernel took. The kernel is the benchmark's own
  code and does not touch hdql, so a change to hdql moves the reported
  times and a change of the machine's speed moves the kernel too.
* An interval's time is its wall time minus the time the kernel itself
  took in it (``mark``, ``since``); ``scaled`` multiplies it by
  ``REF_KERNEL_S`` over the mean kernel time around the interval. The
  result is in seconds "at the reference speed": the speed at which the
  kernel takes ``REF_KERNEL_S``,
  a slow state of the machine that measured ``BASELINE.json`` (its kernel
  medians ranged from 125 to 330 us).

The kernel costs about 5% of the run; its time is taken out of every
interval and out of the tracer's spans.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD = 0.005        # seconds between kernel runs
REF_KERNEL_S = 270e-6  # kernel time that defines the reference speed
WINDOW = 0.03         # kernel samples this close to an interval count for it
MIN_SAMPLES = 5       # otherwise, the samples nearest to the interval

_np = _M = _V = None           # numpy and the kernel's operands, set by start()

_ends: list[float] = []        # end time of every kernel run
_durations: list[float] = []   # its duration
_stolen = [0.0]                # summed kernel time (also read by the tracer)


def kernel() -> tuple[int, float]:
    """Fixed work: dict and integer bytecode, then small numpy calls."""
    s, d = 0, {}
    for i in range(400):
        s += i * i % 7
        d[i % 97] = s
    t = 0.0
    for _ in range(20):
        u = _M @ _V
        t += float(_np.linalg.norm(u - _V))
    return s, t


def _sample(signum, frame) -> None:
    t0 = perf_counter()
    try:
        kernel()
    except RecursionError:  # deep inside hdql: skip this sample
        _stolen[0] += perf_counter() - t0
        return
    t1 = perf_counter()
    _ends.append(t1)
    _durations.append(t1 - t0)
    _stolen[0] += t1 - t0


def start() -> None:
    """Start sampling. numpy is imported here, not when this module is, so
    that the benchmark can time hdql's import, numpy's included."""
    global _np, _M, _V
    import numpy
    _np, _M, _V = numpy, numpy.eye(4, dtype=complex) * 0.5, numpy.ones(4, dtype=complex)
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def stolen() -> float:
    """Kernel seconds so far; subtract the difference over an interval."""
    return _stolen[0]


def kernel_median_s() -> float:
    return statistics.median(_durations) if _durations else float("nan")


def speed_factor(t0: float, t1: float) -> float:
    """``REF_KERNEL_S`` over the mean kernel time around ``[t0, t1]``."""
    i = bisect.bisect_left(_ends, t0 - WINDOW)
    j = bisect.bisect_right(_ends, t1 + WINDOW)
    if j - i < MIN_SAMPLES:
        # widen to the samples nearest to the interval
        i = max(0, min(i, j - MIN_SAMPLES))
        j = min(len(_ends), i + MIN_SAMPLES)
    near = _durations[i:j]
    if not near:
        raise RuntimeError("no speed samples: call speed.start() first")
    # a sample that an interrupt hit says nothing about the speed
    cap = 3.0 * statistics.median(near)
    kept = [d for d in near if d <= cap]
    return REF_KERNEL_S / (sum(kept) / len(kept))


def mark() -> tuple[float, float]:
    """Start of an interval: (wall clock, kernel seconds so far)."""
    return perf_counter(), _stolen[0]


def since(start: tuple[float, float]) -> tuple[float, float, float]:
    """(t0, t1, seconds) of the interval from ``start``, kernel time removed."""
    t1 = perf_counter()
    t0, s0 = start
    return t0, t1, t1 - t0 - (_stolen[0] - s0)


def scaled(t0: float, t1: float, seconds: float) -> float:
    """``seconds`` at the reference speed. Call it after the interval, once
    samples on both sides of it exist."""
    return seconds * speed_factor(t0, t1)
