"""Calibrating the child's times to a nominal host speed.

The benchmark shares a few cores of a host whose speed drifts by tens of
per cent within seconds to minutes, with steal time near zero: the same work
simply takes longer while neighbours are busy. So the child samples the
speed of its own CPU while it runs: every INTERVAL_S a SIGALRM handler runs
``probe``, a fixed piece of pure-Python work of about 0.3 ms, and records
when it started and how long it took. The parent then

* subtracts the probes' own time from each interval it measures, and
* multiplies the rest by the mean, over the probes in that interval, of
  NOMINAL_PROBE_S / duration,

so the times read as seconds on a host on which one probe takes
NOMINAL_PROBE_S. A change to the program moves the child's time and not the
probes; a change in host load moves both, in step, on the same CPU. The
probes cost about 1.5% of the child's time.
"""

from __future__ import annotations

import signal
import time
from array import array

INTERVAL_S = 0.025
# A scale constant: about what one probe takes inside a child on the shared
# 2-vCPU Xeon host the benchmark was written on (Python 3.11), so calibrated
# times stay close to measured ones there.
NOMINAL_PROBE_S = 0.00045


def probe() -> float:
    """A fixed piece of interpreted work: integer arithmetic, a dict, float text."""
    acc, seen = 0, {}
    for i in range(1500):
        acc += (i * i) % 7
        seen[i & 63] = acc
    return acc + sum(map(float, [repr(i / 7.0) for i in range(100)]))


class Sampler:
    """Runs ``probe`` from SIGALRM every INTERVAL_S until ``stop``."""

    def __init__(self):
        self.start, self.took = array("d"), array("d")
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _fire(self, signum, frame):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe()
        self.start.append(t0)
        self.took.append(time.clock_gettime(time.CLOCK_MONOTONIC) - t0)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def in_window(start, took, t0: float, t1: float) -> list:
    """Durations of the probes that started within [t0, t1]."""
    return [d for s, d in zip(start, took) if t0 <= s <= t1]


def speed(took) -> float:
    """Host speed relative to nominal, averaged over the probes (1.0 when none ran).

    A mean of NOMINAL_PROBE_S / duration weights each moment of the run
    equally; a probe stretched by a context switch barely moves it.
    """
    if not len(took):
        return 1.0
    return sum(NOMINAL_PROBE_S / d for d in took) / len(took)


def calibrated(start, took, t0: float, t1: float) -> float:
    """Seconds of [t0, t1], less its probes, at nominal speed."""
    inside = in_window(start, took, t0, t1)
    return (t1 - t0 - sum(inside)) * speed(inside)
