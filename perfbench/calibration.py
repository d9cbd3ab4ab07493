"""Machine-speed calibration of the benchmark's timings.

On a shared machine the same work runs at speeds that differ by up to 2x:
the host switches between a fast and a slow mode every 0.1-1 s, and the
share of time spent in the slow mode drifts over minutes with the host's
other load. The raw wall times of one stage then spread by 0.2-0.3 of their
median from run to run, and so does the best of a run's samples.

So every timed interval runs inside a `Calibration`. A fixed kernel, which
does the package's kind of work without calling it, is timed just before
and just after the interval and, every PROBE_PERIOD_S during it, from a
SIGALRM handler. The interval's wall time, less the time the handler took,
is scaled by REF_S / (the kernel's mean time over the interval): it is
reported in seconds at a reference speed, the speed at which one kernel run
takes REF_S. The mean leaves out the slowest and fastest TRIM of the
kernel's timings, as a probe now and then lands on a pause that is not the
machine's mode. The kernel never changes, so a change to the package moves
the calibrated times as much as it moves the raw ones.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

REF_S = 1.5e-4  # the kernel's time at the reference speed (about this machine's fast mode)
REPS = 3  # one kernel timing is the best of this many runs
PROBE_PERIOD_S = 0.02
TRIM = 0.1

_ROT = np.array([[math.cos(0.01), -math.sin(0.01)], [math.sin(0.01), math.cos(0.01)]])
_SPD = (lambda a: a @ a.T + 40.0 * np.eye(40))(np.random.default_rng(0).standard_normal((40, 40)))


def kernel() -> float:
    """Fixed work of the package's mix: a Python loop of scalar math, 2x2
    matrix products and float formatting, then a small Cholesky factor."""
    m = np.eye(2)
    acc = 0.0
    parts = []
    for _ in range(60):
        m = _ROT @ m
        acc += math.atan2(float(m[1, 0]), float(m[0, 0]))
        parts.append(repr(acc))
    acc += sum(float(p) for p in parts)
    return acc + float(np.linalg.cholesky(_SPD)[-1, -1])


def kernel_s() -> float:
    """The kernel's time now: the best of REPS runs."""
    best = math.inf
    for _ in range(REPS):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


class Calibration:
    """Calibrates the interval it encloses (see the module docstring).

    Inside, `overhead_s` is the time the probes have taken so far; after
    exit, `scale` turns the interval's wall time less `overhead_s` into
    calibrated seconds. `probe=False` times the kernel only around the
    interval, for intervals that must not be interrupted (traced runs).
    """

    def __init__(self, probe: bool = True):
        self.probe = probe
        self.kernel_s: list[float] = []
        self.overhead_s = 0.0
        self.scale = math.nan
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self.kernel_s.append(kernel_s())
        self.overhead_s += perf_counter() - start

    def __enter__(self) -> "Calibration":
        self.kernel_s.append(kernel_s())
        if self.probe:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.kernel_s.append(kernel_s())
        times = sorted(self.kernel_s)
        cut = int(TRIM * len(times))
        self.scale = REF_S / float(np.mean(times[cut : len(times) - cut]))
        return False
