"""Machine-speed probe, so timings repeat on a shared host.

On a small shared machine the host's other tenants switch this process's
CPU between a fast and a slow state, about 1.7 times apart, within seconds.
The slowdown is on-CPU, so CPU time moves with wall time and does not remove
it. While a probe is active, a timer signal interrupts the benchmark every
INTERVAL seconds, and each interruption times one small fixed kernel:
elementwise numpy on 64-wide vectors in a Python loop. It uses no BLAS, so
the program's BLAS thread setting does not change the kernel's own work. The
kernel runs once untimed first, so its timed run depends less on what the
program left in the caches. The kernel's mean rate during an operation gives
the machine's speed during it.

The signal handler runs between the program's Python bytecodes, never inside
a C call such as a BLAS or LAPACK routine, so a long call holds fewer
samples. An interval with fewer than MIN_SAMPLES, such as a 20 ms `report`,
uses the samples nearest its middle.

`ref_seconds(t0, t1)` converts a wall interval into seconds at REF_RATE, the
median kernel rate recorded over the benchmark's tuning runs on a 2-vCPU
Intel Xeon host (Python 3.11, numpy 2.4). Host load moves the result much
less than it moves wall time. A program change moved it within about 3% of
how it moved wall time in the cases perfbench/probe_check.py measures (see
perfbench/README.md). Raw wall figures are printed next to it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL = 0.02          # seconds between probe kernels
# Probe kernels per second at the reference speed: the median probe rate of
# five graph_kgrid runs (seeds 21-25, 9995/s), rounded.
REF_RATE = 10000.0
MIN_SAMPLES = 10         # a short interval borrows its nearest neighbours' samples


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal(64) * 0.5
        self._x = rng.standard_normal((20, 64))
        self.times: list[float] = []
        self.rates: list[float] = []
        self._previous = None

    def _kernel(self):
        h = np.zeros(64)
        a, x = self._a, self._x
        for i in range(40):
            h = np.tanh(a * h + x[i % 20])
        return h

    def _tick(self, signum, frame):
        self._kernel()   # untimed, so the caches hold the kernel's own data
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.rates.append(1.0 / (t1 - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def rate(self, t0: float, t1: float) -> float:
        """Mean probe rate over [t0, t1], or over the MIN_SAMPLES samples
        nearest its middle when the interval holds fewer."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2.0)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = min(len(self.times), lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("no machine-speed samples were taken")
        window = self.rates[lo:hi]
        return sum(window) / len(window)

    def ref_seconds(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.rate(t0, t1) / REF_RATE
