"""Times at a reference processor speed.

On a shared host the processor's speed moves by 20% and more from one second
to the next and over minutes, CPU time as much as wall time, so raw times of
the same work spread by a quarter between runs.  Every timed piece (an
operation, a set-up) is therefore measured together with a fixed calibration
kernel: before it and after it (the 'after' of one piece is the 'before' of
the next), and every SAMPLE_S during it from a SIGALRM handler in the same
thread.  The piece's time, less the time of the samples taken inside it, is
multiplied by REFERENCE_S times the mean kernel speed (1 / kernel time) over
those samples, which estimates the mean speed while the piece ran.

Python runs signal handlers between bytecodes of the main thread, so a
sample never interrupts numpy or any other C code mid-call, and it touches
none of the program's state.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# median kernel time on a 2-core x86-64 machine, Python 3.11, numpy 2.4
REFERENCE_S = 0.0047
SAMPLE_S = 0.25


def _kernel_once() -> float:
    """Wall time of fixed work of the two kinds the workloads do: Fraction
    arithmetic and small longdouble numpy batches."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(i % 7 - 3, i)
    a = np.full((16, 4, 4), 0.25, dtype=np.longdouble)
    for _ in range(130):
        a = np.einsum("mij,mjk->mik", a, a) * np.longdouble(0.5) + np.longdouble(0.125)
    return time.perf_counter() - t0


def kernel_s() -> float:
    """The kernel's time between pieces: the median of three calls."""
    return statistics.median(_kernel_once() for _ in range(3))


class Speed:
    def __init__(self, tracer=None):
        # with a tracer, each sample is recorded as a "bench.sample" span, so
        # that the per-layer figures can leave the samples' time out
        self.tracer = tracer
        self.last = kernel_s()
        self.kernel_s: list[float] = [self.last]
        self._inside: list[float] | None = None
        self._spent_wall = self._spent_cpu = 0.0

    def _sample(self, signum, frame):
        if self._inside is None:
            return
        w0, c0 = time.perf_counter(), time.process_time()
        idx = self.tracer.begin("bench.sample") if self.tracer else None
        self._inside.append(_kernel_once())
        if idx is not None:
            self.tracer.finish(idx)
        self._spent_wall += time.perf_counter() - w0
        self._spent_cpu += time.process_time() - c0

    def timed(self, fn) -> tuple[float, float, float]:
        """Run ``fn()``; return its wall and CPU time (samples taken out) and
        the factor that scales them to the reference speed."""
        self._inside, self._spent_wall, self._spent_cpu = [], 0.0, 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            fn()
        finally:
            inside, self._inside = self._inside, None
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        now = kernel_s()
        around = [self.last, *inside, now]
        self.kernel_s.extend(inside + [now])
        self.last = now
        factor = REFERENCE_S * statistics.fmean(1 / k for k in around)
        return wall - self._spent_wall, cpu - self._spent_cpu, factor
