"""Host-speed calibration: latencies reported at a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts with
its other tenants: the same input list runs up to about 40% slower or faster
from one few-second stretch to the next.  To keep that drift out of the
bounded metrics, ``Calibrator`` times a fixed piece of work (Fraction and
integer arithmetic and small numpy calls, nothing of ``entmoment``) every
``EVERY_S`` seconds, and ``scale`` turns the latency of a run into its
latency at the speed where that work takes ``REF_S`` seconds:

    latency at reference speed = latency * REF_S / median(samples near the run)

where the samples near a run are those taken while it ran plus the
``NEIGHBOURS`` taken before and after it.  A change to the program moves the
scaled latency as it moves the raw one; a change of host speed moves both
the run and the samples taken with it.

In-process runs are sampled during the run too: ``start_timer`` takes the
samples from a ``SIGALRM`` handler, which runs between the program's
bytecodes, and the time spent in it is subtracted from the run's latency.
Runs in child processes are sampled only between runs.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

#: the calibration work's median time on an Intel Xeon host (2 cores given
#: to the benchmark, Python 3.11, numpy 2.4, one BLAS thread)
REF_S = 3.5e-3
#: time between two calibration samples
EVERY_S = 0.1
#: samples on either side of a run that also set its scale
NEIGHBOURS = 2

_MATRIX = np.add.outer(np.arange(4.0), np.arange(4.0)) + np.eye(4)


def work() -> int:
    """The fixed calibration work: about ``REF_S`` seconds at reference speed."""
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    s = 0
    for i in range(15000):
        s += i * i % 7
    for _ in range(60):
        s += int(np.linalg.eigvalsh(_MATRIX)[0] > 0)
    return s + acc.denominator % 7


class Calibrator:
    """Calibration samples in the order taken."""

    def __init__(self):
        self.samples: list[float] = []
        self.total_s = 0.0  # time spent calibrating, to leave out of latencies
        self._last = -float("inf")
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # an alarm during a sample
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # the program's heap is not the calibration's to collect
        t0 = time.perf_counter()
        work()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t1 - t0)
        self.total_s += t1 - t0
        self._last = t1
        self._busy = False

    def maybe_sample(self) -> None:
        """Take a sample if ``EVERY_S`` has passed since the last one."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def start_timer(self) -> None:
        """Sample every ``EVERY_S`` seconds of wall time, in the main thread."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def mark(self) -> int:
        """Samples taken so far: where a run starting or ending now stands."""
        return len(self.samples)

    def scale(self, start: int, end: int) -> float:
        """Factor from raw to reference-speed time for a run between two marks.

        Call once sampling is over, with at least ``NEIGHBOURS`` samples
        taken after the last run.
        """
        near = self.samples[max(0, start - NEIGHBOURS):end + NEIGHBOURS]
        return REF_S / statistics.median(near)

    def speed(self) -> float:
        """Median host speed over all samples, relative to reference."""
        return REF_S / statistics.median(self.samples)
