"""Host speed, sampled while the program runs, to take host drift out of timings.

On a shared host the same code can run up to twice as slowly for seconds or
minutes at a time, and CPU time slows with it.  While the timed passes run, a
SIGALRM handler times a fixed kernel every ``INTERVAL_S``: small numpy calls
in a Python loop and then pure Python, the shape of the program's hot loops.
The mean kernel time is the host speed; a time multiplied by ``factor`` of
the samples taken while it ran reads as the time on a host where the kernel
takes ``REFERENCE_S``.  A pass too short for ``MIN_SAMPLES`` samples uses
all samples of its run.  The handler's own time is measured and taken out of
the pass it interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 0.002
INTERVAL_S = 0.25
CALIBRATION_REPS = 20
MIN_SAMPLES = 8

_X = np.linspace(0.0, 1.0, 128)


def factor(samples: list[float]) -> float:
    """Scale from times measured at the speed ``samples`` show to the reference speed."""
    return REFERENCE_S / statistics.mean(samples)


def kernel() -> float:
    """Run the fixed kernel once and return its wall time."""
    started = time.perf_counter()
    acc = 0.0
    for i in range(300):
        acc += float((_X * 1.0001 + i).sum())
    for i in range(6000):
        acc += i % 7
    return time.perf_counter() - started


class Sampler:
    """Kernel times of one run: a calibration burst, then samples during passes."""

    def __init__(self):
        self.samples = [kernel() for _ in range(CALIBRATION_REPS)]

    @contextmanager
    def running(self):
        """Sample every ``INTERVAL_S`` until the block ends."""

        def tick(_signum, _frame):
            self.samples.append(kernel())

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def kernel_s(self) -> float:
        return statistics.mean(self.samples)
