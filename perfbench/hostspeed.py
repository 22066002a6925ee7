"""Host-speed sampling, to report timed work in reference-host seconds.

The benchmark's VM shares its host, and its speed drifts by 30-40% over
minutes, for every kind of code alike. Longer runs do not average that
out. So while the timed loop runs, a fixed kernel is timed every
SAMPLE_PERIOD_S from a SIGALRM handler. The handler runs in the thread
that does the timed work, between its bytecodes, so each sample sees the
speed the work saw at that moment. The host's speed switches between a
fast and a slow state within seconds, so a unit's samples mix both; the
work done in a unit is its wall time (less the kernel's own time) times
its mean kernel speed, 1 / kernel seconds, and that over the reference
speed 1 / REF_KERNEL_S is the unit's time on the reference host.

The kernel is coordinate descent written here, not taken from src/, so a
change to the program under test cannot change the yardstick. Like the
program's own solver it is interpreter-bound Python over numpy rows.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

SAMPLE_PERIOD_S = 0.1
# The kernel's time in the host's slow state, sampled inside the timed
# loop on the reference host: a 2-vCPU KVM guest of an Intel Xeon
# (family 6, model 207), Python 3.11.7, numpy 2.4.6. In the fast state it
# takes about 0.95 ms there.
REF_KERNEL_S = 1.5e-3
KERNEL_SWEEPS = 10


def _problem():
    x = np.random.default_rng(0).standard_normal((200, 40))
    gram = x.T @ x / 200
    return gram[1:, 1:].copy(), gram[0, 1:].copy()


_GRAM, _CROSS = _problem()


def kernel() -> np.ndarray:
    """A fixed lasso coordinate-descent solve on a 39-column Gram matrix."""
    b = np.zeros(len(_CROSS))
    for _ in range(KERNEL_SWEEPS):
        for j in range(len(_CROSS)):
            g = _CROSS[j] - float(_GRAM[j] @ b) + _GRAM[j, j] * b[j]
            b[j] = np.sign(g) * max(abs(g) - 0.05, 0.0) / _GRAM[j, j]
    return b


class Sampler:
    """Kernel timings as (start, seconds), taken while running() is active."""

    def __init__(self):
        self.samples = []
        self._busy = False

    def tick(self, *_):
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def between(self, start: float, end: float) -> list:
        """Kernel seconds of the samples that started in [start, end)."""
        return [s for t, s in self.samples if start <= t < end]

    def ref_seconds(self, start: float, end: float, wall: float) -> float:
        """wall, timed in [start, end), less the kernel time, in reference-host seconds."""
        inside = self.between(start, end)
        speeds = [1.0 / s for s in inside or [s for _, s in self.samples]]
        return (wall - sum(inside)) * REF_KERNEL_S * statistics.fmean(speeds)
