"""Machine-speed scaling for the timed loop.

On a shared host the CPU's speed changes in phases that last seconds: the
same verify round took 78 ms in one 3 s block and 148 ms in another of the
same run. A statistic inside one run cannot remove a phase that covers most
of it, so the untraced loop also times a fixed reference kernel (no
infogan_lab code) every ``SAMPLE_EVERY_S`` and scales each measured time by
``NOMINAL_MS`` over the kernel's median time around that moment. A scaled
time reads as the time the work would take on a machine where the kernel
takes ``NOMINAL_MS``. The kernel mixes the two kinds of work the program
does, small-array ufuncs dispatched from Python and single-thread BLAS
matmuls, because the phases slow them by different factors.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_MS = 2.0        # kernel time that scaled times are expressed at
SAMPLE_EVERY_S = 0.1    # the loop times the kernel at most this often
WINDOW = 5              # kernel samples nearest a moment whose median scales it
WARMUP_CALLS = 20

_SMALL = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
_X = np.linspace(-1.0, 1.0, 64 * 256).reshape(64, 256) / 16.0
_W = np.linspace(-1.0, 1.0, 256 * 256).reshape(256, 256) / 16.0


class _Cell:
    __slots__ = ("value", "index")

    def __init__(self, value, index):
        self.value = value
        self.index = index


def kernel() -> float:
    """About 2 ms of fixed work: 150 dispatch-bound small ufunc rounds, then 6 matmuls."""
    acc = 0.0
    for i in range(150):
        y = _SMALL * 1.5 + _SMALL
        cell = _Cell(np.exp(-np.abs(y)), i)
        acc += float(cell.value.sum())
    m = _X
    for _ in range(6):
        m = np.maximum(m @ _W, 0.0) * 0.5
    return acc + float(m[0, 0])


class Speed:
    """Kernel samples taken during a run, and the scale they give each moment."""

    def __init__(self):
        self.at: list[float] = []   # perf_counter() at the end of each sample
        self.ms: list[float] = []
        self._next = 0.0
        for _ in range(WARMUP_CALLS):
            kernel()

    def maybe_sample(self) -> None:
        """Time the kernel if ``SAMPLE_EVERY_S`` has passed since the last sample."""
        if time.perf_counter() >= self._next:
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.ms.append(1000.0 * (t1 - t0))
        self._next = t1 + SAMPLE_EVERY_S

    def scale(self, t: float) -> float:
        """``NOMINAL_MS`` / median kernel time of the ``WINDOW`` samples nearest ``t``."""
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - WINDOW // 2, len(self.at) - WINDOW))
        return NOMINAL_MS / statistics.median(self.ms[lo:lo + WINDOW])

    def summary(self) -> str:
        q1, med, q3 = statistics.quantiles(self.ms, n=4)
        return f"reference kernel {med:.3f} ms median (q1 {q1:.3f}, q3 {q3:.3f}) over {len(self.ms)} samples"
