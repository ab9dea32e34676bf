"""Host reference kernels, timed between operations.

On the 2-vCPU machine this benchmark was written on, the host's speed
swings by 1.5x to 2x, for seconds or minutes at a time, whatever the
benchmark does (see README.md).  A kernel is a fixed
piece of code that touches no package code.  It is timed at most every
``EVERY_S`` seconds between operations, and each operation's time is then
scaled by ``NOMINAL_US[kind] / kernel time``, the kernel time being the
mean of the samples just before and just after the operation.  A scaled
time is what the operation would take on a host where the kernel takes
its nominal time.  A change to the program leaves the kernel alone, so it
shows in scaled times in full; a change in host speed moves the kernel
with the operation and cancels.

There are two kernels, because the host's swings slow interpreted code
and numpy calls on small arrays by different factors.  Each workload
uses the kernel that runs the same kind of code as the layer that does
most of its work (``workloads.HOST_KERNEL``).
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array

# Nominal kernel times, near the kernels' median on the machine the
# benchmark was written on; they fix the scale of every scaled time.
NOMINAL_US = {"python": 100.0, "numpy": 150.0}
EVERY_S = 0.02


def python_kernel() -> float:
    """Interpreted float arithmetic, like a hypergeometric series."""
    total = term = 1.0
    for s in range(400):
        term *= (0.7 + s) / ((1.5 + s) * (s + 1.0)) * 3.0
        total += term
    return total


class _NumpyKernel:
    """Small-array ufunc calls, like one explicit enthalpy step."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.ones(200)
        self._b = np.ones(200)

    def __call__(self) -> None:
        np, a, b = self._np, self._a, self._b
        for _ in range(60):
            np.add(a, b, out=a)
            np.multiply(a, 0.5, out=a)


def kernel(kind: str):
    return python_kernel if kind == "python" else _NumpyKernel()


def kernel_seconds(fn, repeats: int = 5) -> float:
    """Median time of ``repeats`` calls of a kernel."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class HostSampler:
    """Kernel samples taken between operations, and the scale factor
    they give each operation."""

    def __init__(self, kind: str):
        self.kind = kind
        self._fn = kernel(kind)
        self._nominal_s = NOMINAL_US[kind] * 1e-6
        self.at = array("d")
        self.took = array("d")

    def sample(self) -> None:
        start = time.perf_counter()
        self._fn()
        self.took.append(time.perf_counter() - start)
        self.at.append(start)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float) -> float:
        """Nominal over actual kernel time around an op started at
        ``start`` (samples are only ever taken between ops)."""
        after = bisect.bisect_right(self.at, start)
        before = max(after - 1, 0)
        after = min(after, len(self.at) - 1)
        return self._nominal_s / (0.5 * (self.took[before] + self.took[after]))

    def median_us(self) -> float:
        return statistics.median(self.took) * 1e6
