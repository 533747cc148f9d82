"""Host-speed calibration: a fixed kernel timed beside every measured item.

The benchmark's shared host changes speed by up to about 1.5x for seconds to
minutes at a time, and every kind of code slows together: interpreter loops,
numpy reductions and BLAS alike. Wall times taken minutes apart then differ
more than any program change worth measuring. So a fixed kernel, which no
program change touches, is timed right before and after every item and every
set-up, in the same process. An item's wall time is scaled by
``REF_MS / kernel time`` around it: the result is the item's time on a host
where the kernel takes exactly ``REF_MS`` milliseconds.

The kernel mixes the three kinds of work the workloads do: a pure-Python
loop (the stream simulator's per-window steps), a masked int64 shift-and-sum
of conv2's size (the shift-add engine) and a float32 matrix product (the
training step's BLAS calls). It is part of the benchmark's definition:
changing it, or ``REF_MS``, changes every end-to-end figure.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's median time on a 2-vCPU x86-64 cloud host; only a scale.
REF_MS = 25.0
# Items are scaled by the median kernel time over this many kernel runs on
# each side, so that one kernel run caught by a scheduler hiccup does not
# decide an item's figure.
HALF_WINDOW = 2


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.acts = rng.integers(-256, 256, size=(8, 128, 5, 9), dtype=np.int64)
        self.shifts = rng.integers(0, 8, size=(16, 8, 1, 1, 9), dtype=np.int64)
        self.mask = rng.random((16, 8, 128, 5, 9)) < 0.5
        self.a = rng.standard_normal((64, 512)).astype(np.float32)
        self.b = rng.standard_normal((512, 512)).astype(np.float32)
        self.kernel()

    def kernel(self) -> int:
        total = 0
        for i in range(80_000):
            total += (i * i) >> 3
        shifted = np.left_shift(self.acts[None], self.shifts)
        total += int(np.sum(shifted, where=self.mask))
        for _ in range(16):
            total += int((self.a @ self.b)[0, 0] > 0)
        return total

    def measure(self) -> float:
        """Seconds one kernel run takes now."""
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start


def scale_factors(kernel_s: list[float]) -> list[float]:
    """Per-item factors ``REF_MS / kernel time``.

    ``kernel_s`` holds n + 1 kernel times for n items: one before the first
    item and one after each. Item i's kernel time is the median of the kernel
    runs within ``HALF_WINDOW`` on either side of it.
    """
    n = len(kernel_s) - 1
    factors = []
    for i in range(n):
        window = kernel_s[max(0, i + 1 - HALF_WINDOW):i + 1 + HALF_WINDOW]
        factors.append(REF_MS * 1e-3 / statistics.median(window))
    return factors
