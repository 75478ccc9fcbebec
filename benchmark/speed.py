"""Machine-speed probe for a shared, noisy host.

On the shared 2-vCPU Intel Xeon host where this benchmark was defined, the same
compile took anywhere from 1x to 2x its fastest time, in phases that last
from a second to over a minute.  The phases come from load outside the
process: one-second throughput windows of a fixed loop varied by 1.8x, and
ten-second windows by 30%.  No statistic taken over one run's compile times
removes a slow phase that covers the whole run.

The probe runs a fixed reference kernel at most every INTERVAL_S seconds of
the run, between timed calls.  The kernel has the same kind of work as the
search loop (scalar math on complex entries, two-row updates, small numpy
reductions), and it uses nothing from quditc, so a change to the compiler
cannot move it.  The mean kernel time over a phase of the run, divided by
REFERENCE_KERNEL_MS, is that phase's slowdown factor.  Time metrics are
divided by the factor of the phase they were measured in, so they read as
times at the reference speed.  Over five haar3-exhaust runs this cut the
spread of the median compile time from 18% to 3%.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
# About the kernel's time in a fast phase of the host described above
# (4 ms to 9.5 ms were seen).
REFERENCE_KERNEL_MS = 5.0


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._matrix = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        self.samples = []
        self._last = -math.inf

    def poll(self) -> None:
        """Sample once if INTERVAL_S has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def slowdown(self, first: int = 0, last: int | None = None) -> float:
        """Mean kernel time of samples[first:last] over the reference time
        (1.0 = reference speed)."""
        samples = self.samples[first:last] or self.samples
        return statistics.fmean(samples) * 1e3 / REFERENCE_KERNEL_MS

    def _kernel(self) -> float:
        m = self._matrix.copy()
        acc = 0.0
        for k in range(300):
            c, r, r2 = k % 5, k % 7, (k * 3 + 1) % 7
            if r == r2:
                continue
            theta = 2.0 * math.atan2(abs(m[r2, c]), abs(m[r, c]))
            phi = -(math.pi / 2 + np.angle(m[r, c]) - np.angle(m[r2, c]))
            cos, sin = math.cos(theta / 2), math.sin(theta / 2)
            upper = -1j * np.exp(-1j * phi) * sin
            lower = -1j * np.exp(1j * phi) * sin
            row = cos * m[r, :] + upper * m[r2, :]
            m[r2, :] = lower * m[r, :] + cos * m[r2, :]
            m[r, :] = row
            acc += float(np.max(np.abs(m - np.diag(np.diag(m)))))
        return acc
