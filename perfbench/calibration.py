"""Machine-speed calibration for the bounded timing metrics.

The machines this benchmark runs on share their cores with other tenants.
Their speed drifts by up to 1.5x for tens of seconds at a time, which is
longer than a run, so no statistic taken inside one run can remove it. A
fixed kernel that uses no vortexlab code is timed before and after every
operation, and each operation's wall time is scaled by REFERENCE_S over
the kernel time measured around it: the result is seconds at the machine
speed where the kernel takes REFERENCE_S ("reference seconds"). The raw
wall times are kept in the detail file.

The kernel mixes what the operations do: complex 2-D FFTs at 256^2,
grid-wide tanh, BLAS dot products long enough to use the BLAS threads, and
a pure-Python loop.
"""

import statistics
from time import perf_counter

# About the kernel's median time on a 2-vCPU Xeon VM (Python 3.11.7,
# numpy 2.4.6) in its fast state. It only sets the unit, so it never changes.
REFERENCE_S = 0.016


class Calibration:
    """Kernel timings, taken in groups ("marks") between operations."""

    def __init__(self, per_mark=2):
        import numpy as np

        rng = np.random.default_rng(20150411)
        self._np = np
        self._a = rng.standard_normal((256, 256))
        self._b = rng.standard_normal((256, 256))
        self._v = rng.standard_normal(512 * 512)
        self._w = rng.standard_normal(512 * 512)
        self.per_mark = per_mark
        self.samples = []
        self.marks = []  # median kernel time of each group

    def _kernel(self):
        np = self._np
        t0 = perf_counter()
        for _ in range(4):
            w = np.fft.ifft2(np.fft.fft2(self._a + 1j * self._b) / (1.0 + self._a * self._a))
            np.tanh(w.real)
        for _ in range(8):
            float(np.dot(self._v, self._w))
        x = 0
        for i in range(20000):
            x += i
        return perf_counter() - t0

    def mark(self):
        times = [self._kernel() for _ in range(self.per_mark)]
        self.samples.extend(times)
        self.marks.append(statistics.median(times))

    def factor(self):
        """REFERENCE_S over the median kernel time of the whole run."""
        return REFERENCE_S / statistics.median(self.samples)

    def interval_factors(self):
        """One factor per interval between consecutive marks, from the mean
        of its two ends: an operation timed between two marks is scaled by
        the machine speed measured around it."""
        return [2.0 * REFERENCE_S / (a + b) for a, b in zip(self.marks, self.marks[1:])]
