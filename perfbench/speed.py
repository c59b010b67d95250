"""Machine-speed normalisation for the end-to-end times.

The benchmark runs on shared machines whose speed drifts by tens of percent
within minutes, and flips between a fast and a slow state within a second.
So the runner times a fixed chunk of pure-Python work between ops, about
every REFERENCE_EVERY_S, and scales each op's latency by

    REFERENCE_NOMINAL_S / (mean chunk time of the WINDOW samples around it).

For an op longer than REFERENCE_EVERY_S those are the two samples taken
just before it and the two just after; for a short op, the nearest ones in
time. One sample is a snapshot of a few milliseconds; averaging four keeps
its noise out of the scale of a single long op.

The chunk is benchmark code that imports nothing from fractalcalc, so no
change to the library can move it. It mixes the kinds of work the library
spends its time on: big-integer digit loops, `Fraction` sums and float
special functions.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from fractions import Fraction

#: Median time of one chunk on the 2-core box the benchmark was defined on.
#: Scaled times are what that box would have measured at this speed.
REFERENCE_NOMINAL_S = 6.0e-4
#: Seconds of op time between two reference samples.
REFERENCE_EVERY_S = 0.1
#: Chunks per sample (their median is the sample), and samples averaged for
#: one op's scale.
CHUNKS_PER_SAMPLE = 5
WINDOW = 4


def reference_chunk():
    acc = 0
    for num in (123456789012345678901, 98765432109876543211, 5555555555555555555):
        den = 987654321098765432103
        for _ in range(53):
            num *= 3
            d, num = divmod(num, den)
            acc = (acc << 1) | (d >> 1)
    f = Fraction(0)
    for k in range(1, 60):
        f += Fraction(k, 3 ** (k % 7) * 2 ** (k % 5))
    s = 0.0
    for k in range(1, 600):
        s += math.exp(-k * 1e-3) * math.lgamma(1.0 + k * 1e-2) ** 0.5
    return acc, f, s


class SpeedLog:
    """Reference-chunk timings taken between ops, and the scale they imply."""

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")
        self.due = 0.0

    def sample(self) -> None:
        times = []
        for _ in range(CHUNKS_PER_SAMPLE):
            t0 = time.perf_counter()
            reference_chunk()
            times.append(time.perf_counter() - t0)
        self.at.append(t0)
        self.took.append(statistics.median(times))
        self.due = time.perf_counter() + REFERENCE_EVERY_S

    def mean_scale(self) -> float:
        """REFERENCE_NOMINAL_S over the mean of all samples."""
        return REFERENCE_NOMINAL_S / statistics.fmean(self.took)

    def scale(self, starts):
        """REFERENCE_NOMINAL_S over the local mean chunk time, per start time.

        numpy is imported here, not at the top, so that the set-up probe can
        start its clock before numpy is loaded (the library imports it).
        """
        import numpy as np

        took = np.frombuffer(self.took, dtype=np.float64)
        ones = np.ones(WINDOW)
        local = np.convolve(took, ones, "same") / np.convolve(np.ones_like(took), ones, "same")
        idx = np.searchsorted(np.frombuffer(self.at, dtype=np.float64), np.asarray(starts))
        return REFERENCE_NOMINAL_S / local[np.clip(idx, 0, len(took) - 1)]
