"""Speed normalisation against a fixed kernel of standard-library work.

The CPU speed this benchmark gets from a shared machine drifts by a factor
of up to two over seconds, far more than the regressions it must catch.
So timed regions are bracketed by runs of a fixed kernel (about 2 ms on
the machine it was written on), and times are reported as they would read
on a machine where one kernel run takes REFERENCE_S seconds: scaled by
REFERENCE_S over the kernel's local time.  The kernel uses no uendo code,
so a change to uendo cannot change the scale.
"""

from __future__ import annotations

import itertools
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.002
SMOOTH = 2  # a slice's speed is the median over it and SMOOTH neighbours each side


def _kernel() -> int:
    """Stdlib work of the kinds uendo does: permutations, sign tuples, set
    and dict lookups, exact fractions."""
    seen, table = set(), {}
    acc = Fraction(0)
    for perm in itertools.permutations(range(6)):
        seen.add(tuple(p * s for p, s in zip(perm, (1, -1, 1, -1, 1, -1))))
        table[perm[:3]] = table.get(perm[:3], 0) + 1
        if perm[0] == 0:
            acc += Fraction(perm[1] + 1, perm[2] + 2)
    return len(seen) + len(table) + acc.denominator


def slice_seconds() -> float:
    """Seconds one kernel run takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def smoothed(slices: list) -> list:
    """Median-smoothed kernel times of (start, seconds) slices, in order."""
    seconds = [s for _, s in slices]
    return [
        statistics.median(seconds[max(i - SMOOTH, 0):i + SMOOTH + 1])
        for i in range(len(seconds))
    ]


def scale_factors(slices: list, spans: list) -> list:
    """REFERENCE_S over the local kernel time for each (start, end) span.

    The local kernel time is the mean smoothed time of the slices from the
    last one started before the span to the first one started after it."""
    starts = [t for t, _ in slices]
    smooth = smoothed(slices)
    factors = []
    lo = 0
    for start, end in spans:
        while lo + 1 < len(starts) and starts[lo + 1] <= start:
            lo += 1
        hi = lo
        while hi + 1 < len(starts) and starts[hi] < end:
            hi += 1
        window = smooth[lo:hi + 1]
        factors.append(REFERENCE_S * len(window) / sum(window))
    return factors
