"""Host speed reference for the end-to-end timings.

The benchmark shares a virtual machine whose speed changes by half
within minutes: a fixed pure-Python loop takes 21 ms in one minute and
31 ms in the next, and the same 40 s run of one seed gave 3.4 and 4.5
requests per second.  Every end-to-end timing is therefore taken twice
over: as measured, and scaled to a host on which `reference()` takes
REFERENCE_S.  The scaled figures are the bounded metrics; the measured
ones go to the summary line.

`reference()` is the benchmark's own fixed code (Fraction sums, the
arithmetic behind residua's field), so a change to residua does not
move it.  It runs right before each request; a request's scale is
REFERENCE_S over the median of the reference times around it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# the reference time on the benchmark's 2-vCPU VM in its faster state, so
# that scaled figures read close to the measured ones there
REFERENCE_S = 0.0003
# reference samples on each side of a request that set its scale
WINDOW = 5


def reference() -> float:
    """Seconds taken by a fixed Fraction sum."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 100):
        total += Fraction(k, k * k + 1)
    return time.perf_counter() - t0


def scales(refs: list[float]) -> list[float]:
    """REFERENCE_S over the windowed median reference time, per sample."""
    return [REFERENCE_S / statistics.median(refs[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(refs))]
