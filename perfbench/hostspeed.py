"""Host-speed normalisation of measured times.

On a shared 2-core virtual machine the speed of a core drifts between
levels about 1.7 times apart, for seconds at a time: the same requests on
the same seed have run 1.6 times slower for a whole 30-second run, in
process CPU time as much as in wall time.  So the benchmark runs a fixed
piece of integer arithmetic, which shares no code with toricstab, before the
first request and after every request, and scales each request's time by
``REFERENCE_SECONDS / (calibration time around it)``; the set-up time is
scaled by a calibration in the fresh interpreter itself.  Reported times are
therefore in reference seconds: what the measurement would read on a core
that runs the calibration in ``REFERENCE_SECONDS``.  The raw request times
are kept in the results file beside them.
"""

from __future__ import annotations

import gc
import statistics
import time

# About the time of one `calibrate()` on a fast core of the machine the
# bounds were set on (Python 3.11); only a unit, so it never needs
# re-measuring.
REFERENCE_SECONDS = 0.004
# Request i runs between calibrations i and i + 1; it is scaled by the
# median of the calibrations from i - SPAN + 1 to i + SPAN, so one slow
# calibration cannot move it and a change of speed is followed within a
# request or two.
SPAN = 2


def calibrate():
    """Fixed integer loops like the library's kernels.

    Exact-fraction arithmetic slowed more than the library's requests did
    when the host changed speed (1.7 times against 1.5), and so would scale
    too far; integer loops slow down as the requests do.
    """
    rows = (((1, 2), 7), ((-3, 1), 9), ((0, -1), 4), ((2, -5), 11))
    total = 0
    for x in range(-90, 90):
        for y in range(-55, 55):
            for (a, b), r in rows:
                if a * x + b * y > r:
                    break
            else:
                total += 3 * x - y
    return total


def calibration_seconds():
    """Wall time of one calibration, with the cyclic collector paused so
    garbage left by the program under test is not collected inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibrate()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factors(calibrations):
    """Scale factors for the requests between consecutive calibrations."""
    return [
        REFERENCE_SECONDS / statistics.median(calibrations[max(0, i - SPAN + 1): i + SPAN + 1])
        for i in range(len(calibrations) - 1)
    ]
