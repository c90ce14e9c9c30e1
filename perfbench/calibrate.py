"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of the CPU a run gets changes by tens of
percent within seconds and between minutes, far more than the change a
benchmark has to resolve.  `calibration_s()` times a fixed pure-Python
loop (float and complex arithmetic, tuple building, a call and float
formatting, like the program's per-point work) that does not touch the
program.  The runners call it before and after every timed step, outside
the step timers, so its samples spread over the whole run.  A run's
times are then reported at the reference speed:

    mean time * REFERENCE_S / (mean calibration time of the run)

Both means are averages over the same stretch of time, so the machine's
speed over that stretch cancels; a change to the program moves the
result by the same ratio as the raw times.  (Ratios of medians, and each
step scaled by the calibrations just around it, spread two to three times
more between runs: one 0.03 s sample is too short to follow the machine.)
"""

from __future__ import annotations

import cmath
import math
import statistics
import time

# Median of calibration_s() on a 2-core x86 box (Python 3.11.7), so scaled
# times there read as plain seconds.
REFERENCE_S = 0.03
LOOP_COUNT = 25_000


def _point(i: int) -> complex:
    x = (i * 1e-3, 0.5, -0.25)
    r = math.hypot(*x)
    return cmath.sqrt(complex(r * r - 1.0, -2.0 * x[2]))


def calibration_s() -> float:
    start = time.perf_counter()
    acc = 0j
    for i in range(LOOP_COUNT):
        value = _point(i)
        acc += value
        repr(value.real)
    elapsed = time.perf_counter() - start
    if not math.isfinite(abs(acc)):
        raise RuntimeError("calibration loop produced a non-finite sum")
    return elapsed


def at_reference_speed(times, samples) -> float:
    """Mean of times, scaled by REFERENCE_S over the mean calibration sample."""
    return statistics.fmean(times) * REFERENCE_S / statistics.fmean(samples)
