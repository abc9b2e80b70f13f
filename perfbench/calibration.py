"""Host-speed calibration: every timed call is bracketed by a fixed computation.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third within a minute, and the drift is much the same for any pure-Python work:
the same code takes 7 s in one minute and 11 s in the next.  So each timed
call is run between two runs of :func:`measure`, a fixed computation in the
benchmark's own arithmetic (``exact.py``, which never imports ``realsnf``,
so no change to the program moves it), and the call's time is reported in
reference seconds::

    reference = wall * REFERENCE_S / mean(calibration before, calibration after)

that is, the time the call would take on a core where the calibration takes
``REFERENCE_S``.  A change to the program moves the reference time exactly
as much as the wall time; a slower minute of the host moves both the call
and its calibrations, and cancels.  The host's speed moves within seconds, so
each call is scaled by its own two calibrations rather than by an average
over the run.  The wall-clock figures are kept in the run's metadata.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

from exact import leibniz_det, matmul, ring_for
from workloads import SplitMix64, _random_entry

# The calibration's time on an unloaded core of the 2-vCPU VM the benchmark
# was written on (Python 3.11); it only sets the scale of reported times.
REFERENCE_S = 0.005

_QUAD = ring_for("Zsqrt:3")
_POLY = ring_for("Q[x]")
_rng = SplitMix64(0x5EED)
_QA = [[_random_entry(_QUAD, _rng, i, j) for j in range(7)] for i in range(7)]
_PA = [[_random_entry(_POLY, _rng, i, j) for j in range(4)] for i in range(4)]


def _work() -> None:
    """Integer pairs, Fraction polynomials, a 5 x 5 permutation expansion,
    Fraction sums and big-integer gcds: the kinds of arithmetic the program
    spends its time in (one kind alone follows the host's speed less well)."""
    matmul(_QUAD, _QA, _QA)
    matmul(_POLY, matmul(_POLY, _PA, _PA), _PA)
    leibniz_det(_QUAD, [row[:5] for row in _QA[:5]])
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i * 7919 % 1013, i * i + 1)
    a, b = 3**400, 7**350
    for i in range(300):
        math.gcd(a * (i + 1), b + i)
        a, b = b % (a + 1) + a // 3, a


def measure() -> float:
    """Wall seconds the calibration takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for a call between two
    calibrations."""
    return REFERENCE_S / ((before + after) / 2)


def warm_up(times: int = 5) -> None:
    for _ in range(times):
        _work()


def summary(samples: list[float]) -> dict:
    """Median and range of the calibration times of a run, in ms."""
    if not samples:
        return {}
    return {
        "reference_ms": REFERENCE_S * 1000,
        "median_ms": round(statistics.median(samples) * 1000, 4),
        "min_ms": round(min(samples) * 1000, 4),
        "max_ms": round(max(samples) * 1000, 4),
        "samples": len(samples),
    }
