"""Host speed, measured by a fixed probe run between operations.

The benchmark runs on a shared host whose speed swings by up to a factor of
two from one second to the next, and by 20% between the means of runs a
minute apart.  Every time the benchmark reports is therefore scaled to a
fixed reference speed: a raw time ``t`` measured between two probes that
took ``p0`` and ``p1`` seconds is reported as ``t * REF_S / ((p0 + p1) / 2)``,
the time it would have taken on a host where the probe takes ``REF_S``.

The probe is a fixed loop of ``Fraction`` arithmetic and ``bisect`` lookups,
the same kind of work as lineaut's evaluation, in pure Python and without
any lineaut code, so a change to lineaut cannot move it: a faster lineaut
reads faster by the same share as in raw time.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

REF_S = 0.0025  # probe time on the reference host, about a calm phase here
_ROUNDS = 15
_XS = [Fraction(7 * i + 1, 3 + i % 4) for i in range(64)]


def probe() -> float:
    """Seconds the fixed probe loop takes now (about 2.5 ms)."""
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        x = Fraction(5, 7)
        for _ in range(20):
            j = bisect.bisect(_XS, x * 9)
            x = (x * 3 + _XS[j % 64]) / (j + 2)
    return time.perf_counter() - start


class Scaler:
    """Probes between intervals and scales each interval's raw time."""

    def __init__(self):
        self.last = probe()

    def factor(self) -> float:
        """Probe now; the factor for the interval since the previous probe."""
        now = probe()
        f = 2 * REF_S / (self.last + now)
        self.last = now
        return f
