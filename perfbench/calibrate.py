"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the speed of one core drifts: the same
lpl operation can take twice as long one minute as the next, and its best
time over a few repeats drifts with it.  A fixed piece of pure-Python
exact arithmetic (``work``, which uses nothing from lpl) is timed in blocks
next to every operation; an operation's time is scaled by
``REFERENCE_S / median(calibration times around it)``.  That is its time on
the host running at the reference speed, the speed at which ``work`` takes
``REFERENCE_S``.  A change to lpl moves the operation's time and not the
calibration's, so it moves the scaled time by the same share.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

# About the median time of one ``work()`` on a core of a 2.1 GHz Xeon host
# shared with other tenants, where the benchmark was tuned (its best time
# there was 1.55 ms); scaled times are in seconds of that host.
REFERENCE_S = 2.5e-3
BLOCK = 5  # ``work()`` runs per calibration block

_rng = random.Random(7)
_MATRIX = [[Fraction(_rng.randint(-999, 999), _rng.randint(1, 999)) for _ in range(7)] for _ in range(7)]


def work() -> None:
    """Gauss-Jordan elimination of a fixed 7 x 7 rational matrix, then dict updates."""
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        pivot = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i


def block() -> list[float]:
    """The times of ``BLOCK`` runs of ``work``."""
    times = []
    for _ in range(BLOCK):
        start = perf_counter()
        work()
        times.append(perf_counter() - start)
    return times


def scale(samples: list[float]) -> float:
    """The factor that takes a time measured next to ``samples`` to reference seconds."""
    return REFERENCE_S / statistics.median(samples)
