"""Machine speed, measured with fixed reference work.

On a shared host the CPU runs at different speeds for stretches of seconds
to minutes (other tenants; CPU time stays equal to wall time), by up to a
factor of two.  run.py therefore states every timed interval at reference
speed: its seconds times REF_S over the reference kernel's time measured
around it.  Set-up is scaled the same way by a reference import
(IMPORT_REFERENCE, REF_IMPORT_S), since loading modules and extension
libraries does not slow down in step with a compute kernel.  On a quiet
machine whose reference times are REF_S and REF_IMPORT_S this is plain wall
time; the wall-clock figures are printed beside it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

REF_S = 0.0022  # reference kernel seconds that times are scaled to
REF_EVERY_S = 0.25  # longest gap between samples while jobs run
REF_WINDOW_S = 0.5  # samples this close to an interval describe its speed
REF_IMPORT_S = 0.042  # reference import seconds that set-up times are scaled to
# a fixed set of standard-library modules, several with C extensions; run
# with `python -I -c`, it prints its own import time
IMPORT_REFERENCE = (
    "import time; t0 = time.perf_counter(); "
    "import json, decimal, argparse, fractions, statistics, email.parser, xml.dom.minidom, sqlite3, ctypes, csv, ssl; "
    "print(time.perf_counter() - t0)"
)
_REF_N = 9
_REF_MATRIX = [(3 * i) % 7 - 3 for i in range(_REF_N * _REF_N)]


def reference_kernel() -> None:
    """Fixed work of the package's kind, in the benchmark's own code: a
    Faddeev-LeVerrier pass over a 9x9 integer matrix and a Fraction sum."""
    n, a = _REF_N, _REF_MATRIX
    b = [int(i % (n + 1) == 0) for i in range(n * n)]
    for k in range(1, n + 1):
        m = [sum(a[i * n + l] * b[l * n + j] for l in range(n)) for i in range(n) for j in range(n)]
        c = -sum(m[i * n + i] for i in range(n)) // k
        for i in range(n):
            m[i * n + i] += c
        b = m
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)


class SpeedProbe:
    """Times reference_kernel between jobs, at least every REF_EVERY_S.

    A sample is the faster of two back-to-back runs, which drops a single
    interrupted run.  The collector is off meanwhile, so heap left behind by
    the package cannot slow the reference.  run.py reads the samples around
    each job to state its time at a fixed reference speed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)
        reference_kernel()
        self.sample()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                reference_kernel()
                best = min(best, time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.taken = time.perf_counter()
        self.samples.append((self.taken, best))

    def tick(self) -> None:
        if time.perf_counter() - self.taken >= REF_EVERY_S:
            self.sample()


def at_reference_speed(intervals: list[tuple[float, float]], samples: list[tuple[float, float]]) -> list[float]:
    """Seconds of each (end, seconds) interval, scaled to reference speed.

    An interval's reference time is the median of the samples taken within
    REF_WINDOW_S of it, or of the nearest sample on each side.
    """
    times = [t for t, _ in samples]
    out = []
    for end, seconds in intervals:
        lo = bisect.bisect_left(times, end - seconds - REF_WINDOW_S)
        hi = bisect.bisect_right(times, end + REF_WINDOW_S)
        near = [ref for _, ref in samples[lo:hi]]
        if len(near) < 2:
            i = bisect.bisect_left(times, end)
            near = [ref for _, ref in samples[max(0, i - 1) : i + 1]]
        out.append(seconds * REF_S / statistics.median(near))
    return out
