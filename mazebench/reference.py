"""The reference kernel R that converts raw seconds into reference seconds.

The host this benchmark was calibrated on drifts: the same code runs up
to 2.5 times slower from one moment to the next, and CPU time drifts as
much as wall time, so raw times cannot be gated.  So R runs on a timer
throughout a run, interleaved with the package's own code, and a time is
reported as ``raw * NOMINAL_S / r``: ``raw`` excludes the time R took,
and ``r`` is the mean duration of the R samples taken during the
operation (or, for an operation shorter than a few timer periods, of the
samples nearest to it in time).  The mean, not the median: the host
switches between a fast and a slow state, and an operation's time adds
up its stretches in both, as the mean of samples spread over it does.
Measured on ``verify all`` calls of the same seed in one process, the
coefficient of variation of raw times (12-16%) fell to 4% with the mean
and only to 9-10% with the median; R run after each call instead did
not track it at all (15-22%).

R is shaped like the package's hot path (``LinComb`` canonicalisation
over hashable maze-like objects): small slotted objects hashed into a
dict, exact ``Fraction`` sums, then a keyed sort.  It is stdlib-only and
never imports the package, so no change to the package can move it.
"""

import gc
import json
import os
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

_CALIBRATION = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "calibration.json")
with open(_CALIBRATION) as _fh:
    _R = json.load(_fh)["reference_kernel"]

# R's duration on the reference host: reported times are seconds at that
# host's speed.
NOMINAL_S = _R["nominal_us"] * 1e-6
# One R sample per period, so R takes about NOMINAL_S / PERIOD_S of a run.
PERIOD_S = _R["period_ms"] * 1e-3
# An operation with fewer samples inside it uses this many nearest ones.
MIN_SAMPLES = _R["min_samples"]


class _Item:
    __slots__ = ("src", "dst", "label")

    def __init__(self, src, dst, label):
        self.src = src
        self.dst = dst
        self.label = label

    def __eq__(self, other):
        return (self.src == other.src and self.dst == other.dst
                and self.label == other.label)

    def __hash__(self):
        return hash((self.src, self.dst, self.label))

    def sort_key(self):
        return (self.src, self.dst, self.label)


_SRC = tuple(f"x{i}" for i in range(7))
_DST = tuple(f"y{i}" for i in range(5))


def unit():
    """One sample of R: merge 200 terms over 70 keys, drop zeros, sort."""
    merged = {}
    for i in range(200):
        key = _Item(_SRC[i % 7], _DST[i % 5], i % 2)
        coeff = Fraction(i % 7 - 3, 1 + i % 5)
        if key in merged:
            merged[key] += coeff
        else:
            merged[key] = coeff
    kept = [(k, c) for k, c in merged.items() if c != 0]
    kept.sort(key=lambda kc: kc[0].sort_key())
    return len(kept)


class Sampler:
    """Runs R every PERIOD_S of wall time while active, and times calls.

    Use as a context manager around everything that is timed.  ``time``
    returns raw durations with R's own time taken out; ``scale`` converts
    them once the samples after them exist too.
    """

    def __init__(self):
        self.at = array("d")       # when each sample ended
        self.took = array("d")     # how long each sample took
        self.stolen = 0.0          # total time spent in R
        self._previous = None

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        clock = time.perf_counter
        t0 = clock()
        unit()
        t1 = clock()
        if enabled:
            gc.enable()
        self.at.append(t1)
        self.took.append(t1 - t0)
        self.stolen += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def time(self, fn, *args):
        """Call ``fn(*args)``; return (result, (start, end, raw seconds))."""
        clock = time.perf_counter
        stolen = self.stolen
        t0 = clock()
        result = fn(*args)
        t1 = clock()
        return result, (t0, t1, (t1 - t0) - (self.stolen - stolen))

    def ref_at(self, t0, t1):
        """R's duration next to the interval [t0, t1]."""
        lo = bisect_left(self.at, t0)
        hi = bisect_right(self.at, t1)
        if hi - lo < MIN_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, mid - MIN_SAMPLES // 2)
            hi = min(len(self.at), lo + MIN_SAMPLES)
            lo = max(0, hi - MIN_SAMPLES)
        return statistics.fmean(self.took[lo:hi])

    def scale(self, timing):
        """Reference seconds for a ``(start, end, raw)`` from ``time``."""
        t0, t1, raw = timing
        return raw * NOMINAL_S / self.ref_at(t0, t1)

    def ref_median(self):
        return statistics.median(self.took)
