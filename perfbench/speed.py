"""Machine speed, measured with a fixed reference kernel between calls.

On a shared VM the same call can take half as long again for seconds or
minutes at a time while other tenants load the host; a median over a 45 s run
does not average that away.  So an untraced run times a fixed pure-Python
kernel every INTERVAL_S between calls, and rescales each call's time by the
kernel times measured near it.  A rescaled time reads as the time the call
would take on a machine where the kernel takes REFERENCE_MS.

The kernel uses only the standard library: exact elimination on a fixed
matrix of Fractions with 4-digit entries, and a dict of a few thousand tuple
keys built and read back.  Those are the big-integer arithmetic and the small
objects the package spends its time on, so host load slows the kernel and the
package alike, but no change to the package changes the kernel.  Of the
kernels tried (these two, elimination mod 2^31 - 1, permutation-group
enumeration, a pure integer loop), the pair tracked the Frobenius solves and
the axis closures best together.

"Near" is a window that widens with the call.  A short call is rescaled by the
kernel times within WINDOW_S of it, which follows the speed from one second to
the next.  A call of several seconds has no kernel time inside it, and the few
seconds around it say little about its own; its window spans most of the run,
so it is rescaled by the run's average speed.
"""

import random
import statistics
import time
from fractions import Fraction

REFERENCE_MS = 12.0
INTERVAL_S = 0.2
WINDOW_S = 0.5
WINDOW_PER_CALL_S = 8.0  # extra window per second of call time
MIN_WINDOW_SAMPLES = 4

_rng = random.Random(20220917)
_ROWS = [[Fraction(_rng.randint(-9999, 9999), _rng.randint(1, 9999)) for _ in range(9)]
         for _ in range(8)]
_KEYS = 9000


def _rank():
    m = [row[:] for row in _ROWS]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _churn():
    d = {}
    for i in range(_KEYS):
        d[(i, i * 7 % 13)] = [i, -i]
    return sum(v[0] + k[1] for k, v in d.items())


def kernel():
    """One run of the reference kernel (about 12 ms on a 2 GHz Xeon)."""
    return _rank(), _churn()


def kernel_ms(repeats):
    """Median time of `repeats` kernel runs, after one run to warm up."""
    kernel()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


class SpeedTracker:
    """Kernel times taken between calls, and the rescaling factor they give."""

    def __init__(self):
        self.samples = []  # (midpoint on the perf_counter clock, ms)
        for _ in range(3):
            self.sample()

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, (t1 - t0) * 1e3))

    def maybe_sample(self):
        """Time the kernel if INTERVAL_S has gone by since it last ran."""
        if time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def factor(self, t0, t1):
        """REFERENCE_MS over the median kernel time in the window around the
        call [t0, t1] (or of the MIN_WINDOW_SAMPLES samples nearest to it,
        where the window holds fewer)."""
        def distance(at):
            return max(t0 - at, at - t1, 0.0)

        width = WINDOW_S + WINDOW_PER_CALL_S * (t1 - t0)
        near = [ms for at, ms in self.samples if distance(at) <= width]
        if len(near) < MIN_WINDOW_SAMPLES:
            by_distance = sorted(self.samples, key=lambda s: distance(s[0]))
            near = [ms for _, ms in by_distance[:MIN_WINDOW_SAMPLES]]
        return REFERENCE_MS / statistics.median(near)

    def kernel_median_ms(self):
        return statistics.median(ms for _, ms in self.samples)
