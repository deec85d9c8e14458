"""Host-speed reference for the benchmark's times.

On a shared host the speed of identical single-threaded work drifts by up
to 2x, sometimes within a second, and CPU time drifts with wall time, so
neither is steady enough to compare two commits.  The benchmark therefore
samples a fixed pure-Python kernel that uses none of the program's code
before, during (from a timer signal every SAMPLE_EVERY_S) and after every
timed call, and reports

    (wall time - time in the sampler) * NOMINAL_S / (mean kernel time),

that is, seconds at the host speed at which the kernel takes NOMINAL_S.  A
change to the program moves these numbers; a change in host load mostly
does not.  Of the kernels tried, exact ``Fraction`` arithmetic on growing
integers tracked the program best: over ten 25 s runs of rank_deficient the
quartile spread of the pass time was 14% raw, 6% against a bigint
multiply-and-gcd kernel and 2% against this one (sampled around calls
only).  Sampling during calls as well cut the worst ten-seed spread of an
end-to-end time from 10% to 6% (bench/BASELINE.md).
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

# about the kernel time on the 2-vCPU x86-64 host the baseline was taken on,
# under CPython 3.11; it only sets the scale of the reported seconds
NOMINAL_S = 0.003
SAMPLE_EVERY_S = 0.1

_rng = random.Random(5)
_TERMS = tuple(Fraction(_rng.randint(1, 999), _rng.randint(1, 999)) for _ in range(300))
_HALF = Fraction(1, 2)


def kernel_seconds():
    """Wall time of one run of the reference kernel.  The cyclic garbage
    collector is held off, so the kernel never pays for the program's
    heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for term in _TERMS:
            acc = acc * _HALF + term
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times calls in host-normalised seconds.

    The kernel run after a call is also the one before the next.
    """

    def __init__(self):
        self._last = kernel_seconds()
        self._during = []
        self._sampling_s = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self._during.append(kernel_seconds())
        self._sampling_s += time.perf_counter() - t0

    def call(self, fn, *args):
        """Return (result, normalised seconds, wall seconds) of fn(*args);
        the wall seconds exclude the sampler's."""
        self._during, self._sampling_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self._sampling_s
        after = kernel_seconds()
        speed = statistics.fmean([self._last, *self._during, after])
        self._last = after
        return result, wall * NOMINAL_S / speed, wall
