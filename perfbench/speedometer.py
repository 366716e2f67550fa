"""Host speed, sampled while the timed passes and set-ups run.

A shared host runs the same code 1.2-2.2x slower for stretches that last
from under a second to minutes, and it slows pure-Python and numpy code
alike, though not by quite the same amount.  A 25 s run cannot average such
stretches out, so raw throughput spreads by a quarter or more between runs
of the same code.

The speedometer runs a fixed reference computation, which does not touch
groupcodes, from a SIGALRM handler every ``INTERVAL_S`` of wall time while a
timed block (a pass, or a block of cold set-ups) runs.  The mean duration of
those samples tells how fast the host ran during the block.  A time measured
inside the block, with the sampler's own time taken out, divided by that
mean, is a duration in reference units, which depends far less on the
host's speed: in sets of ten runs of each workload, the spread (IQR) of
throughput was 0.04-0.07 of its median, against 0.08-0.40 in wall-clock
terms.  ``REF_PER_S`` reference samples
make one reference-second; on the 2-vCPU Xeon (2.0 GHz, 2 MiB L2 per core)
virtual machine the constants were tuned on, a reference-second lasts about
one wall-clock second in the host's fast stretches.

The handler only runs between Python bytecodes, so a sample that falls due
inside a long numpy call waits for it to return; the library's longest
calls take milliseconds.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REF_PER_S = 1250         # reference samples per reference-second
_LOOP = 2500             # interpreter part: integer loop iterations
_OBJECTS = 300           # object part: small objects keyed, hashed, sorted
_SUM = 1 << 18           # memory part: sums over 2 MiB, one core's L2

_V = np.random.default_rng(0).integers(0, 9, _SUM, dtype=np.int64)


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def key(self):
        return (self.b, self.a)


def reference() -> int:
    """Fixed work in three parts of about equal time: an integer loop, small
    objects built, keyed and sorted, and two sums over an L2-sized array.

    The host's slow stretches slow different code by different amounts.  In
    1-2 s passes, ``log(pass time)`` grew 1.3-1.6x as fast as
    ``log(loop time)`` for census-d10, css-d16 and verify-matrix and about
    0.9x as fast for certify-c6's bulk matmul; against the object part and
    the sums the CLI workloads' slopes were nearer 1 and the matmul's lower.
    The mix keeps every workload's slope within about 0.8-1.35."""
    s = 0
    for i in range(_LOOP):
        s = (s + i * i) % 65521
    table = {}
    for i in range(_OBJECTS):
        p = _Point(i, (i * 7) % 13)
        table[p.key()] = p
    s += sorted(table.values(), key=_Point.key)[0].a
    for _ in range(2):
        s += int(_V.sum())
    return s


class Speedometer:
    """Context manager: samples the reference while its block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _sample(self, signum, frame) -> None:
        # the first, untimed run brings the reference back into the caches
        # the workload evicted, so that a sample measures the host, not the
        # workload's cache footprint
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        reference()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.busy_s += t2 - t0

    def __enter__(self):
        self.samples.clear()
        self.busy_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_s(self) -> float:
        """Mean duration of one reference sample."""
        if not self.samples:
            raise RuntimeError("the block ended before the first sample; "
                               "it is too short to normalise")
        return statistics.fmean(self.samples)

    def ref_seconds(self, seconds: float) -> float:
        """``seconds`` of work inside this block, with the sampler's own
        time (``busy_s``) already taken out, in reference-seconds."""
        return seconds / (self.mean_s() * REF_PER_S)
