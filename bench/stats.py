"""Summary statistics and host probes.  Imports nothing from the library, so
the probes measure the machine and not the code under test."""

from __future__ import annotations

import gc
import math
import statistics
from fractions import Fraction
from time import perf_counter

MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile, lowered where needed so that at least ten
    samples lie beyond it: rank 90 of 100 for q = 0.9, rank 89 of 99."""
    xs = sorted(values)
    n = len(xs)
    if n <= MIN_BEYOND:
        raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond "
                         "any percentile")
    rank = max(1, min(math.ceil(q * n), n - MIN_BEYOND))
    return xs[rank - 1]


def fraction_loop(iterations: int) -> Fraction:
    """A fixed pure-Python workload: Fraction arithmetic, as the library
    does, but none of its code."""
    acc = Fraction(0)
    for i in range(1, iterations):
        acc += Fraction(i % 13, i % 7 + 1)
        acc -= Fraction(i % 11, 3)
    return acc


def timed_loop(iterations: int) -> float:
    """Seconds one fraction_loop takes.  The collector is off, so that the
    objects the process holds do not change the loop's cost."""
    gc.disable()
    try:
        start = perf_counter()
        fraction_loop(iterations)
        return perf_counter() - start
    finally:
        gc.enable()


# The reference probe that the benchmark runs between instances, and its
# nominal time: about what it takes on a 2-vCPU VM at that VM's fast speed.
REFERENCE_ITERATIONS = 1000
REFERENCE_S = 0.0045


def reference_seconds() -> float:
    return timed_loop(REFERENCE_ITERATIONS)


def calib_seconds(warmup: int = 1, repeats: int = 3) -> float:
    """Median time of a longer fraction_loop.  Its drift between runs is the
    machine's drift, since the loop never changes.  The warm-up rounds are
    dropped: a freshly started process runs measurably slower for its first
    half second."""
    times = [timed_loop(12000) for _ in range(warmup + repeats)]
    return statistics.median(times[warmup:])


def cpu_times() -> list[int] | None:
    """Machine-wide CPU jiffies from /proc/stat (user .. steal), or None where
    the file is not readable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(x) for x in fields[1:9]]


def steal_share(before: list[int] | None, after: list[int] | None) -> float:
    """Share of machine CPU time stolen by the hypervisor between two
    readings; 0 when /proc/stat is not available."""
    if before is None or after is None:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total else 0.0
