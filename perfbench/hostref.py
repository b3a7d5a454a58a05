"""A fixed reference loop that times the host, not the program.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x within seconds (most likely another tenant on the sibling hardware
thread) and drifts by tens of percent over minutes.  Every end-to-end timing
the benchmark reports is therefore divided by the fastest pass of this loop
in the same run and multiplied by REF_NOMINAL_S: it reads as seconds on a
host where the loop takes REF_NOMINAL_S.  The loop is pure Python of the
same kind as the program (tuples, small ints, a dict memo) and lives in the
benchmark, so no change to the program can change it.
"""

from __future__ import annotations

import time

# The loop's time on this benchmark's reference host (2-vCPU Xeon, Python
# 3.11) when nothing else ran on its core.  A fixed constant, so that
# normalized times read in seconds; it cancels in every comparison.
REF_NOMINAL_S = 0.008


def _partitions(n: int, largest: int, memo: dict) -> list:
    key = (n, largest)
    if key not in memo:
        if n == 0:
            memo[key] = [()]
        else:
            memo[key] = [(k,) + p for k in range(min(n, largest), 0, -1)
                         for p in _partitions(n - k, k, memo)]
    return memo[key]


def reference_work() -> int:
    """Hook-length products of every partition of 22, reduced mod 7."""
    total = 0
    for p in _partitions(22, 22, {}):
        conj = [sum(1 for x in p if x > j) for j in range(p[0])]
        h = 1
        for i, r in enumerate(p):
            for j in range(r):
                h *= r - j + conj[j] - i - 1
        total += h % 7
    return total


REF_CHECKSUM = reference_work()


def time_reference() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    total = reference_work()
    elapsed = time.perf_counter() - t0
    if total != REF_CHECKSUM:
        raise RuntimeError("reference loop gave a different result")
    return elapsed
