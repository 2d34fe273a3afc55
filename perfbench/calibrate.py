"""A fixed pure-Python kernel that measures how fast the machine runs now.

On a shared machine the speed of the interpreter drifts by tens of percent
over seconds to minutes, far more than the changes the benchmark must
resolve.  Timing this kernel next to each document gives the speed at that
moment; dividing each document's time by it (and multiplying by the
kernel's nominal time) reports the document's time at a fixed reference
speed.  The kernel does the same kind of work as the program: small integer
matrix products on tuples, dict lookups and allocation.
"""

from __future__ import annotations

import os
from time import perf_counter_ns

# Nominal kernel time: the value the kernel reads at reference speed.
NOMINAL_NS = 1_000_000

_A = tuple(tuple((3 * i + 5 * j) % 7 - 3 for j in range(6)) for i in range(6))


def _work():
    m = _A
    seen = {}
    for _ in range(12):
        cols = tuple(zip(*m))
        m = tuple(tuple(sum(x * y for x, y in zip(row, col)) % 1009 - 504
                        for col in cols) for row in m)
        seen[m] = len(seen)
    return len(seen)


def kernel_ns() -> int:
    """Fastest of three timings of the kernel, in nanoseconds."""
    best = None
    for _ in range(3):
        start = perf_counter_ns()
        _work()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def pin_to_one_cpu() -> None:
    """Keep this process (and the processes it starts) on one CPU.

    Moving between CPUs costs the interpreter its warm caches; on a
    two-core shared machine that alone made a fixed piece of Python run a
    third slower and far less evenly.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
