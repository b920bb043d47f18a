"""Machine-speed yardstick for a shared, noisy host.

On the shared 2-core Xeon host the benchmark was built on, other load slows
all Python code by up to 2.7x in phases lasting seconds to over a minute,
so raw wall times of whole runs spread by a third or more.  A fixed
pure-Python loop timed next to each case slows by the same factor: over
100 s of repeating the same eight check_pair calls, their wall time
spread by 0.43 and their ratio to the yardstick by 0.065.  The benchmark
therefore times the yardstick just before and just after each measured
interval and reports the interval scaled by ``REF_MS`` over the mean of
the two readings, that is, wall time at the speed at which the yardstick
takes ``REF_MS``.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

REF_MS = 0.75  # the yardstick's duration on that host when it is quiet
LOOPS = 4000
REPEATS = 3


def _step(x: float) -> tuple[float, float]:
    return math.exp(-x) * x, x + 1.0


def yardstick_ms() -> float:
    """Median of ``REPEATS`` timings of a fixed loop of calls, float math
    and tuple building -- the interpreter work the program itself does.
    The median drops a timing hit by a lone interrupt but, unlike the
    minimum, follows short bursts of load that also hit the case."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        acc = []
        total = 0.0
        for i in range(LOOPS):
            v, d = _step(i * 1e-3)
            total += v / d
            acc.append((v, d))
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)

