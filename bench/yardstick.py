"""Machine-speed yardstick for the timings.

On a shared machine the speed of the same code drifts by up to about 2x,
in phases that last from seconds to many minutes (see README.md in this
directory).  A whole run can fall into a slow phase, which no statistic
over the run's own samples removes.  So a yardstick that runs no package
code, ``cpu_kernel``, brackets every in-process unit, and the unit is
reported in reference-speed seconds:

    seconds * CPU_REFERENCE_S / mean of the two yardsticks' seconds

Fresh-process timings follow the yardstick only in part, so they are
scaled by ``process_scale``, a power of the run's median yardstick.  The
raw seconds are kept in the results file.
"""

from __future__ import annotations

from time import perf_counter as clock

import numpy as np

# Typical yardstick seconds on the reference machine (2-core Intel Xeon
# sandbox, Python 3.11, numpy 2.4): the scale of the reported seconds.
CPU_REFERENCE_S = 0.035
# Over six sets of ten runs, fresh-process times divided by this power of
# the run's median yardstick spread least (README.md, "Reference-speed
# seconds"): the full ratio over-corrects, no scaling leaves the drift.
PROCESS_EXPONENT = 0.5


def cpu_kernel() -> int:
    """Fixed work, about 40 ms on the reference machine."""
    rng = np.random.Generator(np.random.PCG64(12345))
    total = 0
    for _ in range(12_000):
        total += int(rng.geometric(0.01, size=8).sum())
    table: dict[int, int] = {}
    for i in range(100_000):
        table[i % 97] = table.get(i % 97, 0) + i
    return total + len(table)


def process_scale(median_yardstick_s: float) -> float:
    """Factor from a run's fresh-process seconds to reference-speed seconds."""
    return (CPU_REFERENCE_S / median_yardstick_s) ** PROCESS_EXPONENT


def cpu_seconds() -> float:
    """Seconds the CPU yardstick takes now."""
    start = clock()
    cpu_kernel()
    return clock() - start
