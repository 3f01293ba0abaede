"""Machine-speed reference of a timed run.

The shared 2-core VMs this benchmark runs on change speed by 30-40 %
over tens of minutes, and by +-15 % from one replay to the next, for
reasons outside the program (measured: the same LU replay took a median
of 2.45 s in one set of runs and 1.69 s in the next).  Every timed
repetition and every set-up repetition is therefore bracketed by
:func:`probe`, a fixed workload that imports nothing from the program,
timed in the same process just before and just after it.  A sample is
reported in reference seconds: host seconds multiplied by
``REFERENCE_S / mean(the two probe times)``, i.e. the time on a machine
where the probe takes ``REFERENCE_S``.  A change to the program cannot
move the probe, so a gain or a regression of the program shows in full.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

#: The probe's duration on the machine the benchmark was tuned on.
REFERENCE_S = 0.2


def probe(n: int = 30_000) -> float:
    """Seconds taken by a fixed mix of heap, dict and small-array NumPy
    work, the kind of work a discrete-event replay with a vectorized
    max-min solver does."""
    rng = random.Random(1)
    heap, table, acc = [], {}, 0.0
    values = np.arange(256, dtype=float)
    index = np.arange(0, 256, 3)
    start = time.perf_counter()
    for i in range(n):
        x = rng.random()
        heapq.heappush(heap, (x, i))
        table[i & 1023] = x
        picked = values[index] * x
        acc += float(picked.min()) + float(np.add.reduce(picked[:8]))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0] * table.get(i & 511, 1.0)
    return time.perf_counter() - start
