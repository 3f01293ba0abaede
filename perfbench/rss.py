"""Peak resident set size of a process.

``ru_maxrss`` of a spawned program also counts the memory of the
process that spawned it (Linux carries the high water mark over
``exec``), so the benchmark reads ``VmHWM``, the high water mark of the
process's current address space, from ``/proc``.
"""

from __future__ import annotations

import resource


def peak_rss_mib(pid="self") -> float:
    """``VmHWM`` of ``pid`` in MiB; for this process, ``ru_maxrss`` where
    ``/proc`` is missing."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        if pid != "self":
            raise
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
