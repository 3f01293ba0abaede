"""The correctness gate every timed operation passes through.

A golden is the result of the repository's oracle configuration (the
token driver with the full max-min solve, no incremental patch) on the
same input.  It is recorded once per (workload, input parameters,
seed) and kept in the benchmark's work directory, so later runs with
the same seed reuse it.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional, Sequence

#: Relative tolerance of makespan and per-rank time comparisons.
RTOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * abs(b)


def compare_replay(golden: Dict, simulated_time: float,
                   per_rank_time: Optional[Sequence[float]],
                   n_actions: int) -> List[str]:
    """Mismatches of one replay against its golden (empty when equal)."""
    problems = []
    if n_actions != golden["n_actions"]:
        problems.append(f"n_actions {n_actions} != {golden['n_actions']}")
    if not close(simulated_time, golden["simulated_time"]):
        problems.append(f"makespan {simulated_time!r} != "
                        f"{golden['simulated_time']!r}")
    if per_rank_time is not None:
        expect = golden["per_rank_time"]
        if len(per_rank_time) != len(expect):
            problems.append(f"{len(per_rank_time)} ranks != {len(expect)}")
        else:
            bad = [r for r, (a, b) in enumerate(zip(per_rank_time, expect))
                   if not close(a, b)]
            if bad:
                problems.append(f"per-rank time differs on ranks {bad[:5]}")
    return problems


def cached_golden(work_dir: str, key: str,
                  compute: Callable[[], Dict]) -> Dict:
    """The golden stored under ``key``, computing it on first use."""
    directory = os.path.join(work_dir, "golden")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, key + ".json")
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    golden = compute()
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(golden, handle)
    os.replace(tmp, path)
    return golden


class Gate:
    """Counts operations attempted and failed; a failure never aborts
    the run, it only lands in ``failed`` and in ``problems``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, what: str, problems: Sequence[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: " + "; ".join(problems))
        return not problems

    def error(self, what: str, exc: BaseException) -> None:
        self.record(what, [f"{type(exc).__name__}: {exc}"])
