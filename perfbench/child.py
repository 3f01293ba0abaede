"""Fresh process that runs the timed replays or diagnoses of one run.

Usage: ``python3 perfbench/child.py '<json request>'``, where the
request is ``{"mode": "replay"|"diagnose", "trace_dir", "n_ranks",
"seconds", "min_reps"}``.  Repeats the operation until ``seconds`` have
passed and at least ``min_reps`` repetitions are done, timing the
machine-speed probe before the first repetition and after each one.
Prints one JSON line: each repetition's wall time, result and the two
probe times around it, the errors of failed repetitions, and the
process's peak resident set size.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.analysis.wait_states import diagnose_wait_states  # noqa: E402
from repro.core.replay import TraceReplayer  # noqa: E402
from repro.core.trace import read_trace_dir  # noqa: E402
from repro.smpi import round_robin_deployment  # noqa: E402

from inputs import replay_platform  # noqa: E402
from rss import peak_rss_mib  # noqa: E402
from speed import probe  # noqa: E402


def replay_once(trace_dir: str, n_ranks: int):
    platform = replay_platform(n_ranks)
    deployment = round_robin_deployment(platform, n_ranks)
    start = time.perf_counter()
    result = TraceReplayer(platform, deployment).replay(trace_dir)
    wall = time.perf_counter() - start
    return wall, {"simulated_time": result.simulated_time,
                  "per_rank_time": result.per_rank_time,
                  "n_actions": result.n_actions}


def diagnose_once(trace_dir: str, n_ranks: int):
    platform = replay_platform(n_ranks)
    deployment = round_robin_deployment(platform, n_ranks)
    start = time.perf_counter()
    trace = read_trace_dir(trace_dir)
    result = TraceReplayer(platform, deployment,
                           record_timed_trace=True).replay(trace)
    report = diagnose_wait_states(trace, result.timed_trace)
    wall = time.perf_counter() - start
    return wall, {"simulated_time": result.simulated_time,
                  "per_rank_time": result.per_rank_time,
                  "n_actions": result.n_actions,
                  "n_pairs": report.n_pairs}


def main(request: dict) -> dict:
    once = {"replay": replay_once, "diagnose": diagnose_once}[request["mode"]]
    reps, errors = [], []
    deadline = time.perf_counter() + float(request["seconds"])
    before = probe()
    while (len(reps) + len(errors) < int(request["min_reps"])
           or time.perf_counter() < deadline):
        gc.collect()
        try:
            wall, result = once(request["trace_dir"], int(request["n_ranks"]))
        except Exception as exc:  # noqa: BLE001 - counted by the gate
            errors.append(f"{type(exc).__name__}: {exc}")
            before = probe()
            continue
        after = probe()
        reps.append({"wall": wall, "result": result,
                     "probes": [before, after]})
        before = after
    return {"reps": reps, "errors": errors, "peak_rss_mib": peak_rss_mib()}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
