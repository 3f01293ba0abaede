"""Seeded benchmark inputs: trace directories, the replay platform and
the what-if campaign spec.

Every input is a pure function of the workload's size parameters and
the ``--seed``: traces come from the public LU generator
(``repro.core.synth``) and from the 1-D chain writer below, which this
benchmark owns.  Nothing here imports the paper-figure benches, so
editing one of them cannot change what the benchmark measures.
"""

from __future__ import annotations

import os
from typing import Dict, List

import numpy as np

from repro.core.synth import write_synthetic_lu_trace
from repro.core.trace import trace_file_name
from repro.simkernel import Platform

#: Per-sweep compute burst of the chain trace (flops) and its face size.
CHAIN_SWEEP_FLOPS = 1e6
CHAIN_FACE_BYTES = 65536
#: Uniform jitter of every compute record, as in acquired traces.
JITTER = 0.01


def replay_platform(n_ranks: int) -> Platform:
    """One cluster, per-host links and a fatpipe backbone.

    Flows between distinct host pairs share no constraint except their
    hosts' links, so the LU pencil exchange forms contention waves of
    many coupled flows (multi-level max-min solves) while the chain's
    exchange stays single-level.
    """
    platform = Platform()
    platform.add_cluster(
        "c", n_ranks, speed=1e9, link_bw=1.25e9, link_lat=1e-6,
        backbone_bw=1.25e10, backbone_lat=1e-6, backbone_sharing="fatpipe",
    )
    return platform


def write_lu_trace(directory: str, n_ranks: int, iterations: int,
                   compute_split: int, seed: int) -> int:
    """LU 2-D pencil trace (class B, an allReduce every sweep); returns
    the generator's action count."""
    return write_synthetic_lu_trace(
        directory, n_ranks, iterations, cls="B", inorm=1, seed=seed,
        jitter=JITTER, compute_split=compute_split,
    )


def write_chain_trace(directory: str, n_ranks: int, iterations: int,
                      compute_split: int, seed: int) -> int:
    """1-D chain ghost-cell exchange with an allReduce per sweep.

    Open boundaries (rank 0 and rank n-1 are not neighbours).  Per
    sweep and rank: an ``Irecv`` per neighbour, a pack ``compute`` and
    a blocking ``send`` per neighbour, the ``wait``s, ``compute_split``
    compute records that share the sweep's flops (the record shape of
    function-level instrumentation), and an ``allReduce``.  Each sweep
    draws its jitter from ``default_rng([seed, rank])``.  Returns the
    action count.
    """
    os.makedirs(directory, exist_ok=True)
    n_actions = 0
    for rank in range(n_ranks):
        rng = np.random.default_rng([seed, rank])
        neighbours = [p for p in (rank - 1, rank + 1) if 0 <= p < n_ranks]
        rows: List[str] = [f"p{rank} comm_size {n_ranks}"]
        for _ in range(iterations):
            rows += [f"p{rank} Irecv p{peer} {CHAIN_FACE_BYTES}"
                     for peer in neighbours]
            for peer in neighbours:
                rows.append(f"p{rank} compute 10000")
                rows.append(f"p{rank} send p{peer} {CHAIN_FACE_BYTES}")
            rows += [f"p{rank} wait" for _ in neighbours]
            factor = 1.0 + JITTER * float(rng.uniform(-1.0, 1.0))
            part = CHAIN_SWEEP_FLOPS * factor / compute_split
            rows += [f"p{rank} compute {part!r}"] * compute_split
            rows.append(f"p{rank} allReduce 40 10")
        with open(os.path.join(directory, trace_file_name(rank)), "w",
                  encoding="ascii") as handle:
            handle.write("\n".join(rows) + "\n")
        n_actions += len(rows)
    return n_actions


def whatif_spec(seed: int, iterations: int, ranks: List[int],
                jobs: int) -> Dict:
    """The what-if campaign: 2 catalog platforms x 2 flop rates x 2 rank
    counts of one seeded synthetic LU trace (8 scenarios)."""
    return {
        "name": "whatif",
        "jobs": jobs,
        "base": {
            "trace": {"kind": "synth", "cls": "B", "iterations": iterations,
                      "inorm": 1, "seed": seed, "jitter": JITTER},
            "calibration": {"kind": "fixed", "speed": 1e9},
        },
        "vary": {
            "platform.name": ["gdx", "grid5000"],
            "calibration.speed": [1e9, 2e9],
            "ranks": list(ranks),
        },
    }
