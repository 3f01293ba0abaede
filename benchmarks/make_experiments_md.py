#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from benchmarks/results/*.txt.

Run after ``pytest benchmarks/ --benchmark-only`` so the document always
reflects the latest measured numbers:

    python benchmarks/make_experiments_md.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.campaign.report import render_experiments_md  # noqa: E402

RESULTS = Path(__file__).parent / "results"
TARGET = Path(__file__).parent.parent / "EXPERIMENTS.md"

# (section header, commentary, result files)
SECTIONS = [
    (
        "Table 2 — acquisition modes",
        """The instrumented LU executed under every acquisition mode of §4.2,
64 processes on the grid5000 platform model.  What must hold (and does):
folding ratios grow near-linearly with the factor and slightly above it
(the co-residence penalty); scattering costs far less than folding by
two; SF modes cumulate both overheads; and the trace extracted under any
mode is identical to the Regular one (the §6.2 invariance) — a classical
timed trace would instead inherit the acquisition scenario's timings.
Our ratios sit 10-25 % below the paper's (our ground-truth model is a
little friendlier to co-residence than real Opterons were), with the
ordering and growth identical.""",
        ["table2_acquisition_modes.txt", "table2_invariance.txt"],
    ),
    (
        "Fig. 7 — acquisition time breakdown",
        """Per-step acquisition cost, Regular mode on bordereau.  The paper's
claims hold: application time shrinks with the process count, gathering
(4-nomial tree) grows with it yet stays the smallest component, and the
TI-specific steps (extraction + gathering) stay under ~35 % of the
total with the worst share at B/64 — the paper's own 34.91 % cell.  The
extractor's per-record cost is *measured* by running the real extractor
on a real class-S archive, so this table moves with the machine it runs
on.""",
        ["fig7_acquisition_breakdown.txt"],
    ),
    (
        "Table 3 — trace sizes",
        """Exact sizes from the analytic profiler (pinned byte-for-byte against
the real instrument→extract pipeline by the test suite).  Every paper
cell is matched within ~15 %: TI traces are an order of magnitude
smaller than timed TAU traces, the ratio decreases as processes grow
(TAU's event-file factoring amortises), sizes grow linearly with the
process count, and class C is ~1.6x class B.""",
        ["table3_trace_sizes.txt"],
    ),
    (
        "Fig. 8 — replay accuracy",
        """Actual (ground-truth platform, variable flop rate) vs simulated
(calibrated replay) execution times.  The trend is correct everywhere —
times fall monotonically with the process count, class C sits above
class B — while the local error is sizeable and non-constant, exactly
the paper's observation (their worst cell: 51.5 % at B/64).  The error
is the §6.4 mechanism reproduced: one calibrated average flop rate
cannot represent bursts whose real rate varies with kind and size; even
the *sign* of the error depends on which instance calibrates the rate
(class W here).""",
        ["fig8_accuracy.txt"],
    ),
    (
        "Fig. 9 — replay time",
        """Wall-clock time to replay the traces.  As in the paper, replay time
is directly proportional to the action count (B/8's ~1.7 M actions up
to C/64's ~31 M).  Our Python replayer moves ~40-90 k actions/s where
SimGrid's C kernel managed ~100 k/s on 2010 hardware — same order, same
linear shape; the paper's remedy (bypass the higher API; distribute the
replay) is the same one that would apply here.""",
        ["fig9_replay_time.txt"],
    ),
    (
        "Fig. 9 addendum — replay drivers and the incremental solver",
        """The paper's remedy for replay cost, implemented rather than cited:
trace compilation with compute fusion and automatic phase batching
(`warm`), the certified incremental max-min re-solve (`incr`, the
default solver), and forked sharded replay (`sharded`), each
measured against the token driver at 256 and 1024 ranks with in-run
1e-9 equivalence checks.  The incremental column pays on lu-2d's
multi-level contention waves (2.91x → 4.24x at 1024 ranks) and gates
itself off on chain-1d's single-level solves; sharding is kept
honest by the lu-2d counter-example row, where the guard ring
swallows the bands.""",
        ["fig9_parallel.txt"],
    ),
    (
        "§6.5 — acquiring a large trace (class D, 1024 processes)",
        """The headline scalability claim: a class-D/1024 trace acquired with a
third of one cluster (folding 8 on 32 four-core nodes).  Sizes are exact
(analytic profiler): ~29 GiB TI vs ~294 GiB timed (paper: 32.5 vs
252.5), gzip to ~1 GiB (paper: 1.2).  The acquisition-time estimate
lands at ~30 minutes against the paper's "less than 25" — same order,
dominated by the folded execution exactly as in the paper.""",
        ["sec65_large_trace.txt"],
    ),
    (
        "Ablation — piece-wise-linear MPI model",
        """What the 3-segment model buys over a plain affine latency+bandwidth
model: tens of percent of error around the protocol-switch sizes
(1 KiB, 64 KiB), zero for the fitted model.  This is why §5 bothers
with 8 parameters.""",
        ["ablation_pwl.txt"],
    ),
    (
        "Ablation — network contention",
        """Most off-line simulators ignore contention (§2); the flow-level
model prices it.  A bisection exchange saturating GigE node links shows
a contention-free model underestimating by a factor that grows with the
rank count — invisible below saturation, 6x at 64 ranks.""",
        ["ablation_contention.txt"],
    ),
    (
        "Ablation — collective decomposition",
        """Binomial trees vs the flat decomposition a monolithic collective
model approximates: the flat tree's root serialisation grows the gap
with the rank count (O(P) vs O(log P) rounds).""",
        ["ablation_collectives.txt"],
    ),
    (
        "Ablation — folding factor sweep",
        """Table 2's folding column, swept densely, with and without the
co-residence penalty: fair CPU sharing alone gives slightly *sub*-linear
ratios on a dependency-limited instance; the penalty pushes them just
above linear, as measured in the paper.""",
        ["ablation_folding.txt"],
    ),
    (
        "Extension — binary trace format (§7 future work)",
        """The paper's proposed size reduction, implemented: the varint binary
format is ~4x smaller than text before compression; gzipped, both
converge (entropy dominates), so binary mainly buys un-gzipped I/O and
parse speed.""",
        ["ext_binary_format.txt"],
    ),
    (
        "Infrastructure — campaign runner throughput and result caching",
        """The sweeps above run through `repro.campaign` (declarative scenario
grids, a parallel worker fleet, a content-addressed result cache — see
`docs/campaigns.md`).  This table measures the machinery itself on an
8-scenario LU sweep: the 4-worker fleet against serial execution, and a
byte-identical rerun served entirely from cache.  On this single-core
runner the fleet overlaps the blocking trace-staging component of each
scenario, not the replay CPU; the composition is recorded in the
table.""",
        ["campaign_runner.txt"],
    ),
    (
        "Infrastructure — campaign service throughput and fair share",
        """The same campaigns run *as a service* (`repro-service`: a persistent
job queue, weighted fair-share scheduling across tenants, and a shared
artifact store — see `docs/service.md`).  This table pushes 9 small
jobs from 3 tenants through a 2-slot service against serial execution
of the same specs, and isolates what the scheduler itself costs: the
per-job gap between slot occupancy and the campaign's own wall clock
(fork, staging, verdict collection, reap-tick latency).  The ending
virtual times show the weight-2 tenant charged half per busy second.""",
        ["service_throughput.txt"],
    ),
    (
        "Infrastructure — distributed campaign scale-out and chaos recovery",
        """With `--dispatch workers` the service fans each campaign out as
leased work units to remote `repro-worker` processes — heartbeats,
artifact shipping by content digest, speculative re-execution, and
quarantine (see `docs/distributed.md`).  This table runs one
16-scenario sleep-bound sweep single-host and through 1/2/4-worker
fleets with cold caches, so the dispatch overhead (lease round-trips,
per-unit forks, result posts) is fully exposed; fleets then claw it
back by overlapping units.  The chaos row SIGKILLs one of two workers
mid-campaign: its lease expires, the unit requeues without backoff,
and the survivor finishes the sweep — bounded delay, zero quarantined
units, full provenance.""",
        ["distributed_scaleout.txt"],
    ),
    (
        "Extension — on-line vs off-line comparison (§7 future work)",
        """The comparison the paper planned: running the application skeleton
directly on the calibrated platform (on-line simulation) vs replaying
its acquired trace (off-line).  Both share the calibration error and
agree with each other far better than with the ground truth — evidence
that the off-line decoupling loses almost nothing relative to on-line
simulation for regular codes.""",
        ["ext_online_vs_offline.txt"],
    ),
]

HEADER = """# EXPERIMENTS — paper vs measured

Every table and figure of the paper's evaluation (§6), regenerated by
`pytest benchmarks/ --benchmark-only` and recorded here verbatim from
`benchmarks/results/` (regenerate this file with
`python benchmarks/make_experiments_md.py`).

**Protocol.** Trace sizes and action counts are exact (analytic profiler,
pinned against the real pipeline by `tests/test_lu_profile.py`).
Execution and replay times at the default scale come from simulations
with the SSOR iteration count capped at 1 and 3 and extrapolated linearly
to the full `itmax` (LU iterations are stationary); `REPRO_PAPER_SCALE=1`
replaces every extrapolation with a full run.  "Actual" times are the
ground-truth platform model (variable flop rate, co-residence penalty) —
the stand-in for the paper's Grid'5000 hardware; see DESIGN.md §2 for the
substitution table.

**Reading the numbers.** We never chase the paper's absolute seconds (our
substrate is a simulator, not bordereau); the claims reproduced are the
*shapes*: who wins, by what factor, where the crossovers and worst cases
sit.  Paper values are quoted inline in each table for side-by-side
comparison.

Generated: {date}
"""


def main() -> int:
    document, missing = render_experiments_md(SECTIONS, str(RESULTS),
                                              HEADER)
    TARGET.write_text(document)
    print(f"wrote {TARGET} ({TARGET.stat().st_size} bytes)")
    if missing:
        print("missing results:", ", ".join(missing))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
