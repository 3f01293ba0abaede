"""Fig. 9 — time needed to replay a time-independent trace as the number
of processes grows (LU classes B and C).

Paper observations to reproduce:
* replay time is directly proportional to the number of actions in the
  trace (it grows with both class and process count),
* most of the cost is per-action bookkeeping (the paper blames context
  switches between simulated processes; here, generator scheduling).

The per-action replay rate is *measured* on really-replayed capped
traces; full-class replay times are that rate times Table 3's exact
action counts.  ``REPRO_PAPER_SCALE=1`` replays the full traces instead.
"""

import os
import subprocess
import sys
import tempfile

import pytest

from _harness import PAPER_SCALE, capped, emit_table, scale_note
from repro.apps import LuWorkload, lu_class
from repro.apps.lu_profile import lu_instance_profile
from repro.core.acquisition import acquire
from repro.core.replay import TraceReplayer
from repro.core.synth import write_synthetic_lu_trace
from repro.platforms import bordereau
from repro.simkernel import Platform
from repro.smpi import round_robin_deployment

CLASSES = ["B", "C"]
PROCS = [8, 16, 32, 64]
CAP_ITERS = 2

# --- rank-scaling sweep (synthetic LU mix, 8 -> 1024 ranks) ---------------
#: Process counts for the synthetic rank-scaling sweep.
SWEEP_RANKS = [8, 64, 256, 1024]
#: SSOR iterations per rank in the synthetic traces (inorm=2 keeps the
#: allReduce in the mix even for short runs).
SWEEP_ITERS = 4
SWEEP_INORM = 2
#: The pure-Python reference solver is O(activities) per recompute; past
#: this rank count its sweep leg takes minutes, so it only runs at paper
#: scale.  The vectorized path runs the full sweep always.
REFERENCE_RANK_CAP = 256
#: Events/s measured at the seed commit (3bdd3bb) on these exact
#: synthetic traces and platform, for the table's "vs seed" column.
SEED_BASELINE_EVPS = {256: 3054.0, 1024: 336.0}


def replay_rate(cls: str, procs: int):
    """(actions/s, measured actions) on a capped, really-replayed trace."""
    itmax = lu_class(cls).itmax if PAPER_SCALE else CAP_ITERS
    config = capped(lu_class(cls), itmax)
    ground_truth = bordereau()
    with tempfile.TemporaryDirectory() as workdir:
        acq = acquire(LuWorkload(config, procs).program, ground_truth,
                      procs, workdir=workdir, measure_application=False)
        calibrated = bordereau(ground_truth=False, speed=4e8)
        replayer = TraceReplayer(
            calibrated, round_robin_deployment(calibrated, procs)
        )
        result = replayer.replay(acq.trace_dir)
    return result.n_actions / result.wall_seconds, result


def run_fig9():
    lines = [
        "Fig. 9 - trace replay time vs process count",
        scale_note(),
        "",
        f"{'inst.':>6} {'actions(M)':>11} {'measured rate':>15} "
        f"{'replay time':>12}",
    ]
    series = {}
    for cls in CLASSES:
        for procs in PROCS:
            rate, measured = replay_rate(cls, procs)
            profile = lu_instance_profile(cls, procs)
            if PAPER_SCALE:
                replay_time = measured.wall_seconds
            else:
                replay_time = profile.ti_actions / rate
            series[(cls, procs)] = (profile.ti_actions, replay_time)
            lines.append(
                f"{cls + '/' + str(procs):>6} "
                f"{profile.ti_actions / 1e6:>10.2f} "
                f"{rate:>11,.0f} a/s {replay_time:>11.1f}s"
            )
    emit_table("fig9_replay_time.txt", lines)
    return series


@pytest.mark.benchmark(group="fig9")
def test_fig9_replay_time(benchmark):
    series = benchmark.pedantic(run_fig9, rounds=1, iterations=1)
    for cls in CLASSES:
        times = [series[(cls, p)][1] for p in PROCS]
        actions = [series[(cls, p)][0] for p in PROCS]
        # Replay time grows with the action count (paper's direct link).
        assert times == sorted(times)
        assert actions == sorted(actions)
    for p in PROCS:
        assert series[("C", p)][1] > series[("B", p)][1]


@pytest.mark.benchmark(group="fig9")
def test_fig9_metrics_overhead(benchmark):
    """Replay-telemetry overhead budget (docs/observability.md): with
    ``collect_metrics=True`` the Fig. 9 replay must slow down by < 5%;
    with metrics disabled the instrumented kernel takes the exact same
    code path as before (one ``is not None`` test per site), so the
    disabled numbers are reported alongside for regression tracking.

    A few-percent budget is far below timing noise on a shared box, so
    the comparison is made robust three ways: CPU time
    (``time.process_time``) instead of wall time with garbage collection
    paused, the two configurations interleaved with min-of-N per side
    (the minimum is the run least disturbed by scheduling, cache
    eviction and allocator state), and the whole paired measurement
    repeated in a handful of fresh interpreter processes with the min
    taken across them too — code placement varies per process and can
    swing hot-loop timings by several percent, and the cross-process
    minimum removes that layout luck from both sides symmetrically."""
    import os
    import subprocess
    import sys

    config = capped(lu_class("B"), CAP_ITERS)
    ground_truth = bordereau()

    worker = r"""
import gc, sys, time
from repro.core.replay import TraceReplayer
from repro.core.trace import read_trace_dir
from repro.platforms import bordereau
from repro.smpi import round_robin_deployment

trace = read_trace_dir(sys.argv[1])
rounds = int(sys.argv[2])

def replay_once(collect_metrics):
    calibrated = bordereau(8, ground_truth=False, speed=4e8)
    replayer = TraceReplayer(
        calibrated, round_robin_deployment(calibrated, 8),
        collect_metrics=collect_metrics,
    )
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        result = replayer.replay(trace)
        elapsed = time.process_time() - t0
    finally:
        gc.enable()
    assert result.n_actions == trace.n_actions()
    return elapsed

replay_once(False)   # warm both code paths before measuring
replay_once(True)
base = metered = float("inf")
for _ in range(rounds):
    base = min(base, replay_once(False))
    metered = min(metered, replay_once(True))
print(base, metered)
"""

    def measure(trace_dir):
        procs, rounds = (2, 4) if PAPER_SCALE else (6, 6)
        base = metered = float("inf")
        for _ in range(procs):
            out = subprocess.run(
                [sys.executable, "-c", worker, trace_dir, str(rounds)],
                capture_output=True, text=True, check=True,
                env=dict(os.environ),
            ).stdout.split()
            base = min(base, float(out[0]))
            metered = min(metered, float(out[1]))
        return base, metered

    with tempfile.TemporaryDirectory() as workdir:
        acq = acquire(LuWorkload(config, 8).program, ground_truth, 8,
                      workdir=workdir, measure_application=False)
        from repro.core.trace import read_trace_dir
        trace = read_trace_dir(acq.trace_dir)
        base, metered = benchmark.pedantic(
            measure, args=(acq.trace_dir,), rounds=1, iterations=1)
    overhead = metered / base - 1.0
    n_actions = trace.n_actions()
    emit_table("fig9_metrics_overhead.txt", [
        "Fig. 9 addendum - telemetry overhead on the replay hot path",
        scale_note(),
        "",
        f"{'config':>16} {'CPU time':>12} {'rate':>15}",
        f"{'metrics off':>16} {base:>11.3f}s "
        f"{n_actions / base:>11,.0f} a/s",
        f"{'metrics on':>16} {metered:>11.3f}s "
        f"{n_actions / metered:>11,.0f} a/s",
        "",
        f"overhead with metrics enabled: {100.0 * overhead:+.1f}% "
        f"(budget: < 5%)",
    ])
    assert overhead < 0.05


@pytest.mark.benchmark(group="fig9")
def test_fig9_replay_throughput_kernel(benchmark):
    """A classical pytest-benchmark measurement: repeated replays of one
    fixed capped trace (LU B/8, 2 iterations) to track the replayer's
    per-action cost over time."""
    config = capped(lu_class("B"), CAP_ITERS)
    ground_truth = bordereau()
    with tempfile.TemporaryDirectory() as workdir:
        acq = acquire(LuWorkload(config, 8).program, ground_truth, 8,
                      workdir=workdir, measure_application=False)
        from repro.core.trace import read_trace_dir
        trace = read_trace_dir(acq.trace_dir)

    def replay_once():
        calibrated = bordereau(8, ground_truth=False, speed=4e8)
        replayer = TraceReplayer(
            calibrated, round_robin_deployment(calibrated, 8)
        )
        return replayer.replay(trace).n_actions

    n_actions = benchmark(replay_once)
    assert n_actions == trace.n_actions()


# ---------------------------------------------------------------------------
# Rank-scaling sweep: synthetic LU mix on a congested cluster
# ---------------------------------------------------------------------------

def congested_platform(n_ranks: int) -> Platform:
    """One cluster whose shared backbone saturates under the LU ghost-cell
    exchange, so every in-flight transfer lands in one coupled max-min
    system — the worst case for the solver and the configuration that
    separates the vectorized and reference paths."""
    platform = Platform()
    platform.add_cluster(
        "c", n_ranks, speed=1e9, link_bw=1.25e9, link_lat=1e-6,
        backbone_bw=1.25e10, backbone_lat=1e-6, backbone_sharing="shared",
    )
    return platform


def replay_synthetic(trace_dir: str, n_ranks: int, lmm_mode: str):
    platform = congested_platform(n_ranks)
    replayer = TraceReplayer(
        platform, round_robin_deployment(platform, n_ranks),
        lmm_mode=lmm_mode,
    )
    return replayer.replay(trace_dir)


def run_rank_scaling():
    lines = [
        "Fig. 9 addendum - replay throughput vs rank count "
        "(synthetic LU mix, congested backbone)",
        scale_note(),
        f"iterations/rank: {SWEEP_ITERS} (inorm={SWEEP_INORM}); "
        f"reference solver swept up to {REFERENCE_RANK_CAP} ranks"
        + ("" if PAPER_SCALE else " (full sweep at paper scale)"),
        "",
        f"{'ranks':>6} {'events':>9} {'auto ev/s':>11} {'ref ev/s':>10} "
        f"{'auto/ref':>9} {'vs seed':>8}",
    ]
    series = {}
    for n_ranks in SWEEP_RANKS:
        with tempfile.TemporaryDirectory() as workdir:
            n_actions = write_synthetic_lu_trace(
                workdir, n_ranks, SWEEP_ITERS, cls="B", inorm=SWEEP_INORM)
            auto = replay_synthetic(workdir, n_ranks, "auto")
            assert auto.n_actions == n_actions
            auto_evps = auto.n_actions / auto.wall_seconds
            ref_evps = None
            if n_ranks <= REFERENCE_RANK_CAP or PAPER_SCALE:
                ref = replay_synthetic(workdir, n_ranks, "reference")
                # Identical simulated time is the end-to-end check that
                # the vectorized solver changed nothing but the speed.
                assert abs(ref.simulated_time - auto.simulated_time) < 1e-9
                ref_evps = ref.n_actions / ref.wall_seconds
        seed = SEED_BASELINE_EVPS.get(n_ranks)
        series[n_ranks] = (auto_evps, ref_evps)
        lines.append(
            f"{n_ranks:>6} {n_actions:>9,} {auto_evps:>11,.0f} "
            + (f"{ref_evps:>10,.0f}" if ref_evps else f"{'-':>10}")
            + (f" {auto_evps / ref_evps:>8.1f}x" if ref_evps
               else f" {'-':>9}")
            + (f" {auto_evps / seed:>7.1f}x" if seed else f" {'-':>8}")
        )
    lines += [
        "",
        "seed baselines (commit 3bdd3bb, same traces/platform): "
        + ", ".join(f"{int(v):,} ev/s @ {k}" for k, v in
                    sorted(SEED_BASELINE_EVPS.items())),
    ]
    emit_table("fig9_rank_scaling.txt", lines)
    return series


@pytest.mark.benchmark(group="fig9")
def test_fig9_rank_scaling(benchmark):
    series = benchmark.pedantic(run_rank_scaling, rounds=1, iterations=1)
    # Acceptance bar: >= 3x over the scalar solver at 256+ ranks.  The
    # in-repo reference mode is already faster than the seed's solver
    # (lazy recomputes, single-constraint fast path), so beating it 3x
    # implies beating the recorded seed baseline by a wide margin.
    auto_evps, ref_evps = series[REFERENCE_RANK_CAP]
    assert ref_evps is not None
    assert auto_evps >= 3.0 * ref_evps
    assert auto_evps >= 3.0 * SEED_BASELINE_EVPS[REFERENCE_RANK_CAP]


# ---------------------------------------------------------------------------
# Compiled driver: token vs compiled (cold / warm .tic cache)
# ---------------------------------------------------------------------------

#: Rank counts for the compiled-vs-token comparison (full sweep at paper
#: scale; 1024-rank token replays take minutes otherwise).
COMPILED_RANKS = [64, 256]
#: Compute-record granularity of the comparison traces.  Function-level
#: instrumentation of LU (one compute record per traced routine) emits
#: jacld/blts and jacu/buts once per k-plane per SSOR iteration — for
#: class B (102 planes) that is ~400 compute records per iteration per
#: rank, so modelling it with 128 records per sweep is conservative.
#: This is the trace shape compilation targets: fusion collapses each
#: run into one exec event, while the token driver pays per-record
#: parse + event cost.  (MPI-boundary instrumentation — one record per
#: sweep — is the rank-scaling sweep above; there the solver dominates
#: and both drivers cost the same.)
COMPILED_SPLIT = 128
#: The acceptance bar: warm-cache compiled replay at this rank count
#: must beat the token driver end-to-end by this factor.
COMPILED_SPEEDUP_RANKS = 256
COMPILED_SPEEDUP_MIN = 2.0
#: min-of-N repetitions for the token/warm legs (CPU time, gc off).
COMPILED_REPS = 3


def run_compiled_comparison():
    import gc
    import time

    ranks = SWEEP_RANKS if PAPER_SCALE else COMPILED_RANKS
    lines = [
        "Fig. 9 addendum - compiled replay (repro.core.compile) vs the "
        "token driver",
        scale_note(),
        f"synthetic LU mix, iterations/rank: {SWEEP_ITERS} "
        f"(inorm={SWEEP_INORM}), compute_split={COMPILED_SPLIT} "
        "(function-level instrumentation shape); cold = compile + "
        "replay (no .tic sidecars), warm = replay with sidecars "
        f"present; token/warm are min of {COMPILED_REPS} interleaved "
        "reps (process CPU time, gc off), cold is a single run",
        "",
        f"{'ranks':>6} {'actions':>9} {'token':>9} {'cold':>9} "
        f"{'warm':>9} {'cold x':>7} {'warm x':>7}",
    ]
    series = {}
    for n_ranks in ranks:
        with tempfile.TemporaryDirectory() as workdir:
            n_actions = write_synthetic_lu_trace(
                workdir, n_ranks, SWEEP_ITERS, cls="B", inorm=SWEEP_INORM,
                compute_split=COMPILED_SPLIT)

            def replay_once(compiled):
                platform = congested_platform(n_ranks)
                replayer = TraceReplayer(
                    platform, round_robin_deployment(platform, n_ranks),
                    compiled=compiled,
                )
                start = time.process_time()
                result = replayer.replay(workdir)
                return time.process_time() - start, result

            cold_wall, cold = replay_once("always")  # compiles, writes .tic
            gc.collect()
            gc.disable()
            try:
                token_walls, warm_walls = [], []
                for _ in range(COMPILED_REPS):
                    wall, token = replay_once("never")
                    token_walls.append(wall)
                    wall, warm = replay_once("always")  # loads .tic
                    warm_walls.append(wall)
            finally:
                gc.enable()
            token_wall = min(token_walls)
            warm_wall = min(warm_walls)
            assert token.n_actions == n_actions
            assert cold.n_actions == n_actions
            assert warm.n_actions == n_actions
            # In-run equivalence check: same simulated schedule to 1e-9.
            for compiled in (cold, warm):
                assert abs(compiled.simulated_time - token.simulated_time) \
                    <= 1e-9 * max(1.0, abs(token.simulated_time))
        series[n_ranks] = (token_wall, cold_wall, warm_wall)
        lines.append(
            f"{n_ranks:>6} {n_actions:>9,} "
            f"{token_wall:>8.2f}s {cold_wall:>8.2f}s {warm_wall:>8.2f}s "
            f"{token_wall / cold_wall:>6.2f}x "
            f"{token_wall / warm_wall:>6.2f}x"
        )
    lines += [
        "",
        "cold x / warm x = token CPU time over compiled CPU time "
        "(higher is better); cold - warm = the one-off compile cost",
    ]
    emit_table("fig9_compiled.txt", lines)
    return series


@pytest.mark.benchmark(group="fig9")
def test_fig9_compiled(benchmark):
    series = benchmark.pedantic(run_compiled_comparison, rounds=1,
                                iterations=1)
    token, _cold, warm = series[COMPILED_SPEEDUP_RANKS]
    # Acceptance bar: >= 2x end-to-end with a warm .tic cache at 256
    # ranks (equivalence to 1e-9 is asserted inside the run itself).
    assert token / warm >= COMPILED_SPEEDUP_MIN


# --- parallel drivers: phase batching + sharded replay --------------------
#: Shards for the parallel-driver comparison (contiguous rank bands,
#: forked workers).
PARALLEL_SHARDS = 4
#: Compute records per sweep in the parallel-driver traces.  LU class B
#: function-level instrumentation emits ~400 records per iteration per
#: rank (jacld/blts/jacu/buts per k-plane); 512 is that shape.  The
#: token driver pays per-record parsing; the compiled driver fuses each
#: run into one op, which is where most of the headline speedup lives —
#: the composition notes in the results file spell this out.
PARALLEL_SPLIT = 512
PARALLEL_REPS = 2
#: Acceptance bar: the full driver stack (warm .tic, phase batching,
#: 4 shards) over the token driver at 1024 ranks, on the 1-D chain row.
PARALLEL_SPEEDUP_MIN = 5.0
#: Acceptance bar for the incremental certified re-solve alone: the
#: compiled driver with the incremental solver over the token driver
#: (both single-core, no sharding) at 1024 ranks on the lu-2d
#: row — the trace whose contention waves produce the multi-level
#: max-min solves the patch exists for.
INCREMENTAL_SPEEDUP_MIN = 3.0
#: The incremental solver must not regress the 1-D chain row, whose
#: solves are single-level and patch-hostile (the engine's level gate
#: is what keeps it honest there): wall-clock within this factor of
#: the full-solver compiled driver.
INCREMENTAL_REGRESSION_MAX = 1.25


def decoupled_platform(n_ranks: int) -> Platform:
    """One cluster with per-host links and a fatpipe backbone: flows
    between distinct host pairs share no constraint, which is what lets
    sharded replay cut the rank space into independent bands.  The low
    link latency keeps the post-collective quiet times inside the pack
    compute, so the traces shard at all (see repro.core.shard)."""
    platform = Platform()
    platform.add_cluster(
        "c", n_ranks, speed=1e9, link_bw=1.25e9, link_lat=1e-6,
        backbone_bw=1.25e10, backbone_lat=1e-6, backbone_sharing="fatpipe",
    )
    return platform


def write_chain_trace(directory: str, n_ranks: int, iterations: int,
                      split: int) -> int:
    """A 1-D chain ghost-cell exchange (open boundaries, NOT a ring:
    a periodic wrap makes rank 0 and rank n-1 one hop apart, which
    forces the sharding halo to cover the whole machine).  Per
    iteration: post Irecv for each neighbour, pack + blocking send each
    face, wait, the sweep computes, and a synchronizing allReduce —
    the LU action mix on a 1-D decomposition.  max_dist is 1, so the
    halo guard stays a handful of ranks wide and sharding's coupled
    max-min systems stay band-sized."""
    face = 65536
    n_actions = 0
    for rank in range(n_ranks):
        neighbours = [p for p in (rank - 1, rank + 1) if 0 <= p < n_ranks]
        rows = [f"p{rank} comm_size {n_ranks}"]
        for _ in range(iterations):
            for peer in neighbours:
                rows.append(f"p{rank} Irecv p{peer} {face}")
            for peer in neighbours:
                rows.append(f"p{rank} compute 10000")
                rows.append(f"p{rank} send p{peer} {face}")
            rows.extend(f"p{rank} wait" for _ in neighbours)
            rows.extend(f"p{rank} compute {1e6 / split!r}"
                        for _ in range(split))
            rows.append(f"p{rank} allReduce 40 10")
        with open(os.path.join(directory, f"SG_process{rank}.trace"),
                  "w", encoding="ascii") as handle:
            handle.write("\n".join(rows) + "\n")
        n_actions += len(rows)
    return n_actions


def run_parallel_comparison():
    import gc
    import time

    lines = [
        "Fig. 9 addendum - parallel replay drivers (phase batching + "
        "sharded replay) and the incremental max-min re-solve vs the "
        "token driver",
        scale_note(),
        f"decoupled fatpipe platform (sharding requires it; NOT the "
        "congested platform of fig9_compiled.txt, so columns are not "
        "comparable across the two files); iterations/rank: "
        f"{SWEEP_ITERS}, compute_split={PARALLEL_SPLIT} "
        "(function-level instrumentation shape), warm .tic sidecars",
        f"all legs wall-clock (process CPU time would not see the "
        f"{PARALLEL_SHARDS} forked shard workers), gc off, min of "
        f"{PARALLEL_REPS} interleaved reps (LU rows: 1 rep)",
        "token and warm run the full solver (the pre-incremental "
        "baseline); incr is warm + the certified incremental re-solve "
        "(the default solver); sharded also runs it; the compiled legs "
        "batch synchronizing collectives (automatic when eligible)",
        "",
        f"{'trace':>8} {'ranks':>6} {'actions':>9} {'token':>9} "
        f"{'warm':>9} {'incr':>9} {'sharded':>9} "
        f"{'warm x':>7} {'incr x':>7} {'shard x':>8}",
    ]
    series = {}
    cases = [
        # (label, writer, reps) — the LU 2-D pencil row is the honest
        # counter-example for sharding: at 1024 ranks its stencil reach
        # (max_dist=32) makes the sharding halo swallow most of the
        # band, so sharding does NOT pay there; the 1-D chain row
        # (max_dist=1) is where the sharding acceptance bar lives.  The
        # roles flip for the incremental solver: lu-2d's contention
        # waves are multi-level solves (where the patch pays, and where
        # its acceptance bar lives), chain-1d's are single-level (where
        # the engine's level gate must keep the patch out of the way).
        ("lu-2d",
         lambda d, n: write_synthetic_lu_trace(
             d, n, SWEEP_ITERS, cls="B", inorm=1,
             compute_split=PARALLEL_SPLIT),
         1),
        ("chain-1d",
         lambda d, n: write_chain_trace(d, n, SWEEP_ITERS, PARALLEL_SPLIT),
         PARALLEL_REPS),
    ]
    for label, writer, reps in cases:
        for n_ranks in (256, 1024):
            with tempfile.TemporaryDirectory() as workdir:
                n_actions = writer(workdir, n_ranks)

                def replay_once(**kwargs):
                    platform = decoupled_platform(n_ranks)
                    replayer = TraceReplayer(
                        platform,
                        round_robin_deployment(platform, n_ranks),
                        **kwargs)
                    start = time.perf_counter()
                    result = replayer.replay(workdir)
                    return time.perf_counter() - start, result

                replay_once(compiled="always")  # warm the .tic sidecars
                gc.collect()
                gc.disable()
                try:
                    walls = {"token": [], "warm": [], "incremental": [],
                             "sharded": []}
                    results = {}
                    for _ in range(reps):
                        for leg, kwargs in (
                            ("token", dict(compiled="never",
                                           lmm_incremental=False)),
                            ("warm", dict(compiled="always",
                                          lmm_incremental=False)),
                            ("incremental", dict(compiled="always")),
                            ("sharded", dict(compiled="always",
                                             shards=PARALLEL_SHARDS)),
                        ):
                            wall, result = replay_once(**kwargs)
                            walls[leg].append(wall)
                            results[leg] = result
                finally:
                    gc.enable()
                token = results["token"]
                assert token.n_actions == n_actions
                # In-run equivalence: every leg reproduces the token
                # schedule to 1e-9 — makespan and per-rank times.
                for leg in ("warm", "incremental", "sharded"):
                    result = results[leg]
                    assert result.n_actions == n_actions
                    assert abs(result.simulated_time
                               - token.simulated_time) \
                        <= 1e-9 * max(1.0, abs(token.simulated_time))
                    for a, b in zip(result.per_rank_time,
                                    token.per_rank_time):
                        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
            best = {leg: min(times) for leg, times in walls.items()}
            series[f"{label}@{n_ranks}"] = best
            lines.append(
                f"{label:>8} {n_ranks:>6} {n_actions:>9,} "
                f"{best['token']:>8.2f}s {best['warm']:>8.2f}s "
                f"{best['incremental']:>8.2f}s {best['sharded']:>8.2f}s "
                f"{best['token'] / best['warm']:>6.2f}x "
                f"{best['token'] / best['incremental']:>6.2f}x "
                f"{best['token'] / best['sharded']:>7.2f}x"
            )
    lines += [
        "",
        "Composition notes (honest accounting):",
        "- the bulk of the headline ratio is the columnar compiled",
        "  driver with compute fusion (the 'warm' column): the token",
        "  driver pays per-record parsing on this record-dominated",
        "  trace shape, the compiled driver does not,",
        "- the incr column adds ONLY the certified incremental re-solve",
        "  on top of warm (same driver, same single core): patches",
        "  replace multi-level progressive fillings of the whole",
        "  sharing group with a small certified sub-solve, so it pays",
        "  on lu-2d's contention waves and is gated off (level gate +",
        "  periodic probe) on chain-1d's single-level solves — every",
        "  patch is certified against the max-min optimality conditions",
        "  and falls back, counted, to the full solve otherwise,",
        "- every compiled leg advances each synchronizing collective as",
        "  one dependency graph instead of per-rank generator scheduling",
        "  (phase batching, automatic whenever the replay is eligible),",
        "- sharding's win on one core is WORK reduction, not",
        "  parallelism: each worker's coupled max-min system is its",
        "  band + guard ring instead of the whole machine, so the",
        "  engine's O(group) solve cost per event collapses; with",
        "  multiple cores the forked workers additionally overlap,",
        "- sharding saves no work on the lu-2d row: the 2-D pencil's",
        "  stencil reach (max_dist=32 at 1024 ranks) makes the guard",
        "  ring swallow most of each band, so the workers re-simulate",
        "  nearly the whole machine (total simulated work EXCEEDS one",
        "  sequential replay); any wall-clock gain there comes only",
        "  from the forked workers overlapping on several cores, and",
        "  the row is kept as the counter-example,",
        "- all paths are exact, not approximate: the run asserts 1e-9",
        "  equivalence with the token driver in-process (the",
        "  incremental solver is bit-identical in practice), and",
        "  sharded replay additionally cross-validates its guard",
        "  rings at every window (any drift fails the replay loudly).",
    ]
    emit_table("fig9_parallel.txt", lines)
    return series


@pytest.mark.benchmark(group="fig9")
def test_fig9_parallel(benchmark):
    series = benchmark.pedantic(run_parallel_comparison, rounds=1,
                                iterations=1)
    chain = series["chain-1d@1024"]
    # Acceptance bar: >= 5x end-to-end over the token driver at 1024
    # ranks with warm sidecars, batching, and 4 shards (equivalence to
    # 1e-9 is asserted inside the run itself).
    assert chain["token"] / chain["sharded"] >= PARALLEL_SPEEDUP_MIN
    # Incremental-solver bars: >= 3x over the token driver on lu-2d's
    # multi-level contention waves, and no regression on chain-1d's
    # patch-hostile single-level solves.
    lu = series["lu-2d@1024"]
    assert lu["token"] / lu["incremental"] >= INCREMENTAL_SPEEDUP_MIN
    assert chain["incremental"] <= INCREMENTAL_REGRESSION_MAX * chain["warm"]


_RSS_WORKER = r"""
import resource, sys
from repro.core.replay import TraceReplayer
from repro.simkernel import Platform
from repro.smpi import round_robin_deployment

trace_dir, n_ranks = sys.argv[1], int(sys.argv[2])
platform = Platform()
platform.add_cluster("c", n_ranks, speed=1e9, link_bw=1.25e9,
                     link_lat=1e-6, backbone_bw=1.25e10, backbone_lat=1e-6,
                     backbone_sharing="shared")
replayer = TraceReplayer(platform,
                         round_robin_deployment(platform, n_ranks))
result = replayer.replay(trace_dir)
print(result.n_actions,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _peak_rss_kib(trace_dir: str, n_ranks: int):
    out = subprocess.run(
        [sys.executable, "-c", _RSS_WORKER, trace_dir, str(n_ranks)],
        capture_output=True, text=True, check=True, env=dict(os.environ),
    ).stdout.split()
    return int(out[0]), int(out[1])


@pytest.mark.benchmark(group="fig9")
def test_fig9_streaming_rss(benchmark):
    """Peak RSS of a 1024-rank replay must be flat w.r.t. the per-rank
    event count: traces are streamed (O(ranks) reader state), never
    materialized.  Measured in fresh subprocesses via ``ru_maxrss`` on a
    short and a 7x-longer trace of the same shape."""
    n_ranks = SWEEP_RANKS[-1]
    iters_short, iters_long = 2, 14

    def measure():
        peaks = {}
        for iters in (iters_short, iters_long):
            with tempfile.TemporaryDirectory() as workdir:
                write_synthetic_lu_trace(
                    workdir, n_ranks, iters, cls="B", inorm=SWEEP_INORM)
                peaks[iters] = _peak_rss_kib(workdir, n_ranks)
        return peaks

    peaks = benchmark.pedantic(measure, rounds=1, iterations=1)
    (n_short, rss_short) = peaks[iters_short]
    (n_long, rss_long) = peaks[iters_long]
    emit_table("fig9_streaming_rss.txt", [
        "Fig. 9 addendum - peak RSS vs per-rank event count "
        f"({n_ranks} ranks, streaming ingestion)",
        scale_note(),
        "",
        f"{'events':>9} {'peak RSS':>12} {'KiB/event':>10}",
        f"{n_short:>9,} {rss_short / 1024:>8,.1f} MiB "
        f"{rss_short / n_short:>9.2f}",
        f"{n_long:>9,} {rss_long / 1024:>8,.1f} MiB "
        f"{rss_long / n_long:>9.2f}",
        "",
        f"RSS ratio for {n_long / n_short:.1f}x the events: "
        f"{rss_long / rss_short:.2f}x (flat = streaming works)",
    ])
    assert n_long > 5 * n_short
    assert rss_long < 1.20 * rss_short
