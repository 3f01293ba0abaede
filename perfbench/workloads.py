"""The benchmark's four workloads.

Each workload builds its inputs from the seed, records (or reuses) the
golden, then either measures the end-to-end metrics with tracing off
(``trace_run=False``) or takes one traced run for the per-layer metrics
(``trace_run=True``).  Every workload reports every metric of
:data:`END_TO_END` or of :data:`PER_LAYER`; a per-layer metric of a
layer the workload does not run reads 0.  Every operation passes
through the :class:`Gate`.  README.md gives each workload's reason and
the layer-to-metric table.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.analysis.wait_states import diagnose_wait_states
from repro.campaign import CampaignSpec, execute_scenario
from repro.core.compile import compile_source
from repro.core.replay import TraceReplayer
from repro.core.synth import synthetic_lu_actions
from repro.core.trace import read_trace_dir
from repro.smpi import round_robin_deployment

from gate import Gate, cached_golden, close, compare_replay
from inputs import (JITTER, replay_platform, whatif_spec, write_chain_trace,
                    write_lu_trace)
from service import LocalService, state_times
from spans import Tracer, instrument, self_times, span_counts
from speed import REFERENCE_S, probe

HERE = os.path.dirname(os.path.abspath(__file__))

#: Input sizes per workload; ``SMOKE_SIZES`` is the seconds-long variant
#: the benchmark's own tests run.
SIZES = {
    "lu2d-contention": {"n_ranks": 1024, "iterations": 1,
                        "compute_split": 64},
    "chain1d-fine": {"n_ranks": 1024, "iterations": 1, "compute_split": 512},
    "diagnose-lu2d": {"n_ranks": 256, "iterations": 1, "compute_split": 512},
    "whatif-service": {"ranks": [64, 128], "iterations": 1},
}
SMOKE_SIZES = {
    "lu2d-contention": {"n_ranks": 64, "iterations": 1, "compute_split": 4},
    "chain1d-fine": {"n_ranks": 64, "iterations": 1, "compute_split": 8},
    "diagnose-lu2d": {"n_ranks": 16, "iterations": 1, "compute_split": 8},
    "whatif-service": {"ranks": [16, 32], "iterations": 1},
}

#: Name and unit of every metric, as BENCHMARK.json lists them.
#: ``op_s`` is the workload's timed operation: a warm replay, a
#: diagnosis or a cold what-if job.
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "ingest.compile_s": "s", "ingest.tic_load_s": "s", "ingest.read_s": "s",
    "ingest.source_actions": "count", "ingest.ops": "count",
    "ingest.fusion_ratio": "ratio",
    "lmm.fill_s": "s", "lmm.fill_calls": "count", "lmm.patch_s": "s",
    "lmm.patch_calls": "count", "lmm.patch_accept_ratio": "ratio",
    "lmm.levels_per_solve": "ratio", "lmm.group_size_mean": "count",
    "engine.self_s": "s", "engine.events": "count",
    "engine.recomputes": "count", "engine.idle_advances": "count",
    "engine.us_per_event": "us",
    "replay.traced_s": "s", "replay.timed_s": "s",
    "analysis.wait_states_s": "s", "analysis.pairs": "count",
    "campaign.wall_s": "s", "campaign.utilization": "ratio",
    "campaign.replays_executed": "count", "campaign.replay_s_sum": "s",
    "campaign.scenario_overhead_s": "s", "cache.hit_ratio": "ratio",
    "service.queue_wait_s": "s", "service.staging_s": "s",
    "service.overhead_s": "s", "service.cached_job_s": "s",
    "service.cached_overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Set-up repetitions per run (``setup_s`` is their median).
SETUP_REPS = 5
#: Fewest timed repetitions of a run (one fresh process repeats the
#: operation until ``--seconds`` have passed).
MIN_REPS = 2
#: Identical resubmissions per service iteration, and the fewest
#: iterations (each starts a fresh server for a cold cache).
CACHED_REPS = 2
MIN_SERVICE_ITERATIONS = 2
#: Scheduler tick of the benchmark's service (its default is 0.2 s,
#: which would quantise a sub-second cached job to whole ticks).
SERVICE_TICK_S = 0.05

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace_run: bool
    smoke: bool
    src_dir: str
    run_dir: str      # scratch of this run, removed when it ends
    cache_dir: str    # goldens, kept across runs
    gate: Gate
    tracer: Tracer
    #: Every sample behind each end-to-end median, for the report.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Host seconds behind each reference-second metric, and every
    #: machine-speed probe time of the run (see speed.py).
    host: Dict[str, List[float]] = field(default_factory=dict)
    probes: List[float] = field(default_factory=list)

    def measured(self, name: str, values: List[float], unit: str):
        self.samples[name] = list(values)
        return median(values), unit

    def timed(self, name: str, wall: float, before: float,
              after: float) -> None:
        """One host-time sample, converted to reference seconds by the
        probes timed just before and just after it."""
        self.host.setdefault(name, []).append(wall)
        self.samples.setdefault(name, []).append(
            wall * REFERENCE_S / ((before + after) / 2))
        self.probes += [before, after]

    def reference_time(self, name: str):
        """The median of the samples of ``timed(name, ...)``."""
        return median(self.samples.get(name, [])), "s"

    @property
    def size(self) -> Dict:
        return (SMOKE_SIZES if self.smoke else SIZES)[self.workload]

    def golden(self, compute: Callable[[], Dict]) -> Dict:
        params = json.dumps(self.size, sort_keys=True, separators=(",", ":"))
        key = f"{self.workload}-seed{self.seed}-" + "".join(
            ch for ch in params if ch.isalnum() or ch in "_-")
        return cached_golden(self.cache_dir, key, compute)


def median(values: List[float]) -> float:
    if not values:
        raise RuntimeError("no successful measurement")
    return statistics.median(values)


# ---------------------------------------------------------------------------
# Replay workloads: lu2d-contention and chain1d-fine
# ---------------------------------------------------------------------------
def oracle_replay(source, n_ranks: int, timed: bool = False):
    """The oracle configuration: token driver, full max-min solve."""
    platform = replay_platform(n_ranks)
    replayer = TraceReplayer(
        platform, round_robin_deployment(platform, n_ranks),
        compiled="never", lmm_incremental=False, record_timed_trace=timed)
    return replayer.replay(source)


def _replay_golden(trace_dir: str, n_ranks: int, n_actions: int) -> Dict:
    result = oracle_replay(trace_dir, n_ranks)
    if result.n_actions != n_actions:
        raise RuntimeError(f"oracle replayed {result.n_actions} actions, "
                           f"generator wrote {n_actions}")
    return {"n_actions": n_actions, "simulated_time": result.simulated_time,
            "per_rank_time": result.per_rank_time}


def _remove_sidecars(trace_dir: str) -> None:
    for path in glob.glob(os.path.join(trace_dir, "*.tic")):
        os.remove(path)


def _cold_compile(ctx: Context, trace_dir: str, n_actions: int) -> float:
    _remove_sidecars(trace_dir)
    start = time.perf_counter()
    _, report = compile_source(trace_dir)
    end = time.perf_counter()
    ctx.tracer.add("ingest.compile", start, end)
    ctx.gate.record("cold compile", [] if report.n_src == n_actions else
                    [f"compiled {report.n_src} actions, wrote {n_actions}"])
    return end - start


def _gate_result(ctx: Context, what: str, golden: Dict, result: Dict) -> None:
    problems = compare_replay(golden, result["simulated_time"],
                              result["per_rank_time"], result["n_actions"])
    if "n_pairs" in golden and result.get("n_pairs") != golden["n_pairs"]:
        problems.append(f"{result.get('n_pairs')} wait-state pairs != "
                        f"{golden['n_pairs']}")
    ctx.gate.record(what, problems)


def _timed_child(ctx: Context, mode: str, trace_dir: str, n_ranks: int,
                 golden: Dict) -> float:
    """Repeat ``mode`` in a fresh process for ``ctx.seconds``, recording
    every repetition as an ``op_s`` sample; returns the process's peak
    RSS."""
    request = json.dumps({"mode": mode, "trace_dir": trace_dir,
                          "n_ranks": n_ranks, "seconds": ctx.seconds,
                          "min_reps": MIN_REPS})
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), request],
        capture_output=True, text=True, timeout=170)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{mode} process exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}") from None
    for error in out["errors"]:
        ctx.gate.record(mode, [error])
    for rep in out["reps"]:
        _gate_result(ctx, mode, golden, rep["result"])
        ctx.timed("op_s", rep["wall"], *rep["probes"])
    return out["peak_rss_mib"]


def _timed_setup(ctx: Context, once: Callable[[], float]) -> None:
    """``SETUP_REPS`` ``setup_s`` samples, each between two probes."""
    before = probe()
    for _ in range(SETUP_REPS):
        wall = once()
        after = probe()
        ctx.timed("setup_s", wall, before, after)
        before = after


def _timed_metrics(ctx: Context, rss: float) -> Metrics:
    return {"op_s": ctx.reference_time("op_s"),
            "setup_s": ctx.reference_time("setup_s"),
            "peak_rss_mib": (rss, "MiB")}


def replay_workload(ctx: Context, writer) -> Metrics:
    size = ctx.size
    n_ranks = size["n_ranks"]
    trace_dir = os.path.join(ctx.run_dir, "trace")
    n_actions = writer(trace_dir, n_ranks, size["iterations"],
                       size["compute_split"], ctx.seed)
    golden = ctx.golden(lambda: _replay_golden(trace_dir, n_ranks, n_actions))
    if ctx.trace_run:
        return _traced_replay(ctx, trace_dir, n_ranks, n_actions, golden)
    _timed_setup(ctx, lambda: _cold_compile(ctx, trace_dir, n_actions))
    rss = _timed_child(ctx, "replay", trace_dir, n_ranks, golden)
    return _timed_metrics(ctx, rss)


def _engine_counts(metrics: Dict, n_actions: int) -> Metrics:
    engine = metrics["engine"]
    out: Metrics = {
        "ingest.source_actions": (n_actions, "count"),
        "engine.events": (engine["events_popped"], "count"),
        "engine.recomputes": (engine["sharing_recomputes"], "count"),
        "engine.idle_advances": (engine["idle_advances"], "count"),
        "lmm.group_size_mean": (engine["component_activities_mean"],
                                "count"),
    }
    if engine["maxmin_calls"]:
        out["lmm.levels_per_solve"] = (
            engine["maxmin_iterations"] / engine["maxmin_calls"], "ratio")
    attempts = engine["incremental_patches"] + engine["patch_fallbacks"]
    if attempts:
        out["lmm.patch_accept_ratio"] = (
            engine["incremental_patches"] / attempts, "ratio")
    ops = metrics["replay"]["ops_compiled"]
    if ops:
        out["ingest.ops"] = (ops, "count")
        out["ingest.fusion_ratio"] = (n_actions / ops, "ratio")
    return out


def _layer_split(tracer: Tracer, span_id: int) -> Metrics:
    """Ingest, LMM and engine self times of one traced replay span; they
    sum to the span's duration."""
    spans = tracer.subtree(span_id)
    selfs = self_times(spans)
    counts = span_counts(spans)
    root = tracer.name_of(span_id)
    out: Metrics = {
        "lmm.fill_s": (selfs.get("lmm.fill", 0.0), "s"),
        "lmm.fill_calls": (counts.get("lmm.fill", 0), "count"),
        "lmm.patch_s": (selfs.get("lmm.patch", 0.0), "s"),
        "lmm.patch_calls": (counts.get("lmm.patch", 0), "count"),
        "engine.self_s": (selfs[root], "s"),
    }
    if "ingest.tic_load" in selfs:
        out["ingest.tic_load_s"] = (selfs["ingest.tic_load"], "s")
    return out


def _traced_replay(ctx: Context, trace_dir: str, n_ranks: int,
                   n_actions: int, golden: Dict) -> Metrics:
    tracer = ctx.tracer
    compile_s = _cold_compile(ctx, trace_dir, n_actions)
    plain: List[float] = []
    traced: List[Tuple[int, Dict]] = []
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline or not traced:
        platform = replay_platform(n_ranks)
        deployment = round_robin_deployment(platform, n_ranks)
        start = time.perf_counter()
        result = TraceReplayer(platform, deployment).replay(trace_dir)
        plain.append(time.perf_counter() - start)
        _gate_result(ctx, "replay", golden, vars(result))
        # A fresh platform: route caches warmed by the untraced replay
        # would make the traced one cheaper.
        platform = replay_platform(n_ranks)
        with instrument(tracer):
            replayer = TraceReplayer(
                platform, round_robin_deployment(platform, n_ranks),
                collect_metrics=True)
            with tracer.span("replay") as span_id:
                result = replayer.replay(trace_dir)
        _gate_result(ctx, "traced replay", golden, vars(result))
        traced.append((span_id, result.metrics))
    span_id, metrics = sorted(
        traced, key=lambda item: tracer.duration(item[0]))[len(traced) // 2]
    out = _layer_split(tracer, span_id)
    out.update(_engine_counts(metrics, n_actions))
    span_s = tracer.duration(span_id)
    out["ingest.compile_s"] = (compile_s, "s")
    out["replay.traced_s"] = (span_s, "s")
    out["engine.us_per_event"] = (
        1e6 * out["engine.self_s"][0] / max(1, out["engine.events"][0]),
        "us")
    out["trace.overhead_frac"] = (median(
        [tracer.duration(s) / p for (s, _), p in zip(traced, plain)]) - 1.0,
        "ratio")
    return out


# ---------------------------------------------------------------------------
# diagnose-lu2d
# ---------------------------------------------------------------------------
def _diagnose_golden(trace_dir: str, n_ranks: int, n_actions: int) -> Dict:
    trace = read_trace_dir(trace_dir)
    result = oracle_replay(trace, n_ranks, timed=True)
    if result.n_actions != n_actions:
        raise RuntimeError(f"oracle replayed {result.n_actions} actions, "
                           f"generator wrote {n_actions}")
    report = diagnose_wait_states(trace, result.timed_trace)
    return {"n_actions": n_actions, "simulated_time": result.simulated_time,
            "per_rank_time": result.per_rank_time, "n_pairs": report.n_pairs}


def diagnose_workload(ctx: Context) -> Metrics:
    size = ctx.size
    n_ranks = size["n_ranks"]
    trace_dir = os.path.join(ctx.run_dir, "trace")
    n_actions = write_lu_trace(trace_dir, n_ranks, size["iterations"],
                               size["compute_split"], ctx.seed)
    golden = ctx.golden(
        lambda: _diagnose_golden(trace_dir, n_ranks, n_actions))
    if ctx.trace_run:
        return _traced_diagnose(ctx, trace_dir, n_ranks, n_actions, golden)

    def read_once() -> float:
        start = time.perf_counter()
        trace = read_trace_dir(trace_dir)
        wall = time.perf_counter() - start
        ctx.gate.record("read", [] if trace.n_actions() == n_actions else
                        [f"read {trace.n_actions()} actions"])
        return wall

    _timed_setup(ctx, read_once)
    rss = _timed_child(ctx, "diagnose", trace_dir, n_ranks, golden)
    return _timed_metrics(ctx, rss)


def _traced_diagnose(ctx: Context, trace_dir: str, n_ranks: int,
                     n_actions: int, golden: Dict) -> Metrics:
    tracer = ctx.tracer
    plain: List[float] = []
    traced: List[Tuple[int, int, int, Dict]] = []
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline or not traced:
        platform = replay_platform(n_ranks)
        deployment = round_robin_deployment(platform, n_ranks)
        trace = read_trace_dir(trace_dir)
        start = time.perf_counter()
        result = TraceReplayer(platform, deployment,
                               record_timed_trace=True).replay(trace)
        plain.append(time.perf_counter() - start)
        report = diagnose_wait_states(trace, result.timed_trace)
        _gate_result(ctx, "diagnose", golden,
                     dict(vars(result), n_pairs=report.n_pairs))
        del trace, result
        platform = replay_platform(n_ranks)
        with tracer.span("diagnose") as root_id:
            with tracer.span("ingest.read") as read_id:
                trace = read_trace_dir(trace_dir)
            with instrument(tracer):
                replayer = TraceReplayer(
                    platform, round_robin_deployment(platform, n_ranks),
                    record_timed_trace=True, collect_metrics=True)
                with tracer.span("replay.timed") as replay_id:
                    result = replayer.replay(trace)
            with tracer.span("analysis.wait_states"):
                report = diagnose_wait_states(trace, result.timed_trace)
        _gate_result(ctx, "traced diagnose", golden,
                     dict(vars(result), n_pairs=report.n_pairs))
        traced.append((root_id, read_id, replay_id, result.metrics))
        del trace, result
    root_id, read_id, replay_id, metrics = sorted(
        traced, key=lambda item: tracer.duration(item[0]))[len(traced) // 2]
    out = _layer_split(tracer, replay_id)
    out.update(_engine_counts(metrics, n_actions))
    selfs = self_times(tracer.subtree(root_id))
    out["ingest.read_s"] = (tracer.duration(read_id), "s")
    out["replay.timed_s"] = (tracer.duration(replay_id), "s")
    out["analysis.wait_states_s"] = (selfs["analysis.wait_states"], "s")
    out["analysis.pairs"] = (golden["n_pairs"], "count")
    out["engine.us_per_event"] = (
        1e6 * out["engine.self_s"][0] / max(1, out["engine.events"][0]),
        "us")
    out["trace.overhead_frac"] = (median(
        [tracer.duration(r) / p for (_, _, r, _), p in zip(traced, plain)])
        - 1.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# whatif-service
# ---------------------------------------------------------------------------
def _generator_count(ranks: int, trace: Dict) -> int:
    return sum(1 for rank in range(ranks)
               for _ in synthetic_lu_actions(
                   rank, ranks, trace["iterations"], trace["cls"],
                   trace["inorm"], seed=trace["seed"], jitter=JITTER))


def _campaign_golden(spec: Dict) -> Dict:
    """Per scenario: the generator's action count and the oracle's
    makespan (token driver, reference max-min solve)."""
    golden = {}
    for scenario in CampaignSpec.from_dict(spec).scenarios:
        sdict = scenario.to_dict()
        sdict["replay"].update(compiled="never", lmm_mode="reference")
        payload = execute_scenario(sdict)
        n_actions = _generator_count(scenario.ranks, sdict["trace"])
        if payload["n_actions"] != n_actions:
            raise RuntimeError(f"{scenario.name}: oracle replayed "
                               f"{payload['n_actions']} of {n_actions}")
        golden[scenario.name] = {"simulated_time": payload["simulated_time"],
                                 "n_actions": n_actions}
    return golden


def _check_cold_job(doc: Dict, results: Dict, golden: Dict) -> List[str]:
    problems = [] if doc["state"] == "DONE" else [
        f"job ended {doc['state']}: {doc.get('error')}"]
    records = {r["name"]: r for r in results["records"]}
    if sorted(records) != sorted(golden):
        problems.append(f"records {sorted(records)} != {sorted(golden)}")
    for name, record in records.items():
        expect = golden.get(name)
        result = record.get("result") or {}
        if record["status"] != "ok" or expect is None:
            problems.append(f"{name}: {record['status']}")
        elif result["n_actions"] != expect["n_actions"] or not close(
                result["simulated_time"], expect["simulated_time"]):
            problems.append(f"{name}: {result['simulated_time']!r} over "
                            f"{result['n_actions']} actions != golden")
    return problems


def _check_cached_job(doc: Dict, results: Dict, cold: Dict) -> List[str]:
    problems = [] if doc["state"] == "DONE" else [
        f"job ended {doc['state']}: {doc.get('error')}"]
    records = {r["name"]: r for r in results["records"]}
    if sorted(records) != sorted(cold):
        problems.append("resubmission returned other scenarios")
    for name, record in records.items():
        if not record.get("cache_hit"):
            problems.append(f"{name}: not served from the cache")
        if name in cold and record.get("result") != cold[name]["result"]:
            problems.append(f"{name}: result differs from the cold job")
    return problems


def _job_split(doc: Dict) -> Dict[str, float]:
    """Job latency from the server's timestamps, and the part of it that
    is neither queue wait, staging nor the campaign run itself."""
    times = state_times(doc)
    job_s = doc["finished_at"] - doc["submitted_at"]
    queue = times["STAGING"] - doc["submitted_at"]
    staging = times["RUNNING"] - times["STAGING"]
    overhead = job_s - doc["metrics"]["wall_seconds"] - queue - staging
    return {"job_s": job_s, "queue": queue, "staging": staging,
            "overhead": overhead}


def _cold_layers(doc: Dict, records: List[Dict]) -> Dict[str, float]:
    m = doc["metrics"]
    split = _job_split(doc)
    return {
        "campaign.wall_s": m["wall_seconds"],
        "campaign.utilization": m["worker_utilization"],
        "campaign.replays_executed": m["replays_executed"],
        "campaign.replay_s_sum": sum(
            r["result"]["replay_wall_seconds"] for r in records),
        "campaign.scenario_overhead_s": statistics.mean(
            r["wall_seconds"] - r["result"]["replay_wall_seconds"]
            for r in records),
        "service.queue_wait_s": split["queue"],
        "service.staging_s": split["staging"],
        "service.overhead_s": split["overhead"],
    }


def _cached_layers(doc: Dict) -> Dict[str, float]:
    m = doc["metrics"]
    split = _job_split(doc)
    return {"cache.hit_ratio": m["cached_hits"] / m["scenarios_total"],
            "service.cached_job_s": split["job_s"],
            "service.cached_overhead_s": split["overhead"]}



def _record_job_spans(tracer: Tracer, doc: Dict, records: List[Dict],
                      kind: str) -> None:
    """Spans from the server's own timestamps (epoch seconds)."""
    times = state_times(doc)
    job = tracer.add(f"service.{kind}_job", doc["submitted_at"],
                     doc["finished_at"])
    tracer.add("service.queue", doc["submitted_at"], times["STAGING"], job)
    tracer.add("service.staging", times["STAGING"], times["RUNNING"], job)
    running = tracer.add("service.running", times["RUNNING"],
                         doc["finished_at"], job)
    for record in records:
        tracer.add("campaign.scenario",
                   record["finished_at"] - record["wall_seconds"],
                   record["finished_at"], running)


def _start_stop(ctx: Context) -> float:
    """Start a server on a fresh root and stop it; returns the seconds
    until it answered ``/health``."""
    root = tempfile.mkdtemp(prefix="setup-", dir=ctx.run_dir)
    service = LocalService(ctx.src_dir, os.path.join(root, "service"),
                           tick_s=SERVICE_TICK_S)
    try:
        return service.start()
    finally:
        ctx.gate.record("service start and teardown", service.stop())


def service_workload(ctx: Context) -> Metrics:
    size = ctx.size
    spec = whatif_spec(ctx.seed, size["iterations"], size["ranks"],
                       jobs=min(2, os.cpu_count() or 1))
    golden = ctx.golden(lambda: _campaign_golden(spec))
    gate = ctx.gate
    if not ctx.trace_run:
        _timed_setup(ctx, lambda: _start_stop(ctx))
    job_s, rss = [], []
    layers: Dict[str, List[float]] = {}
    deadline = time.perf_counter() + ctx.seconds
    iteration = 0
    while (time.perf_counter() < deadline
           or iteration < MIN_SERVICE_ITERATIONS):
        iteration += 1
        service = LocalService(
            ctx.src_dir, os.path.join(ctx.run_dir, f"service-{iteration}"),
            tick_s=SERVICE_TICK_S)
        try:
            service.start()
            doc, results = service.run_job(spec)
            if not gate.record("cold job",
                               _check_cold_job(doc, results, golden)):
                continue
            records = results["records"]
            job_s.append(_job_split(doc)["job_s"])
            _record_job_spans(ctx.tracer, doc, records, "cold")
            for name, value in _cold_layers(doc, records).items():
                layers.setdefault(name, []).append(value)
            cold = {r["name"]: r for r in records}
            for _ in range(CACHED_REPS):
                doc, results = service.run_job(spec)
                if gate.record("cached job",
                               _check_cached_job(doc, results, cold)):
                    _record_job_spans(ctx.tracer, doc, results["records"],
                                      "cached")
                    for name, value in _cached_layers(doc).items():
                        layers.setdefault(name, []).append(value)
            rss.append(service.peak_rss_mib())
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            gate.error(f"service iteration {iteration}", exc)
        finally:
            gate.record(f"service teardown {iteration}", service.stop())
    if ctx.trace_run:
        return {name: (median(values), PER_LAYER[name])
                for name, values in layers.items()}
    # Host seconds: the job runs in forked processes on both cores, and
    # probes timed in this process around it tracked it worse than no
    # conversion (ten-seed spread 0.153 converted, 0.050 in host seconds).
    return {"op_s": ctx.measured("op_s", job_s, "s"),
            "setup_s": ctx.reference_time("setup_s"),
            "peak_rss_mib": ctx.measured("peak_rss_mib", rss, "MiB")}


def run_workload(ctx: Context) -> Metrics:
    if ctx.workload == "lu2d-contention":
        return replay_workload(ctx, write_lu_trace)
    if ctx.workload == "chain1d-fine":
        return replay_workload(ctx, write_chain_trace)
    if ctx.workload == "diagnose-lu2d":
        return diagnose_workload(ctx)
    if ctx.workload == "whatif-service":
        return service_workload(ctx)
    raise ValueError(f"unknown workload {ctx.workload!r}")


WORKLOADS = tuple(SIZES)
