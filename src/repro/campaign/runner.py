"""Campaign execution: a managed fleet of replay workers.

``run_campaign`` turns a :class:`~repro.campaign.spec.CampaignSpec` into
results: each scenario becomes one worker *process* (the replay kernel is
pure Python — processes, not threads, are the unit of parallelism), at
most ``jobs`` of them alive at once, each bounded by the scenario's
``timeout_s`` and retried with exponential backoff up to its
``max_retries``.  A scenario that keeps failing is *recorded* — status,
last traceback — and the campaign moves on; one broken point never kills
a sweep (§6's tables want every cell that can be produced).

Before anything is launched, every scenario is looked up in the
content-addressed :class:`~repro.campaign.cache.ResultCache` (and, under
``--resume``, in the campaign's own run store): a hit is served without
spawning a worker, which is what makes re-running a dozens-of-scenarios
campaign after editing one platform file replay exactly the affected
scenarios.

The worker side, :func:`execute_scenario`, is an ordinary module-level
function over the (picklable) scenario dict, so it is also the unit a
different transport (a batch scheduler, a remote executor) would ship.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
import threading
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass, field, replace as dc_replace
from multiprocessing.connection import wait as conn_wait
from typing import Callable, Dict, List, Optional

from .cache import CACHE_FORMAT_VERSION, ResultCache, scenario_cache_key
from .spec import CampaignSpec, PlatformSpec, Scenario
from .store import (
    STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT, CampaignStore, RunRecord,
)
from .telemetry import CampaignMetrics

__all__ = ["execute_scenario", "run_campaign", "CampaignResult"]

# fork keeps worker start-up at O(page tables) and inherits the parent's
# imports; spawn (macOS/Windows) re-imports this module, which works but
# costs an interpreter start per attempt.
_START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                 else "spawn")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _build_named_platform(pspec: PlatformSpec, ground_truth: bool,
                          speed: Optional[float] = None):
    from ..platforms import bordereau, gdx, grid5000

    factories = {"bordereau": bordereau, "gdx": gdx, "grid5000": grid5000}
    try:
        factory = factories[pspec.name]
    except KeyError:
        raise ValueError(
            f"unknown platform {pspec.name!r}; choose from "
            f"{sorted(factories)}"
        ) from None
    kwargs = {"ground_truth": ground_truth, "cores": pspec.cores}
    if pspec.name == "grid5000":
        if pspec.hosts:
            kwargs.update(n_bordereau=pspec.hosts, n_gdx=pspec.hosts)
    else:
        if pspec.hosts:
            kwargs["n_hosts"] = pspec.hosts
        if speed is not None:
            kwargs["speed"] = speed
    return factory(**kwargs)


def _replay_platform(scenario: Scenario, speed: Optional[float]):
    if scenario.platform.kind == "xml":
        from ..simkernel import load_platform
        # XML platforms carry their own rates; a calibration speed would
        # silently contradict the file, so it is not applied here.
        return load_platform(scenario.platform.xml_path)
    return _build_named_platform(scenario.platform, ground_truth=False,
                                 speed=speed)


def _rank_program(app: str, cls: str, ranks: int, itmax_cap: int = 0):
    from ..apps import CgWorkload, LuWorkload, MgWorkload, ring_program
    if app == "lu":
        config = cls
        if itmax_cap > 0:
            from ..apps.classes import lu_class
            config = dc_replace(lu_class(cls), itmax=itmax_cap,
                                inorm=itmax_cap)
        return LuWorkload(config, ranks).program
    if app == "cg":
        return CgWorkload(cls, ranks).program
    if app == "mg":
        return MgWorkload(cls, ranks).program
    if app == "ring":
        return ring_program
    raise ValueError(f"unknown app {app!r}")


def _resolve_calibration(scenario: Scenario):
    """-> (speed or None, comm model, info dict for the record)."""
    from ..simkernel.pwl import DEFAULT_MPI_MODEL, PiecewiseLinearModel, Segment

    calib = scenario.calibration
    if calib.kind == "nominal":
        return None, DEFAULT_MPI_MODEL, {"kind": "nominal"}
    if calib.kind == "fixed":
        model = DEFAULT_MPI_MODEL
        if calib.segments:
            model = PiecewiseLinearModel([
                Segment(lower, upper, lat, bw)
                for lower, upper, lat, bw in calib.segments
            ])
        speed = calib.speed if calib.speed > 0 else None
        return speed, model, {"kind": "fixed", "speed": calib.speed}
    # auto: the §5 procedure, run by this worker on the scenario's
    # ground-truth platform.  Deterministic per calib_seed.
    from ..core.calibration import calibrate_flop_rate, calibrate_network
    from ..smpi import round_robin_deployment

    if scenario.platform.kind != "named":
        raise ValueError(
            "calibration kind 'auto' needs a named (catalog) platform — "
            "XML platforms have no ground-truth flavour to calibrate on"
        )
    ground = _build_named_platform(scenario.platform, ground_truth=True)
    deployment = round_robin_deployment(ground, calib.calib_ranks)
    program = _rank_program(calib.calib_app, calib.calib_cls,
                            calib.calib_ranks)
    flops = calibrate_flop_rate(ground, deployment, program,
                                runs=calib.runs, jitter=calib.calib_jitter,
                                seed=calib.calib_seed)
    network = calibrate_network(ground, deployment[:2])
    info = {"kind": "auto", "speed": flops.rate,
            "spread": flops.spread, "latency": network.latency}
    return flops.rate, network.model, info


def _strip_metrics(metrics: Optional[dict]) -> Optional[dict]:
    """Telemetry sans the per-rank section (O(ranks) of JSON the campaign
    record does not need; ``repro-replay --metrics`` serves that)."""
    if metrics is None:
        return None
    return {k: v for k, v in metrics.items() if k != "per_rank"}


def execute_scenario(sdict: dict) -> dict:
    """Run one scenario to completion in this process; returns the JSON
    record payload.  Raises on failure — the caller (worker wrapper or a
    direct in-process invocation) owns the failure policy."""
    from ..core.replay import TraceReplayer
    from ..smpi import round_robin_deployment

    scenario = Scenario.from_dict(sdict)
    trace = scenario.trace
    t0 = time.perf_counter()

    if trace.stage_wait_s > 0:
        # Staging from an external resource (batch queue, remote FS).
        time.sleep(trace.stage_wait_s)

    # -- runner-exercise fixtures ---------------------------------------
    if trace.kind == "sleep":
        time.sleep(trace.seconds)
        return {"simulated_time": trace.seconds, "actual_time": None,
                "rel_error": None, "n_actions": 0, "n_ranks": scenario.ranks,
                "replay_wall_seconds": 0.0, "stage_wait_s": trace.stage_wait_s,
                "worker_wall_seconds": time.perf_counter() - t0,
                "calibration": {"kind": "fixture"}, "metrics": None}
    if trace.kind == "fail":
        seen = 0
        if trace.state_path and os.path.exists(trace.state_path):
            with open(trace.state_path) as handle:
                seen = int(handle.read().strip() or 0)
        if trace.state_path:
            with open(trace.state_path, "w") as handle:
                handle.write(str(seen + 1))
        if seen < trace.fail_times:
            raise RuntimeError(
                f"injected failure {seen + 1}/{trace.fail_times}"
            )
        return {"simulated_time": 0.0, "actual_time": None,
                "rel_error": None, "n_actions": 0, "n_ranks": scenario.ranks,
                "replay_wall_seconds": 0.0, "stage_wait_s": trace.stage_wait_s,
                "worker_wall_seconds": time.perf_counter() - t0,
                "calibration": {"kind": "fixture"}, "metrics": None}

    speed, comm_model, calib_info = _resolve_calibration(scenario)
    fault_plan = None
    fault_mode = "abort"
    if scenario.faults is not None:
        fault_plan = scenario.faults.load_plan()
        fault_mode = scenario.faults.mode

    def replay(source, platform):
        replayer = TraceReplayer(
            platform,
            round_robin_deployment(platform, scenario.ranks),
            comm_model=comm_model,
            eager_threshold=scenario.replay.eager_threshold,
            collective_algorithm=scenario.replay.collectives,
            collect_metrics=scenario.replay.collect_metrics,
            lmm_mode=scenario.replay.lmm_mode,
            fault_plan=fault_plan,
            fault_mode=fault_mode,
            compiled=scenario.replay.compiled,
            shards=scenario.replay.shards,
            shard_halo=scenario.replay.shard_halo,
        )
        return replayer.replay(source)

    actual_time: Optional[float] = None
    if trace.kind == "synth":
        platform = _replay_platform(scenario, speed)
        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tdir:
            if trace.family == "lu":
                from ..core.synth import write_synthetic_lu_trace
                write_synthetic_lu_trace(
                    tdir, scenario.ranks, trace.iterations, cls=trace.cls,
                    inorm=trace.inorm, seed=trace.seed, jitter=trace.jitter,
                    compute_split=trace.compute_split,
                )
            else:
                from ..core.synth_ai import write_synthetic_ai_trace
                write_synthetic_ai_trace(
                    trace.family, tdir, scenario.ranks, trace.iterations,
                    seed=trace.seed, jitter=trace.jitter,
                    **trace.generator_params(),
                )
            result = replay(tdir, platform)
    elif trace.kind == "dir":
        platform = _replay_platform(scenario, speed)
        result = replay(trace.path, platform)
    elif trace.kind == "acquire":
        from ..core.acquisition import AcquisitionMode, acquire
        if scenario.platform.kind != "named":
            raise ValueError(
                "trace kind 'acquire' needs a named (catalog) platform "
                "with a ground-truth flavour"
            )
        ground = _build_named_platform(scenario.platform, ground_truth=True)
        program = _rank_program(trace.app, trace.cls, scenario.ranks,
                                itmax_cap=trace.itmax_cap)
        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tdir:
            acq = acquire(
                program, ground, scenario.ranks,
                mode=AcquisitionMode.parse(trace.mode), workdir=tdir,
                papi_jitter=trace.papi_jitter, papi_seed=trace.papi_seed,
                measure_application=scenario.measure_actual,
            )
            platform = _replay_platform(scenario, speed)
            result = replay(acq.trace_dir, platform)
        actual_time = acq.application_time
    else:  # pragma: no cover - TraceSpec.__post_init__ guards kinds
        raise ValueError(f"unsupported trace kind {trace.kind!r}")

    rel_error = None
    if actual_time:
        rel_error = (result.simulated_time - actual_time) / actual_time
    return {
        "simulated_time": result.simulated_time,
        "actual_time": actual_time,
        "rel_error": rel_error,
        "n_actions": result.n_actions,
        "n_ranks": result.n_ranks,
        "replay_wall_seconds": result.wall_seconds,
        "stage_wait_s": trace.stage_wait_s,
        "worker_wall_seconds": time.perf_counter() - t0,
        "calibration": calib_info,
        # Provenance: the options that produced this result, including
        # the exact driver knobs the cache address leaves out.
        "replay_options": asdict(scenario.replay),
        "metrics": _strip_metrics(result.metrics),
        "fault_report": (result.fault_report.to_dict()
                         if result.fault_report is not None else None),
    }


def _scenario_worker(conn, sdict: dict) -> None:
    """Process entry point: run, report through the pipe, exit."""
    # A forked worker inherits the runner's SIGTERM drain handler, which
    # would turn the timeout's terminate() into a no-op; die instead.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        payload = execute_scenario(sdict)
        conn.send(("ok", payload))
    except BaseException as exc:  # noqa: BLE001 - the report IS the point
        conn.send(("error", {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Scheduler side
# ----------------------------------------------------------------------
@dataclass
class _Job:
    scenario: Scenario
    key: str
    attempt: int = 0          # completed attempts so far
    ready_at: float = 0.0     # monotonic instant the job may launch
    #: Why each failed attempt failed: {attempt, status, error_type,
    #: message, backoff_s}.  Lands on the RunRecord as retry_history.
    history: List[dict] = field(default_factory=list)


@dataclass
class _Live:
    job: _Job
    process: multiprocessing.Process
    conn: object
    started: float
    deadline: float


@dataclass
class CampaignResult:
    """What ``run_campaign`` hands back (everything is also on disk)."""

    out_dir: str
    records: Dict[str, RunRecord] = field(default_factory=dict)
    metrics: Optional[CampaignMetrics] = None
    #: True when a SIGTERM drained the campaign early: in-flight
    #: scenarios were finished and recorded, the rest never launched.
    #: The manifest then carries ``interrupted: true`` and the campaign
    #: is resumable (``--resume`` re-runs exactly the missing records).
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records.values())

    @property
    def failed_names(self) -> List[str]:
        return [name for name, r in self.records.items() if not r.ok]


def run_campaign(
    spec: CampaignSpec,
    out_dir: str,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    resume: bool = False,
    cache_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
    on_record: Optional[Callable[[RunRecord], None]] = None,
) -> CampaignResult:
    """Execute a campaign: cache lookups, then the bounded worker fleet.

    ``out_dir`` receives ``runs/`` + ``manifest.json`` (+ the cache,
    unless ``cache_dir`` points elsewhere).  ``resume`` additionally
    serves scenarios whose stored run record already succeeded with the
    same cache key.  ``use_cache=False`` forces every scenario to
    execute (records are still written to the cache for next time).

    ``on_record`` is called with every finalised :class:`RunRecord` the
    moment it is stored — cache-served and executed alike — which is how
    a supervisor (the replay service) streams per-scenario completion
    events to polling clients without waiting for the campaign to end.

    **Graceful shutdown**: when the calling thread is the main thread, a
    ``SIGTERM`` received mid-campaign drains the fleet instead of
    killing it — nothing new launches, in-flight scenarios run to their
    natural end (timeouts still enforced) and are recorded, and the
    manifest is written with ``interrupted: true`` plus the names never
    launched.  A later ``--resume`` run re-executes exactly the missing
    records; everything drained is served from the store.
    """
    jobs = jobs if jobs is not None else spec.jobs
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    emit = log if log is not None else (lambda _msg: None)
    notify = on_record if on_record is not None else (lambda _rec: None)
    store = CampaignStore(out_dir)
    cache = ResultCache(cache_dir or os.path.join(out_dir, "cache"))
    metrics = CampaignMetrics(jobs)
    metrics.scenarios_total = len(spec.scenarios)
    records: Dict[str, RunRecord] = {}
    pending: deque = deque()
    t_start = time.perf_counter()

    # -- graceful-drain plumbing ----------------------------------------
    draining = {"flag": False}

    def _on_sigterm(_signum, _frame):
        if not draining["flag"]:
            draining["flag"] = True
            emit(f"[{spec.name}] SIGTERM: draining — finishing in-flight "
                 f"scenarios, launching nothing new")

    # -- phase 1: serve what is already known ---------------------------
    for scenario in spec.scenarios:
        key = scenario_cache_key(scenario)
        served: Optional[dict] = None
        source = ""
        prior_history: List[dict] = []
        if resume:
            prior = store.read_run(scenario.name)
            if prior is not None and prior.cache_key == key:
                # The store already knows this exact experiment.  Its
                # attempt history is provenance worth keeping whatever
                # happens next — carry it forward (into the served
                # record, or into the re-run that supersedes a stale
                # failure), tagging carried entries as resumed.  The
                # re-run overwrites runs/<name>.json and the manifest
                # entry; records are never duplicated.
                prior_history = [
                    dict(entry, resumed=True)
                    if not entry.get("resumed") else dict(entry)
                    for entry in prior.retry_history
                ]
                if prior.ok:
                    served, source = prior.result, "store"
        if served is None and use_cache:
            cached = cache.get(key)
            if cached is not None and cached.get("status") == STATUS_OK:
                served, source = cached.get("result", {}), "cache"
        if served is not None:
            record = RunRecord(
                name=scenario.name, cache_key=key, status=STATUS_OK,
                attempts=0, cache_hit=True, cache_source=source,
                scenario=scenario.to_dict(), result=served,
                retry_history=prior_history,
            )
            store.write_run(record)
            records[scenario.name] = record
            notify(record)
            metrics.completed += 1
            metrics.cached_hits += 1
            if source == "store":
                metrics.cached_from_store += 1
            emit(f"[{spec.name}] {scenario.name}: served from {source} "
                 f"(key {key[:12]})")
        else:
            pending.append(_Job(scenario, key, history=prior_history))

    # -- phase 2: the fleet ---------------------------------------------
    # The drain handler goes in only around the fleet (phase 1 is quick,
    # pure bookkeeping) and only on the main thread — a campaign driven
    # from a worker thread keeps the process's own SIGTERM semantics.
    prev_handler = None
    handler_installed = False
    if threading.current_thread() is threading.main_thread():
        try:
            prev_handler = signal.signal(signal.SIGTERM, _on_sigterm)
            handler_installed = True
        except ValueError:  # pragma: no cover - embedded interpreters
            pass

    ctx = multiprocessing.get_context(_START_METHOD)
    live: Dict[object, _Live] = {}

    def launch(job: _Job) -> None:
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_scenario_worker,
            args=(send_conn, job.scenario.to_dict()),
            name=f"campaign-{job.scenario.name}",
            daemon=True,
        )
        process.start()
        send_conn.close()
        now = time.monotonic()
        live[recv_conn] = _Live(job, process, recv_conn, now,
                                now + job.scenario.timeout_s)
        metrics.replays_executed += 1
        emit(f"[{spec.name}] {job.scenario.name}: attempt "
             f"{job.attempt} started")

    def record_outcome(job: _Job, status: str, payload: dict,
                       error: Optional[dict], busy: float) -> None:
        metrics.worker_busy_seconds += busy
        scenario = job.scenario
        if status == STATUS_OK:
            cache.put(job.key, {
                "format": CACHE_FORMAT_VERSION,
                "status": STATUS_OK,
                "cache_key": job.key,
                "scenario_name": scenario.name,
                "result": payload,
                "created_at": time.time(),
            })
            record = RunRecord(
                name=scenario.name, cache_key=job.key, status=STATUS_OK,
                attempts=job.attempt, cache_hit=False,
                wall_seconds=busy, scenario=scenario.to_dict(),
                result=payload, retry_history=list(job.history),
            )
            metrics.completed += 1
            emit(f"[{spec.name}] {scenario.name}: ok "
                 f"(simulated {payload.get('simulated_time', 0.0):.4g}s, "
                 f"{busy:.2f}s wall)")
        else:
            # Every failed attempt is remembered — *why* it failed
            # (timeout vs exception) and the backoff it triggered.
            job.history.append({
                "attempt": job.attempt,
                "status": status,
                "error_type": (error or {}).get("type", ""),
                "message": (error or {}).get("message", ""),
                "backoff_s": 0.0,
            })
            # Failed attempt: retry with backoff while budget remains —
            # unless the campaign is draining, in which case a retry
            # would never launch and the failure is recorded as final.
            if job.attempt <= scenario.max_retries and not draining["flag"]:
                delay = spec.retry_backoff * (2 ** (job.attempt - 1))
                job.history[-1]["backoff_s"] = delay
                job.ready_at = time.monotonic() + delay
                pending.append(job)
                metrics.retries += 1
                emit(f"[{spec.name}] {scenario.name}: attempt "
                     f"{job.attempt} {status}; retrying in {delay:.2f}s "
                     f"({scenario.max_retries - job.attempt + 1} left)")
                return
            record = RunRecord(
                name=scenario.name, cache_key=job.key, status=status,
                attempts=job.attempt, cache_hit=False,
                wall_seconds=busy, scenario=scenario.to_dict(),
                error=error, retry_history=list(job.history),
            )
            metrics.failed += 1
            emit(f"[{spec.name}] {scenario.name}: {status} after "
                 f"{job.attempt} attempt(s): "
                 f"{(error or {}).get('message', '')}")
        store.write_run(record)
        records[scenario.name] = record
        notify(record)

    try:
        while pending or live:
            now = time.monotonic()
            # Launch every ready job a free worker slot can take.
            if not draining["flag"] and len(live) < jobs and pending:
                deferred: List[_Job] = []
                while pending and len(live) < jobs:
                    job = pending.popleft()
                    if job.ready_at <= now:
                        job.attempt += 1
                        launch(job)
                    else:
                        deferred.append(job)
                pending.extendleft(reversed(deferred))
            if not live:
                if draining["flag"]:
                    break   # drained: whatever is pending never launches
                # Everything pending is backing off; sleep to the earliest.
                wake = min(job.ready_at for job in pending)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue

            # Wait for the next completion, timeout, or backoff expiry.
            next_deadline = min(entry.deadline for entry in live.values())
            horizon = next_deadline
            ready_jobs = [job.ready_at for job in pending
                          if job.ready_at > now]
            if not draining["flag"] and len(live) < jobs and ready_jobs:
                horizon = min(horizon, min(ready_jobs))
            ready = conn_wait(list(live.keys()),
                              timeout=max(0.0, horizon - time.monotonic()))

            now = time.monotonic()
            for conn in ready:
                entry = live.pop(conn)
                busy = now - entry.started
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    status, payload = "error", {
                        "type": "WorkerDied",
                        "message": (f"worker exited without a result "
                                    f"(exitcode {entry.process.exitcode})"),
                        "traceback": "",
                    }
                conn.close()
                entry.process.join()
                metrics.attempts += 1
                if status == "ok":
                    record_outcome(entry.job, STATUS_OK, payload, None, busy)
                else:
                    record_outcome(entry.job, STATUS_FAILED, {}, payload,
                                   busy)

            # Enforce timeouts on whoever is still running.
            for conn in [c for c, e in live.items() if now >= e.deadline]:
                entry = live.pop(conn)
                entry.process.terminate()
                entry.process.join()
                conn.close()
                busy = now - entry.started
                metrics.attempts += 1
                metrics.timeouts += 1
                record_outcome(entry.job, STATUS_TIMEOUT, {}, {
                    "type": "Timeout",
                    "message": (f"attempt exceeded timeout_s="
                                f"{entry.job.scenario.timeout_s:g}"),
                    "traceback": "",
                }, busy)
    finally:
        if handler_installed:
            signal.signal(signal.SIGTERM, prev_handler)

    interrupted = draining["flag"]
    metrics.wall_seconds = time.perf_counter() - t_start
    # Manifest in spec order, whatever order scenarios finished in.
    ordered = [records[s.name] for s in spec.scenarios if s.name in records]
    extra = None
    if interrupted:
        unlaunched = [s.name for s in spec.scenarios
                      if s.name not in records]
        extra = {"interrupted": True, "unlaunched": unlaunched}
    store.write_manifest(spec.to_dict(), metrics.as_dict(), ordered,
                         extra=extra)
    if interrupted:
        emit(f"[{spec.name}] drained: {metrics.completed} recorded, "
             f"{len(spec.scenarios) - len(records)} never launched; "
             f"manifest is resumable")
    else:
        emit(f"[{spec.name}] done: "
             f"{metrics.completed}/{metrics.scenarios_total} "
             f"ok ({metrics.cached_hits} cached, {metrics.failed} failed) "
             f"in {metrics.wall_seconds:.2f}s, utilization "
             f"{100 * metrics.utilization:.0f}%")
    return CampaignResult(out_dir=out_dir, records=records, metrics=metrics,
                          interrupted=interrupted)
