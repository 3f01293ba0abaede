"""The time-independent trace replay tool (§5).

Inputs, as in the paper's Fig. 4: the time-independent trace(s), a
platform description, and a deployment (rank -> host).  Output: the
simulated execution time (and optionally a *timed trace* with the
simulated start/end instant of every action).

The replayer registers one handler per action keyword — the analogue of
``MSG_action_register`` — and drives one simulated process per rank over
its action stream — the analogue of ``MSG_action_trace_run``.  Handlers
receive the raw token list of the trace line (MSG passes an
``xbt_dynar_t`` of strings, §5), so user-defined actions can be plugged
in with :meth:`TraceReplayer.register_action`.

Replay semantics:

* ``compute v`` — execute ``v`` flops on the rank's host.
* ``send/recv`` — blocking point-to-point, matched by source rank through
  the kernel's eager/rendezvous protocol (the paper's MPI_Send mode
  switch).
* ``Isend`` — detached send: the flow is injected, nothing is awaited.
* ``Irecv``/``wait`` — Irecv posts a receive into the rank's pending
  queue; ``wait`` completes the *oldest* pending one (SimGrid's replay
  does the same, and the extractor mirrors it).
* ``bcast/reduce/allReduce/barrier`` — decomposed into point-to-point
  messages over binomial trees rooted at process 0 (§3), or flat trees
  with ``collective_algorithm="flat"`` (the ablation of the monolithic-
  collective simplification discussed in §2).
* ``comm_size`` — declares the communicator; required before the first
  collective (§3).
"""

from __future__ import annotations

import gzip
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from ..faults.plan import FaultPlan, LinkDegrade, LinkDown
from ..faults.report import FaultReport, RankFailure, build_fault_report
from ..simkernel import CommSystem, DeadlockError, Engine, Host, Platform, Telemetry
from ..simkernel.lmm import LMM_MODES
from ..simkernel.pwl import DEFAULT_MPI_MODEL, PiecewiseLinearModel
from ..smpi import collectives
from .batch import CollectiveBatcher, batch_eligible
from .binfmt import NAME_OF_OPCODE
from .compile import (
    OP_ALLGATHER,
    OP_ALLREDUCE,
    OP_ALLTOALL,
    OP_ALLTOALLV,
    OP_BARRIER,
    OP_BCAST,
    OP_COMM_SIZE,
    OP_COMPUTE,
    OP_IRECV,
    OP_ISEND,
    OP_RECV,
    OP_REDUCE,
    OP_REDUCESCATTER,
    OP_SEND,
    OP_WAIT,
    CompiledProgram,
    _check_splits,
    compile_source,
    fuse_computes,
    op_tokens,
)
from .trace import InMemoryTrace

__all__ = ["TraceReplayer", "ReplayResult", "check_replay_options",
           "COLLECTIVE_ALGORITHMS", "COMPILED_MODES"]

#: Collective decompositions (``collective_algorithm``, ``--collectives``,
#: ``ReplaySpec.collectives``).
COLLECTIVE_ALGORITHMS = ("binomial", "flat")
#: Replay drivers (``compiled``, ``--compiled/--no-compiled``,
#: ``ReplaySpec.compiled``): "auto" compiles path sources, "always"
#: forces compilation, "never" forces the token path.
COMPILED_MODES = ("auto", "always", "never")


def check_replay_options(collectives: str, lmm_mode: str, compiled: str,
                         shards: int, shard_halo: int,
                         record_timed_trace: bool = False) -> None:
    """Raise :class:`ValueError` for an unknown replay option value or a
    combination the replayer cannot run.  The one validator behind
    :class:`TraceReplayer`, ``repro-replay`` and campaign ``ReplaySpec``,
    so a bad option fails where it is written, not inside a worker."""
    for name, value, allowed in (
            ("collective algorithm", collectives, COLLECTIVE_ALGORITHMS),
            ("lmm_mode", lmm_mode, LMM_MODES),
            ("compiled mode", compiled, COMPILED_MODES)):
        if value not in allowed:
            raise ValueError(f"unknown {name} {value!r}; use one of "
                             f"{allowed}")
    if shards < 0 or shard_halo < 0:
        raise ValueError("shards and shard_halo must be >= 0")
    if shards > 1:
        if record_timed_trace:
            raise ValueError(
                "sharded replay does not record timed traces (the "
                "compiled driver it builds on refuses them); use "
                "shards=0 with record_timed_trace"
            )
        if compiled == "never":
            raise ValueError(
                "sharded replay runs on the compiled driver; "
                "shards>1 is incompatible with compiled='never'"
            )
        if collectives != "binomial":
            raise ValueError(
                "sharded replay synchronizes shards at binomial "
                "collectives; use collective_algorithm='binomial'"
            )


@dataclass
class ReplayResult:
    """Outcome of one replay: the paper's 'simulated execution time'."""

    simulated_time: float
    per_rank_time: List[float]
    n_ranks: int
    n_actions: int
    wall_seconds: float          # how long the replay itself took (Fig. 9)
    timed_trace: List[tuple] = field(default_factory=list)
    # Telemetry document (engine / comm / replay / per_rank sections);
    # None unless the replayer was built with collect_metrics=True.
    metrics: Optional[Dict] = None
    # Failure provenance (who died, who it blocked, lost progress);
    # None unless the replayer was built with a fault plan.
    fault_report: Optional[FaultReport] = None

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (f"ReplayResult(simulated={self.simulated_time:.4f}s, "
                f"ranks={self.n_ranks}, actions={self.n_actions}, "
                f"replay_wall={self.wall_seconds:.2f}s)")


class _RankContext:
    """Per-rank replay state handed to action handlers."""

    __slots__ = ("rank", "host", "pending_irecvs", "declared_size",
                 "coll_seq", "n_actions", "current_action")

    def __init__(self, rank: int, host: Host) -> None:
        self.rank = rank
        self.host = host
        self.pending_irecvs = deque()
        self.declared_size: Optional[int] = None
        self.coll_seq = 0
        self.n_actions = 0
        # Raw token list of the action being replayed; what the deadlock
        # report names when this rank is stuck.
        self.current_action: Optional[List[str]] = None

    def action_tokens(self) -> Optional[List[str]]:
        """Token list of the in-flight action (diagnostics only)."""
        return self.current_action

    # Adapter protocol for the collective algorithms ---------------------
    @property
    def size(self) -> int:
        return self.declared_size


class _CompiledRankContext(_RankContext):
    """Rank state for the compiled driver: instead of carrying the live
    token list (which the compiled path never materializes), it carries
    the op index and formats tokens back lazily — only when a deadlock
    or fault report actually needs to name the stuck action."""

    __slots__ = ("prog", "op_index")

    def __init__(self, rank: int, host: Host, prog: CompiledProgram) -> None:
        super().__init__(rank, host)
        self.prog = prog
        self.op_index: Optional[int] = None

    def action_tokens(self) -> Optional[List[str]]:
        if self.op_index is None:
            return None
        return op_tokens(self.prog, self.op_index)


class TraceReplayer:
    """Replays time-independent traces on a simulated platform."""

    #: Maximum lines the merged-file demux will buffer for any single
    #: rank before refusing (see :meth:`_merged_stream`).  Class-level so
    #: callers with genuinely skewed-but-small traces can raise it.
    merged_spill_limit = 1_000_000

    def __init__(
        self,
        platform: Platform,
        deployment: Sequence[Host],
        comm_model: PiecewiseLinearModel = DEFAULT_MPI_MODEL,
        eager_threshold: float = 65536,
        collective_algorithm: str = "binomial",
        record_timed_trace: bool = False,
        collect_metrics: bool = False,
        lmm_mode: str = "auto",
        fault_plan: Optional[FaultPlan] = None,
        fault_mode: str = "abort",
        compiled: str = "auto",
        shards: int = 0,
        shard_halo: int = 0,
        lmm_incremental: bool = True,
    ) -> None:
        if not deployment:
            raise ValueError("deployment must map at least one rank")
        check_replay_options(collective_algorithm, lmm_mode, compiled,
                             shards, shard_halo, record_timed_trace)
        if fault_mode not in ("abort", "checkpoint-restart"):
            raise ValueError(
                f"unknown fault mode {fault_mode!r}; use 'abort' or "
                "'checkpoint-restart'"
            )
        if fault_plan is not None and fault_mode == "checkpoint-restart":
            if fault_plan.checkpoint is None:
                raise ValueError(
                    "checkpoint-restart mode needs a 'checkpoint' block "
                    "(interval/cost/restart) in the fault plan"
                )
            if any(isinstance(e, LinkDown) for e in fault_plan.events):
                raise ValueError(
                    "checkpoint-restart mode models host crashes "
                    "analytically and cannot model link_down events; use "
                    "abort mode (or link_degrade) for link outages"
                )
        self.fault_plan = fault_plan
        self.fault_mode = fault_mode
        self.platform = platform
        self.deployment = list(deployment)
        self.telemetry = Telemetry() if collect_metrics else None
        # ``lmm_mode`` selects the engine's max-min implementation:
        # "auto" (vectorized above the component-size cutoff),
        # "reference" (the pure-Python oracle), "vectorized" (always
        # NumPy).  Exposed as ``repro-replay --lmm``.  ``lmm_incremental``
        # gates the certified incremental patch re-solve of large sharing
        # groups (on by default; the off switch exists for A/B
        # benchmarking — results are 1e-9-identical either way by
        # construction).
        self.lmm_incremental = bool(lmm_incremental)
        self.engine = Engine(
            metrics=self.telemetry.engine if collect_metrics else None,
            lmm_mode=lmm_mode,
            incremental=lmm_incremental,
        )
        self.comms = CommSystem(
            self.engine,
            platform,
            dict(enumerate(self.deployment)),
            comm_model=comm_model,
            eager_threshold=eager_threshold,
            metrics=self.telemetry.comm if collect_metrics else None,
        )
        self.collective_algorithm = collective_algorithm
        self.record_timed_trace = record_timed_trace
        self.timed_trace: List[tuple] = []
        # ``compiled`` selects the replay driver (see COMPILED_MODES);
        # "auto" keeps in-memory traces on the token path.
        self.compiled = compiled
        # Sharded replay: partition ranks into contiguous bands replayed
        # in forked worker processes, synchronized at collectives (see
        # repro.core.shard).  0/1 means in-process replay.  Fault plans
        # take the sequential path regardless — fault reports are then
        # byte-identical to unsharded runs by construction.
        self.shards = shards
        self.shard_halo = shard_halo
        self._custom_actions = False
        # CompileReport of the most recent compiled replay (None when the
        # token path ran).
        self.last_compile_report = None
        self._handlers: Dict[str, Callable] = {
            "compute": self._do_compute,
            "send": self._do_send,
            "Isend": self._do_isend,
            "recv": self._do_recv,
            "Irecv": self._do_irecv,
            "wait": self._do_wait,
            "bcast": self._do_bcast,
            "reduce": self._do_reduce,
            "allReduce": self._do_allreduce,
            "barrier": self._do_barrier,
            "comm_size": self._do_comm_size,
            "allToAll": self._do_alltoall,
            "allToAllv": self._do_alltoallv,
            "allGather": self._do_allgather,
            "reduceScatter": self._do_reducescatter,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def register_action(self, name: str,
                        handler: Callable[["_RankContext", List[str]],
                                          Iterator]) -> None:
        """The MSG_action_register analogue: bind a trace keyword to a
        generator handler ``handler(ctx, tokens)``.

        Custom actions only exist on the token path, so registering one
        pins this replayer to it (``compiled="always"`` then fails
        loudly rather than silently skipping the custom handler).
        """
        self._handlers[name] = handler
        self._custom_actions = True

    def replay(self, source) -> ReplayResult:
        """The MSG_action_trace_run analogue.

        ``source`` may be an :class:`InMemoryTrace`, a directory of
        ``SG_process<rank>.trace`` files, or a single merged trace file.
        With a fault plan, the result carries a
        :class:`~repro.faults.report.FaultReport`; without one, this is
        byte-for-byte the fault-free replay (no hooks, no extra state).
        """
        plan = self.fault_plan
        if plan is None:
            if self.shards > 1:
                from .shard import replay_sharded
                return replay_sharded(self, source)
            return self._replay_core(source, None)[0]
        if self.fault_mode == "checkpoint-restart":
            return self._replay_checkpoint_restart(source, plan)
        return self._replay_abort(source, plan)

    def _replay_abort(self, source, plan: FaultPlan) -> ReplayResult:
        """Fault mode 'abort': stop at quiescence after the first rank
        death and report provenance + per-rank lost progress."""
        result, state = self._replay_core(source, plan.sorted_events())
        failures = state["failures"]
        dead = {f.rank: f for f in failures}
        blocked = state["blocked"]
        progress = {}
        for ctx in state["contexts"]:
            if ctx.rank in dead:
                status, t = "failed", dead[ctx.rank].t
            elif ctx.rank in blocked:
                status, t = "blocked", None
            else:
                status, t = "finished", result.per_rank_time[ctx.rank]
            progress[ctx.rank] = {"actions_completed": ctx.n_actions,
                                  "time": t, "state": status}
        result.fault_report = build_fault_report(
            mode="abort",
            n_ranks=result.n_ranks,
            makespan=result.simulated_time,
            events_applied=state["injector"].applied,
            failures=failures,
            progress=progress,
            blocked=blocked,
        )
        return result

    def _replay_checkpoint_restart(self, source,
                                   plan: FaultPlan) -> ReplayResult:
        """Fault mode 'checkpoint-restart': one fault-free-progress sim
        pass (link degradations still apply in-sim), then the analytic
        coordinated checkpoint/restart timeline absorbs the host crashes.
        """
        from ..faults.checkpoint import simulate_checkpoint_restart

        crashes = plan.host_crashes()
        for crash in crashes:
            if crash.host not in self.platform.hosts:
                raise ValueError(
                    f"fault plan: unknown host {crash.host!r}"
                )
        degrades = [e for e in plan.sorted_events()
                    if isinstance(e, LinkDegrade)]
        result, state = self._replay_core(source, degrades)
        outcome = simulate_checkpoint_restart(
            result.simulated_time, result.per_rank_time,
            [crash.t for crash in crashes], plan.checkpoint,
        )
        applied = list(state["injector"].applied) if state else []
        applied += [{"t": crash.t, "action": "modeled",
                     "event": crash.to_dict()} for crash in crashes]
        model = plan.checkpoint
        result.fault_report = FaultReport(
            mode="checkpoint-restart",
            n_ranks=result.n_ranks,
            makespan=outcome.makespan,
            events_applied=applied,
            fault_free_makespan=outcome.fault_free_makespan,
            checkpoint={
                "interval": model.interval,
                "cost": model.cost,
                "restart": model.restart,
                "n_restarts": outcome.n_restarts,
                "n_checkpoints": outcome.n_checkpoints,
                "total_rework": outcome.total_rework,
                "checkpoint_overhead": outcome.checkpoint_overhead,
                "crashes": outcome.crashes,
            },
        )
        result.simulated_time = outcome.makespan
        result.per_rank_time = list(outcome.per_rank)
        return result

    def _replay_core(self, source, fault_events):
        """One simulation pass; returns ``(result, fault state or None)``.

        Fault-free runs (``fault_events`` falsy) execute exactly the
        pre-fault-injection pipeline: no injector daemon, no hooks, no
        deadlock interception.
        """
        programs = self._compiled_programs(source, fault_events)
        if programs is None:
            streams = self._token_streams(source)
            n_ranks = len(streams)
        else:
            streams = None
            n_ranks = len(programs)
        if n_ranks > len(self.deployment):
            raise ValueError(
                f"trace has {n_ranks} ranks but deployment covers only "
                f"{len(self.deployment)}"
            )
        if programs is None:
            contexts = [
                _RankContext(rank, self.deployment[rank])
                for rank in range(n_ranks)
            ]
        else:
            contexts = [
                _CompiledRankContext(rank, self.deployment[rank],
                                     programs[rank])
                for rank in range(n_ranks)
            ]
        finish = [0.0] * n_ranks
        # Fresh output per call: a second replay() on the same instance
        # must not return the first run's tuples.
        self.timed_trace = []
        telemetry = self.telemetry
        replay_metrics = telemetry.replay if telemetry is not None else None
        if telemetry is not None:
            # Per-replay counters: zero the engine/replay groups and open
            # the comm layer's snapshot window.
            telemetry.engine.reset()
            telemetry.comm.begin(self.comms.cache_stats())
            replay_metrics.reset(n_ranks)
            if programs is not None:
                replay_metrics.ops_compiled = sum(p.n_ops for p in programs)
                replay_metrics.computes_fused = sum(
                    p.n_src - p.n_ops for p in programs)
        self.engine.deadlock_hook = lambda blocked: self._deadlock_report(
            contexts, blocked
        )
        # Phase batching: compiled fault-free replays advance their
        # synchronizing collectives as one dependency graph whenever the
        # graph is provably the exact protocol (see repro.core.batch).
        # Ineligible replays run the per-rank generators — same results,
        # fewer assumptions.
        batcher = None
        if (programs is not None and fault_events is None
                and batch_eligible(self, n_ranks)):
            batcher = CollectiveBatcher(
                self.engine, self.comms.transfer_params, self.deployment,
                self.comms.eager_threshold,
            )

        procs: List = []
        fault_state = None
        if fault_events is not None:
            from ..faults.injector import FaultInjector

            injector = FaultInjector(
                self.engine, self.platform, fault_events,
                comms=self.comms,
                metrics=telemetry.faults if telemetry is not None else None,
            )
            rank_failures: List[RankFailure] = []
            fault_state = {"injector": injector, "failures": rank_failures,
                           "blocked": {}, "contexts": contexts}
            host_ranks: Dict[str, List[int]] = {}
            for rank in range(n_ranks):
                host_ranks.setdefault(self.deployment[rank].name,
                                      []).append(rank)
            fmetrics = injector.metrics

            def on_host_crash(host, event):
                # The ranks resident on the dead host die with it; their
                # never-started messages leave the match queues (eager
                # flows already in the network drain harmlessly).
                reason = event.describe()
                for rank in host_ranks.get(host.name, ()):
                    if self.engine.kill_process(procs[rank], reason):
                        fmetrics.processes_killed += 1
                    fmetrics.queue_entries_purged += \
                        self.comms.purge_rank(rank)

            injector.host_crash_hooks.append(on_host_crash)

            def on_proc_failed(proc, exc):
                name = proc.name
                if name.startswith("p") and name[1:].isdigit():
                    rank = int(name[1:])
                    rank_failures.append(RankFailure(
                        rank, self.engine.now,
                        exc.reason or "resource failure",
                        host=self.deployment[rank].name,
                    ))

            self.engine.process_failed_hook = on_proc_failed
            injector.attach()

        def rank_process(ctx: _RankContext, stream):
            handlers = self._handlers
            engine = self.engine
            record = self.record_timed_trace
            timed_trace = self.timed_trace
            # The clock never advances between the end of one action and
            # the start of the next within a rank (this generator only
            # yields inside handlers), so one clock read per action covers
            # both boundaries.
            start = engine.now
            if replay_metrics is not None:
                # Metering path.  The baseline already performs one dict
                # lookup per action (the handler dispatch); the counting
                # cell IS the dispatch entry — ``[handler, count, volume,
                # time, vol_idx]`` — so metering adds no lookup and
                # touches a single extra object per action (see
                # ReplayMetrics).
                new_cell = replay_metrics.new_cell
                cells_get = replay_metrics.rank_cells[ctx.rank].get
                for tokens in stream:
                    ctx.n_actions += 1
                    ctx.current_action = tokens
                    try:
                        cell = cells_get(tokens[1])
                    except IndexError:
                        raise ValueError(
                            f"p{ctx.rank}: malformed trace line "
                            f"{' '.join(tokens)!r}"
                        ) from None
                    if cell is None:
                        name = tokens[1]
                        try:
                            handler = handlers[name]
                        except KeyError:
                            raise ValueError(
                                f"p{ctx.rank}: unregistered action {name!r}"
                            ) from None
                        cell = new_cell(ctx.rank, name)
                        cell[0] = handler
                    handler = cell[0]
                    # Handlers return the volume they parsed anyway (or
                    # None), carried for free by the StopIteration that
                    # ends the delegation — no token re-parse here.
                    # Missing argument tokens (a truncated line) surface
                    # as IndexError inside the handler; retype them so
                    # corrupt input never escapes as a bare IndexError.
                    try:
                        volume = yield from handler(ctx, tokens)
                    except IndexError:
                        raise ValueError(
                            f"p{ctx.rank}: malformed trace line "
                            f"{' '.join(tokens)!r}"
                        ) from None
                    end = engine.now
                    cell[1] += 1
                    if volume is not None:
                        cell[2] += volume
                    elif cell[4] >= 0:
                        # Fallback for handlers that do not report a
                        # volume (Irecv posts, custom actions): parse
                        # the trace token.  try/except is free until it
                        # fires (and a malformed or truncated volume
                        # token just contributes nothing).
                        try:
                            cell[2] += float(tokens[cell[4]])
                        except (ValueError, IndexError):
                            pass
                    if end is not start:
                        # The clock only ever advances by rebinding
                        # ``now``, so identity == "no time passed":
                        # skip the float work for instantaneous actions
                        # (Isend/Irecv posts and the like).
                        cell[3] += end - start
                    if record:
                        timed_trace.append((ctx.rank, tokens[1], start, end))
                    start = end
            else:
                for tokens in stream:
                    try:
                        handler = handlers[tokens[1]]
                    except KeyError:
                        raise ValueError(
                            f"p{ctx.rank}: unregistered action {tokens[1]!r}"
                        ) from None
                    except IndexError:
                        raise ValueError(
                            f"p{ctx.rank}: malformed trace line "
                            f"{' '.join(tokens)!r}"
                        ) from None
                    ctx.n_actions += 1
                    ctx.current_action = tokens
                    try:
                        if record:
                            yield from handler(ctx, tokens)
                            end = engine.now
                            timed_trace.append((ctx.rank, tokens[1],
                                                start, end))
                            start = end
                        else:
                            yield from handler(ctx, tokens)
                    except IndexError:
                        raise ValueError(
                            f"p{ctx.rank}: malformed trace line "
                            f"{' '.join(tokens)!r}"
                        ) from None
            ctx.current_action = None
            finish[ctx.rank] = self.engine.now

        wall_start = time.perf_counter()
        if programs is None:
            for ctx, stream in zip(contexts, streams):
                procs.append(self.engine.add_process(
                    f"p{ctx.rank}", rank_process(ctx, stream)))
        else:
            # Under a fault plan the driver counts actions as they start
            # (the report's lost-progress walk needs per-rank counts for
            # ranks that die mid-trace); fault-free runs skip the
            # per-action increment and stamp the total at stream end.
            count = fault_events is not None
            for ctx, prog in zip(contexts, programs):
                procs.append(self.engine.add_process(
                    f"p{ctx.rank}",
                    self._compiled_rank_process(ctx, prog, finish,
                                                replay_metrics, count,
                                                batcher)))
        try:
            simulated = self.engine.run()
        except DeadlockError as exc:
            if fault_state is None or not fault_state["failures"]:
                raise
            # Survivors blocked forever on a dead rank: the expected end
            # state of a fatal fault, not a trace bug.  Capture who is
            # stuck in what for the report's provenance walk.
            simulated = self.engine.now
            dead = {f.rank for f in fault_state["failures"]}
            blocked_names = set(exc.blocked)
            for ctx in contexts:
                if f"p{ctx.rank}" in blocked_names and ctx.rank not in dead:
                    tokens = ctx.action_tokens()
                    fault_state["blocked"][ctx.rank] = {
                        "action": list(tokens) if tokens else None,
                        "pending_irecv_srcs": [req.src for req
                                               in ctx.pending_irecvs],
                    }
        wall = time.perf_counter() - wall_start
        if telemetry is not None:
            telemetry.comm.finish(self.comms.cache_stats())
            if batcher is not None:
                replay_metrics.phase_advances = batcher.phase_advances
        return ReplayResult(
            simulated_time=simulated,
            per_rank_time=finish,
            n_ranks=n_ranks,
            n_actions=sum(c.n_actions for c in contexts),
            wall_seconds=wall,
            timed_trace=self.timed_trace,
            metrics=telemetry.as_dict() if telemetry is not None else None,
        ), fault_state

    # ------------------------------------------------------------------
    # Compiled driver
    # ------------------------------------------------------------------
    def _compiled_programs(self, source, fault_events):
        """Decide whether this replay runs compiled, and compile if so.

        Returns per-rank :class:`CompiledProgram` lists or ``None`` (run
        the token path).  "auto" compiles path sources — where the win is
        the skipped tokenize/dispatch work — and leaves already-resident
        :class:`InMemoryTrace` sources on the token path; "always" forces
        compilation for any source and refuses configurations the
        compiled driver cannot honor.
        """
        mode = self.compiled
        if mode == "never":
            return None
        if self._custom_actions:
            if mode == "always":
                raise ValueError(
                    "compiled replay cannot drive actions registered via "
                    "register_action(); use compiled='never'"
                )
            return None
        if self.record_timed_trace:
            # Timed traces need one (start, end) tuple per *source*
            # action; the compiled driver's whole point is not doing
            # per-action bookkeeping, so recording stays on the token
            # path.
            if mode == "always":
                raise ValueError(
                    "compiled replay does not record timed traces; use "
                    "compiled='never' with record_timed_trace"
                )
            return None
        if mode == "auto" and isinstance(source, InMemoryTrace):
            return None
        programs, report = compile_source(source)
        self.last_compile_report = report
        # Fusion gate.  Collapsing a compute run into one exec is exact
        # only when per-flop inflation is volume-independent (no
        # efficiency model on any replay host) and nothing needs
        # per-action granularity: fault runs count per-action progress
        # for the report's provenance walk, so they run unfused.
        if fault_events is None and all(
            host.efficiency_model is None
            for host in self.deployment[:len(programs)]
        ):
            programs = [fuse_computes(prog) for prog in programs]
        return programs

    def _compiled_rank_process(self, ctx: "_CompiledRankContext",
                               prog: CompiledProgram, finish,
                               replay_metrics, count: bool,
                               batcher: Optional[CollectiveBatcher] = None):
        """One rank's replay over its compiled op program.

        The hot loop is a frequency-ordered if/elif over opcode ints on
        plain Python lists (``.tolist()`` once per column): no string
        tokenization, no dict dispatch, no per-action token list, and no
        sub-generator delegation for the four hottest ops.
        """
        engine = self.engine
        comms = self.comms
        host = ctx.host
        cpu = host.cpu
        speed = host.speed
        work = host.work_inflation
        pending = ctx.pending_irecvs
        rank = ctx.rank
        binomial = self.collective_algorithm == "binomial"
        # One C-level conversion per column; list indexing beats NumPy
        # scalar extraction ~3x in a per-op loop.
        ops = prog.ops.tolist()
        arg = prog.arg.tolist()
        vol = prog.vol.tolist()
        vol2 = prog.vol2.tolist()
        nsrc = prog.nsrc.tolist() if prog.nsrc is not None else None
        aux = ({k: a.tolist() for k, a in prog.aux.items()}
               if prog.aux else None)
        n = len(ops)
        metered = replay_metrics is not None
        if metered:
            new_cell = replay_metrics.new_cell
            cells: List = [None] * len(NAME_OF_OPCODE)
            start = engine.now
        i = 0
        while i < n:
            op = ops[i]
            ctx.op_index = i
            if count:
                ctx.n_actions += 1
            volume = None
            if op == OP_COMPUTE:
                v = vol[i]
                volume = v
                if v > 0.0:
                    yield engine.exec_activity(
                        cpu, v * work("compute", v), bound=speed)
            elif op == OP_ISEND:
                v = vol[i]
                volume = v
                comms.isend(rank, arg[i], v)
            elif op == OP_IRECV:
                volume = vol[i]
                pending.append(comms.irecv(rank, src=arg[i]))
            elif op == OP_WAIT:
                if not pending:
                    raise ValueError(
                        f"p{rank}: 'wait' with no pending Irecv (trace "
                        "is inconsistent)"
                    )
                yield pending.popleft()
            elif op == OP_SEND:
                v = vol[i]
                volume = v
                yield comms.isend(rank, arg[i], v)
            elif op == OP_RECV:
                req = comms.irecv(rank, src=arg[i])
                yield req
                volume = req.size
            elif op == OP_ALLREDUCE:
                self._require_comm_size(ctx, "allReduce")
                v = vol[i]
                volume = v
                if batcher is not None:
                    # Phase-batched: one dependency graph replaces the
                    # whole per-rank protocol; this rank parks on its
                    # exit node.  coll_seq still advances so batched and
                    # generator replays number collectives identically.
                    ctx.coll_seq += 1
                    yield batcher.arrive(rank, ctx.coll_seq, "allReduce",
                                         v, vol2[i], ctx.declared_size)
                else:
                    coll = self._coll_ops(ctx)
                    if binomial:
                        yield from collectives.reduce_then_bcast_allreduce(
                            coll, v, flops=vol2[i], tag=coll.tag)
                    else:
                        yield from _flat_reduce(coll, v, vol2[i])
                        yield from _flat_bcast(coll, v)
            elif op == OP_BCAST:
                self._require_comm_size(ctx, "bcast")
                v = vol[i]
                volume = v
                coll = self._coll_ops(ctx)
                if binomial:
                    yield from collectives.binomial_bcast(
                        coll, v, root=0, tag=coll.tag)
                else:
                    yield from _flat_bcast(coll, v)
            elif op == OP_REDUCE:
                self._require_comm_size(ctx, "reduce")
                v = vol[i]
                volume = v
                coll = self._coll_ops(ctx)
                if binomial:
                    yield from collectives.binomial_reduce(
                        coll, v, flops=vol2[i], root=0, tag=coll.tag)
                else:
                    yield from _flat_reduce(coll, v, vol2[i])
            elif op == OP_BARRIER:
                self._require_comm_size(ctx, "barrier")
                if batcher is not None:
                    ctx.coll_seq += 1
                    yield batcher.arrive(
                        rank, ctx.coll_seq, "barrier",
                        float(collectives.BARRIER_TOKEN_BYTES), 0.0,
                        ctx.declared_size)
                else:
                    coll = self._coll_ops(ctx)
                    yield from collectives.barrier(coll, tag=coll.tag)
            elif op == OP_COMM_SIZE:
                size = arg[i]
                if size != comms.size and size > len(self.deployment):
                    raise ValueError(
                        f"p{rank}: comm_size {size} exceeds the "
                        f"deployment ({len(self.deployment)} hosts)"
                    )
                ctx.declared_size = size
            elif op == OP_ALLTOALL:
                self._require_comm_size(ctx, "allToAll")
                v = vol[i]
                volume = v
                coll = self._coll_ops(ctx)
                yield from collectives.pairwise_alltoall(
                    coll, v, tag=coll.tag)
            elif op == OP_ALLTOALLV:
                self._require_comm_size(ctx, "allToAllv")
                v = vol[i]
                volume = v
                splits = None if aux is None else aux.get(i)
                if splits is None or len(splits) != arg[i]:
                    raise ValueError(
                        f"p{rank}: compiled allToAllv op {i} lost its "
                        "split table (corrupt program)"
                    )
                coll = self._coll_ops(ctx)
                yield from collectives.pairwise_alltoallv(
                    coll, splits, tag=coll.tag)
            elif op == OP_ALLGATHER:
                self._require_comm_size(ctx, "allGather")
                v = vol[i]
                volume = v
                coll = self._coll_ops(ctx)
                if binomial:
                    yield from collectives.gather_then_bcast_allgather(
                        coll, v, tag=coll.tag)
                else:
                    yield from _flat_allgather(coll, v)
            elif op == OP_REDUCESCATTER:
                self._require_comm_size(ctx, "reduceScatter")
                v = vol[i]
                volume = v
                coll = self._coll_ops(ctx)
                if binomial:
                    yield from collectives.reduce_then_scatter(
                        coll, v, flops=vol2[i], tag=coll.tag)
                else:
                    yield from _flat_reducescatter(coll, v, vol2[i])
            if metered:
                cell = cells[op]
                if cell is None:
                    cell = cells[op] = new_cell(rank, NAME_OF_OPCODE[op])
                end = engine.now
                cell[1] += nsrc[i] if nsrc is not None else 1
                if volume is not None:
                    cell[2] += volume
                if end is not start:
                    cell[3] += end - start
                start = end
            i += 1
        ctx.op_index = None
        if not count:
            ctx.n_actions = prog.n_src
        finish[rank] = engine.now

    # ------------------------------------------------------------------
    # Failure diagnostics
    # ------------------------------------------------------------------
    def _deadlock_report(self, contexts, blocked_procs):
        """Engine deadlock hook: name each blocked rank's current action
        and pending Irecvs, then list the unmatched communications by
        (src, dst, tag) — enough to pin an inconsistent trace in one read.
        Returns ``(report text, details dict)`` for :class:`DeadlockError`.
        """
        def fmt_end(rank: int) -> str:
            return "any" if rank < 0 else f"p{rank}"

        def fmt_key(key) -> str:
            src, dst, tag = key
            tag_txt = "any" if tag == -1 else str(tag)
            return f"{fmt_end(src)}->{fmt_end(dst)} tag={tag_txt}"

        blocked_names = {proc.name for proc in blocked_procs}
        lines = ["replay deadlock diagnostics:"]
        rank_details = {}
        for ctx in contexts:
            if f"p{ctx.rank}" not in blocked_names:
                continue
            tokens = ctx.action_tokens()
            action = (" ".join(tokens) if tokens
                      else "<before first action>")
            pending = [
                f"{fmt_end(req.src)} tag="
                f"{'any' if req.tag == -1 else req.tag}"
                for req in ctx.pending_irecvs
            ]
            line = f"  p{ctx.rank}: blocked in {action!r}"
            if pending:
                line += f"; pending Irecv from: {', '.join(pending)}"
            lines.append(line)
            rank_details[ctx.rank] = {
                "action": action,
                "pending_irecvs": pending,
            }
        unmatched = self.comms.unmatched_counts(by_key=True)
        unmatched_str = {
            side: {fmt_key(key): count for key, count in keyed.items()}
            for side, keyed in unmatched.items()
        }
        for side, label in (("sends", "send posted, no matching recv"),
                            ("recvs", "recv posted, no matching send")):
            for text, count in sorted(unmatched_str[side].items()):
                lines.append(f"  {label}: {text} x{count}")
        return "\n".join(lines), {
            "ranks": rank_details,
            "unmatched": unmatched_str,
        }

    # ------------------------------------------------------------------
    # Action handlers (each one is the analogue of a registered MSG
    # action function; §5 shows `compute` in C)
    # ------------------------------------------------------------------
    def _do_compute(self, ctx: _RankContext, tokens: List[str]) -> Iterator:
        volume = float(tokens[2])
        if volume > 0:
            amount = volume * ctx.host.work_inflation("compute", volume)
            yield self.engine.exec_activity(
                ctx.host.cpu, amount, bound=ctx.host.speed,
            )
        return volume

    def _do_send(self, ctx: _RankContext, tokens: List[str]) -> Iterator:
        dst = int(tokens[2][1:])
        size = float(tokens[3])
        req = self.comms.isend(ctx.rank, dst, size)
        yield req
        return size

    def _do_isend(self, ctx: _RankContext, tokens: List[str]) -> Iterator:
        dst = int(tokens[2][1:])
        size = float(tokens[3])
        self.comms.isend(ctx.rank, dst, size)
        return size
        yield  # pragma: no cover - makes this a generator

    def _do_recv(self, ctx: _RankContext, tokens: List[str]) -> Iterator:
        src = int(tokens[2][1:])
        req = self.comms.irecv(ctx.rank, src=src)
        yield req
        # The matched sender's size == the trace volume for consistent
        # traces; returning it spares the metering a token re-parse.
        return req.size

    def _do_irecv(self, ctx: _RankContext, tokens: List[str]) -> Iterator:
        src = int(tokens[2][1:])
        ctx.pending_irecvs.append(self.comms.irecv(ctx.rank, src=src))
        return
        yield  # pragma: no cover - makes this a generator

    def _do_wait(self, ctx: _RankContext, tokens: List[str]) -> Iterator:
        if not ctx.pending_irecvs:
            raise ValueError(
                f"p{ctx.rank}: 'wait' with no pending Irecv (trace is "
                "inconsistent)"
            )
        yield ctx.pending_irecvs.popleft()

    # -- collectives ------------------------------------------------------
    def _require_comm_size(self, ctx: _RankContext, what: str) -> None:
        if ctx.declared_size is None:
            raise ValueError(
                f"p{ctx.rank}: {what} before comm_size — the trace format "
                "requires comm_size ahead of any collective (§3)"
            )

    def _coll_ops(self, ctx: _RankContext) -> "_CollOps":
        ctx.coll_seq += 1
        return _CollOps(self, ctx, tag=-2 - ctx.coll_seq)

    def _do_comm_size(self, ctx: _RankContext, tokens: List[str]) -> Iterator:
        size = int(tokens[2])
        if size != self.comms.size and size > len(self.deployment):
            raise ValueError(
                f"p{ctx.rank}: comm_size {size} exceeds the deployment "
                f"({len(self.deployment)} hosts)"
            )
        ctx.declared_size = size
        return
        yield  # pragma: no cover - makes this a generator

    def _do_bcast(self, ctx: _RankContext, tokens: List[str]) -> Iterator:
        self._require_comm_size(ctx, "bcast")
        volume = float(tokens[2])
        ops = self._coll_ops(ctx)
        if self.collective_algorithm == "binomial":
            yield from collectives.binomial_bcast(ops, volume, root=0,
                                                  tag=ops.tag)
        else:
            yield from _flat_bcast(ops, volume)
        return volume

    def _do_reduce(self, ctx: _RankContext, tokens: List[str]) -> Iterator:
        self._require_comm_size(ctx, "reduce")
        vcomm, vcomp = float(tokens[2]), float(tokens[3])
        ops = self._coll_ops(ctx)
        if self.collective_algorithm == "binomial":
            yield from collectives.binomial_reduce(ops, vcomm, flops=vcomp,
                                                   root=0, tag=ops.tag)
        else:
            yield from _flat_reduce(ops, vcomm, vcomp)
        return vcomm

    def _do_allreduce(self, ctx: _RankContext, tokens: List[str]) -> Iterator:
        self._require_comm_size(ctx, "allReduce")
        vcomm, vcomp = float(tokens[2]), float(tokens[3])
        ops = self._coll_ops(ctx)
        if self.collective_algorithm == "binomial":
            yield from collectives.reduce_then_bcast_allreduce(
                ops, vcomm, flops=vcomp, tag=ops.tag
            )
        else:
            yield from _flat_reduce(ops, vcomm, vcomp)
            yield from _flat_bcast(ops, vcomm)
        return vcomm

    def _do_barrier(self, ctx: _RankContext, tokens: List[str]) -> Iterator:
        self._require_comm_size(ctx, "barrier")
        ops = self._coll_ops(ctx)
        yield from collectives.barrier(ops, tag=ops.tag)

    def _do_alltoall(self, ctx: _RankContext, tokens: List[str]) -> Iterator:
        self._require_comm_size(ctx, "allToAll")
        volume = float(tokens[2])
        ops = self._coll_ops(ctx)
        # Pairwise exchange under both algorithm settings: flat-tree has
        # no root to flatten onto — the pairwise schedule *is* the flat
        # decomposition of an all-to-all.
        yield from collectives.pairwise_alltoall(ops, volume, tag=ops.tag)
        return volume

    def _do_alltoallv(self, ctx: _RankContext,
                      tokens: List[str]) -> Iterator:
        self._require_comm_size(ctx, "allToAllv")
        if len(tokens) < 4:
            raise ValueError(
                f"p{ctx.rank}: allToAllv needs a total and at least one "
                "split size")
        # Token streams bypass parse_action, so the consistency contract
        # is enforced here too — same wording as the compiler's.
        total = float(tokens[2])
        splits = [float(t) for t in tokens[3:]]
        _check_splits(total, splits, ctx.rank)
        ops = self._coll_ops(ctx)
        yield from collectives.pairwise_alltoallv(ops, splits, tag=ops.tag)
        return total

    def _do_allgather(self, ctx: _RankContext,
                      tokens: List[str]) -> Iterator:
        self._require_comm_size(ctx, "allGather")
        volume = float(tokens[2])
        ops = self._coll_ops(ctx)
        if self.collective_algorithm == "binomial":
            yield from collectives.gather_then_bcast_allgather(
                ops, volume, tag=ops.tag)
        else:
            yield from _flat_allgather(ops, volume)
        return volume

    def _do_reducescatter(self, ctx: _RankContext,
                          tokens: List[str]) -> Iterator:
        self._require_comm_size(ctx, "reduceScatter")
        vcomm, vcomp = float(tokens[2]), float(tokens[3])
        ops = self._coll_ops(ctx)
        if self.collective_algorithm == "binomial":
            yield from collectives.reduce_then_scatter(
                ops, vcomm, flops=vcomp, tag=ops.tag)
        else:
            yield from _flat_reducescatter(ops, vcomm, vcomp)
        return vcomm

    # ------------------------------------------------------------------
    # Trace sources
    # ------------------------------------------------------------------
    def _token_streams(self, source) -> List[Iterable[List[str]]]:
        if isinstance(source, InMemoryTrace):
            ranks = source.ranks()
            if ranks != list(range(len(ranks))):
                raise ValueError(f"trace ranks are not contiguous: {ranks[:10]}")

            # Lazy per-rank tokenization: the trace is resident anyway,
            # but the token lists (3-4x the Action objects' footprint)
            # need never exist all at once.
            def stream(rank: int) -> Iterator[List[str]]:
                for line in source.lines_of(rank):
                    yield line.split()

            return [stream(rank) for rank in ranks]
        if isinstance(source, (str, os.PathLike)):
            path = os.fspath(source)
            if os.path.isdir(path):
                return self._dir_streams(path)
            return self._merged_stream(path)
        raise TypeError(
            f"unsupported trace source {type(source).__name__}; pass an "
            "InMemoryTrace, a trace directory, or a merged trace file"
        )

    def _dir_streams(self, directory: str) -> List[Iterable[List[str]]]:
        """Streaming ingestion of the Fig. 2 per-process layout.

        Each rank's stream holds one open file and decodes on demand —
        peak resident ingestion state is O(ranks), independent of the
        per-rank event count.  This is the layout to use at scale.
        """
        from .binfmt import read_binary_trace
        from .trace import discover_trace_paths

        def binary_stream(path: str) -> Iterator[List[str]]:
            from .actions import format_action
            for action in read_binary_trace(path):
                yield format_action(action).split()

        def stream(path: str, expect_rank: int) -> Iterator[List[str]]:
            opener = (gzip.open if path.endswith(".gz") else open)
            with opener(path, "rt", encoding="ascii") as handle:
                for line in handle:
                    tokens = line.split()
                    if not tokens or tokens[0].startswith("#"):
                        continue
                    if tokens[0] != f"p{expect_rank}":
                        raise ValueError(
                            f"{path}: line for {tokens[0]} in trace of "
                            f"p{expect_rank}"
                        )
                    yield tokens

        return [
            binary_stream(path) if path.endswith(".btrace")
            else stream(path, rank)
            for rank, path in enumerate(discover_trace_paths(directory))
        ]

    def _merged_stream(self, path: str) -> List[Iterable[List[str]]]:
        """Demultiplex a merged (Fig. 1) file without loading it whole.

        One shared cursor walks the file; each rank's stream drains its
        own buffer and, when empty, advances the cursor — buffering lines
        for *other* ranks as they scroll past.  For interleaved merged
        traces the buffers stay near-empty (O(ranks + interleaving skew)
        resident).  A rank-major merged file is the worst case: rank k's
        first action sits after every line of ranks < k, so buffering
        degrades to O(events) — inherent to the layout, not the reader.
        The per-process directory layout is the scalable representation;
        this path exists for the small-instance convenience format.
        Rather than degrade silently, the demux refuses to buffer more
        than :attr:`merged_spill_limit` lines for any single rank and
        names the offender.
        """
        opener = gzip.open if path.endswith(".gz") else open
        limit = self.merged_spill_limit
        # Pass 1: the rank set (needed up front to build one stream per
        # rank).  Reads prefixes only; retains O(ranks) state.
        ranks = set()
        with opener(path, "rt", encoding="ascii") as handle:
            for line in handle:
                head = line.split(None, 1)
                if not head or head[0].startswith("#"):
                    continue
                ranks.add(int(head[0][1:]))
        rank_list = sorted(ranks)
        if rank_list != list(range(len(rank_list))):
            raise ValueError(
                f"{path}: ranks are not contiguous: {rank_list[:10]}"
            )

        # Pass 2: shared-cursor demux.
        buffers: List[deque] = [deque() for _ in rank_list]
        handle = opener(path, "rt", encoding="ascii")
        exhausted = [False]

        def pump_until(rank: int) -> bool:
            """Advance the shared cursor until a line for ``rank`` lands
            in its buffer; returns False at end of file."""
            if exhausted[0]:
                return False
            for line in handle:
                tokens = line.split()
                if not tokens or tokens[0].startswith("#"):
                    continue
                dest = int(tokens[0][1:])
                buf = buffers[dest]
                buf.append(tokens)
                if buffers[rank]:
                    return True
                if len(buf) > limit:
                    # One rank's lines are heavily skewed ahead of the
                    # rank being pumped (a rank-major merged file is the
                    # canonical trigger): the buffer would otherwise grow
                    # to O(events).  Fail with provenance instead.
                    # Mark the cursor exhausted first so sibling streams
                    # see a clean end-of-file rather than a closed-handle
                    # error that would mask this one.
                    exhausted[0] = True
                    handle.close()
                    raise ValueError(
                        f"{path}: merged-trace demux buffered over "
                        f"{limit} lines for p{dest} while seeking a "
                        f"line for p{rank}; the layout is too skewed "
                        "for streaming demux — convert to the "
                        "per-process directory layout (repro-convert) "
                        "or raise TraceReplayer.merged_spill_limit"
                    )
            exhausted[0] = True
            handle.close()
            return False

        def stream(rank: int) -> Iterator[List[str]]:
            buf = buffers[rank]
            while True:
                if buf:
                    yield buf.popleft()
                elif not pump_until(rank):
                    return

        return [stream(rank) for rank in rank_list]


class _CollOps:
    """Adapter giving the collective algorithms a rank-program interface."""

    __slots__ = ("replayer", "ctx", "tag")

    def __init__(self, replayer: TraceReplayer, ctx: _RankContext,
                 tag: int) -> None:
        self.replayer = replayer
        self.ctx = ctx
        self.tag = tag

    @property
    def rank(self) -> int:
        return self.ctx.rank

    @property
    def size(self) -> int:
        return self.ctx.declared_size

    def isend(self, dst: int, nbytes: float, tag: int = 0, data=None):
        return self.replayer.comms.isend(self.ctx.rank, dst, nbytes,
                                         tag=tag, data=data)

    def send(self, dst: int, nbytes: float, tag: int = 0, data=None):
        req = self.isend(dst, nbytes, tag=tag, data=data)
        yield req
        return req

    def recv(self, src: int = -1, tag: int = -1):
        req = self.replayer.comms.irecv(self.ctx.rank, src=src, tag=tag)
        yield req
        return req

    def wait(self, req):
        yield req
        return req

    def compute(self, flops: float, kind: str = "compute"):
        if flops > 0:
            host = self.ctx.host
            amount = flops * host.work_inflation(kind, flops)
            yield self.replayer.engine.exec_activity(
                host.cpu, amount, bound=host.speed,
            )


def _flat_bcast(ops: _CollOps, volume: float) -> Iterator:
    """Flat-tree broadcast: root sends to every other rank directly."""
    if ops.rank == 0:
        reqs = [ops.isend(dst, volume, tag=ops.tag)
                for dst in range(1, ops.size)]
        for req in reqs:
            yield req
    else:
        yield from ops.recv(src=0, tag=ops.tag)


def _flat_reduce(ops: _CollOps, vcomm: float, vcomp: float) -> Iterator:
    """Flat-tree reduce: everyone sends to the root, which applies the
    operator once per contribution."""
    if ops.rank == 0:
        for _ in range(ops.size - 1):
            yield from ops.recv(tag=ops.tag)
            yield from ops.compute(vcomp)
    else:
        yield from ops.send(0, vcomm, tag=ops.tag)


def _flat_allgather(ops: _CollOps, volume: float) -> Iterator:
    """Flat allgather: gather every contribution to the root, then
    flat-broadcast the concatenated ``size * volume`` buffer."""
    if ops.rank == 0:
        for _ in range(ops.size - 1):
            yield from ops.recv(tag=ops.tag)
    else:
        yield from ops.send(0, volume, tag=ops.tag)
    yield from _flat_bcast(ops, ops.size * volume)


def _flat_reducescatter(ops: _CollOps, vcomm: float,
                        vcomp: float) -> Iterator:
    """Flat reduce-scatter: flat reduce to the root, then the root sends
    each rank its ``vcomm / size`` share directly."""
    yield from _flat_reduce(ops, vcomm, vcomp)
    share = vcomm / ops.size
    if ops.rank == 0:
        reqs = [ops.isend(dst, share, tag=ops.tag)
                for dst in range(1, ops.size)]
        for req in reqs:
            yield req
    else:
        yield from ops.recv(src=0, tag=ops.tag)
