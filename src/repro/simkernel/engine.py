"""Lazy discrete-event fluid simulation engine.

Simulated processes are Python generators.  A process blocks by yielding
either a :class:`~repro.simkernel.activity.Waitable` (resume when it
completes) or a :class:`WaitAny` over several waitables (resume when the
first completes; the completed one is sent back into the generator).

Resource sharing is *lazily* maintained, as in SimGrid's kernel: every
constraint records which activities currently use it, and when the
activity mix changes, only the affected *sharing component* — activities
transitively connected to the change through shared constraints — is
settled (progress accrued at the old rate) and re-rated (max-min fair
share recomputed).  Predicted completion instants live in an
array-backed event calendar (:class:`_Calendar`) with epoch-validated
lazy deletion and in-place re-arming.  The cost of an event is
proportional to the size of its component, not to the number of
activities in flight — which is what lets thousand-rank replays run in
reasonable time.

Re-rates of array-backed groups additionally try an *incremental*
certified patch (:func:`repro.simkernel.lmm.patch_solve`) before paying
for a full progressive filling: each group tracks the constraint
columns dirtied since its last solve, and when the patch certificate
holds only the affected cone is re-filled.  Fallbacks to the full
solve are counted (``patch_fallbacks``), never silent.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable, Generator, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from .activity import (
    Activity, ActivityFailed, CommActivity, ExecActivity, Timer, Waitable,
)
from .lmm import (
    Constraint, LMM_MODES, VECTOR_THRESHOLD, fill_vectorized, patch_solve,
)
from .telemetry import EngineMetrics

__all__ = ["Engine", "Process", "WaitAny", "DeadlockError"]

INF = float("inf")

#: Minimum filling-level count of a group's last *full* solve before the
#: incremental patch is attempted on it.  A patch attempt costs a
#: near-constant handful of O(memberships) passes (usage accumulation,
#: cone BFS, certificate) plus a small sub-fill, while the full filling
#: it replaces costs one such pass per level — so patching a group whose
#: solves finish in one or two levels can only lose (measured: ~15-20%
#: regression on 1-D chain traffic), while multi-level contention waves
#: win multiples.  The last full solve's level count is the engine's
#: cost estimate for the next one.
_PATCH_MIN_LEVELS = 3

#: Consecutive certified patches after which a group is forced through
#: one full solve anyway.  Only full solves refresh ``last_levels``, so
#: a group that patches forever would keep an arbitrarily stale cost
#: estimate: a persistent 1-D chain group that once took a 3-level
#: solve would stay "worth patching" for the rest of the run even after
#: its solves collapsed to one level.  The periodic probe re-measures
#: the true full-solve cost for ~1.5% overhead; the closed-gate
#: direction needs no probe because every solve is then a full one.
_PATCH_PROBE_EVERY = 64


class DeadlockError(RuntimeError):
    """Raised when live processes remain but nothing can make progress.

    Besides the human-readable message, carries the structured state the
    diagnostics layers need: ``blocked`` (names of the stuck processes)
    and ``details`` (a dict filled in by the engine's ``deadlock_hook``
    — the replayer reports each rank's current action, pending Irecvs,
    and the unmatched (src, dst, tag) communication counts there).
    """

    def __init__(self, message: str, blocked: Sequence[str] = (),
                 details: Optional[dict] = None) -> None:
        super().__init__(message)
        self.blocked = list(blocked)
        self.details = details if details is not None else {}


class WaitAny:
    """Yielded by a process to block until any of ``waitables`` completes."""

    __slots__ = ("waitables",)

    def __init__(self, waitables: Sequence[Waitable]) -> None:
        self.waitables = list(waitables)
        if not self.waitables:
            raise ValueError("WaitAny needs at least one waitable")


class _Calendar:
    """Array-backed completion-event calendar (the old heap-of-tuples).

    Entries live in parallel NumPy arrays — ``times`` / ``seqs`` /
    ``epochs`` — plus a Python ``acts`` list, indexed by *slot*.  Each
    activity owns at most one slot (``Activity.cal_slot``), so re-arming
    an already-armed activity is three in-place array writes instead of
    a push plus a lazily-invalidated leftover.  Freed slots go to a
    free list; ``times`` is ``inf`` there, so the pop scan can treat
    the whole ``[0, hi)`` prefix uniformly.

    Ordering is exactly the old heap's: earliest time first, FIFO by a
    monotone sequence number among simultaneous events.  Validity is
    exactly the old heap's too: an entry fires only if its recorded
    epoch still matches the activity's (and the activity is not done);
    stale entries found on the way are released and counted in
    ``stale``.  Pop is an ``argmin`` over the slot prefix — with the
    engine's min-arming (one live event per sharing group) the prefix
    stays at O(components), which is why the scan beats heap churn.
    """

    __slots__ = ("times", "seqs", "epochs", "acts", "hi", "free",
                 "seq", "stale")

    def __init__(self) -> None:
        cap = 256
        self.times = np.full(cap, INF)
        self.seqs = np.zeros(cap, dtype=np.int64)
        self.epochs = np.zeros(cap, dtype=np.int64)
        self.acts: List[Optional[Activity]] = [None] * cap
        self.hi = 0                 # slots [0, hi) are in use or freed
        self.free: List[int] = []
        self.seq = 0                # FIFO tie-break, monotone
        self.stale = 0              # invalidated entries discarded

    def __len__(self) -> int:
        """Occupied slots (live + not-yet-released stale entries)."""
        return self.hi - len(self.free)

    def push(self, time_: float, act: Activity) -> None:
        self.seq += 1
        slot = act.cal_slot
        if 0 <= slot < self.hi and self.acts[slot] is act:
            # In-place re-arm: overwrite the slot this activity already
            # owns (whether its entry was still valid or stale).
            self.times[slot] = time_
            self.seqs[slot] = self.seq
            self.epochs[slot] = act.epoch
            return
        if self.free:
            slot = self.free.pop()
        else:
            slot = self.hi
            if slot >= self.times.shape[0]:
                self._grow()
            self.hi = slot + 1
        self.times[slot] = time_
        self.seqs[slot] = self.seq
        self.epochs[slot] = act.epoch
        self.acts[slot] = act
        act.cal_slot = slot

    def _grow(self) -> None:
        cap = 2 * self.times.shape[0]
        for name in ("times", "seqs", "epochs"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[:old.shape[0]] = old
            setattr(self, name, new)
        self.times[self.hi:] = INF
        self.acts.extend([None] * (cap - len(self.acts)))

    def _release(self, slot: int) -> None:
        act = self.acts[slot]
        self.acts[slot] = None
        self.times[slot] = INF
        if act is not None and act.cal_slot == slot:
            act.cal_slot = -1
        self.free.append(slot)

    def pop(self) -> Optional[Tuple[float, Activity]]:
        """The earliest valid ``(time, activity)`` event, or ``None``
        when no valid entry remains (the engine's deadlock signal)."""
        times = self.times
        seqs = self.seqs
        epochs = self.epochs
        acts = self.acts
        while True:
            hi = self.hi
            if hi == 0:
                return None
            view = times[:hi]
            k = int(view.argmin())
            t = float(view[k])
            if t == INF:
                return None
            ties = np.flatnonzero(view == t)
            if ties.shape[0] > 1:
                k = int(ties[seqs[ties].argmin()])
            act = acts[k]
            if act.done or epochs[k] != act.epoch:
                self.stale += 1
                self._release(k)
                continue
            self._release(k)
            return t, act

    def compact(self) -> None:
        """Drop every stale entry and repack the survivors densely.

        Survivors keep their ``(time, seq)`` keys, so pop order is
        untouched; their slots change, so ``cal_slot`` is rewritten
        (dangling ``cal_slot`` values on evicted activities are safe —
        :meth:`push` verifies slot ownership before reusing one).
        """
        hi = self.hi
        acts = self.acts
        epochs = self.epochs
        live = [s for s in range(hi)
                if acts[s] is not None
                and not acts[s].done and epochs[s] == acts[s].epoch]
        self.stale += (hi - len(self.free)) - len(live)
        n = len(live)
        if n:
            idx = np.asarray(live, dtype=np.intp)
            self.times[:n] = self.times[idx]
            self.seqs[:n] = self.seqs[idx]
            self.epochs[:n] = self.epochs[idx]
            survivors = [acts[s] for s in live]
            for i, a in enumerate(survivors):
                acts[i] = a
                a.cal_slot = i
        for s in range(n, hi):
            acts[s] = None
        self.times[n:hi] = INF
        self.hi = n
        self.free = []


class _Group:
    """A sharing group: an engine-maintained union of sharing components.

    Every constraint transitively connected to another through a
    multi-resource activity points at the same group, so re-rating needs
    no graph walk — the group *is* the (super)component.  Groups only
    ever merge, never split: a union of disjoint components is still a
    correct max-min subproblem (progressive filling of a block-diagonal
    system yields each block's independent solution), and monotone
    merging is what keeps maintenance O(1) per membership change.

    Large groups additionally go *array-backed* (``vectorized``): the
    sharing state (remaining / rate / settled / bound) and the COO
    incidence live in persistent NumPy arrays maintained incrementally
    by swap-remove slot management, so a re-rate performs no
    per-activity Python work at all.  While array-backed, the arrays —
    not the activities' attributes — are authoritative for that state;
    the attributes are restored on :meth:`Engine._devectorize`.
    """

    __slots__ = (
        "cons", "acts", "vectorized",
        # Array-backed state (meaningful when vectorized is True):
        "acts_list", "row", "mem_of", "col", "n", "m", "ncols",
        "rem", "rate", "settled", "bnd", "mem_var", "mem_cons", "caps",
        "loadv", "work", "armed",
        # Incremental-patch state (array-backed groups only): the
        # constraint columns dirtied since the last solve, whether the
        # rate array holds a certified previous solution the incremental
        # patch may start from, and how many filling levels the last
        # full solve took (the cost a patch would save — patching is
        # only attempted when that cost clears _PATCH_MIN_LEVELS).
        "seeds", "inc_ok", "last_levels", "patch_streak",
    )

    def __init__(self) -> None:
        self.cons: List[Constraint] = []
        self.acts: Set[Activity] = set()
        self.vectorized = False
        self.armed: Optional[Activity] = None
        self.seeds: Optional[Set[int]] = None
        self.inc_ok = False
        self.last_levels = 0
        self.patch_streak = 0


class Process:
    """A simulated process: a generator driven by the engine.

    ``daemon`` processes (the fault injector) never count toward the
    engine's liveness: the run ends when every *non-daemon* process is
    done, and daemons are excluded from deadlock reports.  ``failure``
    holds the :class:`ActivityFailed` that killed the process, if any.
    """

    __slots__ = ("name", "generator", "alive", "_wait_token", "result",
                 "daemon", "failure")

    def __init__(self, name: str, generator: Generator,
                 daemon: bool = False) -> None:
        self.name = name
        self.generator = generator
        self.alive = True
        self._wait_token = 0  # invalidates stale WaitAny registrations
        self.result = None
        self.daemon = daemon
        self.failure: Optional[ActivityFailed] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"Process({self.name}, {state})"


class _FailureWake:
    """Queued wake-up that throws instead of sending (fault propagation)."""

    __slots__ = ("error",)

    def __init__(self, error: ActivityFailed) -> None:
        self.error = error


class Engine:
    """Owns the simulated clock, the processes, and the active activities."""

    def __init__(
        self,
        metrics: Optional[EngineMetrics] = None,
        lmm_mode: str = "auto",
        vector_threshold: int = VECTOR_THRESHOLD,
        incremental: bool = True,
    ) -> None:
        if lmm_mode not in LMM_MODES:
            raise ValueError(
                f"unknown lmm_mode {lmm_mode!r}; use one of {LMM_MODES}"
            )
        # Which max-min implementation re-rates sharing components:
        # "auto" uses the NumPy filling for components of at least
        # ``vector_threshold`` activities and the pure-Python one below it
        # (small components are faster without array-building overhead);
        # "reference"/"vectorized" force one path (oracle tests, benches).
        self.lmm_mode = lmm_mode
        self.vector_threshold = int(vector_threshold)
        # Incremental certified re-solve of array-backed groups
        # (lmm.patch_solve).  On by default; the off switch exists for
        # A/B benchmarking and for bisecting a suspected patch bug —
        # correctness never depends on it either way (every certified
        # patch equals the full solve by construction).
        self.incremental = bool(incremental)
        self.now = 0.0
        self._processes: List[Process] = []
        self._ready: deque = deque()
        self._live_count = 0
        self._calendar = _Calendar()
        self._dirty: Set[Constraint] = set()
        # Calendar-compaction watermark: rebuild when the occupied-slot
        # prefix doubles past the live-entry count observed at the
        # previous compaction.
        self._heap_floor = 4096
        # Progressive-filling levels, accumulated unconditionally (one
        # integer add per filling) and windowed into the metrics by run().
        self._maxmin_iters = 0
        # Count of recomputes settled by the vectorized filling (same
        # accumulate-then-window pattern).
        self._vector_fillings = 0
        # Solo activities started or completed on an otherwise-idle
        # constraint without any sharing recompute (same pattern).
        self._idle_advances = 0
        # Incremental-solver provenance (same pattern): certified
        # patches applied, patch attempts that fell back to a full
        # solve, full group solves, calendar compaction sweeps, and the
        # per-solve filling-level histogram {levels: solves}.
        self._inc_patches = 0
        self._patch_fallbacks = 0
        self._full_resolves = 0
        self._calendar_rebuilds = 0
        self._level_hist: dict = {}
        # Optional telemetry; the counters themselves are loop-locals or
        # plain integer accumulators, so enabling metrics never changes
        # the arithmetic the hot paths execute.
        self.metrics = metrics
        # Optional diagnostics callback, called with the blocked processes
        # when a deadlock is detected; returns (extra message, details).
        self.deadlock_hook: Optional[
            Callable[[List[Process]], Tuple[str, dict]]
        ] = None
        # Optional fault-propagation callback, called as (proc, exc) when
        # a process dies of an ActivityFailed (see repro.faults).
        self.process_failed_hook: Optional[
            Callable[[Process, ActivityFailed], None]
        ] = None

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def add_process(self, name: str, generator: Generator,
                    daemon: bool = False) -> Process:
        """Register a generator as a simulated process, ready to run.

        ``daemon`` processes do not keep the simulation alive (see
        :class:`Process`); the fault injector is one.
        """
        proc = Process(name, generator, daemon=daemon)
        self._processes.append(proc)
        if not daemon:
            self._live_count += 1
        self._ready.append((proc, None))
        return proc

    def kill_process(self, proc: Process, reason: str = "") -> bool:
        """Terminate a process from outside (a host crash killing its
        resident ranks).  Runs the generator's cleanup via ``close()``;
        returns False if the process was already dead."""
        if not proc.alive:
            return False
        proc.alive = False
        proc._wait_token += 1  # drop any registered waits
        proc.generator.close()
        exc = ActivityFailed(None, reason)
        proc.failure = exc
        if not proc.daemon:
            self._live_count -= 1
        hook = self.process_failed_hook
        if hook is not None:
            hook(proc, exc)
        return True

    # ------------------------------------------------------------------
    # Operations processes can yield (built here, waited on by yielding)
    # ------------------------------------------------------------------
    def exec_activity(
        self,
        constraint: Constraint,
        amount: float,
        bound: Optional[float] = None,
        name: str = "",
    ) -> ExecActivity:
        act = ExecActivity(constraint, amount, bound=bound, name=name)
        self.start_activity(act)
        return act

    def comm_activity(
        self,
        links,
        size: float,
        latency: float,
        rate_factor: float = 1.0,
        bound: Optional[float] = None,
        name: str = "",
    ) -> CommActivity:
        act = CommActivity(
            list(links), size, latency, rate_factor=rate_factor,
            bound=bound, name=name,
        )
        self.start_activity(act)
        return act

    def timer(self, duration: float, name: str = "") -> Timer:
        act = Timer(duration, name=name)
        self.start_activity(act)
        return act

    def start_activity(self, act: Activity) -> Activity:
        """Hand an already-built activity to the lazy fluid loop."""
        act.start_time = self.now
        self._enter_phase(act, act.begin(self.now))
        return act

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until all processes finish (or ``until`` seconds of simulated
        time elapse).  Returns the final simulated time."""
        cal = self._calendar
        metrics = self.metrics
        # Telemetry accumulates unconditionally in loop-locals — a few
        # integer increments per event, immeasurable next to the event
        # processing itself, and branchless so the loop executes the
        # exact same bytecode whether metrics are on or off.  Only the
        # flush (in the finally below, so it also runs on deadlock) is
        # guarded.
        popped = fast = generic = comp_total = comp_max = 0
        stale0 = cal.stale
        maxmin_iters0 = self._maxmin_iters
        vector_fillings0 = self._vector_fillings
        idle_advances0 = self._idle_advances
        inc_patches0 = self._inc_patches
        patch_fallbacks0 = self._patch_fallbacks
        full_resolves0 = self._full_resolves
        rebuilds0 = self._calendar_rebuilds
        try:
            while True:
                self._run_ready()
                if self._dirty:
                    size = self._recompute_dirty()
                    if size:
                        if size < 0:  # single-constraint fast path
                            fast += 1
                            size = -size
                        else:
                            generic += 1
                        comp_total += size
                        if size > comp_max:
                            comp_max = size
                    # A recompute may complete drained activities inline,
                    # waking processes and dirtying constraints; settle
                    # all of that at the current instant before touching
                    # the event heap.
                    continue
                if self._live_count == 0:
                    return self.now
                # Pop the next valid completion event.
                item = cal.pop()
                if item is None:
                    raise self._deadlock()
                time_, act = item
                popped += 1
                if until is not None and time_ > until:
                    # Re-arm the event and pause the clock at the horizon.
                    cal.push(time_, act)
                    self.now = until
                    return self.now
                if time_ > self.now:
                    self.now = time_
                # Idle-advance fast path (completion side).  The dirty
                # set is empty here (the recompute branch above always
                # restarts the loop), so when the completing activity is
                # the *only* user of its single, ungrouped-with-anything
                # constraint — the compiled replay's fused compute burst
                # — no other activity's rate can change: unregister it
                # directly and skip dirtying the constraint, which would
                # only buy a guaranteed-no-op recompute pass.
                constraints = act.constraints
                if act.registered and len(constraints) == 1:
                    cons = constraints[0]
                    group = cons.group
                    if (not group.vectorized and len(group.cons) == 1
                            and len(group.acts) == 1
                            and len(cons.users) == 1):
                        self._idle_advances += 1
                        act.remaining = 0.0
                        group.acts.discard(act)
                        cons.users.discard(act)
                        act.registered = False
                        self._enter_phase(act, act.on_phase_end(self.now))
                        self._maybe_compact()
                        continue
                self._end_phase(act)
                self._maybe_compact()
        finally:
            hist, self._level_hist = self._level_hist, {}
            if metrics is not None:
                metrics.events_popped += popped
                metrics.stale_skipped += cal.stale - stale0
                metrics.fastpath_recomputes += fast
                metrics.generic_recomputes += generic
                metrics.component_acts += comp_total
                metrics.maxmin_iterations += (self._maxmin_iters
                                              - maxmin_iters0)
                metrics.vectorized_recomputes += (self._vector_fillings
                                                  - vector_fillings0)
                metrics.idle_advances += (self._idle_advances
                                          - idle_advances0)
                metrics.incremental_patches += (self._inc_patches
                                                - inc_patches0)
                metrics.patch_fallbacks += (self._patch_fallbacks
                                            - patch_fallbacks0)
                metrics.full_resolves += (self._full_resolves
                                          - full_resolves0)
                metrics.calendar_rebuilds += (self._calendar_rebuilds
                                              - rebuilds0)
                mh = metrics.level_hist
                for levels, count in hist.items():
                    mh[levels] = mh.get(levels, 0) + count
                if comp_max > metrics.max_component_acts:
                    metrics.max_component_acts = comp_max

    def _deadlock(self) -> DeadlockError:
        """Build the structured no-progress error, consulting the
        diagnostics hook (the replayer installs one) for layer-specific
        context — which action each rank is stuck in, what is unmatched."""
        blocked_procs = [p for p in self._processes
                         if p.alive and not p.daemon]
        blocked = [p.name for p in blocked_procs]
        message = (
            f"t={self.now:g}: no activity can progress; blocked "
            f"processes: {blocked[:20]}"
            + ("..." if len(blocked) > 20 else "")
        )
        details: dict = {}
        if self.deadlock_hook is not None:
            extra, details = self.deadlock_hook(blocked_procs)
            if extra:
                message += "\n" + extra
        return DeadlockError(message, blocked=blocked, details=details)

    # ------------------------------------------------------------------
    # Phase transitions
    # ------------------------------------------------------------------
    def _enter_phase(self, act: Activity, phase: str) -> None:
        if phase == "done":
            act.finish_time = self.now
            self._complete(act)
        elif phase == "timer":
            act.epoch += 1
            act.rate = 0.0
            act.settled_at = self.now
            self._push(self.now + act.remaining, act)
        elif phase == "sharing":
            constraints = act.constraints
            if len(constraints) == 1:
                cons = constraints[0]
                g = cons.group
                if not cons.users and (
                    g is None
                    or (not g.vectorized and not g.acts
                        and len(g.cons) == 1)
                ):
                    # Idle-advance fast path (start side): a solo
                    # activity on an otherwise-idle constraint gets the
                    # full capacity, clipped by its bound — exactly what
                    # _rerate_single_constraint derives for n=1 — so the
                    # rate and completion event are set here, without
                    # dirtying the constraint.  (If the constraint is
                    # already in the dirty set from an earlier change,
                    # the pending recompute re-derives this same state —
                    # redundant but correct.)
                    act.settled_at = self.now
                    cons.users.add(act)
                    if g is None:
                        g = _Group()
                        cons.group = g
                        g.cons.append(cons)
                    g.acts.add(act)
                    act.registered = True
                    self._idle_advances += 1
                    cap = cons.capacity
                    bound = act.bound
                    rate = (bound if bound is not None and bound < cap
                            else cap)
                    act.epoch += 1
                    act.rate = rate
                    if rate == INF:
                        self._push(self.now, act)
                    elif rate > 0.0:
                        self._push(self.now + act.remaining / rate, act)
                    # rate == 0: stalled; nothing armed (same contract as
                    # _arm_earliest — a later re-rate or the deadlock
                    # report picks it up).
                    return
            act.settled_at = self.now
            dirty = self._dirty
            group: Optional[_Group] = None
            for cons in act.constraints:
                cons.users.add(act)
                dirty.add(cons)
                g = cons.group
                if g is not None and g is not group:
                    group = g if group is None \
                        else self._merge_groups(group, g)
            act.registered = True
            if act.constraints:
                if group is None:
                    group = _Group()
                grouped = group.cons
                for cons in act.constraints:
                    if cons.group is not group:
                        cons.group = group
                        grouped.append(cons)
                group.acts.add(act)
                if group.vectorized:
                    self._vec_add(group, act)
            if not act.constraints:
                # Unconstrained: bound-only or infinite rate.  A zero
                # bound means the activity is stalled (e.g. a flow over a
                # zero-capacity fatpipe): no completion event is armed, so
                # it only ends if something re-rates it — otherwise the
                # main loop reports the deadlock.
                act.epoch += 1
                act.rate = act.bound if act.bound is not None else INF
                if act.rate == INF:
                    self._push(self.now, act)
                elif act.rate > 0.0:
                    self._push(self.now + act.remaining / act.rate, act)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown activity phase {phase!r}")

    def _merge_groups(self, a: _Group, b: _Group) -> _Group:
        """Union two sharing groups (smaller absorbed into larger).

        Array-backed groups are devectorized first — merges are rare
        (they only happen while the sharing topology is still being
        discovered), so the O(n) attribute restore is a non-event; the
        merged group re-attaches on its next large re-rate.
        """
        if a.vectorized:
            self._devectorize(a)
        if b.vectorized:
            self._devectorize(b)
        if len(a.cons) < len(b.cons):
            a, b = b, a
        for cons in b.cons:
            cons.group = a
        a.cons.extend(b.cons)
        a.acts |= b.acts
        return a

    def _end_phase(self, act: Activity) -> None:
        act.remaining = 0.0
        if act.registered:
            constraints = act.constraints
            if constraints:
                group = constraints[0].group
                group.acts.discard(act)
                if group.vectorized:
                    self._vec_remove(group, act)
            for cons in constraints:
                cons.users.discard(act)
                self._dirty.add(cons)
            act.registered = False
        self._enter_phase(act, act.on_phase_end(self.now))

    # ------------------------------------------------------------------
    # Lazy sharing updates
    # ------------------------------------------------------------------
    def _recompute_dirty(self) -> int:
        """Settle and re-rate every activity affected by pending changes.

        Returns the sharing-component size for ``run()``'s telemetry
        locals: 0 when nothing needed re-rating, ``-n`` when the
        single-constraint fast path re-rated ``n`` activities, ``+n``
        when the generic solver handled ``n``.
        """
        seeds, self._dirty = self._dirty, set()
        # Fast path for the overwhelmingly common case — one dirty
        # constraint that is its whole sharing group, e.g. a compute
        # burst starting or ending on an otherwise idle CPU.
        if len(seeds) == 1:
            (cons,) = seeds
            users = cons.users
            if not users:
                return 0
            group = cons.group
            if group is not None and len(group.cons) == 1:
                # The whole group is this one constraint (so every user
                # touches nothing else): equal shares with bounds, no
                # generic filling needed.
                size = len(users)
                self._rerate_single_constraint(cons, users)
                return -size
        # One sharing group at a time.  Groups must be handled
        # independently: each arms its own earliest completion event, and
        # only the group an event belongs to is re-rated when it fires.
        # No graph walk happens here — every dirty constraint already
        # points at its group (maintained by _enter_phase/_end_phase).
        now = self.now
        mode = self.lmm_mode
        done_groups: Set[int] = set()
        total = 0
        for seed in seeds:
            group = seed.group
            if group is None:
                continue  # never had users
            gid = id(group)
            if gid in done_groups:
                continue
            done_groups.add(gid)
            if group.vectorized:
                if mode != "reference":
                    total += group.n
                    self._solve_group(group, now)
                    continue
                # A platform can be re-used by a reference-mode engine
                # after an auto/vectorized run left groups array-backed.
                self._devectorize(group)
            acts = group.acts
            if not acts:
                continue
            total += len(acts)
            if len(group.cons) == 1:
                self._rerate_single_constraint(group.cons[0], acts)
                continue
            if mode == "vectorized" or (
                mode == "auto" and len(acts) >= self.vector_threshold
            ):
                self._vec_attach(group)
                self._solve_group(group, now)
                continue
            # Scalar settle at the old rates, collecting drained
            # activities.
            finished: Optional[List[Activity]] = None
            for act in acts:
                rate = act.rate
                if rate:
                    act.remaining -= (
                        INF if rate == INF
                        else rate * (now - act.settled_at)
                    )
                    if act.remaining < 0.0:
                        act.remaining = 0.0
                act.settled_at = now
                if act.remaining <= 0.0:
                    if finished is None:
                        finished = [act]
                    else:
                        finished.append(act)
            if finished is not None:
                # Complete the drained activities *inline* instead of
                # arming now-events and re-entering here once per pop: a
                # synchronized wave of n simultaneous completions costs
                # O(n) this way, not n recomputes of O(n).  Completion
                # re-dirties the touched constraints, so the survivors
                # are re-rated on the main loop's immediately following
                # pass (their settle then is a no-op — the clock has not
                # moved).
                for act in finished:
                    self._end_phase(act)
                continue
            iterations = self._maxmin(acts)
            self._maxmin_iters += iterations
            self._full_resolves += 1
            hist = self._level_hist
            hist[iterations] = hist.get(iterations, 0) + 1
            self._arm_earliest(acts, now)
        return total

    # ------------------------------------------------------------------
    # Array-backed sharing groups
    # ------------------------------------------------------------------
    @staticmethod
    def _grown(arr: np.ndarray, need: int) -> np.ndarray:
        """Amortized-doubling reallocation preserving the prefix."""
        new = np.empty(max(need, 2 * arr.shape[0]), dtype=arr.dtype)
        new[:arr.shape[0]] = arr
        return new

    def _vec_attach(self, group: _Group) -> None:
        """Switch a group to array-backed sharing state.

        From here on the group's arrays are authoritative for
        remaining / rate / settled_at of its member activities; every
        pending completion event is invalidated (epoch bump) so only
        events armed from the arrays can fire.
        """
        acts_list = list(group.acts)
        n = len(acts_list)
        cap = max(64, 2 * n)
        rem = np.empty(cap)
        rate = np.empty(cap)
        settled = np.empty(cap)
        bnd = np.empty(cap)
        for i, a in enumerate(acts_list):
            rem[i] = a.remaining
            rate[i] = a.rate
            settled[i] = a.settled_at
            b = a.bound
            bnd[i] = INF if b is None else b
            a.epoch += 1
        group.acts_list = acts_list
        group.row = {a: i for i, a in enumerate(acts_list)}
        group.n = n
        group.rem, group.rate, group.settled, group.bnd = (
            rem, rate, settled, bnd)
        cons_list = group.cons
        col = {c: j for j, c in enumerate(cons_list)}
        ncols = len(cons_list)
        caps = np.empty(max(64, 2 * ncols))
        for j, c in enumerate(cons_list):
            caps[j] = c.capacity
        group.col = col
        group.ncols = ncols
        group.caps = caps
        mem_of = {}
        mv: List[int] = []
        mc: List[int] = []
        row = group.row
        for a in acts_list:
            i = row[a]
            slots = []
            for c in a.constraints:
                slots.append(len(mv))
                mv.append(i)
                mc.append(col[c])
            mem_of[a] = slots
        m = len(mv)
        mem_var = np.empty(max(256, 2 * m), dtype=np.intp)
        mem_cons = np.empty(max(256, 2 * m), dtype=np.intp)
        mem_var[:m] = mv
        mem_cons[:m] = mc
        group.mem_var, group.mem_cons, group.m = mem_var, mem_cons, m
        group.mem_of = mem_of
        # Per-constraint membership counts, maintained incrementally by
        # _vec_add/_vec_remove.  Counts are integers, so the float adds
        # are exact and the solver sees the same loads a bincount would
        # produce — this just skips recomputing them every solve.
        loadv = np.zeros(caps.shape[0])
        if m:
            loadv[:ncols] = np.bincount(mem_cons[:m], minlength=ncols)
        group.loadv = loadv
        group.work = {}
        group.armed = None
        # The attribute-backed rates this snapshot inherits may predate
        # pending membership changes without any seed record of them, so
        # the first array solve must be a full one; it then certifies
        # the rate array and arms the incremental path.
        group.seeds = set()
        group.inc_ok = False
        group.vectorized = True

    def _devectorize(self, group: _Group) -> None:
        """Restore attribute-backed state (merges, mode changes)."""
        n = group.n
        for a, r, q, s in zip(group.acts_list, group.rem[:n].tolist(),
                              group.rate[:n].tolist(),
                              group.settled[:n].tolist()):
            a.remaining = r
            a.rate = q
            a.settled_at = s
            a.epoch += 1
        group.vectorized = False
        group.armed = None
        group.seeds = None
        group.inc_ok = False
        group.acts_list = group.row = group.mem_of = group.col = None
        group.rem = group.rate = group.settled = group.bnd = None
        group.mem_var = group.mem_cons = group.caps = None
        group.loadv = group.work = None

    def _vec_add(self, group: _Group, act: Activity) -> None:
        """O(1) amortized: append one activity's row and memberships."""
        i = group.n
        if i >= group.rem.shape[0]:
            group.rem = self._grown(group.rem, i + 1)
            group.rate = self._grown(group.rate, i + 1)
            group.settled = self._grown(group.settled, i + 1)
            group.bnd = self._grown(group.bnd, i + 1)
        group.rem[i] = act.remaining
        group.rate[i] = act.rate
        group.settled[i] = act.settled_at
        b = act.bound
        group.bnd[i] = INF if b is None else b
        group.row[act] = i
        group.acts_list.append(act)
        group.n = i + 1
        col = group.col
        m = group.m
        slots = []
        seeds = group.seeds
        for c in act.constraints:
            j = col.get(c)
            if j is None:
                j = group.ncols
                col[c] = j
                if j >= group.caps.shape[0]:
                    group.caps = self._grown(group.caps, j + 1)
                    group.loadv = self._grown(group.loadv, j + 1)
                group.caps[j] = c.capacity
                group.loadv[j] = 0.0
                group.ncols = j + 1
            group.loadv[j] += 1.0
            seeds.add(j)
            if m >= group.mem_var.shape[0]:
                group.mem_var = self._grown(group.mem_var, m + 1)
                group.mem_cons = self._grown(group.mem_cons, m + 1)
            group.mem_var[m] = i
            group.mem_cons[m] = j
            slots.append(m)
            m += 1
        group.m = m
        group.mem_of[act] = slots

    def _vec_remove(self, group: _Group, act: Activity) -> None:
        """O(1): swap-remove one activity's row and memberships."""
        mem_var = group.mem_var
        mem_cons = group.mem_cons
        mem_of = group.mem_of
        acts_list = group.acts_list
        m = group.m
        # Largest slot first: every position above the slot being freed
        # then belongs to some *other* activity, so the fix-up below
        # never chases the activity being removed.
        loadv = group.loadv
        seeds = group.seeds
        for s in sorted(mem_of.pop(act), reverse=True):
            j = int(mem_cons[s])
            loadv[j] -= 1.0
            seeds.add(j)
            last = m - 1
            if s != last:
                moved_row = int(mem_var[last])
                mem_var[s] = moved_row
                mem_cons[s] = mem_cons[last]
                lst = mem_of[acts_list[moved_row]]
                lst[lst.index(last)] = s
            m -= 1
        group.m = m
        i = group.row.pop(act)
        last = group.n - 1
        last_act = acts_list.pop()
        if last_act is not act:
            acts_list[i] = last_act
            group.row[last_act] = i
            group.rem[i] = group.rem[last]
            group.rate[i] = group.rate[last]
            group.settled[i] = group.settled[last]
            group.bnd[i] = group.bnd[last]
            for s in mem_of[last_act]:
                mem_var[s] = i
        group.n = last

    def _solve_group(self, group: _Group, now: float) -> None:
        """Settle, re-rate and re-arm one array-backed group — no
        per-activity Python work at all on this path.

        Re-rating tries the certified incremental patch first (when
        enabled and the group carries a previous certified solution):
        only the cone of constraints/variables affected by the seed
        columns is re-filled, and the patched vector is accepted only
        when the max-min optimality certificate holds — otherwise the
        full progressive filling runs, and the fallback is counted.
        """
        n = group.n
        if n == 0:
            if group.seeds:
                group.seeds.clear()
            return
        rem = group.rem[:n]
        rate = group.rate[:n]
        settled = group.settled[:n]
        inf_mask = np.isinf(rate)
        has_inf = bool(inf_mask.any())
        # When nothing accrued progress since the last settle (the
        # common re-rate immediately after an inline-completion wave at
        # the same instant), the settle is arithmetic identity — skip it.
        if has_inf or float(settled.min()) < now:
            rem -= rate * (now - settled)
            if has_inf:
                # An infinite old rate drains instantly (and inf * 0
                # time deltas would otherwise leave NaNs behind).
                rem[inf_mask] = 0.0
            np.maximum(rem, 0.0, out=rem)
            settled[:] = now
            done = rem <= 0.0
            if done.any():
                # Inline-completion contract — see _recompute_dirty:
                # finish the drained wave now (each completion
                # swap-removes its rows), survivors re-rate on the main
                # loop's immediately following pass.
                acts_list = group.acts_list
                for a in [acts_list[i]
                          for i in np.nonzero(done)[0].tolist()]:
                    self._end_phase(a)
                return
        seeds = group.seeds
        if (self.incremental and group.inc_ok and seeds
                and group.last_levels >= _PATCH_MIN_LEVELS
                and group.patch_streak < _PATCH_PROBE_EVERY):
            seed_cols = np.fromiter(seeds, dtype=np.intp, count=len(seeds))
            seeds.clear()
            ok, levels, _cone = patch_solve(
                group.caps[:group.ncols],
                group.bnd[:n],
                rate,  # patched in place; restored on failure
                group.mem_var[:group.m],
                group.mem_cons[:group.m],
                seed_cols,
                # This module's binding, so a wrapper installed on
                # engine.fill_vectorized also sees the patch sub-solves.
                fill=fill_vectorized,
            )
            if ok:
                self._inc_patches += 1
                group.patch_streak += 1
                self._maxmin_iters += levels
                if levels:
                    hist = self._level_hist
                    hist[levels] = hist.get(levels, 0) + 1
                self._rearm_group(group, now, rem, rate)
                return
            self._patch_fallbacks += 1
        elif seeds:
            seeds.clear()
        self._vector_fillings += 1
        self._full_resolves += 1
        rates, iterations = fill_vectorized(
            group.caps[:group.ncols],
            group.bnd[:n],
            None,  # engine activities are equal-weight
            group.mem_var[:group.m],
            group.mem_cons[:group.m],
            load=group.loadv[:group.ncols],
            work=group.work,
        )
        self._maxmin_iters += iterations
        hist = self._level_hist
        hist[iterations] = hist.get(iterations, 0) + 1
        rate[:] = rates
        group.inc_ok = True
        group.last_levels = iterations
        group.patch_streak = 0
        self._rearm_group(group, now, rem, rate)

    def _rearm_group(self, group: _Group, now: float,
                     rem: np.ndarray, rate: np.ndarray) -> None:
        """Min-arm one array-backed group after a re-rate.

        O(1) invalidation: only the previously armed activity can hold
        a live calendar event for this group, so one epoch bump (or an
        in-place calendar re-arm) replaces the per-activity sweep.
        """
        prev = group.armed
        if prev is not None:
            prev.epoch += 1
        with np.errstate(divide="ignore"):
            times = rem / rate
        k = int(times.argmin())
        best_t = float(times[k])
        if best_t < INF:
            act = group.acts_list[k]
            group.armed = act
            self._push(now + best_t, act)
        else:
            group.armed = None

    def _arm_earliest(self, acts, now: float) -> None:
        """Arm one completion event: the component's earliest.

        Every other activity's predicted end is invalidated (epoch bump)
        but *not* pushed — by the time it could matter, this component
        has been re-rated (the armed event completing re-dirties it), and
        a fresh earliest is armed.  This keeps the heap at O(components),
        not O(activities), and shrinks both push traffic and stale pops
        by the component size.
        """
        best = None
        best_t = INF
        for act in acts:
            act.epoch += 1
            rate = act.rate
            if rate > 0.0:
                if rate == INF:
                    # Infinite rate with remaining > 0: completes now.
                    best, best_t = act, now
                    break
                t = now + act.remaining / rate
                if t < best_t:
                    best, best_t = act, t
            # rate == 0: saturated at zero — no event; if everyone ends up
            # rate-less the main loop reports a deadlock.
        if best is not None:
            self._push(best_t, best)

    def _rerate_single_constraint(self, cons: Constraint, users) -> None:
        """Max-min over one constraint: bounded users below the fair share
        keep their bound; the rest split what remains equally."""
        now = self.now
        finished = None
        for act in users:
            rate = act.rate
            if rate:
                act.remaining -= (INF if rate == INF else
                                  rate * (now - act.settled_at))
                if act.remaining < 0.0:
                    act.remaining = 0.0
            act.settled_at = now
            if act.remaining <= 0.0:
                if finished is None:
                    finished = [act]
                else:
                    finished.append(act)
        if finished is not None:
            # Same inline-completion contract as _recompute_dirty (the
            # survivors re-rate on the next main-loop pass).
            for act in finished:
                self._end_phase(act)
            return
        remaining_cap = cons.capacity
        unfixed = sorted(
            users,
            key=lambda a: a.bound if a.bound is not None else INF,
        )
        n = len(unfixed)
        idx = 0
        while idx < n:
            share = remaining_cap / (n - idx)
            act = unfixed[idx]
            if act.bound is not None and act.bound < share:
                act.rate = act.bound
                remaining_cap -= act.bound
                idx += 1
            else:
                for j in range(idx, n):
                    unfixed[j].rate = share
                break
        self._arm_earliest(users, now)

    @staticmethod
    def _maxmin(acts: Set[Activity]) -> int:
        """Equal-weight progressive filling with per-activity bounds.
        Returns the number of filling levels (telemetry)."""
        remaining_cap = {}
        load = {}
        for act in acts:
            for cons in act.constraints:
                if cons in load:
                    load[cons] += 1
                else:
                    load[cons] = 1
                    remaining_cap[cons] = cons.capacity
        unfixed = set(acts)
        iterations = 0
        while unfixed:
            iterations += 1
            level = INF
            for cons, weight in load.items():
                if weight > 0:
                    share = remaining_cap[cons] / weight
                    if share < level:
                        level = share
            for act in unfixed:
                if act.bound is not None and act.bound < level:
                    level = act.bound
            if level == INF:
                for act in unfixed:
                    act.rate = INF
                break
            threshold = level + 1e-12 * (level if level > 1.0 else 1.0)
            fixed = []
            for act in unfixed:
                if act.bound is not None and act.bound <= threshold:
                    fixed.append((act, act.bound))
                    continue
                for cons in act.constraints:
                    weight = load[cons]
                    if weight > 0 and remaining_cap[cons] / weight <= threshold:
                        fixed.append((act, level))
                        break
            if not fixed:  # numerical corner: force progress
                fixed = [(act, level) for act in unfixed]
            for act, rate in fixed:
                act.rate = rate
                unfixed.discard(act)
                for cons in act.constraints:
                    cap = remaining_cap[cons] - rate
                    remaining_cap[cons] = cap if cap > 0.0 else 0.0
                    load[cons] -= 1
        return iterations

    # ------------------------------------------------------------------
    # Event-calendar plumbing
    # ------------------------------------------------------------------
    def _push(self, time_: float, act: Activity) -> None:
        self._calendar.push(time_, act)

    def _maybe_compact(self) -> None:
        """Drop stale calendar entries once they dominate (lazy deletion).

        Triggered when the occupied-slot prefix doubles past the live
        count seen at the previous compaction — amortised O(1) per
        event.  The dropped-entry count flows into ``stale_skipped``
        through the calendar's own ``stale`` counter (windowed by
        ``run()``)."""
        cal = self._calendar
        if cal.hi > 2 * self._heap_floor:
            cal.compact()
            self._calendar_rebuilds += 1
            if self.metrics is not None:
                self.metrics.compactions += 1
            self._heap_floor = max(4096, cal.hi)

    # ------------------------------------------------------------------
    # Completion and process scheduling
    # ------------------------------------------------------------------
    def complete_waitable(self, waitable: Waitable) -> None:
        """Complete a derived waitable (e.g. an MPI request): fire its
        callbacks and wake every process blocked on it.  Used by protocol
        layers whose objects are not kernel activities."""
        if waitable.done:
            return
        self._complete(waitable)

    def complete_at(self, waitable: Waitable, when: float) -> None:
        """Complete a derived waitable at absolute time ``when`` (or now,
        if ``when`` has already passed).  The sharded replay driver uses
        this to release parked ranks at the collective exit times the
        coordinator computed for them."""
        if waitable.done:
            return
        if when <= self.now:
            self._complete(waitable)
            return
        t = Timer(when - self.now, name="complete_at")
        t.on_complete(lambda _t: self.complete_waitable(waitable))
        self.start_activity(t)

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults; no-ops in fault-free runs)
    # ------------------------------------------------------------------
    def fail_waitable(self, waitable: Waitable, reason: str = "") -> bool:
        """Move a waitable to the terminal FAILED state.

        Completion callbacks never run; ``on_fail`` callbacks do, and
        every process blocked on it is woken with an
        :class:`ActivityFailed` thrown at its yield point.  Returns
        False if the waitable already reached a terminal state.
        """
        if waitable.done or waitable.failed:
            return False
        waitable._fire_failure(reason)
        waiters, waitable.waiters = waitable.waiters, []
        for proc, token in waiters:
            if proc.alive and proc._wait_token == token:
                proc._wait_token += 1  # consume: ignore other WaitAny fires
                self._ready.append((proc, _FailureWake(
                    ActivityFailed(waitable, reason))))
        return True

    def fail_activity(self, act: Activity, reason: str = "") -> bool:
        """FAIL a kernel activity: unregister it from resource sharing
        (the survivors are re-rated through the normal lazy recompute,
        scalar or vectorized alike), invalidate its pending completion
        event, and propagate the failure to its waiters."""
        if act.done or act.failed:
            return False
        act.remaining = 0.0
        if act.registered:
            constraints = act.constraints
            if constraints:
                group = constraints[0].group
                group.acts.discard(act)
                if group.vectorized:
                    self._vec_remove(group, act)
            for cons in constraints:
                cons.users.discard(act)
                self._dirty.add(cons)
            act.registered = False
        act.epoch += 1  # drop any armed completion/timer event
        act.finish_time = self.now
        return self.fail_waitable(act, reason)

    def set_capacity(self, cons: Constraint, capacity: float) -> None:
        """Change a constraint's capacity mid-run (link degradation or
        restoration) and re-price its in-flight users through the lazy
        recompute path.  Array-backed sharing groups snapshot capacities,
        so the snapshot is patched too."""
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        cons.capacity = float(capacity)
        group = cons.group
        if group is not None and group.vectorized:
            j = group.col.get(cons)
            if j is not None:
                group.caps[j] = cons.capacity
                group.seeds.add(j)
        self._dirty.add(cons)

    def _complete(self, waitable: Waitable) -> None:
        waitable._fire()
        waiters, waitable.waiters = waitable.waiters, []
        for proc, token in waiters:
            if proc.alive and proc._wait_token == token:
                proc._wait_token += 1  # consume: ignore other WaitAny fires
                self._ready.append((proc, waitable))

    def _run_ready(self) -> None:
        while self._ready:
            proc, sendval = self._ready.popleft()
            if not proc.alive:
                continue
            self._step(proc, sendval)

    def _step(self, proc: Process, sendval) -> None:
        generator = proc.generator
        while True:
            try:
                if type(sendval) is _FailureWake:
                    # The waitable this process blocked on FAILED: the
                    # fault surfaces inside the process as an exception.
                    yielded = generator.throw(sendval.error)
                else:
                    yielded = generator.send(sendval)
            except StopIteration as stop:
                proc.alive = False
                proc.result = stop.value
                if not proc.daemon:
                    self._live_count -= 1
                return
            except ActivityFailed as exc:
                # The process did not handle the fault: it dies, the rest
                # of the simulation keeps running (peers blocked on it
                # surface through the deadlock machinery).
                proc.alive = False
                proc.failure = exc
                proc._wait_token += 1
                if not proc.daemon:
                    self._live_count -= 1
                hook = self.process_failed_hook
                if hook is not None:
                    hook(proc, exc)
                return
            if isinstance(yielded, WaitAny):
                done = next((w for w in yielded.waitables if w.done), None)
                if done is not None:
                    sendval = done
                    continue
                failed = next(
                    (w for w in yielded.waitables if w.failed), None)
                if failed is not None:
                    sendval = _FailureWake(
                        ActivityFailed(failed, failed.failure or ""))
                    continue
                token = proc._wait_token
                for w in yielded.waitables:
                    w.waiters.append((proc, token))
                return
            if isinstance(yielded, Waitable):
                if yielded.done:
                    sendval = yielded
                    continue
                if yielded.failed:
                    sendval = _FailureWake(
                        ActivityFailed(yielded, yielded.failure or ""))
                    continue
                yielded.waiters.append((proc, proc._wait_token))
                return
            raise TypeError(
                f"process {proc.name!r} yielded {yielded!r}; expected a "
                "Waitable or WaitAny"
            )
