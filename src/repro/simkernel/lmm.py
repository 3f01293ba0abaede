"""Linear max-min (LMM) resource sharing.

This is the resource-sharing heart of the simulation kernel, mirroring the
role of SimGrid's ``lmm`` solver: every shared resource (a network link, a
CPU) is a *constraint* with a capacity, every running activity (a data flow,
a compute burst) is a *variable* that consumes one or more constraints, and
the solver assigns each variable a rate by *progressive filling* (weighted
max-min fairness):

1. For each unsaturated constraint, compute the fair share
   ``remaining_capacity / total_weight_of_unfixed_variables``.
2. Fix every variable crossing the most restrictive constraint at that
   share, subtract its usage everywhere, and repeat.

Variables may carry a ``bound`` (a private rate cap, e.g. the peak flop
rate of a pinned task or a TCP-window limit); bounds are honoured by
treating them as one-variable constraints.

The solver is re-run from scratch whenever the set of active activities
changes.  Two implementations coexist:

* :func:`solve_reference` — the original pure-Python progressive-filling
  loop, O(iterations x variables x constraints).  It stays as the
  readable specification and as the oracle the vectorized path is
  property-tested against (``mode="reference"`` forces it).
* :func:`fill_vectorized` — the same filling expressed over NumPy
  arrays: constraint remaining/load vectors, variable weight/bound
  vectors, and boolean fix masks, so one filling level costs a handful
  of O(variables + memberships) array operations instead of a Python
  scan.  Large sharing components (a 1024-rank communication wave over
  a congested backbone) are where this pays; tiny components are faster
  in pure Python, so :func:`solve` switches on :data:`VECTOR_THRESHOLD`.

On top of a full filling, :func:`patch_solve` performs an
*incremental* certified re-solve: given the rate vector of the previous
solve and the constraints whose membership or capacity changed since,
it rebuilds only the *affected cone* (variables reachable from the
dirty constraints through the saturation graph), re-fills that
subproblem against residual capacities, and certifies the patched rate
vector against the max-min optimality conditions — feasibility plus the
Bertsekas–Gallager bottleneck property, which for equal weights
characterizes the (unique) max-min allocation exactly.  A patch that
cannot be certified is rejected and the caller falls back — loudly,
counted — to a full solve, so correctness never depends on the patch
applying.

Fatpipe constraints (non-shared resources; the model of a non-blocking
switch fabric) must never reach the solver: the engine converts them to
per-activity bounds when an activity is built (see
:class:`~repro.simkernel.activity.CommActivity`).  :func:`solve` enforces
that contract by raising on any fatpipe constraint, because silently
sharing one max-min style would under-allocate every crossing flow.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Constraint",
    "Variable",
    "solve",
    "solve_reference",
    "fill_vectorized",
    "patch_solve",
    "VECTOR_THRESHOLD",
    "LMM_MODES",
]

_EPS = 1e-12

#: Component size at which :func:`solve` (and the engine's lazy recompute)
#: switches from the pure-Python filling to the vectorized one.  Picked
#: from the ``EngineMetrics`` component-size counters of replay telemetry:
#: replay traffic is bimodal — single-digit components for point-to-point
#: wavefronts and folded CPU bursts (where NumPy call overhead loses), and
#: contention waves of hundreds of activities (where it wins by an order
#: of magnitude).  The crossover sits around four dozen activities
#: (~50 us either way); see docs/replay-performance.md for the
#: measurement behind this number.
VECTOR_THRESHOLD = 48

#: Every max-min implementation selector accepted across the stack
#: (``Engine(lmm_mode=...)``, ``TraceReplayer(lmm_mode=...)``,
#: ``repro-replay --lmm``, ``ReplaySpec.lmm_mode``): ``auto`` picks by
#: component size, ``reference`` forces the pure-Python oracle and
#: ``vectorized`` forces NumPy (tests use it to reach array-backed
#: groups at small sizes).
LMM_MODES = ("auto", "reference", "vectorized")


class Constraint:
    """A shared resource with a finite capacity (bytes/s or flops/s).

    ``users`` is maintained by the engine: the set of activities currently
    consuming this constraint.  It is what makes partial (component-wise)
    rate recomputation possible.

    ``capacity`` may change mid-run (link degradation, fault injection),
    but only through ``Engine.set_capacity`` — array-backed sharing groups
    snapshot capacities, and that path keeps the snapshot coherent and
    schedules the re-pricing of in-flight users.
    """

    __slots__ = ("capacity", "name", "users", "fatpipe", "group")

    def __init__(self, capacity: float, name: str = "",
                 fatpipe: bool = False) -> None:
        if capacity < 0:
            raise ValueError(f"constraint capacity must be >= 0, got {capacity}")
        self.capacity = float(capacity)
        self.name = name
        self.users = set()
        # Sharing-group handle, owned by the engine (see engine._Group):
        # constraints transitively connected through shared activities
        # point at the same group, so component recomputation needs no
        # graph walk.
        self.group = None
        # A fatpipe resource is not shared: every crossing activity may
        # use the full capacity independently (SimGrid's FATPIPE sharing
        # policy — the model of a non-blocking switch fabric).  The engine
        # treats it as a per-activity rate cap, not a constraint.
        self.fatpipe = fatpipe

    def clone(self) -> "Constraint":
        """A fresh, unused constraint with the same capacity/sharing
        semantics.  The shard coordinator rebuilds collective phases on
        throwaway engines; cloning keeps those simulations off the live
        platform's engine-owned ``users``/``group`` state entirely."""
        return Constraint(self.capacity, name=self.name,
                          fatpipe=self.fatpipe)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constraint({self.name or id(self)}, cap={self.capacity:g})"


class Variable:
    """An activity's demand on a set of constraints.

    ``weight`` scales consumption: a variable running at rate ``r`` consumes
    ``weight * r`` of each constraint it crosses.  ``bound`` caps the rate
    regardless of what fairness would allow.  After :func:`solve`, ``value``
    holds the allocated rate.
    """

    __slots__ = ("constraints", "weight", "bound", "value", "name")

    def __init__(
        self,
        constraints: Iterable[Constraint],
        weight: float = 1.0,
        bound: Optional[float] = None,
        name: str = "",
    ) -> None:
        self.constraints: List[Constraint] = list(constraints)
        if weight <= 0:
            raise ValueError(f"variable weight must be > 0, got {weight}")
        if bound is not None and bound < 0:
            raise ValueError(f"variable bound must be >= 0, got {bound}")
        self.weight = float(weight)
        self.bound = bound
        self.value = 0.0
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({self.name or id(self)}, value={self.value:g})"


def _reject_fatpipe(cons: Constraint) -> None:
    if cons.fatpipe:
        raise ValueError(
            f"fatpipe constraint {cons.name or id(cons)!r} reached the "
            "max-min solver; fatpipe resources are per-activity caps and "
            "must be folded into the variable's bound before solving "
            "(CommActivity does this for routes)"
        )


def solve(variables: List[Variable], mode: str = "auto") -> None:
    """Assign a max-min fair rate to every variable, in place.

    A variable crossing no constraint and carrying no bound is unconstrained;
    it gets ``float('inf')`` (callers treat infinite-rate activities as
    completing instantly after their latency phase).

    ``mode`` selects the implementation: ``"auto"`` (vectorized at or above
    :data:`VECTOR_THRESHOLD` variables), ``"reference"`` (always the
    pure-Python oracle) or ``"vectorized"`` (always NumPy).  All agree
    to 1e-9 on the resulting rate vector (property-tested).
    """
    if mode == "reference":
        solve_reference(variables)
    elif mode == "vectorized":
        _solve_vectorized(variables)
    elif mode == "auto":
        if len(variables) >= VECTOR_THRESHOLD:
            _solve_vectorized(variables)
        else:
            solve_reference(variables)
    else:
        raise ValueError(
            f"unknown solve mode {mode!r}; use one of {LMM_MODES}"
        )


def solve_reference(variables: List[Variable]) -> None:
    """The pure-Python progressive-filling oracle (see :func:`solve`)."""
    # Reset and collect the constraint set.
    remaining: Dict[Constraint, float] = {}
    load: Dict[Constraint, float] = {}  # total weight of unfixed variables
    unfixed: List[Variable] = []
    for var in variables:
        var.value = 0.0
        if not var.constraints and var.bound is None:
            var.value = float("inf")
            continue
        unfixed.append(var)
        for cons in var.constraints:
            if cons not in remaining:
                _reject_fatpipe(cons)
                remaining[cons] = cons.capacity
                load[cons] = 0.0
            load[cons] += var.weight

    while unfixed:
        # Most restrictive fair share across saturating constraints...
        share = float("inf")
        for cons, rem in remaining.items():
            w = load[cons]
            if w > _EPS:
                share = min(share, rem / w)
        # ... and across private bounds.
        bounded = [v for v in unfixed if v.bound is not None]
        min_bound = min((v.bound for v in bounded), default=float("inf"))
        level = min(share, min_bound)

        if level == float("inf"):
            # Only unconstrained-but-unbounded leftovers (e.g. every
            # crossing constraint already saturated by others at 0 load).
            for var in unfixed:
                var.value = float("inf")
            break

        # Fix: every variable whose bound is reached, plus every variable
        # crossing a constraint saturated at this level.
        to_fix = []
        for var in unfixed:
            if var.bound is not None and var.bound <= level + _EPS * max(1.0, level):
                to_fix.append((var, var.bound))
                continue
            for cons in var.constraints:
                w = load[cons]
                if w > _EPS and remaining[cons] / w <= level + _EPS * max(1.0, level):
                    to_fix.append((var, level))
                    break
        if not to_fix:
            # Numerical corner: nothing saturates exactly; fix everything at
            # the level to guarantee termination.
            to_fix = [(var, level) for var in unfixed]

        fixed_set = {id(v) for v, _ in to_fix}
        for var, rate in to_fix:
            var.value = rate
            for cons in var.constraints:
                remaining[cons] = max(0.0, remaining[cons] - var.weight * rate)
                load[cons] -= var.weight
        unfixed = [v for v in unfixed if id(v) not in fixed_set]


def _scratch(work: dict, key: str, n: int, dtype=float) -> np.ndarray:
    """A reusable length-``n`` view from a caller-owned workspace dict
    (amortized-doubling growth, never shrinks)."""
    arr = work.get(key)
    if arr is None or arr.shape[0] < n:
        arr = np.empty(max(64, 2 * n), dtype=dtype)
        work[key] = arr
    return arr[:n]


def fill_vectorized(
    caps: np.ndarray,
    bounds: np.ndarray,
    weights: Optional[np.ndarray],
    var_idx: np.ndarray,
    cons_idx: np.ndarray,
    load: Optional[np.ndarray] = None,
    work: Optional[dict] = None,
) -> Tuple[np.ndarray, int]:
    """Vectorized weighted max-min progressive filling over arrays.

    ``caps[j]`` is the capacity of constraint ``j``; ``bounds[i]`` the
    private cap of variable ``i`` (``inf`` for none); ``weights[i]`` its
    consumption weight (``None`` means all 1 — the engine's equal-weight
    case); ``var_idx``/``cons_idx`` are parallel membership arrays, one
    entry per (variable, constraint) incidence.  Returns the rate vector
    and the number of filling levels (the telemetry iteration count).

    ``load`` (equal-weight only) lets a caller that maintains per-
    constraint membership counts incrementally skip the ``bincount`` —
    the counts are integers, so the arithmetic is unchanged.  ``work``
    is an optional scratch-buffer dict (see :func:`_scratch`) that
    eliminates every per-call allocation; when given, the returned rate
    vector is a view into it and is only valid until the next call with
    the same workspace — callers must copy it out first.

    The state mirrors :func:`solve_reference` exactly — constraint
    remaining/load vectors, an ``unfixed`` boolean mask — so each loop
    iteration is the same filling level, just computed with array ops.
    """
    n_vars = bounds.shape[0]
    n_cons = caps.shape[0]
    if work is None:
        rates = np.zeros(n_vars)
        remaining = caps.astype(float, copy=True)
        share = np.empty(n_cons)
        touches_saturated = np.empty(n_vars, dtype=bool)
    else:
        rates = _scratch(work, "rates", n_vars)
        rates.fill(0.0)
        remaining = _scratch(work, "remaining", n_cons)
        np.copyto(remaining, caps)
        share = _scratch(work, "share", n_cons)
        touches_saturated = _scratch(work, "touches", n_vars, dtype=bool)
    if weights is None:
        pair_weight = None
        if load is None:
            load = np.bincount(cons_idx, minlength=n_cons).astype(float)
        elif work is None:
            load = load.astype(float, copy=True)
        else:
            scratch = _scratch(work, "load", n_cons)
            np.copyto(scratch, load)
            load = scratch
    else:
        pair_weight = weights[var_idx]
        load = np.bincount(cons_idx, weights=pair_weight, minlength=n_cons)
    unfixed = None  # lazily materialized: the first level fixes all vars
    n_unfixed = n_vars
    iterations = 0
    while n_unfixed:
        iterations += 1
        full = unfixed is None
        # Most restrictive fair share across constraints with load...
        active = load > _EPS
        share.fill(np.inf)
        np.divide(remaining, load, out=share, where=active)
        level = float(share.min()) if n_cons else float("inf")
        # ... and across private bounds of still-unfixed variables.
        min_bound = float(bounds.min() if full else bounds[unfixed].min())
        if min_bound < level:
            level = min_bound
        if level == float("inf"):
            if full:
                rates.fill(np.inf)
            else:
                rates[unfixed] = np.inf
            break
        threshold = level + _EPS * (level if level > 1.0 else 1.0)
        # Fix masks: bound-limited variables, plus variables crossing a
        # constraint saturated at this level.
        saturated = active & (share <= threshold)
        touches_saturated.fill(False)
        pair_sat = saturated[cons_idx]
        if pair_sat.any():
            touches_saturated[var_idx[pair_sat]] = True
        fix_bound = bounds <= threshold
        if not full:
            fix_bound &= unfixed
        fix_level = touches_saturated & ~fix_bound
        if not full:
            fix_level &= unfixed
        fixed = fix_bound | fix_level
        n_fixed = int(np.count_nonzero(fixed))
        if n_fixed:
            rates[fix_bound] = bounds[fix_bound]
            rates[fix_level] = level
        else:
            # Numerical corner: nothing saturates exactly; fix everything
            # at the level to guarantee termination (as the oracle does).
            fixed = unfixed if not full else None
            n_fixed = n_unfixed
            if full:
                rates.fill(level)
            else:
                rates[fixed] = level
        if n_fixed == n_unfixed:
            # Last filling level: every survivor just fixed, so the
            # remaining/load bookkeeping below has no reader.  Skipping
            # it saves the dominant share of the call in the common
            # single-level solve (one bottleneck saturates everyone).
            break
        if full:
            unfixed = np.ones(n_vars, dtype=bool)
        # Subtract the fixed variables' usage from their constraints.
        pair_fixed = fixed[var_idx]
        if pair_fixed.any():
            fixed_cons = cons_idx[pair_fixed]
            usage = rates[var_idx[pair_fixed]]
            if pair_weight is None:
                dropped = np.bincount(fixed_cons, minlength=n_cons)
            else:
                usage = usage * pair_weight[pair_fixed]
                dropped = np.bincount(fixed_cons,
                                      weights=pair_weight[pair_fixed],
                                      minlength=n_cons)
            remaining -= np.bincount(fixed_cons, weights=usage,
                                     minlength=n_cons)
            np.maximum(remaining, 0.0, out=remaining)
            load -= dropped
        unfixed &= ~fixed
        n_unfixed -= n_fixed
    return rates, iterations


def _solve_vectorized(variables: Sequence[Variable]) -> None:
    """NumPy path of :func:`solve`: build arrays, fill, write back."""
    solved: List[Variable] = []
    bounds: List[float] = []
    weights: List[float] = []
    caps: List[float] = []
    var_idx: List[int] = []
    cons_idx: List[int] = []
    cons_index: Dict[int, int] = {}
    for var in variables:
        var.value = 0.0
        if not var.constraints and var.bound is None:
            var.value = float("inf")
            continue
        i = len(solved)
        solved.append(var)
        bounds.append(float("inf") if var.bound is None else var.bound)
        weights.append(var.weight)
        for cons in var.constraints:
            j = cons_index.get(id(cons))
            if j is None:
                _reject_fatpipe(cons)
                j = len(caps)
                cons_index[id(cons)] = j
                caps.append(cons.capacity)
            var_idx.append(i)
            cons_idx.append(j)
    if not solved:
        return
    rates, _ = fill_vectorized(
        np.asarray(caps, dtype=float),
        np.asarray(bounds, dtype=float),
        np.asarray(weights, dtype=float),
        np.asarray(var_idx, dtype=np.intp),
        np.asarray(cons_idx, dtype=np.intp),
    )
    for i, var in enumerate(solved):
        var.value = float(rates[i])


# ---------------------------------------------------------------------------
# Incremental certified re-solve
# ---------------------------------------------------------------------------

#: Relative tolerance of the patch certificate.  Tight enough that a
#: structurally wrong patch (whose error scales like ``capacity /
#: group_size``) can never slip through, loose enough that the ~1 ulp
#: float noise of the sub-solve arithmetic never triggers a spurious
#: fallback.  One decade below the 1e-9 equivalence bar the replay
#: drivers are gated on.
_CERT_RTOL = 1e-10

#: Cone-BFS expansion rounds before the cone is *truncated*.  Exhausting
#: the budget is not a failure: the certificate in step 3 is global (it
#: re-checks feasibility and blockedness of **every** variable in the
#: patched vector), so a truncated cone stays sound — it merely bets
#: that the rate change decays within this radius.  That bet is the
#: normal case on wavefront traffic, where every active link is
#: *topologically* saturated (so BFS closure would swallow the whole
#: component) yet the actual rate perturbation dies out within a hop or
#: two.  Kept small: each round is an O(memberships) mask pass, paid on
#: every attempt.
_CONE_ROUNDS = 3

#: When set to a dict, :func:`patch_solve` counts outcomes here by
#: reason ("ok", "empty_cone", "nonfinite", "cone_limit",
#: "sub_nonfinite", "infeasible", "not_blocked", plus the non-terminal
#: "truncated" marking attempts whose cone hit the round budget) — a
#: diagnosis aid for unexpected ``patch_fallbacks`` rates, not a
#: stable API.
patch_debug: Optional[dict] = None


def _note(reason: str) -> None:
    debug = patch_debug
    if debug is not None:
        debug[reason] = debug.get(reason, 0) + 1


def patch_solve(
    caps: np.ndarray,
    bounds: np.ndarray,
    rates: np.ndarray,
    var_idx: np.ndarray,
    cons_idx: np.ndarray,
    seed_cols: np.ndarray,
    fill=None,
    cone_limit: Optional[int] = None,
) -> Tuple[bool, int, int]:
    """Incrementally re-solve an equal-weight max-min system in place.

    ``rates`` holds the previous solve's rate vector with the
    membership changes already applied around it: departed variables'
    rows are gone, arrived variables are present with their current
    (typically zero) rate, and ``seed_cols`` lists the constraint
    columns those arrivals/departures/capacity-changes touched.

    The patch has three steps:

    1. **Cone.**  Starting from the seed columns, pull in every user of
       a dirty column, then expand through *saturated* columns only —
       an unsaturated constraint transmits no rate pressure, so its
       untouched users keep their rates.  Expansion stops after
       :data:`_CONE_ROUNDS` rounds (the cone is *truncated*, betting
       that the rate change decays within that radius; the global
       certificate keeps the bet safe) and the attempt is abandoned
       outright only past ``cone_limit`` variables (default
       ``max(16, n_vars // 2)``), where a sub-solve approaches full
       cost anyway.
    2. **Sub-solve.**  Progressive filling over the cone variables
       alone, against each touched constraint's residual capacity
       (capacity minus the usage of the out-of-cone variables, whose
       rates are kept).
    3. **Certificate.**  The patched full-group vector is accepted only
       if it is feasible on every constraint and every variable is
       either at its private bound or crosses a saturated constraint on
       which it has a maximal rate — for equal weights this is the
       Bertsekas–Gallager bottleneck characterization, which is
       necessary *and* sufficient for the (unique) max-min allocation.
       So a certified patch equals a full re-solve up to float noise,
       by construction, not by luck.

    Returns ``(ok, filling_levels, cone_size)``.  On ``ok=False`` the
    ``rates`` vector is left exactly as it came in and the caller must
    run a full solve; the engine counts that as ``patch_fallbacks``.
    """
    n = rates.shape[0]
    ncols = caps.shape[0]
    if n == 0:
        return True, 0, 0
    # Infinite rates (a variable whose every constraint has infinite
    # capacity) and infinite capacities break the residual arithmetic;
    # both are vanishingly rare in replay groups — full solve.
    if not np.isfinite(caps).all() or not np.isfinite(rates).all():
        _note("nonfinite")
        return False, 0, 0
    if cone_limit is None:
        cone_limit = max(16, n // 2)

    usage = np.bincount(cons_idx, weights=rates[var_idx], minlength=ncols)
    cap_tol = _CERT_RTOL * np.maximum(caps, 1.0)
    saturated = usage >= caps - cap_tol

    # --- 1. cone ----------------------------------------------------------
    cone_vars = np.zeros(n, dtype=bool)
    visited_cols = np.zeros(ncols, dtype=bool)
    frontier = np.zeros(ncols, dtype=bool)
    frontier[seed_cols] = True
    n_cone = 0
    for _ in range(_CONE_ROUNDS):
        visited_cols |= frontier
        pull = frontier[cons_idx] & ~cone_vars[var_idx]
        if pull.any():
            cone_vars[var_idx[pull]] = True
            n_cone = int(np.count_nonzero(cone_vars))
            if n_cone > cone_limit:
                _note("cone_limit")
                return False, 0, n_cone
        touched = np.zeros(ncols, dtype=bool)
        touched[cons_idx[cone_vars[var_idx]]] = True
        frontier = touched & saturated & ~visited_cols
        if not frontier.any():
            break
    else:
        # The saturation graph kept expanding past the round budget.
        # Do NOT give up: proceed with the truncated cone and let the
        # global certificate below decide whether the change really
        # stayed inside it.  (Topological saturation closure routinely
        # covers a whole wavefront while the actual rate change decays
        # within a couple of hops.)
        _note("truncated")
    if n_cone == 0:
        # Seeds with no remaining users (e.g. the last variable left the
        # column): nothing to re-rate, and nobody else can have moved.
        _note("empty_cone")
        return True, 0, 0

    # --- 2. sub-solve against residual capacities -------------------------
    cone_pairs = cone_vars[var_idx]
    pair_vars = var_idx[cone_pairs]
    pair_cols = cons_idx[cone_pairs]
    sub_col_ids = np.unique(pair_cols)
    col_map = np.full(ncols, -1, dtype=np.intp)
    col_map[sub_col_ids] = np.arange(sub_col_ids.shape[0])
    sub_var_ids = np.flatnonzero(cone_vars)
    var_map = np.full(n, -1, dtype=np.intp)
    var_map[sub_var_ids] = np.arange(n_cone)
    cone_usage = np.bincount(pair_cols, weights=rates[pair_vars],
                             minlength=ncols)
    sub_caps = caps[sub_col_ids] - (usage[sub_col_ids]
                                    - cone_usage[sub_col_ids])
    np.maximum(sub_caps, 0.0, out=sub_caps)
    if fill is None:
        fill = fill_vectorized
    sub_rates, levels = fill(
        sub_caps,
        bounds[sub_var_ids],
        None,
        var_map[pair_vars],
        col_map[pair_cols],
    )
    if not np.isfinite(sub_rates).all():
        _note("sub_nonfinite")
        return False, levels, n_cone

    old_rates = rates[sub_var_ids].copy()
    rates[sub_var_ids] = sub_rates

    # --- 3. certificate ---------------------------------------------------
    # Only cone variables moved, so post-patch usage differs from the
    # pre-patch accumulation on the cone's columns alone: swap the old
    # cone contribution for the new one instead of re-accumulating all
    # memberships.
    pair_rates = rates[var_idx]
    new_cone_usage = np.bincount(pair_cols, weights=rates[pair_vars],
                                 minlength=ncols)
    usage2 = usage + (new_cone_usage - cone_usage)
    if not (usage2 <= caps + cap_tol).all():
        rates[sub_var_ids] = old_rates
        _note("infeasible")
        return False, levels, n_cone
    maxrate = np.full(ncols, -np.inf)
    np.maximum.at(maxrate, cons_idx, pair_rates)
    sat2 = usage2 >= caps - cap_tol
    rate_tol = _CERT_RTOL * np.maximum(np.abs(maxrate), 1.0)
    pair_ok = sat2[cons_idx] & (pair_rates
                                >= (maxrate - rate_tol)[cons_idx])
    blocked = np.zeros(n, dtype=bool)
    blocked[var_idx[pair_ok]] = True
    if not blocked.all():
        finite_bound = np.isfinite(bounds)
        at_bound = finite_bound.copy()
        if finite_bound.any():
            fb = bounds[finite_bound]
            at_bound[finite_bound] = (
                rates[finite_bound]
                >= fb - _CERT_RTOL * np.maximum(fb, 1.0))
        if not (blocked | at_bound).all():
            rates[sub_var_ids] = old_rates
            _note("not_blocked")
            return False, levels, n_cone
    _note("ok")
    return True, levels, n_cone
