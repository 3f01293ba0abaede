"""Incremental certified max-min re-solve and the array event calendar.

The headline contracts:

* ``patch_solve`` either produces exactly the allocation a full
  ``solve_reference`` would (to 1e-9) or reports failure with the rate
  vector untouched — on randomized arrival/departure histories, not
  just hand-picked ones;
* the engine's patch path changes no observable result: completion
  times match the non-incremental engine exactly, even when every
  patch attempt is forced to fall back;
* the ``_Calendar`` replacement for the event heap preserves the old
  (time, FIFO-seq) pop order, invalidation semantics, and compaction
  behaviour.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Constraint, Engine
from repro.simkernel.engine import _Calendar
from repro.simkernel.lmm import (
    Variable, fill_vectorized, patch_solve, solve_reference,
)
from repro.simkernel.telemetry import EngineMetrics


# ---------------------------------------------------------------------------
# patch_solve: unit cases
# ---------------------------------------------------------------------------

def test_patch_applies_on_local_departure():
    """Two independent links; a departure on link 0 re-rates only its
    survivor and leaves link 1 untouched."""
    caps = np.asarray([100.0, 60.0])
    # Variables 0 (link 0), 1 and 2 (link 1); variable 0's former peer
    # on link 0 just departed, so rates still show the old 50/50 split.
    rates = np.asarray([50.0, 30.0, 30.0])
    bounds = np.full(3, np.inf)
    var_idx = np.asarray([0, 1, 2], dtype=np.intp)
    cons_idx = np.asarray([0, 1, 1], dtype=np.intp)
    ok, levels, cone = patch_solve(caps, bounds, rates, var_idx, cons_idx,
                                   np.asarray([0], dtype=np.intp))
    assert ok
    assert cone == 1
    np.testing.assert_allclose(rates, [100.0, 30.0, 30.0])


def test_patch_fallback_restores_rates_exactly():
    caps = np.asarray([100.0])
    rates = np.asarray([50.0, 0.0])  # arrival with rate 0, stale peer
    bounds = np.full(2, np.inf)
    var_idx = np.asarray([0, 1], dtype=np.intp)
    cons_idx = np.asarray([0, 0], dtype=np.intp)
    before = rates.copy()
    ok, _, _ = patch_solve(caps, bounds, rates, var_idx, cons_idx,
                           np.asarray([0], dtype=np.intp), cone_limit=0)
    assert not ok
    np.testing.assert_array_equal(rates, before)


def test_patch_refuses_nonfinite_state():
    caps = np.asarray([np.inf])
    rates = np.asarray([1.0])
    bounds = np.asarray([np.inf])
    idx = np.asarray([0], dtype=np.intp)
    ok, _, _ = patch_solve(caps, bounds, rates, idx, idx,
                           np.asarray([0], dtype=np.intp))
    assert not ok


def test_patch_empty_cone_when_last_user_departs():
    """Seeds whose columns have no remaining users: nothing to re-rate,
    trivially certified."""
    caps = np.asarray([100.0, 60.0])
    rates = np.asarray([60.0])           # only link 1's user remains
    bounds = np.asarray([np.inf])
    var_idx = np.asarray([0], dtype=np.intp)
    cons_idx = np.asarray([1], dtype=np.intp)
    ok, levels, cone = patch_solve(caps, bounds, rates, var_idx, cons_idx,
                                   np.asarray([0], dtype=np.intp))
    assert ok and cone == 0 and levels == 0
    np.testing.assert_array_equal(rates, [60.0])


# ---------------------------------------------------------------------------
# patch_solve: randomized arrival/departure histories vs the oracle
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_patch_history_matches_reference_oracle(data):
    """Replay a random history of arrivals and swap-remove departures
    (mixed private bounds, equal weights — the engine's contract) through
    ``patch_solve``.  After every step the live rate vector must equal a
    from-scratch ``solve_reference`` to 1e-9: directly when the patch
    certifies, and after the counted full-fill fallback when it does
    not.  Fatpipe resources never reach this layer (the engine turns
    them into the private bounds drawn here)."""
    ncols = data.draw(st.integers(1, 5))
    caps_list = data.draw(st.lists(st.floats(0.1, 1e6),
                                   min_size=ncols, max_size=ncols))
    caps = np.asarray(caps_list)
    active = []            # (cols, bound) per live variable
    rates = np.zeros(0)
    fallbacks = 0
    for _ in range(data.draw(st.integers(1, 10))):
        if active and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(active) - 1))
            seeds = set(active[i][0])
            last = len(active) - 1
            active[i] = active[last]
            active.pop()
            rates[i] = rates[last]       # engine-style swap-remove
            rates = rates[:last].copy()
        else:
            cols = data.draw(st.lists(st.integers(0, ncols - 1),
                                      min_size=1, max_size=ncols,
                                      unique=True))
            bound = data.draw(st.one_of(st.none(),
                                        st.floats(0.1, 1e6)))
            active.append((cols, bound))
            rates = np.append(rates, 0.0)
            seeds = set(cols)
        if not active:
            continue
        bounds = np.asarray([np.inf if b is None else b
                             for _, b in active])
        var_idx = np.asarray([vi for vi, (cols, _) in enumerate(active)
                              for _ in cols], dtype=np.intp)
        cons_idx = np.asarray([c for cols, _ in active for c in cols],
                              dtype=np.intp)
        ok, _, _ = patch_solve(caps, bounds, rates, var_idx, cons_idx,
                               np.asarray(sorted(seeds), dtype=np.intp))
        if not ok:
            fallbacks += 1
            rates, _ = fill_vectorized(caps, bounds, None,
                                       var_idx, cons_idx)
        cons_objs = [Constraint(c) for c in caps_list]
        variables = [Variable([cons_objs[c] for c in cols], bound=b)
                     for cols, b in active]
        solve_reference(variables)
        expect = np.asarray([v.value for v in variables])
        np.testing.assert_allclose(rates, expect, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# The array event calendar
# ---------------------------------------------------------------------------

class _FakeAct:
    """The three attributes _Calendar reads off an activity."""

    __slots__ = ("epoch", "done", "cal_slot")

    def __init__(self) -> None:
        self.epoch = 0
        self.done = False
        self.cal_slot = -1


def test_calendar_pops_by_time_then_fifo():
    cal = _Calendar()
    a, b, c = _FakeAct(), _FakeAct(), _FakeAct()
    cal.push(2.0, a)
    cal.push(1.0, b)
    cal.push(2.0, c)
    assert cal.pop() == (1.0, b)
    assert cal.pop() == (2.0, a)   # FIFO among simultaneous events
    assert cal.pop() == (2.0, c)
    assert cal.pop() is None


def test_calendar_inplace_rearm_keeps_one_slot():
    cal = _Calendar()
    act = _FakeAct()
    cal.push(5.0, act)
    slot = act.cal_slot
    act.epoch += 1                 # invalidate the armed entry
    cal.push(3.0, act)             # re-arm: same slot, no leftover
    assert act.cal_slot == slot
    assert len(cal) == 1
    assert cal.pop() == (3.0, act)
    assert cal.pop() is None
    assert cal.stale == 0          # the stale entry was overwritten


def test_calendar_compaction_drops_stale_and_keeps_order():
    """The regression the compaction watermark exists for: every
    invalidated entry (done flag or epoch bump) is dropped, and the
    survivors still pop in exact (time, FIFO) order afterwards."""
    cal = _Calendar()
    acts = [_FakeAct() for _ in range(50)]
    for i, act in enumerate(acts):
        cal.push(float(i // 2), act)   # duplicate times exercise FIFO
    for i, act in enumerate(acts):
        if i % 4 == 0:
            act.done = True
        elif i % 2 == 0:
            act.epoch += 1
    cal.compact()
    assert len(cal) == 25
    assert cal.stale == 25
    popped = [cal.pop() for _ in range(25)]
    assert popped == [(float(i // 2), acts[i])
                      for i in range(50) if i % 2 == 1]
    assert cal.pop() is None


def test_calendar_grows_past_initial_capacity():
    cal = _Calendar()
    acts = [_FakeAct() for _ in range(600)]   # initial capacity is 256
    for i, act in enumerate(acts):
        cal.push(float(i), act)
    assert [cal.pop()[1] for _ in range(600)] == acts


def test_engine_counts_calendar_rebuilds():
    """Churny workload with a lowered watermark: compactions fire, are
    surfaced as ``calendar_rebuilds``, and change nothing observable.
    Forty concurrent single-activity groups keep forty armed calendar
    slots live, so the occupied prefix clears the tiny watermark."""
    def run(lowered):
        metrics = EngineMetrics()
        engine = Engine(metrics=metrics)
        if lowered:
            engine._heap_floor = 8
        cpus = [Constraint(1e9, f"cpu{k}") for k in range(40)]
        ends = {}

        def proc(name, k):
            for i in range(20):
                yield engine.exec_activity(cpus[k],
                                           1e6 * (1 + (k + i) % 5))
            ends[name] = engine.now

        for k in range(40):
            engine.add_process(f"p{k}", proc(f"p{k}", k))
        engine.run()
        return ends, metrics.as_dict()

    base_ends, base = run(lowered=False)
    ends, lowered = run(lowered=True)
    assert ends == base_ends
    assert base["calendar_rebuilds"] == 0
    assert lowered["calendar_rebuilds"] >= 1
    assert lowered["calendar_rebuilds"] == lowered["heap_compactions"]


# ---------------------------------------------------------------------------
# The engine's incremental path
# ---------------------------------------------------------------------------

def _staggered_run(metrics=None, **engine_kwargs):
    """A workload whose arrivals/departures hit a vectorized
    multi-constraint group at distinct instants: flows over a small
    link ring (one shared group — single-constraint groups would take
    the engine's scalar fast path and never reach the solver), mixed
    bounds for multi-level fillings, staggered starts for patch seeds.
    """
    engine = Engine(metrics=metrics, vector_threshold=4, **engine_kwargs)
    links = [Constraint(1e8, f"l{i}") for i in range(3)]
    pairs = [(0, 1), (1, 2), (0, 2)]
    ends = {}

    def proc(name, k):
        if k:
            yield engine.timer(0.02 * k)
        a, b = pairs[k % 3]
        bound = [None, 0.6e8, 0.2e8][k % 3]
        yield engine.comm_activity([links[a], links[b]],
                                   size=1e7 * (k + 2), latency=0.0,
                                   bound=bound)
        ends[name] = engine.now

    for k in range(12):
        engine.add_process(f"p{k}", proc(f"p{k}", k))
    engine.run()
    return ends


def test_incremental_engine_matches_full_engine(monkeypatch):
    monkeypatch.setattr("repro.simkernel.engine._PATCH_MIN_LEVELS", 0)
    metrics = EngineMetrics()
    ends = _staggered_run(metrics=metrics, incremental=True)
    assert ends == _staggered_run(incremental=False)
    assert ends == _staggered_run()    # incremental defaults on
    doc = metrics.as_dict()
    assert doc["incremental_patches"] > 0
    assert doc["full_resolves"] > 0
    assert doc["filling_level_histogram"]
    # Histogram keys are strings (JSON/merge-friendly) counting levels.
    assert all(int(k) >= 1 for k in doc["filling_level_histogram"])


def test_every_patch_forced_to_fall_back_is_counted_and_harmless(
        monkeypatch):
    """The loud-fallback contract: even if no patch ever certifies, the
    replay result is untouched and every failure is counted."""
    monkeypatch.setattr("repro.simkernel.engine._PATCH_MIN_LEVELS", 0)
    baseline = _staggered_run(incremental=False)
    monkeypatch.setattr("repro.simkernel.engine.patch_solve",
                        lambda *a, **k: (False, 0, 0))
    metrics = EngineMetrics()
    assert _staggered_run(metrics=metrics, incremental=True) == baseline
    doc = metrics.as_dict()
    assert doc["patch_fallbacks"] > 0
    assert doc["incremental_patches"] == 0


def test_incremental_toggle_defaults_and_validation():
    assert Engine().incremental is True
    assert Engine(incremental=False).incremental is False
    with pytest.raises(ValueError, match="unknown lmm_mode"):
        Engine(lmm_mode="fancy")
