"""In-memory spans around the calls into each layer, and self times.

A span is ``(id, name, start, end, parent)``; the benchmark keeps them
in a list and writes them out once, when the run ends.  A span's self
time is its duration minus the part of its interval that its child
spans cover.

:func:`instrument` wraps the layer entry points the replayer reaches
through module globals: ``compile_source`` as bound in
``repro.core.replay`` (the ``.tic`` load of a warm replay), and
``fill_vectorized``/``patch_solve`` as bound in
``repro.simkernel.engine``.  ``Engine.__init__`` binds ``_fill`` when
it runs, so replayers must be built inside the ``with`` block.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, Optional[int]]


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._stack: List[int] = []
        self._next_id = 0

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        """Record a finished span, e.g. one built from server-side
        timestamps; returns its id."""
        span = (self._next_id, name, start, end, parent)
        self._next_id += 1
        self.spans.append(span)
        self._by_id[span[0]] = span
        return span[0]

    def duration(self, span_id: int) -> float:
        span = self._by_id[span_id]
        return span[3] - span[2]

    def name_of(self, span_id: int) -> str:
        return self._by_id[span_id][1]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span = (span_id, name, start, end, parent)
            self.spans.append(span)
            self._by_id[span_id] = span

    def wrap(self, name: str, func):
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    def subtree(self, root_id: int) -> List[Span]:
        """The span ``root_id`` and all its descendants."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[4]].append(span[0])
        out, todo = [], [root_id]
        while todo:
            span_id = todo.pop()
            out.append(self._by_id[span_id])
            todo.extend(children[span_id])
        return out

    def write(self, path: str, fingerprint: Dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fingerprint": fingerprint}) + "\n")
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start,
                     "end": end, "parent": parent,
                     "workload": self.workload}) + "\n")


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per span name.

    The self times of a span tree sum to the duration of its roots,
    because every instant of a root is covered by exactly one span's
    self time (children lie inside their parent's interval).
    """
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: Dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _ in spans:
        totals[name] += (end - start) - _covered(children[span_id])
    return dict(totals)


def span_counts(spans: Sequence[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[1]] += 1
    return dict(counts)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Trace ingest and LMM calls made by replayers built in the block."""
    import repro.core.replay as replay_mod
    import repro.simkernel.engine as engine_mod

    saved = (replay_mod.compile_source, engine_mod.fill_vectorized,
             engine_mod.patch_solve)
    replay_mod.compile_source = tracer.wrap("ingest.tic_load", saved[0])
    engine_mod.fill_vectorized = tracer.wrap("lmm.fill", saved[1])
    engine_mod.patch_solve = tracer.wrap("lmm.patch", saved[2])
    try:
        yield
    finally:
        (replay_mod.compile_source, engine_mod.fill_vectorized,
         engine_mod.patch_solve) = saved
