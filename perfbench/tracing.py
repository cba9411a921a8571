"""Benchmark-side spans: recorded around calls into each layer, kept in memory.

The program is not instrumented.  The traced run wraps the public calls the
benchmark makes (a cache subclass it passes to the service, a store wrapper
it passes to the cache, spec objects whose ``build`` it times, oracle
wrappers it passes to ``run_corpus``, kernel calls it makes directly) and
records ``(layer, kind, op, start, end)`` for each.  :func:`self_times` then splits
every op's wall time over the layers: at each instant the innermost active
layer owns the time, and instants no layer covers are the unattributed
remainder.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Layer nesting, innermost first: when spans overlap, the earlier layer in
#: this tuple owns the time.
LAYER_ORDER = (
    "store",
    "cache",
    "build",
    "assoc",
    "analysis",
    "service",
)


class SpanLog:
    """Append-only span list; appends are atomic under the interpreter lock."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, int, float, float]] = []
        self.ops: list[tuple[int, float, float]] = []
        self._local = threading.local()

    @property
    def current_op(self) -> int:
        return getattr(self._local, "op", -1)

    @contextmanager
    def span(self, kind: str, op: int):
        """Time one call; *kind* is ``<layer>.<call>`` (e.g. ``cache.get``)."""
        layer = kind.split(".", 1)[0]
        previous = self.current_op
        self._local.op = op
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((layer, kind, op, t0, time.perf_counter()))
            self._local.op = previous

    def op_done(self, op: int, t0: float, t1: float) -> None:
        self.ops.append((op, t0, t1))

    def durations(self, kind: str) -> list[float]:
        """Every span duration of *kind*, in seconds."""
        return [t1 - t0 for _, name, _, t0, t1 in self.spans if name == kind]

    def write(self, path: Path, **header: object) -> None:
        """Dump ops and spans as JSON, after *header* (workload, seed, ...)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, ops=self.ops, spans=self.spans)
        path.write_text(json.dumps(doc))


def _covered(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of intervals as a sorted, disjoint list."""
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _measure(intervals: list[tuple[float, float]]) -> float:
    return sum(b - a for a, b in intervals)


def _subtract(
    keep: list[tuple[float, float]], remove: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """``keep`` minus ``remove``; both sorted and disjoint."""
    out: list[tuple[float, float]] = []
    for a, b in keep:
        cur = a
        for c, d in remove:
            if d <= cur or c >= b:
                continue
            if c > cur:
                out.append((cur, c))
            cur = max(cur, d)
        if cur < b:
            out.append((cur, b))
    return out


def self_times(log: SpanLog) -> tuple[dict[str, float], float, int]:
    """Mean self time per op for every layer (ms), the unattributed remainder
    (ms per op), and the number of ops.

    An op's interval is split by :data:`LAYER_ORDER`: each layer gets the part
    of its spans (clipped to the op) that no more-inner layer covers.
    """
    by_op: dict[int, dict[str, list[tuple[float, float]]]] = {}
    for layer, _, op, t0, t1 in log.spans:
        by_op.setdefault(op, {}).setdefault(layer, []).append((t0, t1))
    totals = {layer: 0.0 for layer in LAYER_ORDER}
    remainder = 0.0
    for op, t0, t1 in log.ops:
        layers = by_op.get(op, {})
        taken: list[tuple[float, float]] = []
        for layer in LAYER_ORDER:
            spans = [
                (max(a, t0), min(b, t1))
                for a, b in layers.get(layer, [])
                if min(b, t1) > max(a, t0)
            ]
            own = _subtract(_covered(spans), taken)
            totals[layer] += _measure(own)
            taken = _covered(taken + own)
        remainder += (t1 - t0) - _measure(taken)
    n = max(len(log.ops), 1)
    return (
        {layer: total * 1e3 / n for layer, total in totals.items()},
        remainder * 1e3 / n,
        len(log.ops),
    )
