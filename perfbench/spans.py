"""In-memory spans recorded around calls into ccsk, and their self times.

A span has a name, start and end (``time.perf_counter`` seconds), the index of
the span that was open when it started (-1 for none) and the id of the op it
belongs to. Spans are kept in a list and written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

perf_counter = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int


class Tracer:
    """Records spans when enabled; when not, ``span`` does nothing.

    Untraced and traced runs take the same per-call timings, so end-to-end
    figures from either are comparable; tracing only adds the span records.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.op))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = perf_counter()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - _covered(children.get(i, []), s.start, s.end)
            for i, s in enumerate(spans)]


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (number of spans, summed self time in seconds)."""
    out: dict[str, tuple[int, float]] = {}
    for s, busy in zip(spans, self_times(spans)):
        calls, total = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, total + busy)
    return out


def span_cost(repeats: int = 20000) -> float:
    """Seconds one empty span adds, measured on a throwaway tracer."""
    tr = Tracer(True)
    t0 = perf_counter()
    for _ in range(repeats):
        with tr.span("calibrate"):
            pass
    traced = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(repeats):
        pass
    return max(traced - (perf_counter() - t0), 0.0) / repeats
