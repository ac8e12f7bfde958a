"""In-memory spans and counts for the traced benchmark run.

A span records one call into a layer: name, start, end, the span that
caused it and the unit of work (an op or a set-up) it belongs to. Counts are
attached to the span of the call that did the work, so ratios come from
counts taken where the work happens. Spans stay in memory until the run
ends; a disabled tracer records nothing and hands out a shared no-op span.
"""

from __future__ import annotations

import time


class Span:
    """One call into a layer; used as a context manager it times itself."""

    __slots__ = ("tracer", "id", "parent", "unit", "name", "start_ns", "end_ns", "counts")

    def __init__(self, tracer: "Tracer | None", span_id: int, parent: int | None,
                 unit: str, name: str):
        self.tracer = tracer
        self.id = span_id
        self.parent = parent
        self.unit = unit
        self.name = name
        self.start_ns = 0
        self.end_ns = 0
        self.counts: dict[str, float] = {}

    def __enter__(self) -> "Span":
        self.tracer._stack.append(self.id)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end_ns = time.perf_counter_ns()
        self.tracer._stack.pop()
        self.tracer.spans.append(self)
        return False

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "unit": self.unit,
                "name": self.name, "start_ns": self.start_ns,
                "end_ns": self.end_ns, "counts": self.counts}


class _NullSpan:
    __slots__ = ()

    def count(self, key: str, value: float) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans opened with ``span(name)``; nesting follows the call stack.

    Single-threaded by design: the benchmark opens every span on its main
    thread, around calls into posekit's public functions.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.unit = ""
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        span = Span(self, self._next_id, parent, self.unit, name)
        self._next_id += 1
        return span


NULL_TRACER = Tracer(enabled=False)


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
            lo = max(c.start_ns, cursor)
            hi = min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration_ns - covered
    return out
