"""In-memory spans recorded by wrappers around the program's functions.

A span holds a name, start and end times from ``time.perf_counter`` and
the index of its parent span (-1 for a root). Spans stay in a list until
the benchmark writes them out. The workloads call the program from one
thread, so one stack of open spans gives every span its parent.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span per wrapped call while ``active`` is true."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's arguments that
        returns one. ``info(args, kwargs, result)`` returns counts to keep
        on the span; it runs after the span has ended.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span = Span(span_name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent, so a child that outlives its
    parent takes no more than the parent's own interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, ())]
        out.append(s.duration - union_length([c for c in clipped if c[0] < c[1]]))
    return out
