"""In-memory span recorder used by the traced benchmark run.

A span records a name, start and end (``perf_counter`` seconds), the index
of its parent span and the item it belongs to. Spans stay in a list while the
run measures and are written out once it ends. A span's self time is its
duration minus the time its direct children cover; children always nest
inside their parent, so that cover is the sum of their durations.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: object


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, item=None):
        """Record the enclosed block; a span without an item takes its parent's."""
        parent = self._stack[-1] if self._stack else None
        if item is None and parent is not None:
            item = self.spans[parent].item
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, item))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, aligned with ``spans``."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def per_item_ms(self, name: str, self_time: bool = True) -> list[float]:
        """Milliseconds spent in spans called ``name``, summed per item, in item order.

        Spans recorded outside any item form one group of their own.
        """
        times = self.self_times() if self_time else [s.end - s.start for s in self.spans]
        totals: dict = {}
        for s, t in zip(self.spans, times):
            if s.name == name:
                totals[s.item] = totals.get(s.item, 0.0) + t * 1e3
        return list(totals.values())

    def median_ms(self, name: str, self_time: bool = True) -> float:
        values = self.per_item_ms(name, self_time)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(values)

    def records(self, phase: str, origin: float) -> list[dict]:
        """One JSON-ready record per span, times in seconds from ``origin``."""
        return [{"phase": phase, "name": s.name, "start_s": s.start - origin,
                 "end_s": s.end - origin, "parent": s.parent, "item": s.item}
                for s in self.spans]
