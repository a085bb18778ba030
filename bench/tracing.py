"""In-memory span recorder for the traced benchmark run.

A span is (id, name, parent id, start, end) with times from
time.perf_counter(). Spans are kept in memory; the benchmark writes them
out once, when the run ends. The plain runs carry no tracing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, parent, start, end]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()

    def wrap(self, fn, name: str):
        """`fn` with every call recorded as one span called `name`."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _children_time(self) -> dict[int, float]:
        covered: dict[int, float] = {}
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return covered

    def total(self, name: str) -> float:
        """Summed duration of every span called `name`."""
        return sum(end - start for _, n, _, start, end in self.spans
                   if n == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        covered = self._children_time()
        out: dict[str, float] = {}
        for sid, name, _, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - covered.get(sid, 0.0)
        return out

    def covered_share(self, name: str) -> float:
        """Share of the spans called `name` that their child spans cover."""
        covered = self._children_time()
        whole = part = 0.0
        for sid, n, _, start, end in self.spans:
            if n == name:
                whole += end - start
                part += covered.get(sid, 0.0)
        return part / whole

    def rows(self) -> list[dict]:
        """The spans as JSON-ready records, times from the first span's start."""
        origin = self.spans[0][3] if self.spans else 0.0
        return [{"id": sid, "name": name, "parent": parent,
                 "start_s": start - origin, "end_s": end - origin}
                for sid, name, parent, start, end in self.spans]
