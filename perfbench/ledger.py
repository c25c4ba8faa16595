"""In-memory span ledger for the benchmark's traced runs.

A span is ``(name, start, end, parent, run_id)``, opened by the benchmark
around a call into one layer's public function.  Work a layer does in
another process (a batch worker, a daemon shard) cannot be wrapped from
here; its self-reported duration enters the ledger as a *reported* span:
it has a parent and a duration but no interval of its own.

A span's self time is its duration minus the part of its interval that
its children cover: the union of real child intervals plus the summed
durations of reported children.  Self times over every span under a root
add up exactly to the root's duration, so a workload's per-layer self
times plus the roots' own self time (``unaccounted``) equal its traced
end-to-end time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float | None
    end: float | None
    parent: int | None
    run_id: str
    #: duration of a reported span (start/end are None for those)
    reported_s: float | None = None

    @property
    def duration(self) -> float:
        if self.reported_s is not None:
            return self.reported_s
        return self.end - self.start  # type: ignore[operator]


class Ledger:
    """Spans of one benchmark run, kept in memory until :meth:`dump`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record a span around the body; yields the span's index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, self.run_id))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> int:
        """Add a root span timed by the caller; returns its index."""
        self.spans.append(Span(name, start, end, None, self.run_id))
        return len(self.spans) - 1

    def report(self, name: str, seconds: float, parent: int) -> None:
        """Add work measured elsewhere as a child of span *parent*."""
        self.spans.append(
            Span(name, None, None, parent, self.run_id, reported_s=seconds)
        )

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with :attr:`spans`."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            intervals = []
            for c in children.get(i, ()):
                child = self.spans[c]
                if child.reported_s is not None:
                    covered += child.reported_s
                else:
                    intervals.append((child.start, child.end))
            # union of child intervals, clipped to this span
            last_end = s.start
            for lo, hi in sorted(intervals):
                lo = max(lo, last_end)
                hi = min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    last_end = hi
            out.append(s.duration - covered)
        return out

    def root_of(self, index: int) -> int:
        while self.spans[index].parent is not None:
            index = self.spans[index].parent
        return index

    def totals(self, root_name: str) -> tuple[int, float, dict[str, float]]:
        """``(roots, end-to-end seconds, self seconds by span name)`` summed
        over the trees under every root span called *root_name*.  The
        roots' own self time is listed under *root_name*."""
        self_s = self.self_times()
        roots = [i for i, s in enumerate(self.spans)
                 if s.parent is None and s.name == root_name]
        root_set = set(roots)
        by_name: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if self.root_of(i) in root_set:
                by_name[s.name] += self_s[i]
        e2e = sum(self.spans[i].duration for i in roots)
        return len(roots), e2e, dict(by_name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")
