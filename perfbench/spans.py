"""In-memory spans and counters for the benchmark, plus the statistics it
reports: the percentile rule and per-layer self time.

Spans are recorded only around the benchmark's own calls into `dchain`; the
package itself is not instrumented. A span name is `<layer>.<function>`, where
the layer is a `dchain` module name (or `bench` for the benchmark's own
per-instance span).
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same tracer, -1 at top level
    instance: int


class Tracer:
    """Records a span around each call when `enabled`, else just makes the call.

    Spans stay in memory until `dump`; `parent` follows call nesting, so a
    layer call made from inside another (the cap solve inside the
    constructive coloring) is a child of it.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.instance = -1

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.instance))
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.instance)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, instance."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s._asdict()) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time in seconds per span name: each span's duration minus the
    part of it covered by its direct children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s, covered in zip(spans, child_time):
        out[s.name] += (s.end - s.start) - covered
    return dict(out)


def total_times(spans: list[Span]) -> dict[str, float]:
    """Inclusive time in seconds per span name."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
    return dict(out)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def highest_percentile(n: int) -> float | None:
    """Highest percentile in PERCENTILES above the median that leaves at
    least ten samples beyond it, or None when even p90 does not."""
    best = None
    for p in PERCENTILES[1:]:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best
