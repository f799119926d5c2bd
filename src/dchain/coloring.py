"""Colorings of disjointness graphs: the `Coloring` type, its JSON form and
proper-coloring verification."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from .disjointness import DisjointnessGraph, _bits, all_segments
from .formulas import _check_int
from .geometry import _json_field, _json_ints


@dataclass(frozen=True)
class Coloring:
    """Color ids 0..color_count-1 on every segment of a point set, in rank order.

    `colors[r]` is the color of segment `all_segments(n_points)[r]`, which is
    vertex r of the disjointness graph. `color_count` is worked out from the
    colors, which must be exactly 0..color_count-1.
    """

    n_points: int
    colors: tuple[int, ...]
    color_count: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _check_int(self.n_points, "n_points", 0)
        colors = tuple(self.colors)
        expected = comb(self.n_points, 2)
        if len(colors) != expected:
            raise ValueError(f"expected {expected} vertex colors, got {len(colors)}")
        for col in colors:
            if type(col) is not int or col < 0:
                _check_int(col, "color", 0)
        # count distinct non-negative ids are exactly 0..count-1 iff none reaches count
        count = len(set(colors))
        if colors and max(colors) >= count:
            raise ValueError(f"color ids must be exactly 0..{count - 1}")
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "color_count", count)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking a coloring against a disjointness graph."""

    violations: tuple[tuple[int, int], ...]

    @property
    def proper(self) -> bool:
        return not self.violations


def verify_coloring(g: DisjointnessGraph, c: Coloring) -> VerifyReport:
    """Proper iff no adjacent (disjoint-segment) pair shares a color.

    Every offending vertex-id pair is listed. Colorings over a different
    point count than the graph's are rejected outright.
    """
    if c.n_points != g.n_points:
        raise ValueError(f"coloring covers {c.n_points} points but the graph has {g.n_points}")
    cls = [0] * c.color_count
    for u, col in enumerate(c.colors):
        cls[col] |= 1 << u
    # u ascending, then v ascending: the lexicographic order of g.edges();
    # a bit walk only for the rows that hold a conflict
    bad = tuple((u, v) for u, col in enumerate(c.colors)
                if (clash := g.adj[u] & (cls[col] >> (u + 1) << (u + 1)))
                for v in _bits(clash))
    return VerifyReport(bad)


def coloring_to_json(c: Coloring) -> dict:
    """{"n_points":, "colors": [[i, j, color], ...]} sorted by segment rank."""
    return {
        "n_points": c.n_points,
        "colors": [[i, j, col] for (i, j), col in zip(all_segments(c.n_points), c.colors)],
    }


def coloring_from_json(data: dict) -> Coloring:
    """Inverse of coloring_to_json. The rows may come in any order and name
    a segment by either endpoint first. A ValueError names any missing or
    ill-typed field, and any out-of-range, duplicated or missing segment."""
    doc = "coloring JSON"
    n_points = _json_field(data, "n_points", int, doc)
    rows = _json_field(data, "colors", list, doc)
    colors: dict[tuple[int, int], int] = {}
    for r, row in enumerate(rows):
        what = f"{doc} colors[{r}]"
        i, j, col = _json_ints(row, 3, what, 0)
        for end in (i, j):
            _check_int(end, f"{what} endpoint", 0, n_points)
        if i == j:
            raise ValueError(f"degenerate segment ({i}, {j})")
        seg = (min(i, j), max(i, j))
        if seg in colors:
            raise ValueError(f"segment {seg} assigned twice")
        colors[seg] = col
    if len(colors) != comb(n_points, 2):
        # this lazy walk in rank order meets a missing segment within
        # len(colors) + 1 steps, however large n_points is
        missing = next((i, j) for i in range(n_points) for j in range(i + 1, n_points)
                       if (i, j) not in colors)
        raise ValueError(f"coloring of {n_points} points misses segment {missing}")
    return Coloring(n_points, [colors[s] for s in all_segments(n_points)])


def load_coloring(path: str | Path) -> Coloring:
    return coloring_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def verify_report_to_json(report: VerifyReport) -> dict:
    return {"proper": report.proper, "violations": [[u, v] for u, v in report.violations]}
