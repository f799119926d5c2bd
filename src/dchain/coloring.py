"""Colorings of disjointness graphs: proper-coloring verification, star and
thrackle class structure, star apex removal, and the thrackle edge-count
bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Iterable

from .disjointness import DisjointnessGraph, SegmentId, _bits, all_segments, build_graph
from .formulas import _check_int
from .geometry import PointSet, _json_field, _json_ints, delete_points

STAR = "star"
THRACKLE = "thrackle"


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
            _check_int(col, "color", 0)
        # count distinct non-negative ids are exactly 0..count-1 iff none reaches count
        count = len(set(colors))
        if colors and max(colors) >= count:
            raise ValueError(f"color ids must be exactly 0..{count - 1}")
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "color_count", count)

    def classes(self) -> dict[int, frozenset[SegmentId]]:
        out: dict[int, set[SegmentId]] = {c: set() for c in range(self.color_count)}
        for seg, col in zip(all_segments(self.n_points), self.colors):
            out[col].add(seg)
        return {c: frozenset(s) for c, s in out.items()}


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
        raise ValueError(
            f"coloring covers {c.n_points} points but the graph has {g.n_points}")
    cls = [0] * c.color_count
    for u, col in enumerate(c.colors):
        cls[col] |= 1 << u
    # u ascending, then v ascending: the lexicographic order of g.edges();
    # a bit walk only for the rows that hold a conflict
    bad = tuple((u, v) for u, col in enumerate(c.colors)
                if (clash := g.adj[u] & (cls[col] >> (u + 1) << (u + 1)))
                for v in _bits(clash))
    return VerifyReport(bad)


@dataclass(frozen=True)
class ClassKind:
    """A color class is a star (all segments through one apex) or a thrackle."""

    kind: str
    apex: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (STAR, THRACKLE):
            raise ValueError(f"kind must be {STAR!r} or {THRACKLE!r}, got {self.kind!r}")
        if (self.kind == STAR) != (self.apex is not None):
            raise ValueError("stars carry an apex, thrackles do not")


def classify_class(ps: PointSet, segments: Iterable) -> ClassKind:
    """Star if some point lies on every segment of the class, else thrackle.

    A single-segment class admits both endpoints as apex; the smaller point
    index is reported.
    """
    segs = [SegmentId.of(a, b, ps.n) for a, b in segments]
    if not segs:
        raise ValueError("cannot classify an empty class")
    common = {segs[0].i, segs[0].j}
    for s in segs[1:]:
        common &= {s.i, s.j}
        if not common:
            return ClassKind(THRACKLE)
    return ClassKind(STAR, min(common))


def classify_coloring(ps: PointSet, c: Coloring) -> dict[int, ClassKind]:
    return {color: classify_class(ps, segs) for color, segs in sorted(c.classes().items())}


def remove_star_apices(ps: PointSet, coloring: Coloring,
                       apices: Iterable[int]) -> tuple[PointSet, Coloring]:
    """Delete one star apex per listed point and induce the coloring on the rest.

    Each apex must identify a distinct color class all of whose segments pass
    through it. Exactly those classes' colors disappear, so the induced
    coloring is proper and uses color_count - r colors; if any other class
    would vanish the call fails rather than silently returning fewer colors.
    """
    apex_list = list(apices)
    for a in apex_list:
        _check_int(a, "apex", 0, ps.n)
    if len(set(apex_list)) != len(apex_list):
        raise ValueError(f"duplicate apices in {apex_list}")
    if coloring.n_points != ps.n:
        raise ValueError("coloring does not cover this point set")
    if not verify_coloring(build_graph(ps), coloring).proper:
        raise ValueError("input coloring is not proper")
    classes = coloring.classes()
    claimed: dict[int, int] = {}
    for a in apex_list:
        for color in range(coloring.color_count):
            if color in claimed:
                continue
            if all(a in (s.i, s.j) for s in classes[color]):
                claimed[color] = a
                break
        else:
            raise ValueError(f"point {a} is not the apex of an unclaimed star class")
    new_ps, remap = delete_points(ps, apex_list)
    # remap is monotone, so the surviving segments keep their relative rank
    # order: in old rank order, their colors are the new vertex colors
    surviving = [col for seg, col in zip(all_segments(ps.n), coloring.colors)
                 if seg.i in remap and seg.j in remap]
    kept = sorted(set(surviving))
    vanished = set(range(coloring.color_count)) - set(kept)
    if vanished != set(claimed):
        extra = sorted(vanished - set(claimed))
        raise ValueError(f"colors {extra} vanished but were not selected star classes")
    renumber = {old: new for new, old in enumerate(kept)}
    return new_ps, Coloring(new_ps.n, [renumber[c] for c in surviving])


def thrackle_edge_bound_ok(n: int, thrackle_sizes: Iterable[int]) -> bool:
    """True iff the thrackle classes fit the k*n - C(k, 2) edge budget.

    n is the point count, k the number of thrackle classes; the bound caps
    the total number of segments the k classes can hold.
    """
    _check_int(n, "n", 3)
    sizes = list(thrackle_sizes)
    for s in sizes:
        _check_int(s, "thrackle class size")
    k = len(sizes)
    return sum(sizes) <= k * n - comb(k, 2)


def coloring_to_json(c: Coloring) -> dict:
    """{"n_points":, "colors": [[i, j, color], ...]} sorted by segment rank."""
    return {
        "n_points": c.n_points,
        "colors": [[s.i, s.j, col] for s, col in zip(all_segments(c.n_points), c.colors)],
    }


def coloring_from_json(data: dict) -> Coloring:
    """Inverse of coloring_to_json. The rows may come in any order and name
    a segment by either endpoint first. A ValueError names any missing or
    ill-typed field, and any out-of-range, duplicated or missing segment."""
    doc = "coloring JSON"
    n_points = _json_field(data, "n_points", int, doc)
    rows = _json_field(data, "colors", list, doc)
    colors: dict[SegmentId, int] = {}
    for r, row in enumerate(rows):
        what = f"{doc} colors[{r}]"
        i, j, col = _json_ints(row, 3, what, 0)
        seg = SegmentId.of(i, j, n_points, f"{what} endpoint")
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


def save_coloring(c: Coloring, path: str | Path) -> None:
    Path(path).write_text(json.dumps(coloring_to_json(c)) + "\n", encoding="utf-8")


def load_coloring(path: str | Path) -> Coloring:
    return coloring_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def verify_report_to_json(report: VerifyReport) -> dict:
    return {"proper": report.proper, "violations": [[u, v] for u, v in report.violations]}
