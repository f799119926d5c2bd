"""Colorings of disjointness graphs: proper-coloring verification, star and
thrackle class structure, star apex removal, and the thrackle edge-count
bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from operator import ne
from pathlib import Path
from typing import Collection, Iterable, Mapping

from .disjointness import DisjointnessGraph, SegmentId, _bits, all_segments, build_graph
from .formulas import _check_int
from .geometry import PointSet, _json_field, _json_ints, delete_points

STAR = "star"
THRACKLE = "thrackle"


def _check_colors(colors: Collection[int], color_count: int) -> None:
    """Every color a non-negative int (bool excluded) and together exactly 0..color_count-1."""
    for col in colors:
        if not isinstance(col, int) or isinstance(col, bool) or col < 0:
            raise ValueError(f"color ids must be non-negative ints, got {col!r}")
    if set(colors) != set(range(color_count)):
        raise ValueError(f"color ids must be exactly 0..{color_count - 1}")


@dataclass(frozen=True)
class Coloring:
    """Total assignment of color ids 0..color_count-1 to every segment of a point set.

    The keys of `assignment` are exactly `all_segments(n_points)`, in rank
    order, so its values are the vertex colors of the disjointness graph.
    The stored dict is keyed by the shared `SegmentId`s of that tuple.
    """

    n_points: int
    assignment: Mapping[SegmentId, int]
    color_count: int

    def __post_init__(self) -> None:
        n = self.n_points
        _check_int(n, "n_points", 0)
        expected = comb(n, 2)
        # the length test comes first, so a huge n_points never reaches all_segments
        if len(self.assignment) != expected or any(map(ne, self.assignment, all_segments(n))):
            raise ValueError(f"coloring keys must be the {expected} segments of {n} points in rank order")
        ranked = dict(zip(all_segments(n), self.assignment.values()))
        _check_colors(ranked.values(), self.color_count)
        object.__setattr__(self, "assignment", ranked)

    @classmethod
    def from_vertex_colors(cls, n_points: int, vertex_colors: Iterable[int]) -> "Coloring":
        """The coloring giving the rank-r segment vertex_colors[r], with as
        many colors as there are distinct values."""
        expected = comb(n_points, 2)  # raises ValueError for a negative n_points
        colors = list(vertex_colors)
        if len(colors) != expected:
            raise ValueError(f"expected {expected} vertex colors, got {len(colors)}")
        return cls(n_points, dict(zip(all_segments(n_points), colors)), len(set(colors)))

    def vertex_colors(self) -> list[int]:
        return list(self.assignment.values())

    def classes(self) -> dict[int, frozenset[SegmentId]]:
        out: dict[int, set[SegmentId]] = {c: set() for c in range(self.color_count)}
        for seg, col in self.assignment.items():
            out[col].add(seg)
        return {c: frozenset(s) for c, s in out.items()}


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking a coloring against a disjointness graph."""

    proper: bool
    violations: tuple[tuple[int, int], ...]


def verify_coloring(g: DisjointnessGraph, c: Coloring) -> VerifyReport:
    """Proper iff no adjacent (disjoint-segment) pair shares a color.

    Every offending vertex-id pair is listed. Colorings over a different
    point count than the graph's are rejected outright.
    """
    if c.n_points != g.n_points:
        raise ValueError(
            f"coloring covers {c.n_points} points but the graph has {g.n_points}")
    vc = c.vertex_colors()
    cls = [0] * c.color_count
    for u, col in enumerate(vc):
        cls[col] |= 1 << u
    # u ascending, then v ascending: the lexicographic order of g.edges()
    bad = tuple((u, v) for u, col in enumerate(vc)
                for v in _bits(g.adj[u] & (cls[col] >> (u + 1) << (u + 1))))
    return VerifyReport(not bad, bad)


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
    segs = [s if isinstance(s, SegmentId) else SegmentId.of(*s) for s in segments]
    if not segs:
        raise ValueError("cannot classify an empty class")
    for s in segs:
        if s.j >= ps.n:
            raise ValueError(f"segment {s} out of range for {ps.n} points")
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
    surviving = [col for seg, col in coloring.assignment.items()
                 if seg.i in remap and seg.j in remap]
    kept = sorted(set(surviving))
    vanished = set(range(coloring.color_count)) - set(kept)
    if vanished != set(claimed):
        extra = sorted(vanished - set(claimed))
        raise ValueError(f"colors {extra} vanished but were not selected star classes")
    renumber = {old: new for new, old in enumerate(kept)}
    return new_ps, Coloring.from_vertex_colors(new_ps.n, [renumber[c] for c in surviving])


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
        "colors": [[s.i, s.j, col] for s, col in c.assignment.items()],
    }


def coloring_from_json(data: dict) -> Coloring:
    """Inverse of coloring_to_json. The rows may come in any order and name
    a segment by either endpoint first. A ValueError names any missing or
    ill-typed field, and any out-of-range, duplicated or missing segment."""
    doc = "coloring JSON"
    n_points = _json_field(data, "n_points", int, doc)
    _check_int(n_points, f"{doc} field 'n_points'", 0)
    rows = _json_field(data, "colors", list, doc)
    colors: dict[SegmentId, int] = {}
    for r, row in enumerate(rows):
        i, j, col = _json_ints(row, 3, f"{doc} colors[{r}]")
        seg = SegmentId.of(i, j)
        if seg.j >= n_points:
            raise ValueError(f"segment {seg} out of range for {n_points} points")
        if seg in colors:
            raise ValueError(f"segment {seg} assigned twice")
        colors[seg] = col
    if len(colors) != comb(n_points, 2):
        # this lazy walk in rank order meets a missing segment within
        # len(colors) + 1 steps, however large n_points is
        missing = next((i, j) for i in range(n_points) for j in range(i + 1, n_points)
                       if (i, j) not in colors)
        raise ValueError(f"coloring of {n_points} points misses segment {missing}")
    return Coloring.from_vertex_colors(n_points, [colors[s] for s in all_segments(n_points)])


def save_coloring(c: Coloring, path: str | Path) -> None:
    Path(path).write_text(json.dumps(coloring_to_json(c)) + "\n", encoding="utf-8")


def load_coloring(path: str | Path) -> Coloring:
    return coloring_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def verify_report_to_json(report: VerifyReport) -> dict:
    return {"proper": report.proper, "violations": [[u, v] for u, v in report.violations]}
