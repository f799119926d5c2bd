"""Colorings of disjointness graphs: proper-coloring verification, star and
thrackle class structure, the cup-star construction for double chains, star
apex removal, and the thrackle edge-count bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping

from .disjointness import DisjointnessGraph, SegmentId, _bits, all_segments, build_graph
from .formulas import _check_int
from .geometry import PointSet, _json_field, _json_ints, delete_points, gen_double_chain

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

    `assignment` is keyed by `SegmentId` in rank order, so its values are the
    vertex colors of the disjointness graph.
    """

    n_points: int
    assignment: Mapping[SegmentId, int]
    color_count: int

    def __post_init__(self) -> None:
        normalized: dict[SegmentId, int] = {}
        for seg, col in dict(self.assignment).items():
            sid = seg if isinstance(seg, SegmentId) else SegmentId.of(*seg)
            if sid.j >= self.n_points:
                raise ValueError(f"segment {sid} out of range for {self.n_points} points")
            if sid in normalized:
                raise ValueError(f"segment {sid} assigned twice")
            normalized[sid] = col
        expected = comb(self.n_points, 2)
        if len(normalized) != expected:
            raise ValueError(
                f"coloring must cover all {expected} segments of {self.n_points} points, "
                f"got {len(normalized)}")
        # the keys are distinct segments of n_points points, as many as there
        # are segments: exactly all_segments(n_points)
        ranked = {s: normalized[s] for s in all_segments(self.n_points)}
        _check_colors(ranked.values(), self.color_count)
        object.__setattr__(self, "assignment", ranked)

    @classmethod
    def from_vertex_colors(cls, n_points: int, vertex_colors: Iterable[int]) -> "Coloring":
        segs = all_segments(n_points)
        expected = comb(n_points, 2)  # raises ValueError for a negative n_points
        colors = list(vertex_colors)
        if len(colors) != expected:
            raise ValueError(f"expected {expected} vertex colors, got {len(colors)}")
        count = len(set(colors))
        _check_colors(colors, count)
        # the keys are all_segments itself, already valid and in rank order,
        # so only the colors need checking: skip __post_init__
        c = object.__new__(cls)
        object.__setattr__(c, "n_points", n_points)
        object.__setattr__(c, "assignment", dict(zip(segs, colors)))
        object.__setattr__(c, "color_count", count)
        return c

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


ConvexProvider = Callable[[PointSet], Coloring]


def _exact_convex_provider(cap: PointSet) -> Coloring:
    from .solver import chromatic_number_exact  # deferred: solver depends on this module

    result = chromatic_number_exact(build_graph(cap))
    if not result.is_exact:
        raise RuntimeError("exact solve of the cap configuration was cut off")
    return result.witness


def construct_double_chain_coloring(k: int, l: int,
                                    convex_provider: ConvexProvider | None = None) -> Coloring:
    """Proper coloring of the canonical (k, l) double chain's disjointness graph.

    Cap-internal segments reuse a proper coloring of the cap's own
    disjointness graph (by default an optimal one from the exact solver);
    then each cup point, left to right, gives one fresh color to all of its
    still-uncolored incident segments. Total colors = provider's count + k,
    which is k + f(l) when the provider is optimal.
    """
    _check_int(k, "k")
    _check_int(l, "l", 3)
    ps = gen_double_chain(k, l)  # raises for k > l
    lower = ps.partition.lower
    cap = PointSet(tuple(ps.points[i] for i in lower))
    provider = convex_provider if convex_provider is not None else _exact_convex_provider
    base = provider(cap)
    if not isinstance(base, Coloring) or base.n_points != cap.n:
        raise ValueError("provider must return a coloring of the cap configuration")
    report = verify_coloring(build_graph(cap), base)
    if not report.proper:
        raise ValueError(
            f"provider coloring is not proper on the cap; first violations {report.violations[:3]}")
    assignment: dict[SegmentId, int] = {
        SegmentId.of(lower[s.i], lower[s.j]): col for s, col in base.assignment.items()
    }
    next_color = base.color_count
    for u in sorted(ps.partition.upper, key=lambda i: (ps.points[i].x, ps.points[i].y)):
        for w in range(ps.n):
            if w == u:
                continue
            sid = SegmentId.of(u, w)
            if sid not in assignment:
                assignment[sid] = next_color
        next_color += 1  # each cup point colors at least its cap segments
    return Coloring(ps.n, assignment, next_color)


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
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < ps.n:
            raise ValueError(f"apex {a!r} out of range for {ps.n} points")
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
    surviving: dict[SegmentId, int] = {}
    for seg, col in coloring.assignment.items():
        if seg.i in remap and seg.j in remap:
            surviving[SegmentId.of(remap[seg.i], remap[seg.j])] = col
    kept = sorted(set(surviving.values()))
    vanished = set(range(coloring.color_count)) - set(kept)
    if vanished != set(claimed):
        extra = sorted(vanished - set(claimed))
        raise ValueError(f"colors {extra} vanished but were not selected star classes")
    renumber = {old: new for new, old in enumerate(kept)}
    induced = Coloring(new_ps.n, {s: renumber[c] for s, c in surviving.items()}, len(kept))
    return new_ps, induced


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
    """Inverse of coloring_to_json; a ValueError names any missing or
    ill-typed field."""
    doc = "coloring JSON"
    n_points = _json_field(data, "n_points", int, doc)
    rows = _json_field(data, "colors", list, doc)
    entries = []
    for r, row in enumerate(rows):
        i, j, col = _json_ints(row, 3, f"{doc} colors[{r}]")
        entries.append((SegmentId.of(i, j), col))
    count = max((col for _, col in entries), default=-1) + 1
    return Coloring(n_points, dict(entries), count)


def save_coloring(c: Coloring, path: str | Path) -> None:
    Path(path).write_text(json.dumps(coloring_to_json(c)) + "\n", encoding="utf-8")


def load_coloring(path: str | Path) -> Coloring:
    return coloring_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def verify_report_to_json(report: VerifyReport) -> dict:
    return {"proper": report.proper, "violations": [[u, v] for u, v in report.violations]}
