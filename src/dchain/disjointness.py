"""The disjointness graph of a planar point set: one vertex per closed
segment spanned by the set, with edges joining pairs of disjoint segments.
Adjacency is stored as dense bit rows (Python ints), which keeps the exact
solver's candidate-set intersections cheap at desk scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator

from .formulas import _check_int
from .geometry import (Orientation, PointSet, SegmentId, _json_field, _json_ints,
                       is_general_position, orientation)


@lru_cache(maxsize=8)
def all_segments(n_points: int) -> tuple[SegmentId, ...]:
    """All segments on n points in lexicographic (vertex-rank) order: one
    shared tuple per n_points, which pairs `Coloring.colors` with segments."""
    return tuple(SegmentId(i, j) for i in range(n_points) for j in range(i + 1, n_points))


def segment_rank(seg: SegmentId, n_points: int) -> int:
    """Position of seg, in either endpoint order, in lexicographic order;
    this is its vertex id in D(P)."""
    a, b = seg
    i, j = SegmentId.of(a, b, n_points)
    return i * (2 * n_points - i - 1) // 2 + (j - i - 1)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class DisjointnessGraph:
    """Immutable graph over segment ranks, adjacency as symmetric bit rows."""

    n_points: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_int(self.n_points, "n_points", 0)
        # a tuple, so no caller can change a row after it is checked
        adj = tuple(self.adj)
        object.__setattr__(self, "adj", adj)
        v = comb(self.n_points, 2)
        if len(adj) != v:
            raise ValueError(f"expected {v} vertices for {self.n_points} points, got {len(adj)}")
        full = (1 << v) - 1
        for u, row in enumerate(adj):
            _check_int(row, f"adjacency row {u}", 0)
            if row & ~full:
                raise ValueError(f"adjacency row {u} has bits outside the vertex range")
            if row >> u & 1:
                raise ValueError(f"vertex {u} has a self-loop")
        # cells[u * v + w] is bit w of row u, so column w reads cells[w::v]:
        # one string comparison per vertex, none per edge
        spec = f"0{v}b"
        cells = "".join([format(row, spec)[::-1] for row in adj])
        for w in range(v):
            column, row = cells[w::v], cells[w * v:(w + 1) * v]
            if column != row:
                # w is the first asymmetric vertex, so the first differing u is above it
                u = next(u for u in range(v) if column[u] != row[u])
                raise ValueError(f"adjacency is not symmetric at ({w}, {u})")
        # Segments sharing an endpoint are never disjoint, so no clique has
        # more than n // 2 members. The rows are symmetric, so testing each
        # segment against the lower-ranked ones through its endpoints covers
        # every pair: O(V) big-int operations.
        n = self.n_points
        inc = [0] * n  # ranks seen so far of the segments through each point
        r = 0
        for a in range(n):
            for b in range(a + 1, n):
                clash = adj[r] & (inc[a] | inc[b])
                if clash:
                    w = clash.bit_length() - 1
                    raise ValueError(f"vertex {r}, segment {(a, b)}, is adjacent to vertex {w}, "
                                     f"segment {tuple(all_segments(n)[w])}, sharing an endpoint")
                inc[a] |= 1 << r
                inc[b] |= 1 << r
                r += 1

    @property
    def n_vertices(self) -> int:
        return len(self.adj)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def adjacent(self, u: int, v: int) -> bool:
        return self.adj[u] >> v & 1 == 1

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Adjacency pairs (u, v) with u < v, in lexicographic order."""
        for u, row in enumerate(self.adj):
            for v in _bits(row >> (u + 1)):
                yield u, u + 1 + v


def build_graph(ps: PointSet) -> DisjointnessGraph:
    """Disjointness graph of ps; vertex numbering is segment rank order.

    In general position two closed segments meet only by sharing an endpoint
    or by crossing properly: an endpoint on the other segment would make
    three points collinear. So the collinear-touching branch of
    `segments_disjoint` cannot fire here, and each row is "no shared
    endpoint and no proper crossing", computed from side masks:
    `left[a][b]` has bit p set iff point p lies strictly left of the directed
    line a -> b. Segments (i, j) and (k, l) cross iff k, l lie on opposite
    sides of line ij and i, j on opposite sides of line kl; the second half
    is l in `left[k][i] ^ left[k][j]`. The partners l > k of point k have
    the consecutive ranks base[k] + (l - k - 1), so one shift per k turns
    the point mask into a segment mask. O(n^3) cross products and O(n^3)
    big-int operations in all. The same cross products decide general
    position, so a set with three collinear points raises ValueError.
    """
    n = ps.n
    if n < 2:
        raise ValueError("a disjointness graph needs at least two points")
    xs = [p.x for p in ps.points]
    ys = [p.y for p in ps.points]
    everyone = (1 << n) - 1
    left = [[0] * n for _ in range(n)]
    inc = [0] * n  # ranks of the segments incident to each point
    r = 0  # rank of segment (a, b): the pairs a < b come in rank order
    for a in range(n):
        ax, ay = xs[a], ys[a]
        for b in range(a + 1, n):
            dx, dy = xs[b] - ax, ys[b] - ay
            # p is left of a -> b iff dx * (y_p - ay) - dy * (x_p - ax) > 0,
            # and on the line iff it is 0
            c0 = dx * ay - dy * ax
            m = on = 0
            for p in range(n):
                t = dx * ys[p] - dy * xs[p]
                if t > c0:
                    m |= 1 << p
                elif t == c0:
                    on |= 1 << p
            # General position, decided here: any three points include a pair
            # a < b, and the third is collinear with them iff it lies on the
            # line a -> b. So the set is in general position iff no line
            # through a pair holds a point other than its own two.
            if on != 1 << a | 1 << b:
                raise ValueError("point set is not in general position")
            left[a][b] = m
            left[b][a] = everyone & ~(m | on)  # strictly right of a -> b
            bit = 1 << r
            inc[a] |= bit
            inc[b] |= bit
            r += 1
    base = [k * (2 * n - k - 1) // 2 for k in range(n)]  # rank of segment (k, k + 1)
    full = (1 << comb(n, 2)) - 1
    rows = []
    for i in range(n):
        left_i = left[i]
        for j in range(i + 1, n):
            lij, rij = left_i[j], left[j][i]
            cross = 0
            for k in range(n):
                if k == i or k == j:
                    continue
                lk = left[k]
                far = rij if lij >> k & 1 else lij
                hit = (far & (lk[i] ^ lk[j])) >> (k + 1)
                if hit:
                    cross |= hit << base[k]
            rows.append(full & ~(inc[i] | inc[j] | cross))
    return DisjointnessGraph(n, tuple(rows))


def convex_hull_edges(ps: PointSet) -> list[SegmentId]:
    """Hull edges in counterclockwise traversal order.

    The cycle starts at the lexicographically smallest point, so the output
    is deterministic. Requires at least three points in general position.
    """
    if ps.n < 3:
        raise ValueError("hull edges need at least three points")
    if not is_general_position(ps):
        raise ValueError("point set is not in general position")
    pts = ps.points
    order = sorted(range(ps.n), key=lambda i: (pts[i].x, pts[i].y))

    def half(seq: list[int]) -> list[int]:
        hull: list[int] = []
        for idx in seq:
            while len(hull) >= 2 and orientation(
                    pts[hull[-2]], pts[hull[-1]], pts[idx]) is not Orientation.COUNTERCLOCKWISE:
                hull.pop()
            hull.append(idx)
        return hull

    lower = half(order)
    upper = half(order[::-1])
    cycle = lower[:-1] + upper[:-1]
    return [SegmentId.of(cycle[t], cycle[(t + 1) % len(cycle)], ps.n)
            for t in range(len(cycle))]


def graph_to_json(g: DisjointnessGraph) -> dict:
    return {
        "n_points": g.n_points,
        "vertices": g.n_vertices,
        "edges": [[u, v] for u, v in g.edges()],
    }


def graph_from_json(data: dict, points: PointSet | None = None) -> DisjointnessGraph:
    """Rebuild a graph from its JSON form, validating structure.

    When the source points are supplied alongside, the edge set is checked
    against a fresh build from those points.
    """
    doc = "graph JSON"
    n_points = _json_field(data, "n_points", int, doc)
    v = comb(n_points, 2)
    vertices = _json_field(data, "vertices", int, doc)
    if vertices != v:
        raise ValueError(f"vertex count {vertices!r} does not match C({n_points},2)={v}")
    rows = [0] * v
    for e, edge in enumerate(_json_field(data, "edges", list, doc)):
        u, w = _json_ints(edge, 2, f"{doc} edges[{e}]")
        if not 0 <= u < w < v:
            raise ValueError(f"edge [{u}, {w}] is not an in-range pair with u < v")
        if rows[u] >> w & 1:
            raise ValueError(f"duplicate edge [{u}, {w}]")
        rows[u] |= 1 << w
        rows[w] |= 1 << u
    g = DisjointnessGraph(n_points, tuple(rows))
    if points is not None and build_graph(points) != g:
        raise ValueError("edges do not match the disjointness graph of the supplied points")
    return g


def export_graph(g: DisjointnessGraph, fmt: str) -> bytes:
    """Serialize as DIMACS edge format or JSON; both byte-deterministic.

    DIMACS uses 1-based vertex ids in rank order: a "p edge V E" header then
    one "e u v" line per adjacency pair.
    """
    kind = fmt.strip().lower() if isinstance(fmt, str) else fmt
    if kind == "dimacs":
        # one bytes object per adjacency row, none per edge, so the transient
        # peak stays near twice the output size. Each row is read as its bit
        # string (cells[w] is bit w, as in the symmetry check), and one
        # comprehension picks the ids of the set bits above the diagonal.
        v_count = g.n_vertices
        ids = [b"%d" % (v + 1) for v in range(v_count)]
        out = bytearray(b"p edge %d %d\n" % (v_count, g.edge_count))
        spec = f"0{v_count}b"
        for u, row in enumerate(g.adj):
            cells = format(row, spec)[::-1]
            above = [ids[w] for w, c in enumerate(cells[u + 1:], u + 1) if c == "1"]
            if above:
                head = b"e " + ids[u] + b" "
                out += head + (b"\n" + head).join(above) + b"\n"
        return bytes(out)
    if kind == "json":
        return (json.dumps(graph_to_json(g)) + "\n").encode("ascii")
    raise ValueError(f"unknown graph format {fmt!r}; expected 'dimacs' or 'json'")
