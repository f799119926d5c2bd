"""Independent oracles used by the tests: a brute-force chromatic search, a
Fraction-based segment intersection test and an edge-scan coloring check.
All deliberately avoid the code paths they are used to check."""

from __future__ import annotations

from fractions import Fraction

from dchain import DisjointnessGraph, PointSet, all_segments


def naive_chromatic(g: DisjointnessGraph) -> int:
    """Smallest t admitting a proper coloring, by exhaustive backtracking over
    all assignments in vertex-id order with no symmetry breaking."""
    v_count = g.n_vertices
    adj = g.adj

    def exists(t: int) -> bool:
        colors = [-1] * v_count

        def rec(v: int) -> bool:
            if v == v_count:
                return True
            mask = adj[v]
            for c in range(t):
                ok = True
                m = mask
                while m:
                    low = m & -m
                    u = low.bit_length() - 1
                    m ^= low
                    if colors[u] == c:
                        ok = False
                        break
                if ok:
                    colors[v] = c
                    if rec(v + 1):
                        return True
                    colors[v] = -1
            return False

        return rec(0)

    for t in range(1, v_count + 1):
        if exists(t):
            return t
    raise AssertionError("unreachable: every graph is V-colorable")


def _cross2(ax: int, ay: int, bx: int, by: int) -> int:
    return ax * by - ay * bx


def segments_share_point(p1, p2, q1, q2) -> bool:
    """Closed segments [p1,p2] and [q1,q2] intersect, by exact rational
    parametric solve (independent of the orientation-sign predicate)."""
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    sx, sy = q2[0] - q1[0], q2[1] - q1[1]
    qpx, qpy = q1[0] - p1[0], q1[1] - p1[1]
    denom = _cross2(rx, ry, sx, sy)
    if denom != 0:
        t = Fraction(_cross2(qpx, qpy, sx, sy), denom)
        u = Fraction(_cross2(qpx, qpy, rx, ry), denom)
        return 0 <= t <= 1 and 0 <= u <= 1
    if _cross2(qpx, qpy, rx, ry) != 0:
        return False  # parallel, not collinear
    if rx != 0:
        lo1, hi1 = sorted((p1[0], p2[0]))
        lo2, hi2 = sorted((q1[0], q2[0]))
    else:
        lo1, hi1 = sorted((p1[1], p2[1]))
        lo2, hi2 = sorted((q1[1], q2[1]))
    return not (hi1 < lo2 or hi2 < lo1)


def oracle_disjoint(ps: PointSet, a, b) -> bool:
    """Fraction-oracle version of segment disjointness (index pairs)."""
    pts = [(p.x, p.y) for p in ps.points]
    i, j = a
    k, l = b
    return not segments_share_point(pts[i], pts[j], pts[k], pts[l])


def pairwise_disjoint_matrix(ps: PointSet, predicate) -> list[list[bool]]:
    """Adjacency matrix over segment ranks from a pairwise disjointness predicate."""
    segs = all_segments(ps.n)
    v = len(segs)
    mat = [[False] * v for _ in range(v)]
    for a in range(v):
        for b in range(a + 1, v):
            if predicate(segs[a], segs[b], ps):
                mat[a][b] = mat[b][a] = True
    return mat


def oracle_verify(g: DisjointnessGraph, vertex_colors) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """(proper, violations) by scanning every vertex pair of the adjacency
    matrix; violations are the same-colored adjacent pairs (u, v), u < v, in
    lexicographic order. Uses neither color-class masks nor g.edges()."""
    v_count = g.n_vertices
    bad = tuple((u, v) for u in range(v_count) for v in range(u + 1, v_count)
                if g.adj[u] >> v & 1 and vertex_colors[u] == vertex_colors[v])
    return not bad, bad
