"""The disjointness graph of a planar point set: one vertex per closed
segment spanned by the set, with edges joining pairs of disjoint segments.
Adjacency is stored as dense bit rows (Python ints), which keeps the exact
solver's candidate-set intersections cheap at desk scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, compress
from math import comb
from typing import Iterator

from .formulas import _check_int
from .geometry import PointSet


def all_segments(n_points: int) -> tuple[tuple[int, int], ...]:
    """All segments (i, j), i < j, on n points in lexicographic (vertex-rank)
    order, which pairs `Coloring.colors` with segments."""
    return tuple(combinations(range(n_points), 2))


@lru_cache(maxsize=32)
def _segment_masks(n_points: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...],
                                           tuple[int, ...]]:
    """(bit, inc, touch) as rank masks: `bit[a][b]` is `1 << r` for segment r =
    (a, b), a < b (0 for b <= a); `inc[p]` holds the segments through point p;
    `touch[r]` those sharing an endpoint with r, r included. 32 entries: a
    sweep cycles through its point counts, which a small LRU misses every time."""
    segs = all_segments(n_points)
    bit = [[0] * n_points for _ in range(n_points)]
    inc = [0] * n_points
    for r, (a, b) in enumerate(segs):
        bit[a][b] = 1 << r
        inc[a] |= 1 << r
        inc[b] |= 1 << r
    touch = tuple(inc[a] | inc[b] for a, b in segs)
    return tuple(map(tuple, bit)), tuple(inc), touch


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
        for u, row in enumerate(adj):
            if type(row) is not int or row < 0:
                _check_int(row, f"adjacency row {u}", 0)
            if row >> v:
                raise ValueError(f"adjacency row {u} has bits outside the vertex range")
            if row >> u & 1:
                raise ValueError(f"vertex {u} has a self-loop")
        # cells[u * v + w] is bit w of row u, so column w reads cells[w::v]; the
        # rows are symmetric iff the joined columns are cells: one comparison.
        # Where they first differ, at w * v + u, bit u of row w is not bit w of row u
        spec = f"0{v}b"
        cells = "".join([format(row, spec)[::-1] for row in adj])
        columns = "".join([cells[w::v] for w in range(v)])
        if columns != cells:
            w, u = divmod(next(i for i, (a, b) in enumerate(zip(columns, cells)) if a != b), v)
            raise ValueError(f"adjacency is not symmetric at ({w}, {u})")
        # Segments sharing an endpoint are never disjoint, so no clique has
        # more than n // 2 members. The rows are symmetric, so testing each
        # segment against the lower-ranked ones through its endpoints covers
        # every pair: O(V) big-int operations.
        for r, (row, touch) in enumerate(zip(adj, _segment_masks(self.n_points)[2])):
            clash = row & touch & ((1 << r) - 1)
            if clash:
                w = clash.bit_length() - 1
                segs = all_segments(self.n_points)
                raise ValueError(f"vertex {r}, segment {segs[r]}, is adjacent to "
                                 f"vertex {w}, segment {segs[w]}, sharing an endpoint")

    @property
    def n_vertices(self) -> int:
        return len(self.adj)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @cached_property
    def _relabel(self) -> tuple[list[int], tuple[int, ...], list[int]]:
        """(order, rows, new_id): the vertex ids by (-degree, id), the rows
        relabelled so that vertex i is vertex `order[i]`, and the new label
        `new_id[v]` of each vertex v. The solver's entry points all run on
        these rows, so they are built once per graph and kept as long as it
        is; `==`, `hash` and `repr` read only the two fields. As
        `__post_init__` checks, the rows are symmetric: new bit j of row i is
        bit order[j] of row order[i], so bit order[i] of row order[j], and
        new row i is column order[i] read in reverse new order. One string
        holds the rows in that order (bit b of a row is character V - 1 -
        b), and each new row is one strided slice of it. The rows go
        straight to the search, not through a DisjointnessGraph, which checks
        the endpoint rule in segment-rank order."""
        adj = self.adj
        v_count = len(adj)
        negdeg = [-row.bit_count() for row in adj]
        # sorted() is stable, so equal degrees stay in id order
        order = sorted(range(v_count), key=negdeg.__getitem__)
        new_id = [0] * v_count
        for i, v in enumerate(order):
            new_id[v] = i
        width = f"0{v_count}b"
        cells = "".join([format(adj[v], width) for v in reversed(order)])
        return order, tuple([int(cells[v_count - 1 - v::v_count], 2) for v in order]), new_id

    def adjacent(self, u: int, v: int) -> bool:
        return self.adj[u] >> v & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Adjacency pairs (u, v) with u < v, in lexicographic order."""
        for u, row in enumerate(self.adj):
            for v in _bits(row >> (u + 1)):
                yield u, u + 1 + v


def build_graph(ps: PointSet) -> DisjointnessGraph:
    """Disjointness graph of ps; vertex numbering is segment rank order.

    In general position two closed segments meet only by sharing an endpoint
    or by crossing properly (an endpoint on the other segment would make
    three points collinear), and they cross properly iff the line of each
    separates the endpoints of the other. With `inc[p]` the segments through
    p, as rank masks, two families of masks give both halves:
    - `sep[i][j]`, the XOR of `inc[p]` over the points p strictly left of
      i -> j. Its bit t = (k, l) is [k left] xor [l left]. If t shares no
      endpoint with s = (i, j), neither k nor l is on the line (three points
      would be collinear), so "not left" is "right" and the bit is set iff
      line ij separates k and l: the xor is exact in general position;
    - `side[p]`, the segments (a, b), a < b, with p strictly left of a -> b.
      By the same argument, for t sharing no endpoint with s, bit t of
      `side[i] ^ side[j]` is set iff line t separates i and j.
    Where t shares an endpoint with s, one point lies on both lines and the
    bits mean nothing, so `touch[s]` masks those t out, s itself included:
    row s is `full & ~(touch[s] | (sep[i][j] & (side[i] ^ side[j])))`. One
    cross product per triple a < b < c fills both families, as (a, b, c),
    (b, c, a) and (c, a, b) turn the same way. Counterclockwise puts c left
    of a -> b and a left of b -> c: `sep[a][b] ^= inc[c]`, `sep[b][c] ^=
    inc[a]`, `side[c] |= bit(ab)`, `side[a] |= bit(bc)`. Clockwise puts only
    b left of a -> c: `sep[a][c] ^= inc[b]`, `side[b] |= bit(ac)`. Each
    (point, line) pair meets in one triple. A zero product (three collinear
    points) raises ValueError at the first such triple, in lexicographic order.
    """
    n = ps.n
    if n < 2:
        raise ValueError("a disjointness graph needs at least two points")
    xs, ys = zip(*ps.points)
    bit, inc, touch = _segment_masks(n)
    sep = [[0] * n for _ in range(n)]  # sep[a][b], a < b
    side = [0] * n
    for a in range(n):
        ax, ay = xs[a], ys[a]
        bit_a, inc_a, sep_a = bit[a], inc[a], sep[a]
        side_a = 0
        for b in range(a + 1, n):
            dx, dy = xs[b] - ax, ys[b] - ay
            # c is left of a -> b iff dx * (y_c - ay) - dy * (x_c - ax) > 0
            c0 = dx * ay - dy * ax
            bit_b, inc_b, sep_b = bit[b], inc[b], sep[b]
            ab = bit_a[b]
            sep_ab = side_b = 0
            for c in range(b + 1, n):
                t = dx * ys[c] - dy * xs[c]
                if t > c0:  # (a, b, c) turns counterclockwise
                    sep_ab ^= inc[c]
                    sep_b[c] ^= inc_a
                    side[c] |= ab
                    side_a |= bit_b[c]
                elif t < c0:
                    sep_a[c] ^= inc_b
                    side_b |= bit_a[c]
                else:
                    raise ValueError("point set is not in general position")
            sep_a[b] ^= sep_ab
            side[b] |= side_b
        side[a] |= side_a
    full = (1 << comb(n, 2)) - 1
    return DisjointnessGraph(n, tuple([full & ~(near | (sep[i][j] & (side[i] ^ side[j])))
                                       for (i, j), near in zip(combinations(range(n), 2), touch)]))


def graph_to_json(g: DisjointnessGraph) -> dict:
    return {
        "n_points": g.n_points,
        "vertices": g.n_vertices,
        "edges": [[u, v] for u, v in g.edges()],
    }


def export_graph(g: DisjointnessGraph, fmt: str) -> bytes:
    """Serialize as DIMACS edge format or JSON; both byte-deterministic.

    DIMACS uses 1-based vertex ids in rank order: a "p edge V E" header then
    one "e u v" line per adjacency pair.
    """
    kind = fmt.strip().lower() if isinstance(fmt, str) else fmt
    if kind == "dimacs":
        # one bytes object per adjacency row, none per edge, so the transient
        # peak stays near twice the output size. Each row is read as its bit
        # string (cells[w] is bit w, as in the symmetry check), and the part
        # above the diagonal, as 0/1 bytes, selects the ids with `compress`.
        v_count = g.n_vertices
        ids = [b"%d" % (v + 1) for v in range(v_count)]
        out = bytearray(b"p edge %d %d\n" % (v_count, g.edge_count))
        spec = f"0{v_count}b"
        zero_one = bytes.maketrans(b"01", b"\0\1")
        for u, row in enumerate(g.adj):
            cells = format(row, spec)[::-1]
            above = list(compress(ids[u + 1:], cells[u + 1:].encode().translate(zero_one)))
            if above:
                head = b"e " + ids[u] + b" "
                out += head + (b"\n" + head).join(above) + b"\n"
        return bytes(out)
    if kind == "json":
        return (json.dumps(graph_to_json(g)) + "\n").encode("ascii")
    raise ValueError(f"unknown graph format {fmt!r}; expected 'dimacs' or 'json'")
