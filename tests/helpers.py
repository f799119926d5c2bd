"""Independent oracles used by the tests: a brute-force chromatic search, a
quadratic greedy DSATUR and a recursive DSATUR branch and bound (both with
saturation ties by id, or by degree then id), the greedy clique grown in
the tie order by degree, a Fraction-based segment intersection test, a
chain's hull edges from its definition, an all-triples collinearity check,
an edge-scan coloring check, an all-chords, all-triples double-chain
check, the paper's star coloring of a double chain, its proof steps (the
classes of a coloring, the apex of a class, None for a thrackle, and point
deletion with the coloring it induces), and a plain recursion over the
optimal colorings up to color permutation. All deliberately avoid the code
paths they are used to check."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from dchain import Coloring, DisjointnessGraph, Partition, PointSet, all_segments


def matching_clique(m: int) -> DisjointnessGraph:
    """K_m on the m endpoint-disjoint segments (0, 1), (2, 3), ...,
    (2m - 2, 2m - 1) of 2m points; the other vertices are isolated."""
    segs = all_segments(2 * m)
    ranks = [segs.index((2 * i, 2 * i + 1)) for i in range(m)]
    clique = sum(1 << r for r in ranks)
    rows = [0] * len(segs)
    for r in ranks:
        rows[r] = clique ^ (1 << r)
    return DisjointnessGraph(2 * m, tuple(rows))


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


def tie_order(g: DisjointnessGraph, by_degree: bool) -> list[int]:
    """The vertices in the order that breaks saturation ties: by descending
    degree, then ascending id, or by id alone. Degrees are counted bit by
    bit from the adjacency rows."""
    v_count = g.n_vertices
    if not by_degree:
        return list(range(v_count))
    degree = [sum(g.adj[v] >> u & 1 for u in range(v_count)) for v in range(v_count)]
    return sorted(range(v_count), key=lambda v: (-degree[v], v))


def oracle_dsatur(g: DisjointnessGraph, by_degree: bool = False) -> list[int]:
    """Greedy DSATUR colors in vertex-rank order by plain scans of the
    adjacency rows: each step picks the uncolored vertex whose colored
    neighbors show the most distinct colors (ties to the smallest id, or with
    `by_degree` to the highest degree, then the smallest id) and gives it the
    smallest color none of them has. O(V) per step."""
    v_count = g.n_vertices
    adj = g.adj
    ties = tie_order(g, by_degree)
    colors = [-1] * v_count
    seen = [set() for _ in range(v_count)]  # colors on colored neighbors
    for _ in range(v_count):
        pick = -1
        for v in ties:
            if colors[v] < 0 and (pick < 0 or len(seen[v]) > len(seen[pick])):
                pick = v
        c = 0
        while c in seen[pick]:
            c += 1
        colors[pick] = c
        for u in range(v_count):
            if adj[pick] >> u & 1:
                seen[u].add(c)
    return colors


def oracle_clique(g: DisjointnessGraph) -> tuple[int, frozenset[int]]:
    """(size, members) of the greedy clique by its stated rule, with plain
    scans: each vertex in the tie order by degree seeds a clique, which
    grows by the first vertex in that order joined to every member, until
    none is left; the first largest clique over all seeds wins. Every seed
    is grown, with no ceiling, and nothing comes from dchain.solver."""
    ties = tie_order(g, by_degree=True)
    best: list[int] = []
    for seed in ties:
        members = [seed]
        while True:
            joined = [v for v in ties if v not in members
                      and all(g.adj[u] >> v & 1 for u in members)]
            if not joined:
                break
            members.append(joined[0])
        if len(members) > len(best):
            best = members
    return len(best), frozenset(best)


class _OutOfNodes(Exception):
    pass


def oracle_branch_and_bound(g: DisjointnessGraph, clique, max_nodes: int | None = None,
                            by_degree: bool = True) -> tuple[bool, int, int, list[int]]:
    """(exact, nodes, color count, vertex colors) of a plain recursive DSATUR
    branch and bound, written from the rule the exact solver documents. Ties
    in saturation go to the highest degree, then the smallest id; with
    `by_degree=False` they go to the smallest id alone. Call this tie order
    the order of the vertices:

    - the members of `clique` take colors 0, 1, ... in that order;
    - the incumbent is oracle_dsatur's coloring under the same ties, and the
      search runs only when it uses more colors than the clique has members;
    - every node entered counts; entering node max_nodes + 1 ends the search
      with exact False and the incumbent of that moment;
    - a node with every vertex colored is a new incumbent. Otherwise it
      branches on the uncolored vertex whose colored neighbors show the most
      distinct colors, the first in that order among equals: each used
      color none of them has, in ascending order, while the used colors are
      fewer than the incumbent's, then one new color while used + 1 is
      fewer.

    Saturation is recounted from `colors` at every node: no masks, no
    relabelling, and nothing from dchain.solver."""
    v_count = g.n_vertices
    nbrs = [[u for u in range(v_count) if g.adj[v] >> u & 1] for v in range(v_count)]
    ties = tie_order(g, by_degree)
    colors = [-1] * v_count
    for c, v in enumerate(v for v in ties if v in clique):
        colors[v] = c
    best = oracle_dsatur(g, by_degree)
    best_k = max(best, default=-1) + 1
    nodes = 0

    def visit(used: int) -> None:
        nonlocal nodes, best, best_k
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise _OutOfNodes
        pick, seen = -1, set()
        for v in ties:
            if colors[v] < 0:
                around = {colors[u] for u in nbrs[v] if colors[u] >= 0}
                if pick < 0 or len(around) > len(seen):
                    pick, seen = v, around
        if pick < 0:
            best, best_k = colors[:], used
            return
        for c in range(used):
            if used >= best_k:
                break
            if c not in seen:
                colors[pick] = c
                visit(used)
        if used + 1 < best_k:
            colors[pick] = used
            visit(used + 1)
        colors[pick] = -1

    if best_k > len(clique):
        try:
            visit(len(clique))
        except _OutOfNodes:
            return False, nodes, best_k, best
    return True, nodes, best_k, best


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


def oracle_collinear(coords) -> tuple[int, int, int] | None:
    """First index triple (in combinations order) of collinear points among
    the (x, y) pairs, or None. Every triple, plain cross products; nothing
    from dchain.geometry."""
    for a, b, c in combinations(range(len(coords)), 3):
        (ax, ay), (bx, by), (cx, cy) = coords[a], coords[b], coords[c]
        if (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):
            return a, b, c
    return None


def oracle_disjoint(ps: PointSet, a, b) -> bool:
    """Fraction-oracle version of segment disjointness (index pairs)."""
    pts = ps.points
    i, j = a
    k, l = b
    return not segments_share_point(pts[i], pts[j], pts[k], pts[l])


def pairwise_disjoint_matrix(ps: PointSet) -> list[list[bool]]:
    """Adjacency matrix over segment ranks, one oracle_disjoint call per pair."""
    segs = all_segments(ps.n)
    v = len(segs)
    mat = [[False] * v for _ in range(v)]
    for a in range(v):
        for b in range(a + 1, v):
            if oracle_disjoint(ps, segs[a], segs[b]):
                mat[a][b] = mat[b][a] = True
    return mat


def chain_hull_edges(ps: PointSet, side) -> list[tuple[int, int]]:
    """The hull edges of one chain of a double chain, as index pairs (a, b)
    with a < b: the consecutive pairs of the side sorted by (x, y), then the
    outer chord. A cup or a cap is in convex position, so these are its hull
    edges; validate_double_chain and oracle_validate_double_chain check that
    the generated chains are cups and caps, on the same grid."""
    order = sorted(side, key=ps.points.__getitem__)
    pairs = list(zip(order, order[1:]))
    if len(order) > 2:
        pairs.append((order[0], order[-1]))
    return [(min(a, b), max(a, b)) for a, b in pairs]


def oracle_star_coloring(ps: PointSet, provider) -> list[int]:
    """Vertex colors, in rank order, of the paper's star coloring of the
    double chain ps, read off its partition as given: the cap segments take
    provider's coloring of the cap (the lower points, in index order); then
    each cup point, sorted by (x, y), gives one fresh color to its segments
    that are still uncolored. Segments are keyed by their endpoint sets, and
    nothing comes from dchain.experiments."""
    lower = ps.partition.lower
    base = provider(PointSet([ps.points[i] for i in lower]))
    color = {frozenset((lower[i], lower[j])): c
             for (i, j), c in zip(combinations(range(len(lower)), 2), base.colors)}
    fresh = len(set(base.colors))
    for u in sorted(ps.partition.upper, key=lambda i: ps.points[i]):
        for w in range(ps.n):
            if w != u:
                color.setdefault(frozenset((u, w)), fresh)
        fresh += 1
    return [color[frozenset(pair)] for pair in combinations(range(ps.n), 2)]


def oracle_apex(segments) -> int | None:
    """The point on every segment of a color class, given as index pairs:
    the apex of a star (the smaller endpoint of a lone segment), or None
    for a thrackle."""
    return min(set.intersection(*(set(s) for s in segments)), default=None)


def oracle_classes(coloring: Coloring) -> dict[int, frozenset[tuple[int, int]]]:
    """{color: the index pairs (i, j), i < j, of its segments}, in color
    order; vertex r is the r-th index pair in lexicographic order."""
    classes: dict[int, set[tuple[int, int]]] = {}
    for seg, col in zip(combinations(range(coloring.n_points), 2), coloring.colors):
        classes.setdefault(col, set()).add(seg)
    return {col: frozenset(classes[col]) for col in sorted(classes)}


def oracle_apices(coloring: Coloring) -> dict[int, int | None]:
    """{color: oracle_apex of its class}, in color order."""
    return {col: oracle_apex(segs) for col, segs in oracle_classes(coloring).items()}


def oracle_optimal_colorings(g: DisjointnessGraph, chi: int):
    """Every proper coloring of g with exactly `chi` colors, as its color
    tuple in rank order, one per orbit under color permutations, in
    lexicographic order.
    A plain recursion colors the vertices in id order; a vertex may take a
    color only if no earlier neighbor has it, from the colors used so far
    and then the next new one while fewer than `chi` are used, so the
    classes are numbered by their smallest vertex. Two prunings cut only
    branches that yield nothing, so the order is that of the plain
    recursion: a branch stops when fewer vertices are left than colors still
    to open, and, by forward checking, when a later vertex has every one of
    the `chi` colors on an earlier neighbor."""
    v_count = g.n_vertices
    later = [[u for u in range(v + 1, v_count) if g.adj[v] >> u & 1] for v in range(v_count)]
    colors = [-1] * v_count
    # around[v][c]: colored neighbors of v with color c; free[v]: colors
    # that none of them has
    around = [[0] * chi for _ in range(v_count)]
    free = [chi] * v_count

    def rec(v: int, used: int):
        if v == v_count:
            if used == chi:
                yield tuple(colors)
            return
        if v_count - v < chi - used:
            return
        for c in range(min(used + 1, chi)):
            if around[v][c]:
                continue
            colors[v] = c
            dead = False
            for u in later[v]:
                around[u][c] += 1
                if around[u][c] == 1:
                    free[u] -= 1
                    dead = dead or not free[u]
            if not dead:
                yield from rec(v + 1, used + (c == used))
            for u in later[v]:
                around[u][c] -= 1
                if not around[u][c]:
                    free[u] += 1

    return rec(0, 0)


def oracle_delete(ps: PointSet, remove, coloring: Coloring | None = None):
    """ps without the points in `remove`. The rest keep their order, and the
    partition follows them; it is dropped if a side empties. With a
    coloring, also the coloring induced on the surviving segments, its
    colors renumbered in sorted order: (point set, coloring)."""
    gone = set(remove)
    new = {old: t for t, old in enumerate(i for i in range(ps.n) if i not in gone)}
    part = None
    if ps.partition is not None:
        up = [new[i] for i in ps.partition.upper if i in new]
        low = [new[i] for i in ps.partition.lower if i in new]
        if up and low:
            part = Partition(up, low)
    smaller = PointSet([ps.points[i] for i in new], part)
    if coloring is None:
        return smaller
    # deletion keeps the points' order, so the surviving pairs stay in
    # lexicographic order
    kept = [col for (i, j), col in zip(combinations(range(ps.n), 2), coloring.colors)
            if i in new and j in new]
    renumber = {col: t for t, col in enumerate(sorted(set(kept)))}
    return smaller, Coloring(smaller.n, [renumber[col] for col in kept])


def oracle_verify(g: DisjointnessGraph, vertex_colors) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """(proper, violations) by scanning every vertex pair of the adjacency
    matrix; violations are the same-colored adjacent pairs (u, v), u < v, in
    lexicographic order. Uses neither color-class masks nor g.edges()."""
    v_count = g.n_vertices
    bad = tuple((u, v) for u in range(v_count) for v in range(u + 1, v_count)
                if g.adj[u] >> v & 1 and vertex_colors[u] == vertex_colors[v])
    return not bad, bad


def turn(pts, a: int, b: int, c: int) -> int:
    (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def strictly_beyond(pts, a: int, b: int, p: int, below: bool) -> bool:
    """p strictly below (or above) the line through a and b; never for a
    vertical line, which has no below or above."""
    if pts[a][0] == pts[b][0]:
        return False
    if pts[a][0] > pts[b][0]:
        a, b = b, a
    d = turn(pts, a, b, p)
    return d < 0 if below else d > 0


def oracle_violates(ps: PointSet, name: str, witness) -> bool:
    """True iff the index triple really violates the named double-chain
    condition, judged from the definition alone."""
    pts = ps.points
    up, low = set(ps.partition.upper), set(ps.partition.lower)
    if len(witness) != 3 or len(set(witness)) != 3 or not all(0 <= i < ps.n for i in witness):
        return False
    if name in ("upper_is_cup", "lower_is_cap"):
        side, sign = (up, 1) if name == "upper_is_cup" else (low, -1)
        a, b, c = sorted(witness, key=lambda i: pts[i])
        return set(witness) <= side and sign * turn(pts, a, b, c) <= 0
    if name in ("lower_below_upper_lines", "upper_above_lower_lines"):
        below = name == "lower_below_upper_lines"
        chain, others = (up, low) if below else (low, up)
        a, b, p = witness
        return a in chain and b in chain and p in others \
            and not strictly_beyond(pts, a, b, p, below)
    if name == "general_position":
        return turn(pts, *witness) == 0
    raise ValueError(f"unknown condition {name!r}")


def oracle_validate_double_chain(ps: PointSet) -> tuple[bool, bool, bool, bool, bool]:
    """Pass/fail of the five double-chain conditions, in the package's
    order, by checking every triple and every chord against every point:
    (a) every lex-ordered triple of U turns strictly left, (b) every one of
    L strictly right, (c) every L point strictly below every U chord line,
    (d) every U point strictly above every L chord line, (e) no collinear
    triple. O(n^3); uses nothing from dchain.geometry beyond the point set."""
    pts = ps.points
    up = sorted(ps.partition.upper, key=lambda i: pts[i])
    low = sorted(ps.partition.lower, key=lambda i: pts[i])
    return (
        all(turn(pts, a, b, c) > 0 for a, b, c in combinations(up, 3)),
        all(turn(pts, a, b, c) < 0 for a, b, c in combinations(low, 3)),
        all(strictly_beyond(pts, a, b, p, True) for a, b in combinations(up, 2) for p in low),
        all(strictly_beyond(pts, a, b, p, False) for a, b in combinations(low, 2) for p in up),
        all(turn(pts, a, b, c) != 0 for a, b, c in combinations(range(ps.n), 3)),
    )
