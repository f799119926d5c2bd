"""Exact chromatic numbers of disjointness graphs.

The workhorse is one DSATUR-ordered branch and bound over big-int vertex
masks (per-color forbidden sets and saturation levels) on an explicit stack,
with saturation ties to the smallest label; on graphs of PASS_MIN_VERTICES
or more vertices, three or more tied vertices at a branching node go to the
largest PASS score first (San Segundo 2012). Every entry point runs it on the
vertices relabelled by (-degree, id), as in Brelaz's DSATUR. The relabelled
rows are a cached view of the graph (`DisjointnessGraph._relabel`), built
once per graph object, so `clique_lower`, `dsatur_upper` and the exact
solve of one graph share them. The search's first dive is the greedy
DSATUR coloring, the upper bound; the exact solve searches again from a
greedy clique grown in label order and precolored (sound symmetry
breaking), and maps the witness back to segment ranks.
`_search` is the one search loop of the package: the single-segment-class
check in `experiments` decides its property with exact solves too. The
engine knows nothing of the closed forms or the point-set generators; the
sweeps and scans that compare it with them live in `experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from time import perf_counter

from .coloring import Coloring, verify_coloring
from .disjointness import DisjointnessGraph
from .formulas import _check_int

EXACT = "exact"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ChiResult:
    """Outcome of an exact solve; indeterminate results carry proven bounds only.
    `dchain chi` writes its fields in order, the witness as coloring JSON."""

    status: str
    chi: int | None
    lower_bound: int
    upper_bound: int
    witness: Coloring
    nodes: int
    ms: float

    @property
    def is_exact(self) -> bool:
        return self.status == EXACT


# The search breaks saturation ties at branching nodes by the PASS score
# (`_pass_pick`) on graphs of at least this many vertices, and by the smallest
# label below it. Scoring saves nodes at every size, but each score costs a
# pass over the used colors, so small searches lose time by it. Measured
# crossover (Python 3.11, 2-core VM): on 400 seeded random n-point sets per n
# that reach the search, the scored search took 1.20 / 1.24 / 1.21 / 1.09 /
# 0.96 times the unscored search's time, in 0.91 / 0.89 / 0.81 / 0.70 / 0.63
# times its nodes, at n = 7 / 8 / 9 / 10 / 11 (V = 21 / 28 / 36 / 45 / 55).
# The double chains and convex sets gain sooner: those of 10 points (V = 45)
# took 0.85 times the time in 0.58 times the nodes. So 45 keeps the random
# scan's 8-point sets (V = 28) unscored, and scores from 10 points on.
PASS_MIN_VERTICES = 45


def _pass_pick(top: int, forb: list[int], used: int) -> int:
    """The bit of the vertex of `top`, the uncolored vertices of top
    saturation, with the largest PASS score (San Segundo 2012), ties to the
    smallest label. A vertex's score is the sum, over the used colors c free
    for it (its bit clear in `forb[c]`), of the number of other vertices of
    `top` free at c.

    The scores are bit-sliced: `sliced[b]` holds bit b of every score, and
    each color adds w = |free at c| - 1 to the scores of the vertices free at
    c, one ripple-carry addition per set bit of w. A color with w <= 0 adds
    nothing (and w = -1 would never shift down to 0). The largest score is
    then kept from the top bit down. When only two vertices tie, a color
    free for one of them adds 0, and a color free for both adds 1 to each,
    so both score the number of colors free for both: the score never
    separates two tied vertices, and the caller scores only three or more."""
    # a score is below used * |top|, so this many bits hold every sum
    sliced = [0] * (used * top.bit_count()).bit_length()
    for c in range(used):
        free = top & ~forb[c]
        w = free.bit_count() - 1
        if w <= 0:
            continue
        b = 0
        while w:
            if w & 1:  # add 2**b to every score in `free`
                carry, pos = free, b
                while carry:
                    bits = sliced[pos]
                    sliced[pos] = bits ^ carry
                    carry &= bits
                    pos += 1
            w >>= 1
            b += 1
    cand = top
    for bits in reversed(sliced):  # keep the largest scores
        if cand & bits:
            cand &= bits
    return cand & -cand


def _search(adj: tuple[int, ...], clique: list[int], best_k: int, best_colors: list[int] | None,
            max_nodes: int | None) -> tuple[int, list[int] | None, int, bool]:
    """DSATUR branch and bound below `best_k` colors from `clique`, precolored
    0, 1, ... in the order given; returns (best_k, best_colors, nodes, aborted).

    The branching vertex is the uncolored vertex of maximum saturation, and
    it may take any feasible used color or open exactly one new color. Ties
    go to the smallest id, except at a branching node of a search with an
    incumbent on at least PASS_MIN_VERTICES vertices, where three or more
    tied vertices go to the largest PASS score first (`_pass_pick`). Any
    vertex order gives a complete search, so a caller picks the tie order by
    how it labels `adj`: every caller in the package passes the rows of
    `DisjointnessGraph._relabel`. The state is a
    handful of vertex masks: `forb[c]` holds the neighbors of the vertices
    colored c, `unc` the uncolored vertices, and `lev[s]` the uncolored
    vertices whose neighbors carry exactly s colors. The search runs on an explicit stack, so its
    depth is not bounded by Python's recursion limit. With no incumbent
    (`best_colors` None) it is the greedy dive: it stops at its first leaf
    and pushes no frame, since nothing will backtrack.
    """
    first_leaf = best_colors is None
    v_count = len(adj)
    scored = v_count >= PASS_MIN_VERTICES
    colors = [-1] * v_count
    forb = [0] * best_k
    unc = (1 << v_count) - 1
    used = len(clique)
    for c, v in enumerate(clique):
        colors[v] = c
        forb[c] = adj[v]
        unc ^= 1 << v
    # a vertex's saturation never exceeds `used`, which stays below best_k;
    # lift the uncolored neighbors of each clique color by one level. A level
    # index never exceeds used + 1 <= best_k - 1, so best_k levels suffice
    lev = [0] * best_k
    lev[0] = unc
    for c in range(used):
        rise = forb[c] & unc
        s = c
        while rise:
            moved = lev[s] & rise
            lev[s] ^= moved
            lev[s + 1] |= moved
            rise ^= moved
            s -= 1
    nodes = 0
    aborted = False
    # Moves and frames. The pick's saturation level is the number of used
    # colors among its neighbors, so it has exactly used - level free used
    # colors, taken while used < best_k, then the new color while
    # used + 1 < best_k. Every node is entered with used < best_k, so on
    # entry a node has used - level + (used + 1 < best_k) moves:
    # - none (the dead child): the node is counted and left at once;
    # - one (forced): the move updates forb, unc and lev in place and
    #   pushes no frame. Every move of a node starts from the node's own
    #   masks, so its feasible colors are fixed, and best_k only falls, so
    #   a node forced on entry never gains a second move;
    # - two or more (branching): the node pushes a frame
    #   [pbit, level, used, next color, forb, unc, lev] with copies of its
    #   masks as entered, and each later child starts from fresh copies of
    #   those. A run of forced moves thus ends where the deepest branching
    #   frame restores its snapshot.
    # colors needs no restore: every vertex colored on the current path is
    # written on that path, and a completion has colored them all.
    # The pick. Any vertex of lev[level] keeps the search complete: a proper
    # coloring below best_k that extends the node's partial coloring gives
    # the pick a free used color or an unused one, every unused color is
    # equivalent to the new color, and the node tries each free used color
    # and the new one, whatever uncolored vertex it picks. Nor does
    # the choice change the moves: every vertex of lev[level] has the same
    # used - level free used colors, so the node's move count, and with it
    # whether it is dead, forced or branching, is decided before the pick
    # and holds for each tied vertex. So a branching node of a search with
    # an incumbent on at least PASS_MIN_VERTICES vertices picks among three
    # or more tied vertices by `_pass_pick`, and every other node, the whole
    # greedy dive included, takes the smallest label.
    stack: list[list] = []

    while True:
        # enter a node
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            aborted = True
            break
        c = -1
        if unc:
            level = used
            while not lev[level]:
                level -= 1
            top = lev[level]
            pbit = top & -top
            if level < used:
                if not first_leaf and (level + 1 < used or used + 1 < best_k):
                    if scored and top.bit_count() > 2:
                        pbit = _pass_pick(top, forb, used)
                    c = 0
                    while forb[c] & pbit:
                        c += 1
                    stack.append([pbit, level, used, c + 1, forb[:], unc, lev[:]])
                else:
                    c = 0
                    while forb[c] & pbit:
                        c += 1
            elif used + 1 < best_k:
                c = used
        else:
            best_k = used
            best_colors = colors[:]
            if first_leaf:
                break
        if c < 0:
            # give the deepest branching frame its next color, dropping
            # finished frames
            while stack:
                frame = stack[-1]
                pbit, level, used, c, sforb, unc, slev = frame
                # a snapshot is 0 at every color >= used, and
                # c <= used + 1 < len(sforb), so this stops by c = used
                while sforb[c] & pbit:
                    c += 1
                if c < used:
                    if used >= best_k:
                        stack.pop()  # a deeper completion improved the incumbent
                        continue
                elif c > used or used + 1 >= best_k:
                    stack.pop()
                    continue
                frame[3] = c + 1
                forb = sforb[:]
                lev = slev[:]
                break
            else:
                break
        # color the pick with c, in place
        pick = pbit.bit_length() - 1
        row = adj[pick]
        old = forb[c]
        forb[c] = old | row
        unc ^= pbit
        rise = row & unc & ~old  # uncolored neighbors that gain color c
        lev[level] ^= pbit
        s = level
        while rise:
            moved = lev[s] & rise
            if moved:
                lev[s] ^= moved
                lev[s + 1] |= moved
                rise ^= moved
            s -= 1
        colors[pick] = c
        if c == used:
            used += 1
    return best_k, best_colors, nodes, aborted


def _clique(g: DisjointnessGraph, order: list[int], rows: tuple[int, ...]) -> list[int]:
    """The greedy clique on the rows of `g._relabel`, as sorted new labels:
    each label seeds a growth that adds the lowest label joined to every
    member so far, and the first largest clique is kept. Any clique is sound
    to precolor 0, 1, ...: its members need distinct colors and every color
    permutation is equivalent, so the search stays complete and the clique's
    size is the lower bound. Every member pair is re-checked on `g`."""

    def grow(seed: int) -> list[int]:
        members = [seed]
        cand = rows[seed]
        while cand:
            # the candidates only shrink, so each pick is above the last
            pick = (cand & -cand).bit_length() - 1
            members.append(pick)
            cand &= rows[pick]
        return members

    # Ceiling: DisjointnessGraph rejects rows that join segments sharing an
    # endpoint, so no clique has more than n_points // 2 members. best is only
    # ever replaced by a strictly larger clique, so stopping there returns
    # exactly the clique of the full loop.
    ceiling = g.n_points // 2
    best: list[int] = []
    for seed in range(len(rows)):
        grown = grow(seed)
        if len(grown) > len(best):
            best = grown
            if len(best) >= ceiling:
                break

    best.sort()
    for u, v in combinations([order[i] for i in best], 2):
        if not g.adjacent(u, v):
            raise RuntimeError(f"greedy clique members {u} and {v} are not adjacent")
    return best


def dsatur_upper(g: DisjointnessGraph) -> Coloring:
    """Greedy proper coloring by saturation degree, ties to the highest
    degree, then the smallest segment rank: the exact solve's incumbent.

    It is the search's first dive on the relabelled rows, from no colored
    vertex and with best_k = V + 1. Every node on it has used + 1 <= V <
    best_k, so the new color is always allowed and no child is dead, and the
    first child takes the lowest free used color, or the new color when none
    is free: the greedy rule. The first leaf, node V + 1, is the greedy
    coloring."""
    _, rows, new_id = g._relabel
    _, colors, _, _ = _search(rows, [], len(rows) + 1, None, None)
    return Coloring(g.n_points, [colors[i] for i in new_id])


def clique_lower(g: DisjointnessGraph) -> tuple[int, frozenset[int]]:
    """(size, members) of the greedy clique, a set of pairwise disjoint
    segments as segment ranks: each vertex, by (-degree, id), seeds a growth
    that adds the first common neighbor in that same order, and the first
    largest clique is kept. It is the clique the exact solve precolors."""
    order, rows, _ = g._relabel
    clique = _clique(g, order, rows)
    return len(clique), frozenset([order[i] for i in clique])


def chromatic_number_exact(g: DisjointnessGraph, *, max_nodes: int | None = None) -> ChiResult:
    """Exact chromatic number with an optimal-coloring witness.

    Branch and bound in DSATUR order (see `_search`) on the rows of
    `g._relabel`, so that saturation ties go to the highest degree, then the
    smallest segment rank, as in Brelaz's DSATUR. The coloring of
    `dsatur_upper` is the incumbent, and the clique of `clique_lower` is
    precolored with distinct colors in new-label order. The witness is mapped
    back to segment ranks and verified against `g`. The search is
    deterministic for a fixed graph. A search that enters node
    `max_nodes + 1` stops there: the result is INDETERMINATE, counts that
    node in `nodes`, and carries the best proven bounds, never a guessed
    value. `max_nodes` must be a positive int; anything else raises
    ValueError rather than running without the budget.
    """
    if max_nodes is not None:
        _check_int(max_nodes, "max_nodes")
    t0 = perf_counter()
    order, rows, new_id = g._relabel
    clique = _clique(g, order, rows)
    # the incumbent: dsatur_upper's first dive
    best_k, best_colors, _, _ = _search(rows, [], len(rows) + 1, None, None)
    nodes, aborted = 0, False
    if best_k > len(clique):
        best_k, best_colors, nodes, aborted = _search(rows, clique, best_k, best_colors, max_nodes)

    ms = (perf_counter() - t0) * 1000.0
    witness = Coloring(g.n_points, [best_colors[i] for i in new_id])
    if not verify_coloring(g, witness).proper:
        raise RuntimeError("solver witness is not a proper coloring")
    if aborted:
        return ChiResult(INDETERMINATE, None, len(clique), best_k, witness, nodes, ms)
    return ChiResult(EXACT, best_k, best_k, best_k, witness, nodes, ms)
