import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dchain import (
    Partition,
    PointSet,
    all_segments,
    build_graph,
    find_collinear_triple,
    gen_convex,
    gen_double_chain,
    load_points,
    pointset_from_json,
    pointset_to_json,
    save_points,
    validate_double_chain,
)
import dchain.geometry
from dchain.geometry import DoubleChainReport
from helpers import (chain_hull_edges, oracle_collinear, oracle_delete, oracle_disjoint,
                     oracle_validate_double_chain, oracle_violates, pairwise_disjoint_matrix,
                     strictly_beyond, turn)


def parabola_set(xs):
    return PointSet(tuple((x, x * x) for x in xs))


class TestOrientation:
    def test_huge_coordinates_stay_exact(self):
        # a one-unit nudge at a scale where doubles would round to collinear:
        # the collinearity search and the graph build both see it
        big = 10 ** 30
        on_line = PointSet([(0, 0), (big, 1), (2 * big, 2), (0, 5)])
        assert find_collinear_triple(on_line) == (0, 1, 2)
        with pytest.raises(ValueError, match="^point set is not in general position$"):
            build_graph(on_line)
        nudged = PointSet([(0, 0), (big, 1), (2 * big + 1, 2), (0, 5)])
        assert turn(nudged.points, 0, 1, 2) == -1
        assert find_collinear_triple(nudged) is None
        g = build_graph(nudged)
        assert [[g.adjacent(u, v) for v in range(6)] for u in range(6)] == \
            pairwise_disjoint_matrix(nudged)

    def test_point_rejects_floats(self):
        for x, y, name in ((0.5, 1, "x"), (1, 1.0, "y"), (True, 1, "x"), (1, "1", "y"),
                           (None, 1, "x")):
            with pytest.raises(ValueError, match=f"^point {name} must be an integer, got"):
                PointSet([(x, y)])
        # a list pair is checked like a tuple, before the items after it
        with pytest.raises(ValueError, match="^point x must be an integer, got 0.5$"):
            PointSet([[0.5, 1], (2, 3)])


PARABOLA_3 = [(0, 0), (1, 1), (2, 4)]
# (points, partition sides or None, exception type, message), every entry a
# literal so that the python -O run below can rebuild it
GATE_REFUSALS = [
    ([(0, 0), (True, 1)], None, ValueError, "point x must be an integer, got True"),
    ([(0, 0), (1, 1.5)], None, ValueError, "point y must be an integer, got 1.5"),
    # the first offender in point order, x before y
    ([(0, 1.5), (True, 1)], None, ValueError, "point y must be an integer, got 1.5"),
    ([(0, 0), "ab"], None, ValueError, "point x must be an integer, got 'a'"),
    ([(0, 0), (1, 2, 3)], None, ValueError,
     "point set item 1 must be a pair of integers, got (1, 2, 3)"),
    ([(0, 0), 5], None, ValueError, "point set item 1 must be a pair of integers, got 5"),
    ([], None, ValueError, "a point set needs at least one point"),
    (PARABOLA_3, ((), (0, 1, 2)), ValueError, "both sides of a partition must be non-empty"),
    (PARABOLA_3, ((0, 1, 2), ()), ValueError, "both sides of a partition must be non-empty"),
    (PARABOLA_3, ((-1, 1), (2,)), ValueError, "partition index must be an integer >= 0, got -1"),
    (PARABOLA_3, ((0, 1), (True,)), ValueError,
     "partition index must be an integer >= 0, got True"),
]
GATE_REFUSAL_IDS = ["x-bool", "y-float", "first-offender", "str-item", "3-tuple", "non-iterable",
                    "empty", "empty-upper", "empty-lower", "negative-index", "bool-index"]


class TestPointSetGate:
    """PointSet accepts and refuses exactly what a walk over every
    coordinate and index does: the same stored values, and the same error,
    naming the first offender."""

    def test_points_as_generator_lists_or_points(self):
        class Pt(NamedTuple):
            x: int
            y: int

        expected = ((0, 0), (1, 1), (2, 4))
        for points in ((p for p in PARABOLA_3), [list(p) for p in PARABOLA_3],
                       [Pt(*p) for p in PARABOLA_3]):
            ps = PointSet(points)
            assert ps.points == expected
            assert type(ps.points) is tuple
            assert [type(p) for p in ps.points] == [tuple] * 3
            assert {type(c) for p in ps.points for c in p} == {int}

    def test_any_two_value_item_is_a_pair(self):
        ps = PointSet([range(2), iter((3, 5))])
        assert ps.points == ((0, 1), (3, 5))
        assert {type(c) for p in ps.points for c in p} == {int}

    def test_int_subclass_coordinate_is_kept(self):
        class Coord(int):
            pass

        x = Coord(7)
        ps = PointSet([(x, 1), (2, 3)])
        assert ps.points == ((7, 1), (2, 3))
        assert ps.points[0][0] is x

    def test_partition_sides_as_range_or_generator(self):
        for upper, lower in ((range(2), range(2, 3)), ((i for i in (0, 1)), (i for i in (2,)))):
            ps = PointSet(PARABOLA_3, Partition(upper, lower))
            assert ps.partition == Partition((0, 1), (2,))
            assert type(ps.partition.upper) is tuple and type(ps.partition.lower) is tuple

    @pytest.mark.parametrize("points, sides, exc, message", GATE_REFUSALS, ids=GATE_REFUSAL_IDS)
    def test_refusal(self, points, sides, exc, message):
        with pytest.raises(exc) as info:
            PointSet(points, None if sides is None else Partition(*sides))
        assert type(info.value) is exc and str(info.value) == message

    def test_refusals_survive_python_O(self):
        script = """
import ast, sys
from dchain import Partition, PointSet
assert False, "asserts must be stripped for this check to mean anything"
for points, sides in ast.literal_eval(sys.stdin.read()):
    try:
        PointSet(points, None if sides is None else Partition(*sides))
    except Exception as exc:
        print(repr((type(exc).__name__, str(exc))))
    else:
        print("accepted")
"""
        src = Path(dchain.geometry.__file__).resolve().parents[1]
        cases = repr([(points, sides) for points, sides, _, _ in GATE_REFUSALS])
        proc = subprocess.run([sys.executable, "-O", "-c", script], input=cases, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [repr((exc.__name__, message))
                                            for _, _, exc, message in GATE_REFUSALS]


def graph_disjoint(a, b, ps: PointSet) -> bool:
    """Whether segments a and b are adjacent in build_graph(ps)."""
    segs = all_segments(ps.n)
    return build_graph(ps).adjacent(segs.index(tuple(sorted(a))), segs.index(tuple(sorted(b))))


class TestSegmentsDisjoint:
    """Disjointness as the graph build decides it, against the rational oracle."""

    def test_shared_endpoint_intersects(self):
        ps = parabola_set([0, 1, 2, 3])
        assert graph_disjoint((0, 1), (1, 2), ps) is False

    def test_crossing_diagonals_intersect(self):
        ps = PointSet(((0, 0), (2, 0), (2, 2), (0, 3)))
        assert graph_disjoint((0, 2), (1, 3), ps) is False
        assert oracle_disjoint(ps, (0, 2), (1, 3)) is False

    def test_double_chain_pair_disjoint(self):
        # cup point to middle cap point vs the outer cap chord
        ps = gen_double_chain(1, 3)
        assert graph_disjoint((0, 2), (1, 3), ps) is True

    @given(st.lists(st.integers(-50, 50), min_size=4, max_size=8, unique=True))
    def test_symmetric(self, xs):
        ps = parabola_set(sorted(xs))
        a, b = (0, 1), (2, 3)
        assert graph_disjoint(a, b, ps) == graph_disjoint(b, a, ps)

    @given(st.lists(st.integers(-30, 30), min_size=4, max_size=7, unique=True),
           st.data())
    def test_matches_fraction_oracle(self, xs, data):
        ps = parabola_set(sorted(xs))
        n = ps.n
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        a = data.draw(st.sampled_from(pairs))
        b = data.draw(st.sampled_from([p for p in pairs if p != a]))
        assert graph_disjoint(a, b, ps) == oracle_disjoint(ps, a, b)

    def test_collinear_touching_counts_as_intersecting(self):
        # not general position: the oracle still answers exactly, and the
        # build refuses the set rather than decide a collinear pair
        ps = PointSet(((0, 0), (2, 0), (4, 0), (6, 0), (0, 5)))
        assert oracle_disjoint(ps, (0, 2), (1, 3)) is False  # overlap
        assert oracle_disjoint(ps, (0, 1), (2, 3)) is True   # gap on one line
        with pytest.raises(ValueError, match="^point set is not in general position$"):
            build_graph(ps)

    @pytest.mark.parametrize("coords", [
        # the first, then the second endpoint of the first segment lies on the other
        [(1, 0), (0, 5), (0, 0), (2, 0)],
        [(0, 5), (1, 0), (0, 0), (2, 0)],
        # the first, then the second endpoint of the other segment lies on the first
        [(0, 0), (2, 0), (1, 0), (1, 5)],
        [(0, 0), (2, 0), (1, 5), (1, 0)],
    ], ids=["own_first", "own_second", "other_first", "other_second"])
    def test_each_touching_endpoint_intersects(self, coords):
        # one collinear endpoint in each set: the oracle counts the touch as
        # meeting, and the build refuses the set at its collinear triple
        ps = PointSet(tuple(coords))
        assert oracle_disjoint(ps, (0, 1), (2, 3)) is False
        assert find_collinear_triple(ps) is not None
        with pytest.raises(ValueError, match="^point set is not in general position$"):
            build_graph(ps)


class TestGeneralPosition:
    def test_parabola_is_general(self):
        assert find_collinear_triple(parabola_set(range(6))) is None

    def test_collinear_detected(self):
        for coords, witness in (
                ([(0, 0), (1, 1), (2, 2), (5, 0)], (0, 1, 2)),
                # not the lexicographic first, (0, 1, 5): the smallest c for a = 0
                ([(0, 0), (1, 1), (5, 0), (10, 0), (1, 7), (2, 2)], (0, 2, 3))):
            ps = PointSet(coords)
            assert find_collinear_triple(ps) == witness

    def test_witnesses_pinned_on_a_small_grid(self):
        # 500 seeded sets of 3..9 points in [0, 6]^2, where collinear
        # triples are common; the witnesses were recorded with a scan of
        # every b != a at each step a. Each must be the first collinear
        # triple under the key (a, c, b), the docstring's order
        def first(coords):
            return min((t for t in combinations(range(len(coords)), 3)
                        if turn(coords, *t) == 0),
                       key=lambda t: (t[0], t[2], t[1]), default=None)

        rng = random.Random(6)
        grid = [(x, y) for x in range(7) for y in range(7)]
        digest = hashlib.sha256()
        found = 0
        for _ in range(500):
            coords = rng.sample(grid, rng.randint(3, 9))
            witness = find_collinear_triple(PointSet(coords))
            assert (witness is None) == (oracle_collinear(coords) is None), coords
            assert witness == first(coords), coords
            if witness is not None:
                found += 1
            digest.update((json.dumps(witness) + "\n").encode())
        assert 100 <= found <= 400, found
        assert digest.hexdigest() == \
            "21ece932faef11db7d3d24d97c944ee22f3c1fef263c6aa3f0e160d8ba9cae33"
        # larger sets on the same grid, outside the digest
        for _ in range(100):
            coords = rng.sample(grid, rng.randint(10, 30))
            assert find_collinear_triple(PointSet(coords)) == first(coords), coords

    def test_tiny_sets_vacuous(self):
        assert find_collinear_triple(PointSet(((0, 0),))) is None
        assert find_collinear_triple(PointSet(((0, 0), (1, 5)))) is None

    def test_distinctness_enforced_at_construction(self):
        with pytest.raises(ValueError):
            PointSet(((0, 0), (0, 0)))


class TestGenConvex:
    def test_consecutive_triples_turn_left(self):
        # x increases along the set, so left turns at every consecutive
        # triple put it in convex position, which chi = f(n) needs
        for n in range(3, 41):
            pts = gen_convex(n).points
            assert all(pts[i][0] < pts[i + 1][0] for i in range(n - 1)), n
            assert all(turn(pts, i, i + 1, i + 2) > 0 for i in range(n - 2)), n

    def test_general_position_up_to_40(self):
        assert find_collinear_triple(gen_convex(40)) is None

    def test_deterministic(self):
        assert gen_convex(7) == gen_convex(7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gen_convex(0)


class TestGenDoubleChain:
    @pytest.mark.parametrize("k,l", [(5, 7), (1, 3), (2, 2), (1, 1), (3, 8), (40, 40), (300, 400)])
    def test_generates_valid_chains(self, k, l):
        ps = gen_double_chain(k, l)
        assert ps.n == k + l
        assert {type(p) for p in ps.points} == {tuple}
        assert len(ps.partition.upper) == k
        assert len(ps.partition.lower) == l
        report = validate_double_chain(ps)
        assert report == (None,) * 5 and report.ok and report.failed() == []

    def test_deterministic(self):
        assert gen_double_chain(3, 5) == gen_double_chain(3, 5)

    def test_rejects_k_above_l(self):
        with pytest.raises(ValueError, match="^l must be an integer >= 4, got 3$"):
            gen_double_chain(4, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="^k must be an integer >= 1, got 0$"):
            gen_double_chain(0, 3)
        for k, l, name in ((True, 3, "k"), (1.0, 3, "k"), ("1", 3, "k"), (None, 3, "k"),
                           (1, True, "l"), (1, 3.0, "l"), (1, "3", "l"), (1, None, "l")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got"):
                gen_double_chain(k, l)

    def test_failed_validation_raises(self, monkeypatch):
        # the chord-height bound makes this unreachable; the check must still fire
        failing = DoubleChainReport(None, None, (0, 1, 2), None, None)
        monkeypatch.setattr(dchain.geometry, "validate_double_chain", lambda ps: failing)
        with pytest.raises(RuntimeError, match="lower_below_upper_lines"):
            gen_double_chain(2, 3)

    def test_golden_points(self):
        # sha256 of every chain with 1 <= k <= l <= 40, recorded before the
        # offset search was removed: the points are those of its first offset
        digest = hashlib.sha256()
        for k in range(1, 41):
            for l in range(k, 41):
                digest.update((json.dumps(pointset_to_json(gen_double_chain(k, l))) + "\n").encode())
        assert digest.hexdigest() == "c8e03df0ca42612c8fef3e285102592fcb493d6f66c2c175324823d24dd17def"


class TestValidateDoubleChain:
    def test_requires_partition(self):
        with pytest.raises(ValueError):
            validate_double_chain(gen_convex(5))

    def test_partition_rejects_empty_side(self):
        with pytest.raises(ValueError, match="^both sides of a partition must be non-empty$"):
            PointSet(gen_convex(3).points, Partition((0, 1, 2), ()))

    @pytest.mark.parametrize("upper, lower", [((0, 0), (1,)), ((0, 1), (1, 2))],
                             ids=["repeated", "shared"])
    def test_partition_rejects_repeated_or_shared_index(self, upper, lower):
        # as many indices as points: only the cover check can refuse them
        points = gen_convex(len(upper) + len(lower)).points
        with pytest.raises(ValueError, match="^partition must cover every point index exactly once$"):
            PointSet(points, Partition(upper, lower))

    def test_point_set_partition_must_cover_every_index(self):
        with pytest.raises(ValueError, match="^partition must cover every point index"):
            PointSet(gen_convex(4).points, Partition((0,), (1, 2)))
        ps = PointSet(gen_convex(4).points, Partition(range(2), [2, 3]))
        assert ps.partition == Partition((0, 1), (2, 3))
        assert type(ps.partition.upper) is tuple and type(ps.partition.lower) is tuple

    @pytest.mark.parametrize("part", [((0, 1), (2, 3)), [[0, 1], [2, 3]], {"U": [0, 1]}])
    def test_point_set_partition_must_be_a_partition(self, part):
        with pytest.raises(ValueError, match="^partition must be a Partition or None, got"):
            PointSet(gen_convex(4).points, part)

    def test_cup_violation_witnessed(self):
        good = gen_double_chain(3, 4)
        pts = list(good.points)
        pts[1] = (pts[1][0], pts[1][1] + 10 ** 6)  # middle cup point far above
        report = validate_double_chain(PointSet(tuple(pts), good.partition))
        assert report == ((0, 1, 2), None, (0, 1, 3), None, None)
        assert report.failed() == ["upper_is_cup", "lower_below_upper_lines"]
        assert DoubleChainReport._fields == (
            "upper_is_cup", "lower_is_cap", "lower_below_upper_lines",
            "upper_above_lower_lines", "general_position")

    def test_cup_point_dropped_below_cap_lines_witnessed(self):
        good = gen_double_chain(2, 3)
        pts = list(good.points)
        pts[0] = (pts[0][0], -10 ** 6)
        report = validate_double_chain(PointSet(tuple(pts), good.partition))
        bad = report.upper_above_lower_lines
        assert bad is not None and bad[2] == 0

    def test_cap_point_above_last_cup_chord_witnessed(self):
        # cap point 41, at x = -38, lifted to one unit above the line of the
        # last cup chord (38, 39)
        good = gen_double_chain(40, 40)
        pts = list(good.points)
        (ax, ay), (bx, by), (px, _) = pts[38], pts[39], pts[41]
        pts[41] = (px, ay + (by - ay) * (px - ax) // (bx - ax) + 1)
        assert pts[41] == (-38, 391)
        report = validate_double_chain(PointSet(pts, good.partition))
        assert report == (None, (41, 42, 43), (38, 39, 41), (40, 41, 4), None)

    def test_failing_long_cup_walks_its_chord_pairs_lazily(self):
        # a 1000-point cup that fails (a) at its first triple, so (c) walks
        # every pair of cup points; the first pair names the witness, and the
        # walk must not build all C(1000, 2) pairs before testing it
        m = 1000
        cup = [(0, 0), (1, 0), (2, 0)] + [(x, x * x) for x in range(3, m)]
        cap = [(-2, 2), (-1, 1), (3, -1)]  # (-2, 2) above the first cup chord
        ps = PointSet(cup + cap, Partition(range(m), range(m, m + 3)))
        tracemalloc.start()
        try:
            report = validate_double_chain(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == ((0, 1, 2), (1000, 1001, 1002), (0, 1, 1000), (1000, 1001, 0), (0, 1, 2))
        assert peak < 2 * 10 ** 6, peak

    def test_collinear_triple_fails_general_position(self):
        # cap points (-2,-4), (0,0), (2,4) lie on one line
        pts = ((-1, 6), (1, 6), (-2, -4), (0, 0), (2, 4))
        report = validate_double_chain(PointSet(pts, Partition((0, 1), (2, 3, 4))))
        assert not report.ok
        assert report.general_position == (2, 3, 4)


def small_box_chain(rng: random.Random) -> PointSet | None:
    """A partitioned set of at most 10 points with tiny coordinates: either a
    canonical chain with a few coordinates nudged, or U and L drawn from
    overlapping boxes. Equal x values, vertical chords and collinear triples
    are common. None when two points coincide."""
    k, l = rng.randint(1, 5), rng.randint(1, 5)
    if rng.random() < 0.5:
        base = gen_double_chain(min(k, l), max(k, l))
        pts = [(x + rng.randint(-2, 2) * (rng.random() < 0.4),
                y + rng.randint(-3, 3) * (rng.random() < 0.4)) for x, y in base.points]
        up, low = base.partition.upper, base.partition.lower
    else:
        pts = [(rng.randint(0, 6), rng.randint(4, 9)) for _ in range(k)] \
            + [(rng.randint(0, 6), rng.randint(0, 5)) for _ in range(l)]
        up, low = tuple(range(k)), tuple(range(k, len(pts)))
    if len(set(pts)) != len(pts):
        return None
    return shuffled_labels(pts, up, low, rng)


def shuffled_labels(pts, up, low, rng: random.Random) -> PointSet:
    """The partitioned set with its points listed in a seeded random order."""
    order = list(range(len(pts)))
    rng.shuffle(order)
    new = {old: i for i, old in enumerate(order)}
    return PointSet(tuple(pts[o] for o in order),
                    Partition(tuple(new[i] for i in up), tuple(new[i] for i in low)))


def small_box_corpus() -> list[PointSet]:
    """The seeded small-box sets: 4000 draws from seed 4711, coincident
    points dropped."""
    rng = random.Random(4711)
    return [ps for ps in (small_box_chain(rng) for _ in range(4000)) if ps is not None]


# cup and cap sizes of the canonical chains that nudged_canonical_chains
# perturbs: sides of 1 and 2 points, and of 3..15
CANONICAL_SIDES = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 8), (8, 1), (2, 6), (6, 2),
                   (3, 3), (3, 15), (15, 3), (4, 11), (7, 9), (12, 5), (15, 15))


def canonical_chain(k: int, l: int) -> PointSet:
    """A valid chain with a k-point cup and an l-point cap: gen_double_chain
    for k <= l, else the mirror image (x, -y) of gen_double_chain(l, k),
    whose cap becomes the cup."""
    if k <= l:
        return gen_double_chain(k, l)
    base = gen_double_chain(l, k)
    return PointSet(tuple((x, -y) for x, y in base.points),
                    Partition(base.partition.lower, base.partition.upper))


def nudged_canonical_chains() -> list[PointSet]:
    """Canonical chains with one point moved, each side listed left to right.

    - The leftmost or rightmost point of one chain goes onto a consecutive
      chord line of the other, at its own x, or one unit above or below it.
      The chord's chain stays convex, so the outer-chord test decides.
    - A chain point goes onto the line through its two neighbours (the next
      two at an end), or one unit off it: a bend.
    - An end point takes the x of its neighbour: a vertical chord.
    Canonical chord lines have integer slopes, so "onto" is exact.
    """
    out = []
    for k, l in CANONICAL_SIDES:
        base = canonical_chain(k, l)
        pts = base.points
        up, low = base.partition.upper, base.partition.lower
        lines = []  # (moved point, chord ends a and b)
        for chain, others in ((up, low), (low, up)):
            for a, b in zip(chain, chain[1:]):
                for p in {others[0], others[-1]}:
                    lines.append((p, a, b))
            if len(chain) >= 3:
                lines += [(p, *((chain[1], chain[2]) if t == 0 else
                                (chain[-3], chain[-2]) if t == len(chain) - 1 else
                                (chain[t - 1], chain[t + 1])))
                          for t, p in enumerate(chain)]
        moves = []
        for p, a, b in sorted(lines):
            (ax, ay), (bx, by), x = pts[a], pts[b], pts[p][0]
            rise, run = (by - ay) * (x - ax), bx - ax
            assert rise % run == 0
            moves += [(p, (x, ay + rise // run + dy)) for dy in (-1, 0, 1)]
        for chain in (up, low):
            if len(chain) >= 2:
                moves.append((chain[0], (pts[chain[1]][0], pts[chain[0]][1])))
                moves.append((chain[-1], (pts[chain[-2]][0], pts[chain[-1]][1])))
        for p, moved in moves:
            new = pts[:p] + (moved,) + pts[p + 1:]
            if len(set(new)) == len(new):
                out.append(PointSet(new, base.partition))
    return out


def extreme_point_chain(rng: random.Random) -> PointSet | None:
    """A cup on y = x^2 + t x + c above a cap on y = -x^2 + s x, at x values
    drawn from -12..12, with random tilts t, s and offset c. One point is
    sometimes moved up or down, so that its chain may fail its turn test.
    Against an outer chord of one chain, the other chain's extreme point
    falls at its first point, its last or inside, and steps parallel to the
    chord are common. None when two points coincide."""
    k, l = rng.randint(1, 10), rng.randint(1, 10)
    t, s, c = rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-40, 160)
    pts = [(x, x * x + t * x + c) for x in sorted(rng.sample(range(-12, 13), k))] \
        + [(x, -x * x + s * x) for x in sorted(rng.sample(range(-12, 13), l))]
    if rng.random() < 0.3:
        i = rng.randrange(len(pts))
        pts[i] = (pts[i][0], pts[i][1] + rng.randint(-30, 30))
    if len(set(pts)) != len(pts):
        return None
    return shuffled_labels(pts, range(k), range(k, k + l), rng)


def extreme_point_corpus() -> list[PointSet]:
    """The seeded parabola chains: 3000 draws from seed 1789, coincident
    points dropped."""
    rng = random.Random(1789)
    return [ps for ps in (extreme_point_chain(rng) for _ in range(3000)) if ps is not None]


def nudged_long_chain(ps: PointSet, rng: random.Random, whole_side: bool) -> PointSet | None:
    """ps with one point, or every point of one side, moved up or down by up
    to 4 units, or up to a sixteenth or a half of the set's height; a whole
    side is also sheared, y += t x with |t| <= 8, which keeps it convex.
    None when two points coincide."""
    pts = list(ps.points)
    height = max(y for _, y in pts) - min(y for _, y in pts)
    reach = rng.choice((4, height // 16, height // 2))
    if whole_side:
        moved, t = rng.choice(ps.partition), rng.randint(-8, 8)
    else:
        moved, t = (rng.randrange(len(pts)),), 0
    dy = rng.randint(-reach, reach)
    for i in moved:
        x, y = pts[i]
        pts[i] = (x, y + t * x + dy)
    return PointSet(pts, ps.partition) if len(set(pts)) == len(pts) else None


def report_digest(reports) -> str:
    """sha256 over the name, pass/fail and witness of every condition."""
    digest = hashlib.sha256()
    for report in reports:
        rows = [(name, w is None, w) for name, w in zip(report._fields, report)]
        digest.update((repr(rows) + "\n").encode())
    return digest.hexdigest()


def oracle_checked_report(ps: PointSet) -> tuple[DoubleChainReport, tuple[bool, ...]]:
    """The report of ps and its pass/fail per condition, asserted equal to the
    all-chords oracle's, with every failure witness asserted real."""
    report = validate_double_chain(ps)
    got = tuple(w is None for w in report)
    assert got == oracle_validate_double_chain(ps), ps
    for name, w in zip(report._fields, report):
        if w is not None:
            assert oracle_violates(ps, name, w), (ps, name, w)
    return report, got


class TestValidatorAgainstOracle:
    def test_small_box_sets_match_all_chords_oracle(self):
        # pass/fail of every condition equals the all-chords, all-triples
        # oracle, and every failure witness is a real violation
        seen = Counter()
        for ps in small_box_corpus():
            report, got = oracle_checked_report(ps)
            for name, w in zip(report._fields, report):
                seen[name, w is None] += 1
            seen["valid"] += report.ok
            for label, side, convex in (("cup", ps.partition.upper, got[0]),
                                        ("cap", ps.partition.lower, got[1])):
                xs = [ps.points[i][0] for i in side]
                seen[f"{label} with equal x"] += convex and len(set(xs)) < len(xs)
            seen["cup, points above a chord"] += got[0] and not got[2]
            seen["cap, points below a chord"] += got[1] and not got[3]
        # both outcomes of every condition, and both sides of each shortcut
        for name in DoubleChainReport._fields:
            assert seen[name, True] >= 100 and seen[name, False] >= 100, (name, seen)
        for case in ("valid", "cup with equal x", "cap with equal x",
                     "cup, points above a chord", "cap, points below a chord"):
            assert seen[case] >= 50, (case, seen)

    def test_nudged_canonical_chains_match_all_chords_oracle(self):
        # chains of up to 15 points a side, where the outer chords are two of
        # up to 14; the oracle also confirms on each convex chain that a
        # condition fails exactly when some point is not strictly beyond one
        # of the two outer chords
        seen = Counter()
        for ps in nudged_canonical_chains():
            report, got = oracle_checked_report(ps)
            seen["valid"] += report.ok
            pts = ps.points
            for below, chain, others, convex, passed in (
                    (True, ps.partition.upper, ps.partition.lower, got[0], got[2]),
                    (False, ps.partition.lower, ps.partition.upper, got[1], got[3])):
                chain = sorted(chain, key=lambda i: pts[i])
                if not convex or len({pts[i][0] for i in chain}) < len(chain) or len(chain) < 3:
                    continue
                chords = ((chain[0], chain[1]), (chain[-2], chain[-1]))
                outer = [{p for p in others if not strictly_beyond(pts, a, b, p, below)}
                         for a, b in chords]
                assert passed == (not outer[0] and not outer[1]), (ps, below)
                seen["fails the first outer chord only"] += bool(outer[0]) and not outer[1]
                seen["fails the last outer chord only"] += bool(outer[1]) and not outer[0]
                seen["fails only on outer chord lines"] += not passed and all(
                    turn(pts, a, b, p) == 0 for (a, b), bad in zip(chords, outer) for p in bad)
        for case in ("valid", "fails the first outer chord only",
                     "fails the last outer chord only", "fails only on outer chord lines"):
            assert seen[case] >= 10, (case, seen)

    def test_extreme_point_corpus_matches_all_chords_oracle(self):
        # pass/fail equals the oracle and every witness is real. Against
        # each outer chord of a convex chain with no equal x values, the
        # other chain's extreme point (its first farthest point toward the
        # chord's wrong side) falls at its first point, its last and inside,
        # and some step of it is parallel to the chord; and some sets pass
        # both outer chords while the other chain fails its turn test
        seen = Counter()
        for ps in extreme_point_corpus():
            _, got = oracle_checked_report(ps)
            pts = ps.points
            up = sorted(ps.partition.upper, key=lambda i: pts[i])
            low = sorted(ps.partition.lower, key=lambda i: pts[i])
            for below, chain, others, convex, others_convex in (
                    (True, up, low, got[0], got[1]), (False, low, up, got[1], got[0])):
                if not convex or len(chain) < 2 or len({pts[i][0] for i in chain}) < len(chain):
                    continue
                chords = ((chain[0], chain[1]), (chain[-2], chain[-1]))
                if not others_convex:
                    seen["other chain fails its turn test, outer chords pass"] += all(
                        strictly_beyond(pts, a, b, p, below) for a, b in chords for p in others)
                    continue
                if len(others) < 3:
                    continue
                for a, b in chords:
                    reach = [turn(pts, a, b, p) * (1 if below else -1) for p in others]
                    top = reach.index(max(reach))
                    seen["peak at the first point" if top == 0 else
                         "peak at the last point" if top == len(others) - 1 else
                         "peak inside"] += 1
                    seen["step parallel to the chord"] += any(
                        r == q for r, q in zip(reach, reach[1:]))
        for case in ("peak at the first point", "peak at the last point", "peak inside",
                     "step parallel to the chord",
                     "other chain fails its turn test, outer chords pass"):
            assert seen[case] >= 10, (case, seen)

    def test_long_canonical_chains_match_outer_chord_scan(self):
        # every canonical chain with k <= l <= 40 and two seeded nudges of
        # it: where a chain passes its turn test with no equal x values, (c)
        # or (d) passes exactly when every point of the other chain is
        # strictly beyond both of its outer chords
        rng = random.Random(4040)
        seen = Counter()
        for k in range(1, 41):
            for l in range(k, 41):
                base = gen_double_chain(k, l)
                for ps in (base, nudged_long_chain(base, rng, False),
                           nudged_long_chain(base, rng, True)):
                    if ps is None:
                        continue
                    report = validate_double_chain(ps)
                    pts = ps.points
                    up = sorted(ps.partition.upper, key=lambda i: pts[i])
                    low = sorted(ps.partition.lower, key=lambda i: pts[i])
                    for below, chain, others, witness in (
                            (True, up, low, report.lower_below_upper_lines),
                            (False, low, up, report.upper_above_lower_lines)):
                        sign = 1 if below else -1
                        if len(chain) < 2 or len({pts[i][0] for i in chain}) < len(chain) \
                                or any(turn(pts, *t) * sign <= 0
                                       for t in zip(chain, chain[1:], chain[2:])):
                            continue
                        chords = ((chain[0], chain[1]), (chain[-2], chain[-1]))
                        passed = all(strictly_beyond(pts, a, b, p, below)
                                     for a, b in chords for p in others)
                        assert (witness is None) == passed, (k, l, ps, below)
                        if witness is not None:
                            name = "lower_below_upper_lines" if below else "upper_above_lower_lines"
                            assert oracle_violates(ps, name, witness), (ps, witness)
                        seen[passed, len(chain) >= 30] += 1
        assert all(seen[passed, True] >= 10 for passed in (True, False)), seen


class TestReportPins:
    """Every condition's name, pass/fail and witness, pinned by sha256 over two
    corpora, recorded with the validator that tested every consecutive
    chord."""

    def test_small_box_reports(self):
        digest = report_digest(validate_double_chain(ps) for ps in small_box_corpus())
        assert digest == "1b94b9fc7566ad9ef663a7ed149ddb1d023c040a27883971253d7fcd4c08a52c"

    def test_nudged_canonical_reports(self):
        digest = report_digest(validate_double_chain(ps) for ps in nudged_canonical_chains())
        assert digest == "7e14161594cb8e3045204fd5f015e7c7063bd23c6de67a66dfcb9fc8cc3acc68"


class TestHullCrossingFreedom:
    """Hull edges of either chain are crossed by nothing: every other segment
    shares an endpoint with them or is disjoint from them."""

    @pytest.mark.parametrize("k,l", [(1, 3), (2, 2), (2, 3), (3, 3), (2, 4), (3, 5)])
    def test_chain_hull_edges_uncrossed(self, k, l):
        ps = gen_double_chain(k, l)
        for side in (ps.partition.upper, ps.partition.lower):
            for e in chain_hull_edges(ps, side):
                for i in range(ps.n):
                    for j in range(i + 1, ps.n):
                        if i in e or j in e:
                            continue
                        assert oracle_disjoint(ps, e, (i, j)), (e, (i, j))

    @pytest.mark.parametrize("k,l", [(1, 3), (2, 3), (3, 4), (2, 5)])
    def test_cross_chain_segments_meet_chain_segments_at_endpoints_only(self, k, l):
        ps = gen_double_chain(k, l)
        up, low = ps.partition.upper, ps.partition.lower
        cross = [(u, w) for u in up for w in low]
        within = [(a, b) for side in (up, low)
                  for ai, a in enumerate(side) for b in side[ai + 1:]]
        for gseg in cross:
            for fseg in within:
                if set(gseg) & set(fseg):
                    continue
                assert oracle_disjoint(ps, gseg, fseg), (gseg, fseg)


class TestDeletionClosure:
    def test_subset_deletions_remain_chains(self):
        # every proper-subset deletion of both chains still validates
        for k, l in [(2, 2), (2, 3), (3, 3), (2, 4)]:
            ps = gen_double_chain(k, l)
            up, low = ps.partition.upper, ps.partition.lower
            for umask in range(2 ** k - 1):
                for lmask in range(2 ** l - 1):
                    remove = [up[i] for i in range(k) if umask >> i & 1]
                    remove += [low[i] for i in range(l) if lmask >> i & 1]
                    smaller = oracle_delete(ps, remove)
                    assert validate_double_chain(smaller).ok, (k, l, remove)

    def test_delete_points_remaps_partition(self):
        ps = gen_double_chain(2, 3)
        smaller = oracle_delete(ps, [0])
        assert smaller.points == ps.points[1:]
        assert smaller.partition.upper == (0,)
        assert smaller.partition.lower == (1, 2, 3)

    def test_partition_dropped_when_side_empties(self):
        ps = gen_double_chain(1, 3)
        assert oracle_delete(ps, [0]).partition is None


class TestPointsJson:
    def test_roundtrip_with_partition(self, tmp_path):
        ps = gen_double_chain(2, 4)
        path = tmp_path / "points.json"
        save_points(ps, path)
        assert load_points(path) == ps

    def test_roundtrip_without_partition(self):
        ps = gen_convex(5)
        assert pointset_from_json(pointset_to_json(ps)) == ps

    def test_rejects_bad_count(self):
        data = pointset_to_json(gen_convex(3))
        data["n"] = 7
        with pytest.raises(ValueError):
            pointset_from_json(data)
