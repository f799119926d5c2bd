import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dchain import (
    Orientation,
    Partition,
    Point,
    PointSet,
    convex_hull_edges,
    delete_points,
    find_collinear_triple,
    gen_convex,
    gen_double_chain,
    is_general_position,
    load_points,
    orientation,
    pointset_from_json,
    pointset_to_json,
    save_points,
    segments_disjoint,
    validate_double_chain,
)
import dchain.geometry
from dchain.geometry import CONDITION_NAMES, ConditionCheck, DoubleChainReport
from helpers import (oracle_disjoint, oracle_validate_double_chain, oracle_violates,
                     strictly_beyond, turn)

coord = st.integers(-1000, 1000)


def parabola_set(xs):
    return PointSet(tuple(Point(x, x * x) for x in xs))


class TestOrientation:
    def test_unit_triangle_ccw(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(0, 1)) is Orientation.COUNTERCLOCKWISE

    def test_collinear(self):
        assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) is Orientation.COLLINEAR

    def test_swapped_cw(self):
        assert orientation(Point(0, 0), Point(0, 1), Point(1, 0)) is Orientation.CLOCKWISE

    @given(coord, coord, coord, coord, coord, coord)
    def test_antisymmetry(self, px, py, qx, qy, rx, ry):
        p, q, r = Point(px, py), Point(qx, qy), Point(rx, ry)
        a = orientation(p, q, r)
        b = orientation(p, r, q)
        if a is Orientation.COLLINEAR:
            assert b is Orientation.COLLINEAR
        else:
            assert a.value == -b.value

    def test_huge_coordinates_stay_exact(self):
        # a one-unit nudge at a scale where doubles would round to collinear
        big = 10 ** 30
        assert orientation(Point(0, 0), Point(big, 1), Point(2 * big, 2)) \
            is Orientation.COLLINEAR
        assert orientation(Point(0, 0), Point(big, 1), Point(2 * big + 1, 2)) \
            is Orientation.CLOCKWISE

    def test_point_rejects_floats(self):
        for x, y, name in ((0.5, 1, "x"), (1, 1.0, "y"), (True, 1, "x"), (1, "1", "y"),
                           (None, 1, "x")):
            with pytest.raises(ValueError, match=f"^point {name} must be an integer, got"):
                Point(x, y)


class TestSegmentsDisjoint:
    def test_shared_endpoint_intersects(self):
        ps = parabola_set([0, 1, 2, 3])
        assert segments_disjoint((0, 1), (1, 2), ps) is False

    def test_crossing_diagonals_intersect(self):
        ps = PointSet((Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 3)))
        assert segments_disjoint((0, 2), (1, 3), ps) is False

    def test_double_chain_pair_disjoint(self):
        # cup point to middle cap point vs the outer cap chord
        ps = gen_double_chain(1, 3)
        assert segments_disjoint((0, 2), (1, 3), ps) is True

    def test_rejects_equal_segments(self):
        ps = parabola_set([0, 1, 2])
        with pytest.raises(ValueError):
            segments_disjoint((0, 1), (1, 0), ps)

    def test_rejects_out_of_range(self):
        ps = parabola_set([0, 1, 2])
        with pytest.raises(ValueError):
            segments_disjoint((0, 5), (1, 2), ps)
        with pytest.raises(ValueError):
            segments_disjoint((0, 0), (1, 2), ps)
        for bad in (-1, 3, True, 1.0, "1", None):
            with pytest.raises(ValueError, match="^segment endpoint must be an integer in 0..2, got"):
                segments_disjoint((0, 1), (bad, 2), ps)

    @given(st.lists(st.integers(-50, 50), min_size=4, max_size=8, unique=True))
    def test_symmetric(self, xs):
        ps = parabola_set(sorted(xs))
        a, b = (0, 1), (2, 3)
        assert segments_disjoint(a, b, ps) == segments_disjoint(b, a, ps)

    @given(st.lists(st.integers(-30, 30), min_size=4, max_size=7, unique=True),
           st.data())
    def test_matches_fraction_oracle(self, xs, data):
        ps = parabola_set(sorted(xs))
        n = ps.n
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        a = data.draw(st.sampled_from(pairs))
        b = data.draw(st.sampled_from([p for p in pairs if p != a]))
        assert segments_disjoint(a, b, ps) == oracle_disjoint(ps, a, b)

    def test_collinear_touching_counts_as_intersecting(self):
        # not general position; the predicate still answers exactly
        ps = PointSet((Point(0, 0), Point(2, 0), Point(4, 0), Point(6, 0), Point(0, 5)))
        assert segments_disjoint((0, 2), (1, 3), ps) is False  # overlap
        assert segments_disjoint((0, 1), (2, 3), ps) is True   # gap on one line


class TestGeneralPosition:
    def test_parabola_is_general(self):
        assert is_general_position(parabola_set(range(6))) is True

    def test_collinear_detected(self):
        ps = PointSet((Point(0, 0), Point(1, 1), Point(2, 2), Point(5, 0)))
        assert is_general_position(ps) is False
        assert find_collinear_triple(ps) == (0, 1, 2)

    def test_tiny_sets_vacuous(self):
        assert is_general_position(PointSet((Point(0, 0),))) is True
        assert is_general_position(PointSet((Point(0, 0), Point(1, 5)))) is True

    def test_distinctness_enforced_at_construction(self):
        with pytest.raises(ValueError):
            PointSet((Point(0, 0), Point(0, 0)))


class TestGenConvex:
    def test_four_points_all_on_hull(self):
        assert len(convex_hull_edges(gen_convex(4))) == 4

    def test_general_position_up_to_40(self):
        assert is_general_position(gen_convex(40)) is True

    def test_deterministic(self):
        assert gen_convex(7) == gen_convex(7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gen_convex(0)


class TestGenDoubleChain:
    @pytest.mark.parametrize("k,l", [(5, 7), (1, 3), (2, 2), (1, 1), (3, 8)])
    def test_generates_valid_chains(self, k, l):
        ps = gen_double_chain(k, l)
        assert ps.n == k + l
        assert len(ps.partition.upper) == k
        assert len(ps.partition.lower) == l
        assert validate_double_chain(ps).ok

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
        failing = DoubleChainReport((ConditionCheck(CONDITION_NAMES[2], False, (0, 1, 2)),))
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
        with pytest.raises(ValueError):
            Partition((0, 1, 2), ())

    def test_cup_violation_witnessed(self):
        good = gen_double_chain(3, 4)
        pts = list(good.points)
        pts[1] = Point(pts[1].x, pts[1].y + 10 ** 6)  # middle cup point far above
        report = validate_double_chain(PointSet(tuple(pts), good.partition))
        check = report.checks[0]
        assert check.name == "upper_is_cup" and not check.passed
        assert check.witness == (0, 1, 2)

    def test_cup_point_dropped_below_cap_lines_witnessed(self):
        good = gen_double_chain(2, 3)
        pts = list(good.points)
        pts[0] = Point(pts[0].x, -10 ** 6)
        report = validate_double_chain(PointSet(tuple(pts), good.partition))
        bad = next(c for c in report.checks if c.name == "upper_above_lower_lines")
        assert not bad.passed
        assert bad.witness is not None and bad.witness[2] == 0

    def test_collinear_triple_fails_general_position(self):
        # cap points (-2,-4), (0,0), (2,4) lie on one line
        pts = (Point(-1, 6), Point(1, 6), Point(-2, -4), Point(0, 0), Point(2, 4))
        report = validate_double_chain(PointSet(pts, Partition((0, 1), (2, 3, 4))))
        assert not report.ok
        gp = next(c for c in report.checks if c.name == "general_position")
        assert not gp.passed and gp.witness == (2, 3, 4)


def small_box_chain(rng: random.Random) -> PointSet | None:
    """A partitioned set of at most 10 points with tiny coordinates: either a
    canonical chain with a few coordinates nudged, or U and L drawn from
    overlapping boxes. Equal x values, vertical chords and collinear triples
    are common. None when two points coincide."""
    k, l = rng.randint(1, 5), rng.randint(1, 5)
    if rng.random() < 0.5:
        base = gen_double_chain(min(k, l), max(k, l))
        pts = [Point(p.x + rng.randint(-2, 2) * (rng.random() < 0.4),
                     p.y + rng.randint(-3, 3) * (rng.random() < 0.4)) for p in base.points]
        up, low = base.partition.upper, base.partition.lower
    else:
        pts = [Point(rng.randint(0, 6), rng.randint(4, 9)) for _ in range(k)] \
            + [Point(rng.randint(0, 6), rng.randint(0, 5)) for _ in range(l)]
        up, low = tuple(range(k)), tuple(range(k, len(pts)))
    if len(set(pts)) != len(pts):
        return None
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
    return PointSet(tuple(Point(p.x, -p.y) for p in base.points),
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
            pa, pb, x = pts[a], pts[b], pts[p].x
            rise, run = (pb.y - pa.y) * (x - pa.x), pb.x - pa.x
            assert rise % run == 0
            moves += [(p, Point(x, pa.y + rise // run + dy)) for dy in (-1, 0, 1)]
        for chain in (up, low):
            if len(chain) >= 2:
                moves.append((chain[0], Point(pts[chain[1]].x, pts[chain[0]].y)))
                moves.append((chain[-1], Point(pts[chain[-2]].x, pts[chain[-1]].y)))
        for p, moved in moves:
            new = pts[:p] + (moved,) + pts[p + 1:]
            if len(set(new)) == len(new):
                out.append(PointSet(new, base.partition))
    return out


def report_digest(reports) -> str:
    """sha256 over the name, pass/fail and witness of every check."""
    digest = hashlib.sha256()
    for report in reports:
        digest.update((repr([(c.name, c.passed, c.witness) for c in report.checks]) + "\n").encode())
    return digest.hexdigest()


class TestValidatorAgainstOracle:
    def test_small_box_sets_match_all_chords_oracle(self):
        # pass/fail of every condition equals the all-chords, all-triples
        # oracle, and every failure witness is a real violation
        seen = Counter()
        for ps in small_box_corpus():
            report = validate_double_chain(ps)
            got = tuple(c.passed for c in report.checks)
            assert got == oracle_validate_double_chain(ps), ps
            for c in report.checks:
                seen[c.name, c.passed] += 1
                if not c.passed:
                    assert oracle_violates(ps, c.name, c.witness), (ps, c)
            seen["valid"] += report.ok
            for label, side, convex in (("cup", ps.partition.upper, got[0]),
                                        ("cap", ps.partition.lower, got[1])):
                xs = [ps.points[i].x for i in side]
                seen[f"{label} with equal x"] += convex and len(set(xs)) < len(xs)
            seen["cup, points above a chord"] += got[0] and not got[2]
            seen["cap, points below a chord"] += got[1] and not got[3]
        # both outcomes of every condition, and both sides of each shortcut
        for name in CONDITION_NAMES:
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
            report = validate_double_chain(ps)
            got = tuple(c.passed for c in report.checks)
            assert got == oracle_validate_double_chain(ps), ps
            for c in report.checks:
                if not c.passed:
                    assert oracle_violates(ps, c.name, c.witness), (ps, c)
            seen["valid"] += report.ok
            pts = [(p.x, p.y) for p in ps.points]
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


class TestReportPins:
    """Every check's name, pass/fail and witness, pinned by sha256 over two
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
            if len(side) < 2:
                continue
            if len(side) == 2:
                hull = [tuple(sorted(side))]
            else:
                sub = PointSet(tuple(ps.points[i] for i in side))
                hull = [(side[e.i], side[e.j]) for e in convex_hull_edges(sub)]
            for e in hull:
                for i in range(ps.n):
                    for j in range(i + 1, ps.n):
                        if (i, j) == e or i in e or j in e:
                            continue
                        assert segments_disjoint(e, (i, j), ps), (e, (i, j))

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
                assert segments_disjoint(gseg, fseg, ps), (gseg, fseg)


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
                    smaller, _ = delete_points(ps, remove)
                    assert validate_double_chain(smaller).ok, (k, l, remove)

    def test_delete_points_remaps_partition(self):
        ps = gen_double_chain(2, 3)
        smaller, remap = delete_points(ps, [0])
        assert smaller.n == 4
        assert remap == {1: 0, 2: 1, 3: 2, 4: 3}
        assert smaller.partition.upper == (0,)
        assert smaller.partition.lower == (1, 2, 3)

    def test_partition_dropped_when_side_empties(self):
        ps = gen_double_chain(1, 3)
        smaller, _ = delete_points(ps, [0])
        assert smaller.partition is None


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
