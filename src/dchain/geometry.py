"""Exact integer plane geometry: orientation and disjointness predicates,
generators for convex and double-chain point sets, and configuration
validators.

Every predicate is evaluated with arbitrary-precision integer arithmetic;
nothing in this module touches floating point, so results are exact and
overflow is impossible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from math import gcd
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .formulas import _check_chain, _check_int


class Orientation(Enum):
    """Turn direction of an ordered point triple (p, q, r)."""

    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


@dataclass(frozen=True, order=True)
class Point:
    """A plane point with exact integer coordinates."""

    x: int
    y: int

    def __post_init__(self) -> None:
        _check_int(self.x, "point x", None)
        _check_int(self.y, "point y", None)


def _as_point(obj) -> Point:
    if isinstance(obj, Point):
        return obj
    x, y = obj
    return Point(x, y)


def _cross(p: Point, q: Point, r: Point) -> int:
    # twice the signed area of the triangle (p, q, r)
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Sign of the exact triangle determinant: COLLINEAR iff it is zero."""
    d = _cross(p, q, r)
    if d > 0:
        return Orientation.COUNTERCLOCKWISE
    if d < 0:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


@dataclass(frozen=True)
class Partition:
    """Index split of a point set into the upper chain (cup) and lower chain (cap)."""

    upper: tuple[int, ...]
    lower: tuple[int, ...]

    def __post_init__(self) -> None:
        up = tuple(self.upper)
        low = tuple(self.lower)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", low)
        for idx in up + low:
            _check_int(idx, "partition index", 0)
        if not up or not low:
            raise ValueError("both sides of a partition must be non-empty")
        if len(set(up)) != len(up) or len(set(low)) != len(low) or set(up) & set(low):
            raise ValueError("partition sides must be disjoint and free of duplicates")


@dataclass(frozen=True)
class PointSet:
    """An ordered set of distinct points, optionally split into chains U and L."""

    points: tuple[Point, ...]
    partition: Partition | None = None

    def __post_init__(self) -> None:
        # from a list: a tuple built from a generator is resized to fit, then
        # sits in CPython's tuple free lists until a full garbage collection
        pts = tuple([_as_point(p) for p in self.points])
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("a point set needs at least one point")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        if self.partition is not None:
            part = self.partition
            if not isinstance(part, Partition):
                up, low = part
                part = Partition(up, low)
                object.__setattr__(self, "partition", part)
            if sorted(part.upper + part.lower) != list(range(len(pts))):
                raise ValueError("partition must cover every point index exactly once")

    @property
    def n(self) -> int:
        return len(self.points)


class SegmentId(NamedTuple):
    """Unordered pair of point indices, stored with i < j."""

    i: int
    j: int

    @classmethod
    def of(cls, a: int, b: int, n_points: int, name: str = "segment endpoint") -> "SegmentId":
        """The segment between points a and b of an n_points-point set; a
        ValueError naming `name` unless both are indices 0..n_points-1, and
        one naming n_points unless it is an integer >= 0."""
        _check_int(n_points, "n_points", 0)
        _check_int(a, name, 0, n_points)
        _check_int(b, name, 0, n_points)
        if a == b:
            raise ValueError(f"degenerate segment ({a}, {b})")
        return cls(a, b) if a < b else cls(b, a)


def _in_box(a: Point, b: Point, p: Point) -> bool:
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segments_disjoint(a: Sequence[int], b: Sequence[int], ps: PointSet) -> bool:
    """True iff the two closed segments share no point at all.

    Sharing an endpoint, properly crossing, and touching (an endpoint lying
    on the other segment) all count as intersecting. Symmetric in a and b.
    """
    (i, j), (k, l) = a, b
    i, j = SegmentId.of(i, j, ps.n)
    k, l = SegmentId.of(k, l, ps.n)
    if (i, j) == (k, l):
        raise ValueError(f"segments must be distinct, got ({i}, {j}) twice")
    if i in (k, l) or j in (k, l):
        return False
    pts = ps.points
    p1, p2, q1, q2 = pts[i], pts[j], pts[k], pts[l]
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 \
            and ((d3 > 0) != (d4 > 0)) and d3 != 0 and d4 != 0:
        return False  # proper crossing
    # collinear touching; unreachable in general position but kept for safety
    if d1 == 0 and _in_box(q1, q2, p1):
        return False
    if d2 == 0 and _in_box(q1, q2, p2):
        return False
    if d3 == 0 and _in_box(p1, p2, q1):
        return False
    if d4 == 0 and _in_box(p1, p2, q2):
        return False
    return True


def find_collinear_triple(ps: PointSet) -> tuple[int, int, int] | None:
    """First collinear index triple (sorted) or None, by O(n^2) slope hashing."""
    pts = ps.points
    n = len(pts)
    if n < 3:
        return None
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    for a in range(n):
        ax, ay = xs[a], ys[a]
        seen: dict[tuple[int, int], int] = {}
        for b in range(n):
            if b == a:
                continue
            dx = xs[b] - ax
            dy = ys[b] - ay
            g = gcd(dx, dy)
            dx //= g
            dy //= g
            if dx < 0 or (dx == 0 and dy < 0):
                dx, dy = -dx, -dy
            other = seen.get((dx, dy))
            if other is not None:
                t = sorted((a, other, b))
                return (t[0], t[1], t[2])
            seen[(dx, dy)] = b
    return None


def is_general_position(ps: PointSet) -> bool:
    """True iff no three points are collinear (vacuously true for n <= 2)."""
    return find_collinear_triple(ps) is None


def gen_convex(n: int) -> PointSet:
    """n integer points in convex and general position: (i, i*i) for i < n."""
    _check_int(n, "n")
    return PointSet([Point(i, i * i) for i in range(n)])


def gen_double_chain(k: int, l: int) -> PointSet:
    """Canonical (k, l) double chain: a k-point cup strictly above an l-point cap.

    The cap sits on y = -x^2 at even x values roughly centered at 0, the cup
    on y = x^2 + m at odd x values, with m a strict chord-height bound. So
    within-chain collinearity is impossible by construction, and every chord
    of either chain clears every point of the other. Deterministic for fixed
    (k, l); point order is cup left-to-right, then cap left-to-right.
    validate_double_chain checks the result, and a failure raises
    RuntimeError.
    """
    _check_chain(k, l)
    xs_up = [2 * (j - k // 2) + 1 for j in range(k)]
    xs_low = [2 * (i - l // 2) for i in range(l)]
    a = max(abs(x) for x in xs_up)
    b = max(abs(x) for x in xs_low)
    # strict chord-height bound. The cup chord through x = p, q is the line
    # y = (p + q) x - pq + m, strictly above the cap point (x, -x^2) when
    # m > pq - (p + q) x - x^2 <= a^2 + 2ab. The cap chord through x = r, s is
    # y = -(r + s) x + rs, strictly below the cup point (x, x^2 + m) when
    # m > rs - (r + s) x - x^2 <= b^2 + 2ab. So every chord of one chain
    # clears every point of the other.
    m = max(a * a, b * b) + 2 * a * b + 1
    pts = [Point(x, x * x + m) for x in xs_up] + [Point(x, -x * x) for x in xs_low]
    ps = PointSet(pts, Partition(range(k), range(k, k + l)))
    failed = validate_double_chain(ps).failed()
    if failed:
        raise RuntimeError(f"generated ({k}, {l}) double chain fails {failed[0].name}")
    return ps


@dataclass(frozen=True)
class ConditionCheck:
    """One validated double-chain condition, with a witness on failure."""

    name: str
    passed: bool
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class DoubleChainReport:
    checks: tuple[ConditionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[ConditionCheck]:
        return [c for c in self.checks if not c.passed]


CONDITION_NAMES = (
    "upper_is_cup",
    "lower_is_cap",
    "lower_below_upper_lines",
    "upper_above_lower_lines",
    "general_position",
)


def validate_double_chain(ps: PointSet) -> DoubleChainReport:
    """Check the five double-chain conditions, with a witness triple per failure.

    (a) U forms a cup, (b) L forms a cap, (c) every L point lies strictly
    below every line through two U points, (d) every U point lies strictly
    above every line through two L points, (e) the whole set is in general
    position. Above/below are strict: collinear counts as failure, and a
    vertical chain line fails outright since no point is strictly below it.

    When (a) holds and no two cup points share an x value, (c) is checked
    against the first and last consecutive cup chords only, and likewise (d)
    when (b) holds; when (a)-(d) all hold, (e) follows without a collinearity
    search. So a valid C_{k,l} costs O(k+l). Each shortcut is exact (same
    pass/fail as checking every chord and triple). A failing set is walked
    along its k - 1 (or l - 1) consecutive chords, and the witness is the
    first consecutive chord and a point not strictly beyond it.
    """
    if ps.partition is None:
        raise ValueError("validate_double_chain requires a partitioned point set")
    pts = ps.points
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    up = sorted(ps.partition.upper, key=lambda i: (xs[i], ys[i]))
    low = sorted(ps.partition.lower, key=lambda i: (xs[i], ys[i]))

    def chain(order: list[int], name: str, up_open: bool) -> ConditionCheck:
        # cup: consecutive lex-sorted triples turn counterclockwise; cap: clockwise
        for t in range(len(order) - 2):
            a, b, c = order[t], order[t + 1], order[t + 2]
            d = (xs[b] - xs[a]) * (ys[c] - ys[a]) - (ys[b] - ys[a]) * (xs[c] - xs[a])
            if (d <= 0) if up_open else (d >= 0):
                return ConditionCheck(name, False, (a, b, c))
        return ConditionCheck(name, True)

    # Why consecutive chords suffice on a convex chain. Let (a) hold and let
    # the consecutive cup chords be non-vertical; as U is lex-sorted, x then
    # increases strictly along it and the strict left turns make the
    # consecutive slopes s_0 < s_1 < ... increase strictly. For a < b the
    # slope of chord ab is a weighted mean of s_a .. s_{b-1}, and the chord
    # line passes through u_a and u_b. So it lies on or above line
    # (a, a+1) for x >= x_a, and on or above line (b-1, b) for x <= x_b.
    # Every x is >= x_a or <= x_b, so a point strictly below every
    # consecutive chord line is strictly below every chord line. The cap is
    # the mirror image. Equal x values are adjacent in lex order, so the
    # vertical test on consecutive pairs still finds every equal-x pair.
    #
    # Why the two outer chords suffice. Let L_i be the line of consecutive
    # chord (i, i+1), with slope s_i. Lines L_i and L_{i+1} meet at u_{i+1},
    # so L_i(x) - L_{i+1}(x) = (s_i - s_{i+1})(x - x_{i+1}). On a cup
    # s_i < s_{i+1}, so this is negative exactly when x > x_{i+1}; the
    # x_{i+1} increase with i, so at any x the values L_0(x), ...,
    # L_{m-2}(x) rise and then fall, and their minimum is L_0(x) or
    # L_{m-2}(x). A point strictly below both outer chord lines is then
    # strictly below every consecutive chord line, and so below every chord
    # line. On a cap the values fall and then rise, and the maximum is at
    # an end. So when the chain has no equal x values, checking the two
    # outer chords gives the same pass/fail in O(k + l); only a failing
    # set runs the consecutive loop, which names the first witness.
    def separated(chain_idx: list[int], others: list[int], name: str,
                  below: bool, convex: bool) -> ConditionCheck:
        def first_not_beyond(a: int, b: int) -> int | None:
            ax, ay = xs[a], ys[a]
            dx = xs[b] - ax
            dy = ys[b] - ay
            for p in others:
                d = dx * (ys[p] - ay) - dy * (xs[p] - ax)
                if (d >= 0) if below else (d <= 0):
                    return p
            return None

        m = len(chain_idx)
        if convex:
            # no equal x values: the two outer chords decide (proof above)
            if len({xs[i] for i in chain_idx}) == m and (m < 2 or (
                    first_not_beyond(*chain_idx[:2]) is None
                    and first_not_beyond(*chain_idx[-2:]) is None)):
                return ConditionCheck(name, True)
            pairs = [(u, u + 1) for u in range(m - 1)]
        else:
            pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
        for u, v in pairs:
            a, b = chain_idx[u], chain_idx[v]
            if xs[a] == xs[b]:
                return ConditionCheck(name, False, (a, b, others[0]))
            p = first_not_beyond(a, b)
            if p is not None:
                return ConditionCheck(name, False, (a, b, p))
        return ConditionCheck(name, True)

    cup = chain(up, CONDITION_NAMES[0], up_open=True)
    cap = chain(low, CONDITION_NAMES[1], up_open=False)
    above = separated(up, low, CONDITION_NAMES[2], below=True, convex=cup.passed)
    beneath = separated(low, up, CONDITION_NAMES[3], below=False, convex=cap.passed)
    # Why (a)-(d) imply (e). By the argument above x increases strictly
    # along each chain and its slopes increase (cup) or decrease (cap)
    # strictly, so no three points of one chain are collinear. A triple
    # that mixes the chains has two points on one chain, and (c) or (d)
    # puts the third strictly off their line. Otherwise search for a witness.
    if cup.passed and cap.passed and above.passed and beneath.passed:
        collinear = None
    else:
        collinear = find_collinear_triple(ps)
    general = ConditionCheck(CONDITION_NAMES[4], collinear is None, collinear)
    return DoubleChainReport((cup, cap, above, beneath, general))


def delete_points(ps: PointSet, remove: Iterable[int]) -> tuple[PointSet, dict[int, int]]:
    """Drop the given point indices; returns the reindexed set and old->new map.

    Partition labels follow the surviving points; the partition is dropped
    entirely if either side loses all its members.
    """
    rm = set(remove)
    for idx in rm:
        _check_int(idx, "deleted point", 0, ps.n)
    keep = [i for i in range(ps.n) if i not in rm]
    if not keep:
        raise ValueError("cannot delete every point")
    remap = {old: new for new, old in enumerate(keep)}
    part = None
    if ps.partition is not None:
        up = [remap[i] for i in ps.partition.upper if i in remap]
        low = [remap[i] for i in ps.partition.lower if i in remap]
        if up and low:
            part = Partition(up, low)
    return PointSet([ps.points[i] for i in keep], part), remap


def pointset_to_json(ps: PointSet) -> dict:
    """Interchange form: {"n":, "points": [[x,y],...], "partition": {"U":,"L":}|null}."""
    data: dict = {
        "n": ps.n,
        "points": [[p.x, p.y] for p in ps.points],
        "partition": None,
    }
    if ps.partition is not None:
        data["partition"] = {"U": list(ps.partition.upper), "L": list(ps.partition.lower)}
    return data


_JSON_KINDS = {list: "a list", dict: "an object"}


def _json_field(data, key: str, kind: type, doc: str):
    """data[key] of the JSON document `doc`, checked to be `kind`: an int
    >= 0, a list (or tuple) or an object; a ValueError naming the field
    otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"{doc} must be an object, got {data!r}")
    if key not in data:
        raise ValueError(f"{doc} has no {key!r} field")
    value = data[key]
    if kind is int:
        return _check_int(value, f"{doc} field {key!r}", 0)
    if not isinstance(value, (list, tuple) if kind is list else kind):
        raise ValueError(f"{doc} field {key!r} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _json_ints(value, size: int, what: str, low: int | None = None) -> tuple[int, ...]:
    """value as a tuple of `size` ints, each checked by `_check_int` with
    bound `low` and named `what[t]`; a ValueError otherwise."""
    if not isinstance(value, (list, tuple)) or len(value) != size:
        raise ValueError(f"{what} must be a list of {size} ints, got {value!r}")
    return tuple([_check_int(v, f"{what}[{t}]", low) for t, v in enumerate(value)])


def pointset_from_json(data: dict) -> PointSet:
    """Inverse of pointset_to_json; a ValueError names any missing or
    ill-typed field."""
    doc = "points JSON"
    rows = _json_field(data, "points", list, doc)
    points = [Point(*_json_ints(p, 2, f"{doc} points[{i}]")) for i, p in enumerate(rows)]
    n = _json_field(data, "n", int, doc)
    if n != len(points):
        raise ValueError(f"point count {n!r} does not match {len(points)} points")
    partition = None
    if data.get("partition") is not None:
        part = _json_field(data, "partition", dict, doc)
        partition = Partition(_json_field(part, "U", list, f"{doc} partition"),
                              _json_field(part, "L", list, f"{doc} partition"))
    return PointSet(points, partition)


def save_points(ps: PointSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(pointset_to_json(ps)) + "\n", encoding="utf-8")


def load_points(path: str | Path) -> PointSet:
    return pointset_from_json(json.loads(Path(path).read_text(encoding="utf-8")))
