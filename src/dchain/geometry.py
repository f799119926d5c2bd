"""Exact integer plane geometry: point sets, the collinearity scan,
generators for convex and double-chain point sets, and configuration
validators.

Every turn is the sign of the exact cross product, in arbitrary-precision
integer arithmetic; nothing in this module touches floating point, so
results are exact and overflow is impossible.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .formulas import _check_chain, _check_int

# the item types accepted in bulk: `tuple` of an exact tuple is the item
# itself, and of a list a new tuple of the same values
_PAIR_TYPES = {tuple, list}


def _point(t: int, item) -> tuple[int, int]:
    """Item t of a point set as a checked (x, y) pair: a ValueError naming
    the item unless it unpacks into two values, then one naming the
    coordinate. A set, a frozenset or a dict is never a pair: it unpacks in
    an order of its own, a dict into its keys."""
    if not isinstance(item, (set, frozenset, dict)):
        try:
            x, y = item
        except (TypeError, ValueError):
            pass
        else:
            return _check_int(x, "point x", None), _check_int(y, "point y", None)
    raise ValueError(f"point set item {t} must be a pair of integers, got {item!r}")


class Partition(NamedTuple):
    """Index split of a point set into the upper chain (cup) and lower chain
    (cap). Unchecked until it enters a PointSet, which stores both sides as
    tuples."""

    upper: tuple[int, ...]
    lower: tuple[int, ...]


@dataclass(frozen=True)
class PointSet:
    """An ordered set of distinct points, optionally split into chains U and L.

    Each point is stored as a plain `(x, y)` tuple of ints, whatever pair
    type it arrived as."""

    points: tuple[tuple[int, int], ...]
    partition: Partition | None = None

    def __post_init__(self) -> None:
        # The one check of a point set, whatever built it. Builtins decide
        # the whole set at once: items that are all exact tuples or lists of
        # length 2 holding plain ints are accepted in bulk, a tuple item as
        # it is. Any other input, a NamedTuple included, takes the
        # per-element walk, which raises at the first offender, and accepts
        # int subclasses, kept as given. Both paths build from a list: a
        # tuple built from an iterator is resized to fit, then sits in
        # CPython's tuple free lists until a full garbage collection.
        items = list(self.points)
        if (set(map(type, items)) <= _PAIR_TYPES and set(map(len, items)) <= {2}
                and set(map(type, itertools.chain.from_iterable(items))) <= {int}):
            pts = tuple(list(map(tuple, items)))
        else:
            pts = tuple([_point(t, item) for t, item in enumerate(items)])
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("a point set needs at least one point")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        part = self.partition
        if part is not None:
            if not isinstance(part, Partition):
                raise ValueError(f"partition must be a Partition or None, got {part!r}")
            up = tuple(part.upper)
            low = tuple(part.lower)
            indices = up + low
            if not (set(map(type, indices)) <= {int} and min(indices, default=0) >= 0):
                for idx in indices:
                    _check_int(idx, "partition index", 0)
            if not up or not low:
                raise ValueError("both sides of a partition must be non-empty")
            # the indices are ints, so sides whose concatenation sorts to
            # 0..n-1 are a permutation of it: no index repeats within a side
            # or is shared between them
            if sorted(indices) != list(range(len(pts))):
                raise ValueError("partition must cover every point index exactly once")
            object.__setattr__(self, "partition", Partition(up, low))

    @property
    def n(self) -> int:
        return len(self.points)


def find_collinear_triple(ps: PointSet) -> tuple[int, int, int] | None:
    """A collinear index triple a < b < c, or None; O(n^3) in the worst
    case, the order of `build_graph`.

    Not the lexicographic first: the smallest a that starts one, then the
    smallest c with some b between them on line ac, and that b. On
    (0,0), (1,1), (5,0), (10,0), (1,7), (2,2) it is (0, 2, 3), not (0, 1, 5).
    """
    n = ps.n
    xs, ys = zip(*ps.points)
    for a in range(n - 2):
        ax, ay = xs[a], ys[a]
        for c in range(a + 2, n):
            dx, dy = xs[c] - ax, ys[c] - ay
            # b is on line ac iff dx * (y_b - ay) - dy * (x_b - ax) == 0
            c0 = dx * ay - dy * ax
            for b in range(a + 1, c):
                if dx * ys[b] - dy * xs[b] == c0:
                    return a, b, c
    return None


def gen_convex(n: int) -> PointSet:
    """n integer points in convex and general position: (i, i*i) for i < n."""
    _check_int(n, "n")
    return PointSet([(i, i * i) for i in range(n)])


def gen_double_chain(k: int, l: int) -> PointSet:
    """Canonical (k, l) double chain: a k-point cup strictly above an l-point cap.

    The cap sits on y = -x^2 at the even x values 2(i - l // 2), i < l, the
    cup on y = x^2 + m at the odd x values 2(j - k // 2) + 1, j < k (each a
    `range`, so roughly centered at 0), with m a strict chord-height bound.
    So within-chain collinearity is impossible by construction, and every
    chord of either chain clears every point of the other. Deterministic for
    fixed (k, l); each point is a plain (x, y) int tuple, in the order cup
    left-to-right, then cap left-to-right.
    validate_double_chain checks the result, and a failure raises
    RuntimeError.
    """
    _check_chain(k, l)
    xs_up = range(1 - 2 * (k // 2), 2 * k - 2 * (k // 2), 2)
    xs_low = range(-2 * (l // 2), 2 * l - 2 * (l // 2), 2)
    # both ranges ascend, so the largest |x| is at an end
    a = max(-xs_up[0], xs_up[-1])
    b = max(-xs_low[0], xs_low[-1])
    # strict chord-height bound. The cup chord through x = p, q is the line
    # y = (p + q) x - pq + m, strictly above the cap point (x, -x^2) when
    # m > pq - (p + q) x - x^2 <= a^2 + 2ab. The cap chord through x = r, s is
    # y = -(r + s) x + rs, strictly below the cup point (x, x^2 + m) when
    # m > rs - (r + s) x - x^2 <= b^2 + 2ab. So every chord of one chain
    # clears every point of the other.
    m = max(a * a, b * b) + 2 * a * b + 1
    pts = [(x, x * x + m) for x in xs_up] + [(x, -x * x) for x in xs_low]
    ps = PointSet(pts, Partition(range(k), range(k, k + l)))
    report = validate_double_chain(ps)
    if not report.ok:
        raise RuntimeError(f"generated ({k}, {l}) double chain fails {report.failed()[0]}")
    return ps


class DoubleChainReport(NamedTuple):
    """The witness triple of each double-chain condition, (a)-(e) in order,
    or None where the condition holds."""

    upper_is_cup: tuple[int, int, int] | None
    lower_is_cap: tuple[int, int, int] | None
    lower_below_upper_lines: tuple[int, int, int] | None
    upper_above_lower_lines: tuple[int, int, int] | None
    general_position: tuple[int, int, int] | None

    @property
    def ok(self) -> bool:
        # a witness is a non-empty tuple, so true
        return not any(self)

    def failed(self) -> list[str]:
        """The names of the failing conditions, in order."""
        return [name for name, w in zip(self._fields, self) if w is not None]


def validate_double_chain(ps: PointSet) -> DoubleChainReport:
    """Check the five double-chain conditions, with a witness triple per failure.

    (a) U forms a cup, (b) L forms a cap, (c) every L point lies strictly
    below every line through two U points, (d) every U point lies strictly
    above every line through two L points, (e) the whole set is in general
    position. Above/below are strict: collinear counts as failure, and a
    vertical chain line fails outright since no point is strictly below it.

    When (a) holds and no two cup points share an x value, (c) is decided
    by the first and last consecutive cup chords alone, and likewise (d)
    when (b) holds. When the other chain also passes its turn test, each of
    those chords is tested against one point of it, its extreme point in
    the direction of the chord's normal, found by binary search. When
    (a)-(d) all hold, (e) follows without a collinearity search. So a valid
    C_{k,l} costs O(k + l) for the turn tests and O(log k + log l) for (c)
    and (d). Each shortcut is exact (same pass/fail as checking every chord
    and triple). A set that fails, or whose other chain fails its turn
    test, is walked along its k - 1 (or l - 1) consecutive chords, and the
    witness is the first consecutive chord and a point not strictly beyond
    it.
    """
    if ps.partition is None:
        raise ValueError("validate_double_chain requires a partitioned point set")
    pts = ps.points
    xs, ys = zip(*pts)
    up = sorted(ps.partition.upper, key=pts.__getitem__)
    low = sorted(ps.partition.lower, key=pts.__getitem__)

    def chain(order: list[int], up_open: bool) -> tuple[int, int, int] | None:
        # cup: consecutive lex-sorted triples turn counterclockwise; cap: clockwise
        for a, b, c in zip(order, order[1:], order[2:]):
            ax, ay = xs[a], ys[a]
            d = (xs[b] - ax) * (ys[c] - ay) - (ys[b] - ay) * (xs[c] - ax)
            if (d <= 0) if up_open else (d >= 0):
                return a, b, c
        return None

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
    # Why two steps show every equal-x pair on a convex chain. In lex order
    # every step direction lies in (-90, 90] degrees, a range narrower than
    # a half turn, so strict left turns make the directions of a cup
    # strictly increase, and strict right turns those of a cap strictly
    # decrease. A vertical step points at 90 degrees, the top of the range,
    # so only the last step of a cup or the first step of a cap can be
    # vertical. Testing the first two and the last two points for equal x
    # therefore finds an equal-x pair whenever the chain has one.
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
    # an end. So when the chain has no equal x values, the two outer chords
    # give the same pass/fail. Only a failing set, or one whose other chain
    # fails its turn test, runs the consecutive loop, which names the first
    # witness.
    #
    # Why one point of the other chain decides an outer chord. Take the
    # chord (a, b) with dx > 0, and f(p) = dx * y_p - dy * x_p; every other
    # point is strictly below the chord line iff the maximum of f over them
    # is below f(a) (for strictly above, negate dx and dy). Along the other
    # chain, the step from p to q adds dx * (y_q - y_p) - dy * (x_q - x_p),
    # which has the sign of the angle from the chord's direction, inside
    # (-90, 90), to the step's direction, inside (-90, 90]: that angle lies
    # inside (-180, 180), where its sine has its sign. When that chain
    # passed its turn test, its step directions are strictly monotone (as
    # above), so the sign changes at most once, with at most one zero step:
    # on the cap against a cup chord, and on the cup against a cap chord
    # with the sign negated, the increments go from > 0 to < 0. So the
    # first point whose next step adds <= 0 is a maximum, and a binary
    # search finds it.
    def separated(chain_idx: list[int], others: list[int], below: bool,
                  convex: bool, others_convex: bool) -> tuple[int, int, int] | None:
        def first_not_beyond(a: int, b: int) -> int | None:
            ax, ay = xs[a], ys[a]
            dx = xs[b] - ax
            dy = ys[b] - ay
            for p in others:
                d = dx * (ys[p] - ay) - dy * (xs[p] - ax)
                if (d >= 0) if below else (d <= 0):
                    return p
            return None

        def beyond_peak(a: int, b: int) -> bool:
            ax, ay = xs[a], ys[a]
            dx = xs[b] - ax
            dy = ys[b] - ay
            if not below:
                dx, dy = -dx, -dy
            lo, hi = 0, len(others) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                p, q = others[mid], others[mid + 1]
                if dx * (ys[q] - ys[p]) - dy * (xs[q] - xs[p]) > 0:
                    lo = mid + 1
                else:
                    hi = mid
            p = others[lo]
            return dx * (ys[p] - ay) - dy * (xs[p] - ax) < 0

        m = len(chain_idx)
        if convex:
            # no equal x values and a convex other chain: the outer chords'
            # extreme points decide (proofs above)
            if m < 2 or (others_convex
                         and xs[chain_idx[0]] != xs[chain_idx[1]]
                         and xs[chain_idx[-2]] != xs[chain_idx[-1]]
                         and beyond_peak(chain_idx[0], chain_idx[1])
                         and beyond_peak(chain_idx[-2], chain_idx[-1])):
                return None
            pairs = zip(range(m - 1), range(1, m))
        else:
            pairs = itertools.combinations(range(m), 2)
        for u, v in pairs:
            a, b = chain_idx[u], chain_idx[v]
            if xs[a] == xs[b]:
                return a, b, others[0]
            p = first_not_beyond(a, b)
            if p is not None:
                return a, b, p
        return None

    cup = chain(up, up_open=True)
    cap = chain(low, up_open=False)
    above = separated(up, low, below=True, convex=cup is None, others_convex=cap is None)
    beneath = separated(low, up, below=False, convex=cap is None, others_convex=cup is None)
    # Why (a)-(d) imply (e). When (c) passes on a cup that passed (a), its
    # first and last steps are not vertical (the equal-x test, or the
    # consecutive loop's vertical test), so by the step-direction argument
    # no step is: x increases strictly along the cup and its slopes
    # increase strictly, so no three of its points are collinear. The cap
    # is the mirror image under (b) and (d). A triple that mixes the chains
    # has two points on one chain, and (c) or (d) puts the third strictly
    # off their line. Otherwise search for a witness.
    if cup is None and cap is None and above is None and beneath is None:
        collinear = None
    else:
        collinear = find_collinear_triple(ps)
    return DoubleChainReport(cup, cap, above, beneath, collinear)


def pointset_to_json(ps: PointSet) -> dict:
    """Interchange form: {"n":, "points": [[x,y],...], "partition": {"U":,"L":}|null}."""
    data: dict = {
        "n": ps.n,
        "points": [[x, y] for x, y in ps.points],
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
    points = [_json_ints(p, 2, f"{doc} points[{i}]") for i, p in enumerate(rows)]
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
