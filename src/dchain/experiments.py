"""Experiments that hold the exact solver against the paper's closed forms:
the cup-star construction for double chains, the single-segment-class
check of convex optimal colorings (one exact solve per pair of segments), the
double-chain and convex sweeps, and a seeded randomized scan that hunts for
sets with chi below the convex value f(n).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

from .coloring import Coloring, verify_coloring
from .disjointness import DisjointnessGraph, build_graph
from .formulas import _check_int, double_chain_chi, f_of
from .geometry import PointSet, find_collinear_triple, gen_convex, gen_double_chain, save_points
from .solver import ChiResult, chromatic_number_exact

ConvexProvider = Callable[[PointSet], Coloring]


def _solve(ps: PointSet) -> ChiResult:
    return chromatic_number_exact(build_graph(ps))


def construct_double_chain_coloring(k: int, l: int,
                                    convex_provider: ConvexProvider | None = None) -> Coloring:
    """Proper coloring of the canonical (k, l) double chain's disjointness graph.

    Cap-internal segments reuse a proper coloring of the cap's own
    disjointness graph (by default an optimal one from the exact solver);
    then each cup point, left to right, gives one fresh color to all of its
    still-uncolored incident segments. Total colors = provider's count + k,
    which is k + f(l) when the provider is optimal.
    """
    _check_int(l, "l", 3)
    ps = gen_double_chain(k, l)  # checks k, and raises for k > l
    cap = PointSet(ps.points[k:])
    g_cap = build_graph(cap)
    # the cap solve has no node budget, so it always ends exact
    base = (convex_provider(cap) if convex_provider is not None
            else chromatic_number_exact(g_cap).witness)
    if not isinstance(base, Coloring) or base.n_points != cap.n:
        raise ValueError("provider must return a coloring of the cap configuration")
    report = verify_coloring(g_cap, base)
    if not report.proper:
        raise ValueError(
            f"provider coloring is not proper on the cap; first violations {report.violations[:3]}")
    # The layout is cup 0..k-1 left to right, then the cap, so rank order
    # lists every segment (a, b) with a < k before any cap segment. Cup point
    # a, taken left to right, is the first to reach each of its segments
    # (a, b), b > a, and gives them color base.color_count + a. The cap
    # segments (k + i, k + j) follow in all_segments(l) order.
    colors = ([base.color_count + a for a in range(k) for _ in range(a + 1, ps.n)]
              + list(base.colors))
    return Coloring(ps.n, colors)


def _at_most_one_single_class(g: DisjointnessGraph) -> bool:
    """True iff no optimal coloring of g has two color classes of one segment
    each. An optimal chi-coloring has the single-segment classes {s} and {t}
    iff chi(G - s - t) <= chi - 2:
    - (=>) the other chi - 2 classes color G - s - t;
    - (<=) give s and t two fresh colors: that is a proper coloring with at
      most chi colors, so it has exactly chi, and {s} and {t} are classes.
    So the check is one exact solve per pair {s, t}, on rows where s and t
    are isolated (their rows 0, their bits cleared from every other row).
    That leaves chi unchanged while a third vertex is left, and one is:
    C(n, 2) is never 2.
    """
    chi = chromatic_number_exact(g).chi
    for s, t in combinations(range(g.n_vertices), 2):
        keep = ~(1 << s | 1 << t)
        rows = [0 if v == s or v == t else row & keep for v, row in enumerate(g.adj)]
        if chromatic_number_exact(DisjointnessGraph(g.n_points, rows)).chi <= chi - 2:
            return False
    return True


def singleton_class_check(n: int) -> bool:
    """True iff no optimal coloring of the convex n-point disjointness graph
    has two single-segment classes, for any n >= 4; the check runs one exact
    solve per pair of segments, C(C(n, 2), 2) in all."""
    _check_int(n, "n", 4)
    return _at_most_one_single_class(build_graph(gen_convex(n)))


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: `point` is (k, l) on the double-chain grid or (n,) in
    convex position, `result` its exact solve, `expected` the closed form."""

    point: tuple[int, ...]
    result: ChiResult
    expected: int

    @property
    def match(self) -> bool:
        return self.result.chi == self.expected


def double_chain_sweep(max_sum: int) -> list[SweepRow]:
    """Exact chi of every canonical double chain with 1 <= k <= l, l >= 3 and
    k + l <= max_sum, paired with the closed-form prediction k + f(l)."""
    _check_int(max_sum, "max_sum", 4)
    return [SweepRow((k, l), _solve(gen_double_chain(k, l)), double_chain_chi(k, l))
            for k in range(1, max_sum // 2 + 1) for l in range(max(k, 3), max_sum - k + 1)]


def convex_sweep(n_max: int) -> list[SweepRow]:
    """Exact chi of the canonical convex n-point set against f(n), for
    4 <= n <= n_max."""
    _check_int(n_max, "n_max", 4)
    return [SweepRow((n,), _solve(gen_convex(n)), f_of(n)) for n in range(4, n_max + 1)]


def sample_general_position(rng: random.Random, n: int, *, box: int = 10_000,
                            max_attempts: int = 1_000) -> tuple[PointSet | None, int]:
    """Rejection-sample n distinct integer points uniform in [0, box]^2 until
    they are in general position; returns (point set or None, attempts used).
    n, box and max_attempts must be positive ints; anything else raises
    ValueError."""
    _check_int(n, "n")
    _check_int(box, "box")
    _check_int(max_attempts, "max_attempts")
    for attempt in range(1, max_attempts + 1):
        coords = [(rng.randint(0, box), rng.randint(0, box)) for _ in range(n)]
        if len(set(coords)) != n:
            continue
        ps = PointSet(coords)
        if find_collinear_triple(ps) is None:
            return ps, attempt
    return None, max_attempts


@dataclass(frozen=True)
class ScanReport:
    """A randomized chi-versus-f(n) scan; `dchain conjecture` writes its fields in order."""

    n: int
    trials: int
    f: int
    min_chi: int
    counterexamples: tuple[str, ...]
    forced: dict[str, int]
    resamples: int
    exhausted: bool


def conjecture_scan(n: int, trials: int, seed: int, *,
                    out_dir: str | Path | None = None) -> ScanReport:
    """Solve exact chi for the canonical convex and double-chain sets, then
    for seeded random general-position sets as they are drawn, and compare
    each against f(n). Any set with chi < f(n) is written to disk as a points
    JSON file and reported; running out of rejection-sampling attempts is
    reported via the `exhausted` flag.
    """
    _check_int(n, "n", 4, 9)
    _check_int(trials, "trials", 0)
    _check_int(seed, "seed", None)
    rng = random.Random(seed)
    target = f_of(n)
    directory = Path(out_dir) if out_dir is not None else Path.cwd()
    bad: list[str] = []

    def solve(label: str, ps: PointSet) -> int:
        # solve one drawn set, archiving it if it beats f(n)
        chi = _solve(ps).chi
        if chi < target:
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"counterexample_n{n}_seed{seed}_{label}.json"
            save_points(ps, path)
            bad.append(str(path))
        return chi

    k = n // 2
    forced = {"convex": solve("convex", gen_convex(n))}
    chain = f"double_chain_{k}_{n - k}"
    forced[chain] = solve(chain, gen_double_chain(k, n - k))
    min_chi = min(forced.values())
    resamples = 0
    exhausted = False
    for t in range(trials):
        ps, attempts = sample_general_position(rng, n)
        resamples += attempts - (1 if ps is not None else 0)
        if ps is None:
            exhausted = True
            break
        min_chi = min(min_chi, solve(f"random_{t}", ps))
    return ScanReport(n, trials, target, min_chi, tuple(bad), forced, resamples, exhausted)
