"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines. Everything is exact: no tolerances anywhere.
"""

from functools import lru_cache
from math import comb, isqrt

from dchain import (
    build_graph,
    chromatic_number_exact,
    conjecture_scan,
    construct_double_chain_coloring,
    double_chain_chi,
    double_chain_sweep,
    dsatur_upper,
    f_of,
    g_of,
    gen_convex,
    gen_double_chain,
    sample_general_position,
    singleton_class_check,
    validate_double_chain,
    verify_coloring,
)
from helpers import (
    chain_hull_edges,
    matching_clique,
    naive_chromatic,
    oracle_apices,
    oracle_classes,
    oracle_delete,
    oracle_disjoint,
    oracle_optimal_colorings,
    oracle_validate_double_chain,
    pairwise_disjoint_matrix,
)

import dchain.experiments as experiments_mod
import random


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} [{desc}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, f"criterion {num} ({desc}) failed: {detail}"


@lru_cache(maxsize=None)
def convex_case(n: int):
    ps = gen_convex(n)
    g = build_graph(ps)
    return ps, g, chromatic_number_exact(g)


@lru_cache(maxsize=None)
def chain_case(k: int, l: int):
    ps = gen_double_chain(k, l)
    g = build_graph(ps)
    return ps, g, chromatic_number_exact(g)


def sweep_grid(max_sum: int, l_min: int = 3):
    return [(k, l) for k in range(1, max_sum // 2 + 1)
            for l in range(max(k, l_min), max_sum - k + 1)]


def test_criterion_1_double_chain_chi_equals_prediction():
    rows = double_chain_sweep(9)
    mismatches = [(*r.point, r.result.chi, r.expected) for r in rows if not r.match]
    report(1, "double-chain sweep k+l<=9", not mismatches,
           f"{len(rows)} grid points" + (f", mismatches {mismatches}" if mismatches else ""))


def test_criterion_2_convex_chi_matches_closed_form():
    bad = []
    for n in range(4, 11):
        _, _, res = convex_case(n)
        expected = n - (isqrt(8 * n + 1) - 1) // 2  # integer-exact closed form
        if res.chi != expected:
            bad.append((n, res.chi, expected))
    report(2, "convex chi equals closed form, n=4..10", not bad,
           f"n=4..10" + (f", mismatches {bad}" if bad else ""))


def test_criterion_3_constructive_coloring_is_proper_and_tight():
    bad = []
    for k, l in sweep_grid(9):
        _, g, _ = chain_case(k, l)
        coloring = construct_double_chain_coloring(k, l)
        proper = verify_coloring(g, coloring).proper
        tight = coloring.color_count == double_chain_chi(k, l)
        if not (proper and tight):
            bad.append((k, l, proper, coloring.color_count))
    report(3, "constructed coloring proper with k+f(l) colors", not bad,
           f"{len(sweep_grid(9))} grid points" + (f", failures {bad}" if bad else ""))


def test_criterion_4_optimal_colorings_have_at_most_one_singleton_class():
    bad = [n for n in range(4, 9) if not singleton_class_check(n)]
    report(4, "single-segment class unique in optimal colorings, n=4..8", not bad,
           f"one exact solve per segment pair" + (f", failures at n={bad}" if bad else ""))


def test_criterion_4_two_singleton_classes_break_the_check():
    # 6 points whose only edges form the triangle (0, 1), (2, 3), (4, 5):
    # chi 3, and an optimal coloring gives (0, 1) and (2, 3) a class each,
    # so the rule behind singleton_class_check must answer False
    g = matching_clique(3)
    seen = any(sum(c.colors.count(col) == 1 for col in range(3)) >= 2
               for c in oracle_optimal_colorings(g, 3))
    holds = experiments_mod._at_most_one_single_class(g)
    report(4, "two single-segment classes are caught", seen and holds is False,
           f"returned {holds}")


def test_criterion_5_formula_identities_up_to_a_million():
    limit = 10 ** 6
    binomials = set()
    i = 2
    while comb(i, 2) <= limit + 1:
        binomials.add(comb(i, 2))
        i += 1
    g = 2  # g(1)
    prev_f = None
    for n in range(1, limit + 2):
        while (g + 1) * g // 2 <= n:
            g += 1
        direct = n - (isqrt(8 * n + 1) - 1) // 2
        assert direct == n - g + 1, f"identity breaks at n={n}"
        if prev_f is not None:
            step = direct - prev_f
            assert step in (0, 1), f"step {step} at n={n - 1}"
            assert (step == 0) == (n in binomials), f"step characterization at n={n - 1}"
        prev_f = direct
    # bind the public API to the same values on a sample of the range
    for n in list(range(1, limit, 9973)) + [limit]:
        assert f_of(n) == n - (isqrt(8 * n + 1) - 1) // 2
        assert comb(g_of(n), 2) <= n < comb(g_of(n) + 1, 2)
        assert f_of(n + 1) - f_of(n) in (0, 1)
    report(5, "f/g identities and unit steps for n<=1e6", True,
           "isqrt evaluation == n-g(n)+1 everywhere; zero steps exactly below binomials")


def _distinct_apex_stars(coloring):
    apices = []
    seen = set()
    for apex in oracle_apices(coloring).values():
        if apex is not None and apex not in seen:
            seen.add(apex)
            apices.append(apex)
    return apices


def test_criterion_6_deleting_star_apices_drops_chi_by_r():
    instances = [convex_case(n)[:3] for n in range(4, 9)]
    instances += [chain_case(k, l)[:3] for (k, l) in
                  [(1, 3), (2, 2), (1, 4), (2, 3), (1, 5), (2, 4), (3, 3),
                   (1, 6), (2, 5), (3, 4), (1, 7), (2, 6), (3, 5), (4, 4)]]
    tested = 0
    bad = []
    for ps, g, res in instances:
        apices = _distinct_apex_stars(res.witness)
        if not apices:
            continue
        tested += 1
        r = len(apices)
        new_ps, induced = oracle_delete(ps, apices, res.witness)
        # exactly the r star classes vanish
        assert induced.color_count == res.witness.color_count - r
        if new_ps.n < 2:
            new_chi = 0
        else:
            new_g = build_graph(new_ps)
            assert verify_coloring(new_g, induced).proper
            new_chi = chromatic_number_exact(new_g).chi
        if new_chi != res.chi - r:
            bad.append((ps.n, r, new_chi, res.chi))
    report(6, "chi drops by exactly r after removing r star apices", not bad and tested > 0,
           f"{tested} instances with r >= 1 stars" + (f", failures {bad}" if bad else ""))


def test_criterion_7_thrackle_classes_fit_edge_budget():
    bad = []
    for n in range(4, 9):
        ps, g, res = convex_case(n)
        colorings = [dsatur_upper(g), res.witness]
        if n <= 6:
            colorings.extend(oracle_optimal_colorings(g, res.chi))
        for coloring in colorings:
            apices = oracle_apices(coloring)
            sizes = [len(segs) for color, segs in oracle_classes(coloring).items()
                     if apices[color] is None]
            k = len(sizes)
            if not sum(sizes) <= k * n - comb(k, 2):
                bad.append((n, sizes))
    report(7, "thrackle classes within k*n - C(k,2) edges, n<=8", not bad,
           "all produced colorings" + (f", failures {bad}" if bad else ""))


def test_criterion_8_generated_chains_satisfy_every_geometric_condition():
    # full definition validation over the whole grid
    for l in range(1, 51):
        for k in range(1, l + 1):
            ps = gen_double_chain(k, l)
            rep = validate_double_chain(ps)
            if not rep.ok:
                report(8, "double-chain geometry", False,
                       f"validation failed at ({k},{l}): {rep.failed()}")
            # the all-chords, all-triples oracle agrees on the smaller chains
            if l <= 20 and oracle_validate_double_chain(ps) != (True,) * 5:
                report(8, "double-chain geometry", False,
                       f"oracle rejects ({k},{l}): {oracle_validate_double_chain(ps)}")

    # hull edges of either chain cross nothing; cross-chain segments meet
    # chain segments only at endpoints
    for k, l in sweep_grid(10, l_min=1):
        ps = gen_double_chain(k, l)
        up, low = ps.partition.upper, ps.partition.lower
        for side in (up, low):
            for e in chain_hull_edges(ps, side):
                for i in range(ps.n):
                    for j in range(i + 1, ps.n):
                        if i in e or j in e:
                            continue
                        if not oracle_disjoint(ps, e, (i, j)):
                            report(8, "double-chain geometry", False,
                                   f"hull edge {e} crossed by ({i},{j}) in ({k},{l})")
        for u in up:
            for w in low:
                for side in (up, low):
                    for ai, a in enumerate(side):
                        for b in side[ai + 1:]:
                            if {u, w} & {a, b}:
                                continue
                            if not oracle_disjoint(ps, (u, w), (a, b)):
                                report(8, "double-chain geometry", False,
                                       f"cross segment ({u},{w}) crosses ({a},{b}) in ({k},{l})")

    # deletion closure over every proper subset pair
    for k, l in sweep_grid(9, l_min=1):
        ps = gen_double_chain(k, l)
        up, low = ps.partition.upper, ps.partition.lower
        for umask in range(2 ** k - 1):
            for lmask in range(2 ** l - 1):
                remove = [up[i] for i in range(k) if umask >> i & 1]
                remove += [low[i] for i in range(l) if lmask >> i & 1]
                smaller = oracle_delete(ps, remove)
                if not validate_double_chain(smaller).ok:
                    report(8, "double-chain geometry", False,
                           f"deletion {remove} of ({k},{l}) broke the configuration")
    report(8, "double-chain geometry: definition, crossing-freedom, deletions", True,
           "grid k<=l<=50 validated, k<=l<=20 also by the oracle; structural checks k+l<=10; "
           "deletions k+l<=9")


def test_criterion_9_solver_and_adjacency_agree_with_oracles():
    rng = random.Random(987)
    small = [gen_convex(4), gen_convex(5),
             gen_double_chain(1, 3), gen_double_chain(2, 2),
             gen_double_chain(1, 4), gen_double_chain(2, 3)]
    for n in (4, 5):
        for _ in range(2):
            ps, _ = sample_general_position(rng, n, box=1000)
            small.append(ps)
    for ps in small:
        g = build_graph(ps)
        assert g.n_vertices <= 10
        exact = chromatic_number_exact(g).chi
        naive = naive_chromatic(g)
        if exact != naive:
            report(9, "oracle equivalence", False,
                   f"solver {exact} != naive {naive} on {ps.points}")

    matrix_cases = [gen_convex(n) for n in range(4, 10)]
    matrix_cases += [gen_double_chain(k, l) for (k, l) in sweep_grid(9)]
    for n in (6, 8, 9):
        ps, _ = sample_general_position(rng, n, box=1000)
        matrix_cases.append(ps)
    for ps in matrix_cases:
        g = build_graph(ps)
        rational = pairwise_disjoint_matrix(ps)
        for u in range(g.n_vertices):
            for v in range(g.n_vertices):
                if g.adjacent(u, v) != rational[u][v]:
                    report(9, "oracle equivalence", False,
                           f"adjacency mismatch at ({u},{v}) for n={ps.n}")
    report(9, "exact solver and adjacency match independent oracles", True,
           f"{len(small)} chromatic cases <= 10 vertices; {len(matrix_cases)} matrix cases n<=9")


def test_criterion_10_no_random_set_beats_the_convex_bound(tmp_path):
    results = []
    for n in range(4, 9):
        rep = conjecture_scan(n, trials=200, seed=20260811 + n, out_dir=tmp_path / str(n))
        ok = not rep.counterexamples and not rep.exhausted and rep.min_chi >= rep.f
        ok = ok and rep.forced["convex"] == f_of(n)
        k = n // 2
        if n - k >= 3:
            ok = ok and rep.forced[f"double_chain_{k}_{n - k}"] == double_chain_chi(k, n - k)
        results.append((n, rep.min_chi, rep.f, ok))
        if not ok:
            report(10, "randomized scan", False, f"scan failed at n={n}: {rep}")
    report(10, "200-trial scans find no chi below f(n), n=4..8", True,
           "; ".join(f"n={n}: min chi {m} >= f={f}" for n, m, f, _ in results))


def test_criterion_10_violations_archive_and_exit_nonzero(tmp_path, monkeypatch, capsys):
    # exercise the counterexample path end to end with an impossible threshold
    from dchain.cli import main

    monkeypatch.setattr(experiments_mod, "f_of", lambda n: 99)
    out = tmp_path / "report.json"
    code = main(["conjecture", "--n", "4", "--trials", "1", "--seed", "0",
                 "--out", str(out)])
    capsys.readouterr()
    archived = list(tmp_path.glob("counterexample_*.json"))
    report(10, "violation exits nonzero and archives the set",
           code == 1 and len(archived) >= 1,
           f"exit {code}, archived {[p.name for p in archived]}")
