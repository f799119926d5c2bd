import ast
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dchain import (
    Coloring,
    DisjointnessGraph,
    all_segments,
    build_graph,
    chromatic_number_exact,
    clique_lower,
    conjecture_scan,
    convex_sweep,
    double_chain_chi,
    double_chain_sweep,
    dsatur_upper,
    f_of,
    find_collinear_triple,
    gen_convex,
    gen_double_chain,
    sample_general_position,
    singleton_class_check,
    verify_coloring,
)
from helpers import (matching_clique, naive_chromatic, oracle_branch_and_bound, oracle_clique,
                      oracle_dsatur, oracle_optimal_colorings, tie_order)

import dchain.experiments as experiments_mod
import dchain.solver as solver_mod


def random_configs(n, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ps, _ = sample_general_position(rng, n, box=500)
        if ps is not None:
            out.append(ps)
    return out


def built_graphs(seed):
    """300 seeded random 2..9-point sets, every chain k <= l <= 12, convex 2..24."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < 300:
        ps, _ = sample_general_position(rng, rng.randint(2, 9), box=rng.choice([50, 10_000]))
        if ps is not None:
            graphs.append(build_graph(ps))
    graphs += [build_graph(gen_double_chain(k, l)) for l in range(1, 13) for k in range(1, l + 1)]
    graphs += [build_graph(gen_convex(n)) for n in range(2, 25)]
    return graphs


def later_seed_graph():
    """Six points, five edges. Vertex 14, segment (4, 5), has the largest
    degree, 3, then come 0, 1 and 6 with degree 2, then 9. The first seed,
    14, adds its first candidate in that order, 0, whose other neighbor 9 is
    not joined to 14, so it stops at two members, though its candidates 1
    and 6 are joined. Seed 0 also stops at two, and seed 1 reaches the
    ceiling 3 with the triangle 1, 6, 14."""
    rows = [0] * 15
    for u, v in [(14, 0), (14, 1), (14, 6), (1, 6), (0, 9)]:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return DisjointnessGraph(6, tuple(rows))


def hand_built_graphs(seed, count):
    """`count` seeded random graphs on 4..7 points that keep the endpoint
    rule (no edge joins segments that share an endpoint), each with its own
    edge density in [0, 1), then the edgeless graph on 4 points and
    later_seed_graph()."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(4, 7)
        segs = all_segments(n)
        density = rng.random()
        rows = [0] * len(segs)
        for u, v in itertools.combinations(range(len(segs)), 2):
            if not set(segs[u]) & set(segs[v]) and rng.random() < density:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        graphs.append(DisjointnessGraph(n, tuple(rows)))
    return graphs + [DisjointnessGraph(4, (0,) * 6), later_seed_graph()]


def id_order_solve(g, max_nodes=None):
    """The exact solve with saturation ties to the smallest segment rank,
    driven through solver._search on the rows as built: the greedy first
    dive, then the search from sorted(clique). Returns
    ([status, lower_bound, upper_bound, nodes], vertex colors)."""
    lower, clique = clique_lower(g)
    best_k, colors, _, _ = solver_mod._search(g.adj, [], g.n_vertices + 1, None, None)
    nodes, aborted = 0, False
    if best_k > lower:
        best_k, colors, nodes, aborted = solver_mod._search(g.adj, sorted(clique), best_k, colors,
                                                            max_nodes)
    assert verify_coloring(g, Coloring(g.n_points, colors)).proper
    if aborted:
        return ["indeterminate", lower, best_k, nodes], colors
    return ["exact", best_k, best_k, nodes], colors


def pin_cases(pins):
    """(pin, graph) for the chain or convex set each solver pin names."""
    for pin in pins:
        ps = gen_double_chain(pin["k"], pin["l"]) if "k" in pin else gen_convex(pin["n"])
        yield pin, build_graph(ps)


def budget_pin_cases(pins):
    """(pin, graph) for the 53 budget-pin cases, in the pin files' order."""
    cases = [gen_convex(14), gen_double_chain(6, 7), gen_double_chain(4, 9)]
    cases += random_configs(8, 50, 2024)
    assert len(pins) == len(cases) == 53
    for pin, ps in zip(pins, cases):
        yield pin, build_graph(ps)


class TestDsatur:
    def test_edgeless_uses_one_color(self):
        g = build_graph(gen_convex(3))  # three segments, all pairwise incident
        c = dsatur_upper(g)
        assert c.color_count == 1

    def test_complete_graph_uses_all(self):
        assert dsatur_upper(matching_clique(6)).color_count == 6

    def test_proper_and_bounded_on_convex4(self):
        g = build_graph(gen_convex(4))
        c = dsatur_upper(g)
        assert verify_coloring(g, c).proper
        assert 2 <= c.color_count <= 3

    def test_matches_quadratic_oracle(self):
        for g in built_graphs(1979) + hand_built_graphs(1980, 300):
            assert dsatur_upper(g).colors == tuple(oracle_dsatur(g, by_degree=True)), g.n_points

    def test_is_the_exact_solve_presolve(self):
        # a budget of one node stops the search at its root, so the solve
        # returns its own presolve: the greedy witness and, unless the clique
        # meets it, the clique bound
        for g in built_graphs(1979) + hand_built_graphs(1980, 300):
            greedy = dsatur_upper(g)
            size, _ = clique_lower(g)
            res = chromatic_number_exact(g, max_nodes=1)
            assert res.witness == greedy, g.adj
            if size < greedy.color_count:
                assert (res.status, res.lower_bound, res.upper_bound) == \
                    ("indeterminate", size, greedy.color_count), g.adj
            else:
                assert (res.status, res.chi) == ("exact", greedy.color_count), g.adj


def test_presolve_matches_pins():
    # sha256 of (DSATUR colors, clique members), recorded from the greedy
    # dive on the degree-ordered rows and the clique growth in that order
    pins = json.loads(Path(__file__).with_name("presolve_pins.json").read_text())
    assert len(pins) == 101
    for pin in pins:
        ps = gen_double_chain(pin["k"], pin["l"]) if "k" in pin else gen_convex(pin["n"])
        g = build_graph(ps)
        colors = dsatur_upper(g).colors
        size, members = clique_lower(g)
        text = ",".join(map(str, colors)) + ";" + ",".join(map(str, sorted(members)))
        assert (max(colors) + 1, size, hashlib.sha256(text.encode("ascii")).hexdigest()) \
            == (pin["colors"], pin["clique"], pin["sha256"]), pin


class TestCliqueLower:
    def test_matched_pair_found_in_smallest_chain(self):
        size, members = clique_lower(build_graph(gen_double_chain(1, 3)))
        assert size >= 2

    def test_edgeless_gives_one(self):
        size, _ = clique_lower(build_graph(gen_convex(3)))
        assert size == 1
        # below the ceiling, so every seed is grown
        assert clique_lower(DisjointnessGraph(4, (0,) * 6)) == (1, frozenset({0}))

    def test_later_seed_reaches_the_ceiling(self):
        assert clique_lower(later_seed_graph()) == (3, frozenset({1, 6, 14}))

    def test_members_pairwise_adjacent(self):
        g = build_graph(gen_convex(6))
        size, members = clique_lower(g)
        members = sorted(members)
        assert size == len(members)
        for a, b in itertools.combinations(members, 2):
            assert g.adjacent(a, b)

    def test_complete_graph_full_clique(self):
        size, members = clique_lower(matching_clique(6))
        assert size == 6
        assert members == {all_segments(12).index((2 * i, 2 * i + 1)) for i in range(6)}

    def test_matches_oracle(self):
        # 300 seeded random 8-point sets, 300 hand-built graphs and K6
        graphs = [build_graph(ps) for ps in random_configs(8, 300, 1981)]
        graphs += hand_built_graphs(1982, 300) + [matching_clique(6)]
        for g in graphs:
            assert clique_lower(g) == oracle_clique(g), g.adj

    def test_ceiling_holds_on_built_graphs(self):
        for g in built_graphs(2017):
            size, members = clique_lower(g)
            segs = all_segments(g.n_points)
            ends = [p for v in members for p in segs[v]]
            assert size == len(members) <= g.n_points // 2, g.n_points
            assert len(set(ends)) == len(ends), g.n_points


class TestDegreeOrder:
    def test_rows_match_the_bitwise_definition(self):
        # seeded 8-point sets, the chains (6, 6) and (12, 12), and convex
        # n = 2, 3 and 13 (V = 1 and V = 3 among them)
        sets = random_configs(8, 20, 2026)
        sets += [gen_double_chain(6, 6), gen_double_chain(12, 12)]
        sets += [gen_convex(n) for n in (2, 3, 13)]
        for ps in sets:
            g = build_graph(ps)
            v_count = g.n_vertices
            order, rows, new_id = g._relabel
            assert order == tie_order(g, by_degree=True)
            assert len(rows) == v_count
            assert [new_id[v] for v in order] == list(range(v_count))
            for i in range(v_count):
                row = g.adj[order[i]]
                assert [rows[i] >> j & 1 for j in range(v_count)] == \
                    [row >> order[j] & 1 for j in range(v_count)], (ps.n, i)

    def test_one_relabel_per_graph(self, monkeypatch):
        # the presolve calls and the exact solve of one graph share one view,
        # and caching it leaves the graph's value, hash and repr alone
        prop = DisjointnessGraph.__dict__["_relabel"]
        relabel = prop.func
        calls = []

        def counted(g):
            calls.append(g)
            return relabel(g)

        monkeypatch.setattr(prop, "func", counted)
        g = build_graph(gen_double_chain(4, 6))
        fresh = DisjointnessGraph(g.n_points, g.adj)
        clique_lower(g)
        dsatur_upper(g)
        res = chromatic_number_exact(g)
        assert res.chi == double_chain_chi(4, 6)
        assert len(calls) == 1 and calls[0] is g
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        chromatic_number_exact(fresh)
        assert len(calls) == 2 and calls[1] is fresh


class TestExactChi:
    def test_smallest_double_chain(self):
        assert chromatic_number_exact(build_graph(gen_double_chain(1, 3))).chi == 2

    def test_convex4(self):
        assert chromatic_number_exact(build_graph(gen_convex(4))).chi == 2

    def test_double_chain_24(self):
        assert chromatic_number_exact(build_graph(gen_double_chain(2, 4))).chi \
            == double_chain_chi(2, 4)

    def test_witness_is_proper_and_uses_chi_colors(self):
        g = build_graph(gen_double_chain(2, 3))
        res = chromatic_number_exact(g)
        assert res.is_exact
        assert verify_coloring(g, res.witness).proper
        assert res.witness.color_count == res.chi

    def test_bound_sandwich(self):
        for ps in [gen_convex(5), gen_convex(6), gen_double_chain(2, 4),
                   gen_double_chain(1, 5)]:
            g = build_graph(ps)
            lb, _ = clique_lower(g)
            res = chromatic_number_exact(g)
            assert lb <= res.chi <= dsatur_upper(g).color_count

    def test_matches_naive_search(self):
        configs = [gen_convex(4), gen_convex(5), gen_double_chain(1, 3),
                   gen_double_chain(2, 2), gen_double_chain(2, 3), gen_double_chain(1, 4)]
        configs += random_configs(5, 2, seed=11)
        for ps in configs:
            g = build_graph(ps)
            assert chromatic_number_exact(g).chi == naive_chromatic(g)

    def test_small_random_solves_pinned(self):
        # 200 sampled 8-point sets through the build, the relabel and the
        # search, as the random scan solves them: attempts, rows, chi, node
        # count and witness of each, recorded with the clique grown in the
        # search's branching order
        rng = random.Random(0)
        digest = hashlib.sha256()
        total = 0
        for _ in range(200):
            ps, attempts = sample_general_position(rng, 8)
            g = build_graph(ps)
            res = chromatic_number_exact(g)
            total += res.nodes
            line = json.dumps([attempts, list(g.adj), res.chi, res.nodes, list(res.witness.colors)])
            digest.update((line + "\n").encode())
        assert total == 15127
        assert digest.hexdigest() == \
            "a8a4d9f91496d9b1b11d0feceef22ace2f29dbee447552fa1aec970b369d73d8"

    def test_deterministic_nodes_and_witness(self):
        g = build_graph(gen_double_chain(2, 4))
        a = chromatic_number_exact(g)
        b = chromatic_number_exact(g)
        assert a.nodes == b.nodes > 0
        assert a.witness == b.witness

    def test_node_budget_indeterminate(self):
        g = build_graph(gen_double_chain(2, 4))
        res = chromatic_number_exact(g, max_nodes=1)
        assert not res.is_exact
        assert res.status == "indeterminate"
        assert res.chi is None
        assert res.lower_bound <= 4 <= res.upper_bound
        assert verify_coloring(g, res.witness).proper
        assert res.witness.color_count == res.upper_bound

    def test_node_budget_stops_a_long_search(self):
        # the (6, 7) search takes thousands of nodes; a budget of 255 ends it
        # on entering node 256
        g = build_graph(gen_double_chain(6, 7))
        res = chromatic_number_exact(g, max_nodes=255)
        assert res.status == "indeterminate"
        assert res.chi is None
        assert res.nodes == 256
        assert res.lower_bound <= double_chain_chi(6, 7) <= res.upper_bound
        assert verify_coloring(g, res.witness).proper
        assert res.witness.color_count == res.upper_bound

    @pytest.mark.parametrize("budget", [
        {"max_nodes": float("nan")}, {"max_nodes": -1.0}, {"max_nodes": float("inf")},
        {"max_nodes": float("-inf")}, {"max_nodes": "5"}, {"max_nodes": False},
        {"max_nodes": 0}, {"max_nodes": -3}, {"max_nodes": 1.5}, {"max_nodes": True},
        {"max_nodes": "10"},
    ])
    def test_invalid_budget_rejected(self, budget):
        with pytest.raises(ValueError):
            chromatic_number_exact(build_graph(gen_convex(5)), **budget)

    def test_pinned_nodes_and_witnesses(self):
        # recorded from the recursive per-vertex-saturation solver with ties
        # to the smallest id; the mask search must branch identically, node
        # for node, on the rows in segment-rank order
        pins = json.loads(Path(__file__).with_name("solver_pins.json").read_text())
        assert len(pins) == 26
        for pin, g in pin_cases(pins):
            (_, chi, _, nodes), colors = id_order_solve(g)
            assert (nodes, chi, colors) == (pin["nodes"], pin["chi"], pin["witness"]), pin

    def test_degree_order_pins(self):
        # the public solve on the same cases, with ties by degree, then id
        pins = json.loads(Path(__file__).with_name("solver_pins_degree.json").read_text())
        assert len(pins) == 26
        for pin, g in pin_cases(pins):
            res = chromatic_number_exact(g)
            assert (res.nodes, res.chi, res.witness.colors) == \
                (pin["nodes"], pin["chi"], tuple(pin["witness"])), pin

    def test_budget_cutoffs_match_pins(self):
        # [status, lower, upper, nodes] at each node budget of the id-order
        # search, recorded before it stopped pushing frames it would pop at
        # once: skipping them must leave every cutoff where it was
        pins = json.loads(Path(__file__).with_name("budget_pins.json").read_text())
        for pin, g in budget_pin_cases(pins):
            for budget, expected in pin["budgets"].items():
                assert id_order_solve(g, int(budget))[0] == expected, (pin["case"], budget)

    def test_degree_order_budget_cutoffs(self):
        pins = json.loads(Path(__file__).with_name("budget_pins_degree.json").read_text())
        for pin, g in budget_pin_cases(pins):
            for budget, expected in pin["budgets"].items():
                r = chromatic_number_exact(g, max_nodes=int(budget))
                assert [r.status, r.lower_bound, r.upper_bound, r.nodes] == expected, \
                    (pin["case"], budget)

    def test_search_deeper_than_recursion_limit(self):
        g = build_graph(gen_double_chain(6, 7))  # 78 vertices, 72 of them left to the search
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            res = chromatic_number_exact(g, max_nodes=2000)
        finally:
            sys.setrecursionlimit(limit)
        assert res.status == "indeterminate"
        assert res.nodes == 2001
        assert res.lower_bound <= res.upper_bound
        assert verify_coloring(g, res.witness).proper

    def test_checks_survive_python_O(self):
        script = """
import dchain.solver as solver
from dchain import Coloring, DisjointnessGraph, build_graph, gen_convex
assert False, "asserts must be stripped for this check to mean anything"
g = build_graph(gen_convex(6))
solver._search = lambda adj, *rest: (1, [0] * len(adj), 0, False)  # the incumbent of the exact solve
try:
    solver.chromatic_number_exact(g)
except RuntimeError as exc:
    print("witness:", exc)

class Lying(DisjointnessGraph):
    def adjacent(self, u, v):
        return False

try:
    solver.clique_lower(Lying(g.n_points, g.adj))
except RuntimeError as exc:
    print("clique:", exc)
"""
        src = Path(solver_mod.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "witness: solver witness is not a proper coloring" in proc.stdout
        assert "clique: greedy clique members" in proc.stdout

    def test_engine_imports_no_driver(self):
        # the engine stands apart from the experiments, the closed forms and
        # the generators: only .coloring, .disjointness and the stdlib, and
        # from .formulas the shared integer validator, which it names there
        # rather than through a module that re-exports it
        tree = ast.parse(Path(solver_mod.__file__).read_text(encoding="utf-8"))
        relative, absolute, from_formulas = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "formulas" and node.level:
                from_formulas.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level:
                relative.add(node.module)
            elif isinstance(node, ast.ImportFrom):
                absolute.add(node.module.split(".")[0])
            elif isinstance(node, ast.Import):
                absolute.update(alias.name.split(".")[0] for alias in node.names)
        assert relative == {"coloring", "disjointness"}
        assert from_formulas == {"_check_int"}
        assert absolute <= set(sys.stdlib_module_names), absolute - set(sys.stdlib_module_names)


@pytest.fixture(scope="module")
def oracle_cases():
    """Every chain with k + l <= 9, convex 4..10, 300 seeded random
    4..8-point sets and 200 hand-built graphs (hand_built_graphs), each with
    its greedy clique by oracle_clique; then the ten chains with
    k + l = 10..11, whose degree-order searches hold most of the nodes."""
    sets = [gen_double_chain(k, l) for k in range(1, 5) for l in range(k, 10 - k)]
    sets += [gen_convex(n) for n in range(4, 11)]
    rng = random.Random(909)
    for _ in range(300):
        ps = None
        while ps is None:
            ps, _ = sample_general_position(rng, rng.randint(4, 8), box=rng.choice([60, 10_000]))
        sets.append(ps)
    graphs = [build_graph(ps) for ps in sets] + hand_built_graphs(910, 198)
    graphs += [build_graph(gen_double_chain(k, s - k)) for s in (10, 11)
               for k in range(1, s // 2 + 1)]
    return [(g, oracle_clique(g)[1]) for g in graphs]


# the oracle recounts saturation in Python at every node, and the chains with
# k + l = 10..11 take 87,721 nodes by id against 5,228 by degree, so the id
# order is checked on the cases before them
ID_ORDER_CASES = 527


class TestAgainstOracle:
    """The engine against a recursive DSATUR branch and bound written from
    its documented rule (tests/helpers.py): equal node counts, chi and
    witnesses, and equal cutoffs under node budgets. The public solve breaks
    saturation ties by degree, then id; the `_search` id path, by id."""

    def test_cliques_match(self, oracle_cases):
        for g, clique in oracle_cases:
            assert clique_lower(g) == (len(clique), clique), g.adj

    def test_exact_solves_match(self, oracle_cases):
        assert len(oracle_cases) == 537
        total = 0
        for g, clique in oracle_cases:
            res = chromatic_number_exact(g)
            exact, nodes, chi, colors = oracle_branch_and_bound(g, clique)
            assert exact and res.is_exact
            assert (res.nodes, res.chi, res.witness.colors) == (nodes, chi, tuple(colors))
            total += nodes
        assert total > 10_000  # the search is exercised, not skipped by the presolve

    def test_id_order_search_matches(self, oracle_cases):
        total = 0
        for g, clique in oracle_cases[:ID_ORDER_CASES]:
            (status, _, chi, nodes), colors = id_order_solve(g)
            exact, o_nodes, o_chi, o_colors = oracle_branch_and_bound(g, clique, by_degree=False)
            assert exact and status == "exact"
            assert (nodes, chi, colors) == (o_nodes, o_chi, o_colors)
            total += nodes
        assert total > 10_000

    @pytest.mark.parametrize("budget", [1, 2, 5, 17])
    def test_node_budget_cutoffs_match(self, oracle_cases, budget):
        cut = 0
        for g, clique in oracle_cases:
            res = chromatic_number_exact(g, max_nodes=budget)
            exact, nodes, upper, colors = oracle_branch_and_bound(g, clique, max_nodes=budget)
            assert (res.is_exact, res.nodes, res.upper_bound, res.witness.colors) == \
                (exact, nodes, upper, tuple(colors))
            assert res.lower_bound == (upper if exact else len(clique))
            cut += not exact
            (status, lower, upper, nodes), colors = id_order_solve(g, budget)
            exact, o_nodes, o_upper, o_colors = oracle_branch_and_bound(
                g, clique, max_nodes=budget, by_degree=False)
            assert (status == "exact", nodes, upper, colors) == (exact, o_nodes, o_upper, o_colors)
            assert lower == (upper if exact else len(clique))
            cut += not exact
        assert cut > 0


class TestEnumerateOptimal:
    """The optimal-coloring oracle of tests/helpers.py, which criterion 7 and
    the single-segment-class cross-check read."""

    def test_yields_at_least_one_for_convex4(self):
        g = build_graph(gen_convex(4))
        colorings = list(oracle_optimal_colorings(g, 2))
        assert colorings
        for c in colorings:
            assert verify_coloring(g, Coloring(g.n_points, c)).proper
            assert len(set(c)) == 2

    def test_no_duplicates_and_canonical_labels(self):
        g = build_graph(gen_convex(5))
        seen = set()
        for vc in oracle_optimal_colorings(g, 3):
            assert vc not in seen
            seen.add(vc)
            firsts = []
            for color in vc:
                if color not in firsts:
                    firsts.append(color)
            assert firsts == sorted(firsts)  # classes numbered by first appearance

    def test_census_matches_brute_force(self):
        g = build_graph(gen_convex(4))
        v = g.n_vertices
        canonical = set()
        for assign in itertools.product(range(2), repeat=v):
            if any(assign[u] == assign[w] for u, w in g.edges()):
                continue
            if len(set(assign)) != 2:
                continue
            relabel, out = {}, []
            for c in assign:
                relabel.setdefault(c, len(relabel))
                out.append(relabel[c])
            canonical.add(tuple(out))
        enumerated = set(oracle_optimal_colorings(g, 2))
        assert enumerated == canonical

    def test_convex6_stream_order(self):
        # the full ordered stream, recorded from the package's former
        # stack-based enumerator
        expected = [
            "000001120111222", "000001120121222", "000102210212111", "000102210222111",
            "001220000112112", "001220000112122", "001220002112112", "001220002112122",
            "001220100112112", "001220100112122", "001220102112112", "001220102112122",
            "010001120111222", "010001120121222", "010201120111222", "010201120121222",
        ]
        g = build_graph(gen_convex(6))
        stream = ["".join(map(str, c)) for c in oracle_optimal_colorings(g, 3)]
        assert stream == expected

    def test_convex5_stream_above_chi(self):
        # sha256 of the ordered stream at chi + 1 = 4, one line per coloring,
        # recorded from the package's former enumerator
        g = build_graph(gen_convex(5))
        text = "".join("".join(map(str, c)) + "\n" for c in oracle_optimal_colorings(g, 4))
        assert text.count("\n") == 2270
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == \
            "98ae3c42be0234ba1fc97ff07aac0ad875312b52a06f2e5ad95516d3a5637bd3"


class TestSingletonClassCheck:
    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_holds_for_small_convex(self, n):
        assert singleton_class_check(n) is True

    def test_rejects_below_four(self):
        with pytest.raises(ValueError):
            singleton_class_check(3)

    def test_rule_matches_oracle_colorings(self):
        # the rule, one exact solve per vertex pair, against "some optimal
        # coloring of the oracle has two single-segment classes"
        rng = random.Random(3215)
        cases = [(f"convex {n}", gen_convex(n)) for n in range(4, 7)]
        cases += [(f"chain {k},{l}", gen_double_chain(k, l))
                  for k in range(1, 4) for l in range(k, 8 - k)]
        for t in range(200):
            ps, _ = sample_general_position(rng, rng.randint(4, 6), box=500)
            cases.append((f"random {t}", ps))
        graphs = [(label, build_graph(ps)) for label, ps in cases]
        graphs.append(("triangle", matching_clique(3)))
        broken = []
        for label, g in graphs:
            chi = chromatic_number_exact(g).chi
            two = any(sum(c.count(col) == 1 for col in range(chi)) >= 2
                      for c in oracle_optimal_colorings(g, chi))
            assert experiments_mod._at_most_one_single_class(g) is not two, label
            if two:
                broken.append(label)
        assert broken == ["triangle"]


class TestSweeps:
    def test_double_chain_grid_up_to_seven(self):
        rows = double_chain_sweep(7)
        assert {r.point for r in rows} == {
            (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)}
        assert all(r.match for r in rows)

    def test_convex_range(self):
        rows = convex_sweep(7)
        assert [(r.point, r.result.chi) for r in rows] == [
            ((4,), 2), ((5,), 3), ((6,), 3), ((7,), 4)]
        assert all(r.match for r in rows)

    @pytest.mark.parametrize("rows, build", [
        (lambda: double_chain_sweep(7), gen_double_chain),
        (lambda: convex_sweep(8), gen_convex)], ids=["double_chain", "convex"])
    def test_rows_keep_the_solve(self, rows, build):
        # each row carries the solve itself: status, chi, nodes and witness
        # equal to a direct solve of the point's graph
        for r in rows():
            direct = chromatic_number_exact(build_graph(build(*r.point)))
            assert r.result.status == solver_mod.EXACT
            assert (r.result.chi, r.result.nodes, r.result.witness) == (
                direct.chi, direct.nodes, direct.witness), r.point
            assert r.match == (direct.chi == r.expected)

    @pytest.mark.parametrize("n_max", [3.5, 3, True, "7"])
    def test_convex_range_rejects_bad_bounds(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an integer >= 4"):
            convex_sweep(n_max)


class TestConjectureScan:
    def test_small_scan_holds(self, tmp_path):
        report = conjecture_scan(5, trials=5, seed=3, out_dir=tmp_path)
        assert not report.counterexamples
        assert not report.exhausted
        assert report.min_chi >= report.f == f_of(5)
        assert report.forced["convex"] == f_of(5)
        assert report.forced["double_chain_2_3"] == double_chain_chi(2, 3)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n, trials, seed, min_chi, forced", [
        (6, 20, 1, 3, {"convex": 3, "double_chain_3_3": 4}),
        (7, 15, 3, 4, {"convex": 4, "double_chain_3_4": 5}),
        (4, 5, 0, 2, {"convex": 2, "double_chain_2_2": 2}),
        (8, 10, 2, 5, {"convex": 5, "double_chain_4_4": 6})])
    def test_reports_pinned(self, tmp_path, n, trials, seed, min_chi, forced):
        # recorded when every set was drawn first and solved afterwards
        report = conjecture_scan(n, trials, seed, out_dir=tmp_path)
        assert (report.min_chi, report.forced, report.resamples, report.exhausted,
                report.counterexamples) == (min_chi, forced, 0, False, ())
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_for_seed(self, tmp_path):
        a = conjecture_scan(4, trials=4, seed=9, out_dir=tmp_path)
        b = conjecture_scan(4, trials=4, seed=9, out_dir=tmp_path)
        assert a == b

    def test_counterexample_archival_mechanism(self, tmp_path, monkeypatch):
        # force the threshold sky-high so every sample "violates"
        monkeypatch.setattr(experiments_mod, "f_of", lambda n: 99)
        report = conjecture_scan(4, trials=1, seed=0, out_dir=tmp_path)
        assert report.counterexamples
        labels = ["convex", "double_chain_2_2", "random_0"]
        assert report.counterexamples == tuple(
            str(tmp_path / f"counterexample_n4_seed0_{label}.json") for label in labels)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"counterexample_n4_seed0_{label}.json" for label in labels)

    def test_sets_drawn_before_exhaustion_are_solved(self, tmp_path, monkeypatch):
        draws = iter([(gen_convex(4), 3), (None, 1_000)])
        monkeypatch.setattr(experiments_mod, "sample_general_position", lambda rng, n: next(draws))
        monkeypatch.setattr(experiments_mod, "f_of", lambda n: 99)
        report = conjecture_scan(4, trials=5, seed=0, out_dir=tmp_path)
        assert report.exhausted and report.resamples == 2 + 1_000
        assert [Path(p).name for p in report.counterexamples] == [
            f"counterexample_n4_seed0_{label}.json"
            for label in ("convex", "double_chain_2_2", "random_0")]

    def test_sampler_respects_box_and_general_position(self):
        rng = random.Random(1234)
        ps, attempts = sample_general_position(rng, 6, box=50)
        assert ps is not None and attempts >= 1
        assert all(0 <= x <= 50 and 0 <= y <= 50 for x, y in ps.points)
        assert find_collinear_triple(ps) is None

    def test_sampler_reports_exhaustion(self):
        # the box [0, 1]^2 holds only four integer points, so no draw of five succeeds
        assert sample_general_position(random.Random(0), 5, box=1, max_attempts=3) == (None, 3)

    @pytest.mark.parametrize("kwargs", [
        {"n": -1}, {"n": 0}, {"n": True}, {"n": 4.0}, {"n": 4, "box": 0}, {"n": 4, "box": 50.0},
        {"n": 4, "max_attempts": 0}, {"n": 4, "max_attempts": True}])
    def test_sampler_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            sample_general_position(random.Random(0), **kwargs)

    def test_rejects_out_of_range_n(self):
        with pytest.raises(ValueError):
            conjecture_scan(3, trials=1, seed=0)
        with pytest.raises(ValueError):
            conjecture_scan(9, trials=1, seed=0)

    def test_rejects_non_int_seed(self, tmp_path):
        # an unseeded scan cannot be reproduced; any int seed, even a negative one, is fine
        for seed in (None, True, 1.0, "1"):
            with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
                conjecture_scan(4, trials=1, seed=seed, out_dir=tmp_path)
        assert not conjecture_scan(4, trials=1, seed=-1, out_dir=tmp_path).counterexamples
        assert list(tmp_path.iterdir()) == []
