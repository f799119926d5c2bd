import hashlib
import json
import random
import re
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dchain import (
    DisjointnessGraph,
    PointSet,
    all_segments,
    build_graph,
    export_graph,
    gen_convex,
    gen_double_chain,
    sample_general_position,
)
from helpers import chain_hull_edges, oracle_collinear, pairwise_disjoint_matrix, turn


class TestSegmentId:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_rank_matches_lexicographic_position(self, n):
        # all_segments is the one definition of rank order: segment (i, j)
        # is vertex i * (2n - i - 1) / 2 + (j - i - 1)
        segs = all_segments(n)
        assert segs == tuple(combinations(range(n), 2))
        assert list(segs) == sorted(segs)
        for pos, (i, j) in enumerate(segs):
            assert i * (2 * n - i - 1) // 2 + (j - i - 1) == pos


@st.composite
def one_bit_flips(draw):
    """A built graph (seeded random general-position set, double chain or
    convex set) and an off-diagonal cell (u, w) in either triangle."""
    kind = draw(st.sampled_from(["random", "chain", "convex"]))
    if kind == "random":
        rng = random.Random(draw(st.integers(0, 2**32)))
        ps, _ = sample_general_position(rng, draw(st.integers(3, 9)))
    elif kind == "chain":
        l = draw(st.integers(3, 8))
        ps = gen_double_chain(draw(st.integers(1, l)), l)
    else:
        ps = gen_convex(draw(st.integers(3, 10)))
    g = build_graph(ps)
    u = draw(st.integers(0, g.n_vertices - 1))
    w = draw(st.integers(0, g.n_vertices - 2))
    return g, u, w + (w >= u)


class TestBuildGraph:
    def test_convex4_two_opposite_side_pairs(self):
        g = build_graph(gen_convex(4))
        assert g.n_vertices == 6
        assert g.edge_count == 2
        assert list(g.edges()) == [(0, 5), (2, 3)]

    def test_double_chain_13_perfect_matching(self):
        g = build_graph(gen_double_chain(1, 3))
        assert g.n_vertices == 6
        assert list(g.edges()) == [(0, 5), (1, 4), (2, 3)]
        assert all(row.bit_count() == 1 for row in g.adj)

    def test_two_points_single_isolated_vertex(self):
        g = build_graph(PointSet(((0, 0), (1, 2))))
        assert g.n_vertices == 1
        assert g.edge_count == 0

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            build_graph(PointSet(((0, 0),)))

    def test_rejects_collinear_input(self):
        with pytest.raises(ValueError):
            build_graph(PointSet(((0, 0), (1, 1), (2, 2), (0, 5))))

    @pytest.mark.parametrize("ps", [
        gen_convex(5),
        gen_convex(7),
        gen_double_chain(1, 4),
        gen_double_chain(2, 3),
        gen_double_chain(3, 4),
    ], ids=["convex5", "convex7", "dc14", "dc23", "dc34"])
    def test_adjacency_equals_pairwise_predicate(self, ps):
        g = build_graph(ps)
        mat = pairwise_disjoint_matrix(ps)
        for u in range(g.n_vertices):
            for v in range(g.n_vertices):
                assert g.adjacent(u, v) == mat[u][v]

    def test_adjacency_matches_pins(self):
        # sha256 of the hex rows, recorded from a build that called a per-pair
        # disjointness predicate
        pins = json.loads(Path(__file__).with_name("build_pins.json").read_text())
        assert len(pins) == 101
        for pin in pins:
            ps = gen_double_chain(pin["k"], pin["l"]) if "k" in pin else gen_convex(pin["n"])
            g = build_graph(ps)
            digest = hashlib.sha256(",".join(format(r, "x") for r in g.adj).encode("ascii"))
            assert (g.edge_count, digest.hexdigest()) == (pin["edges"], pin["sha256"]), pin

    def test_small_box_sets_match_rational_oracle(self):
        # coordinates in [0, 20]^2 make near-collinear triples and collinear
        # sets common; the latter must be refused, the former built exactly
        rng = random.Random(20170)
        built = refused = 0
        for _ in range(400):
            n = rng.randint(3, 9)
            coords = list({(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(n)})
            if len(coords) < 3:
                continue
            ps = PointSet(tuple(coords))
            if oracle_collinear(coords) is not None:
                with pytest.raises(ValueError):
                    build_graph(ps)
                refused += 1
                continue
            g = build_graph(ps)
            mat = pairwise_disjoint_matrix(ps)
            assert [[g.adjacent(u, v) for v in range(g.n_vertices)]
                    for u in range(g.n_vertices)] == mat, coords
            built += 1
        assert built >= 250 and refused >= 50, (built, refused)

    def test_larger_box_sets_match_rational_oracle(self):
        # n = 10..16 in [0, 40]^2: the masks span up to 120 rank bits, and
        # about half the sets hold a collinear triple, which must be refused
        rng = random.Random(20171)
        built = refused = 0
        for trial in range(105):
            n = 10 + trial % 7
            coords = list({(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(n)})
            ps = PointSet(tuple(coords))
            if oracle_collinear(coords) is not None:
                with pytest.raises(ValueError, match="not in general position"):
                    build_graph(ps)
                refused += 1
                continue
            g = build_graph(ps)
            mat = pairwise_disjoint_matrix(ps)
            assert [[g.adjacent(u, v) for v in range(g.n_vertices)]
                    for u in range(g.n_vertices)] == mat, coords
            built += 1
        assert built >= 45 and refused >= 45, (built, refused)

    def test_sampled_sets_match_pin(self):
        # sha256 of the hex rows of sample_general_position(Random(s), n) for
        # n = 4..16 and s = 0..19, recorded from the n x n left-table build
        digest = hashlib.sha256()
        edges = 0
        for n in range(4, 17):
            for s in range(20):
                ps, _ = sample_general_position(random.Random(s), n)
                g = build_graph(ps)
                edges += g.edge_count
                digest.update((",".join(format(r, "x") for r in g.adj) + "\n").encode("ascii"))
        assert edges == 285099
        assert digest.hexdigest() == \
            "cb3e2f4dea75ba74cd1b49588edfd17e77c6018f1dd39e1a1963711a073f2cce"

    def test_refuses_exactly_the_collinear_sets(self):
        # half the sets get a planted collinear triple whose third point lies
        # beyond the segment of the other two, at a random position in the
        # list; the rest are small-box sets, some collinear by chance
        rng = random.Random(3141)
        refused = planted = 0
        for trial in range(600):
            n = 3 + trial % 7
            coords = set()
            if trial % 2:
                (ax, ay), (dx, dy) = (rng.randint(0, 6), rng.randint(0, 6)), (0, 0)
                while (dx, dy) == (0, 0):
                    dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
                t = rng.choice([-2, -1, 2, 3])
                coords = {(ax, ay), (ax + dx, ay + dy), (ax + t * dx, ay + t * dy)}
                planted += 1
            while len(coords) < n:
                coords.add((rng.randint(0, 40), rng.randint(0, 40)))
            coords = list(coords)
            rng.shuffle(coords)
            ps = PointSet(tuple(coords))
            if oracle_collinear(coords) is not None:
                with pytest.raises(ValueError, match="not in general position"):
                    build_graph(ps)
                refused += 1
            else:
                assert build_graph(ps).n_points == n
        assert planted == 300 and 300 <= refused <= 400, refused

    def test_graph_validation_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            DisjointnessGraph(3, (0b010, 0b000, 0b000))
        # the one bit sits below the diagonal, in row 5
        with pytest.raises(ValueError, match=re.escape("not symmetric at (0, 5)")):
            DisjointnessGraph(4, (0, 0, 0, 0, 0, 1))

    @settings(max_examples=200, deadline=None, database=None)
    @given(case=one_bit_flips())
    def test_graph_validation_refuses_any_one_bit_flip(self, case):
        g, u, w = case
        rows = list(g.adj)
        rows[u] ^= 1 << w
        pair = (min(u, w), max(u, w))
        with pytest.raises(ValueError, match=re.escape(f"not symmetric at {pair}")):
            DisjointnessGraph(g.n_points, tuple(rows))

    @pytest.mark.parametrize("rows, message", [
        ((0,), "expected 3 vertices for 3 points, got 1"),
        ((8, 0, 0), "adjacency row 0 has bits outside the vertex range"),
    ], ids=["row_count", "bit_above_range"])
    def test_graph_validation_rejects_bad_row_shape(self, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DisjointnessGraph(3, rows)

    def test_graph_check_peak_memory(self):
        # the symmetry check holds V^2 one-character cells, twice (76,176
        # each at (12, 12)), and nothing per edge
        g = build_graph(gen_double_chain(12, 12))
        tracemalloc.start()
        try:
            checked = DisjointnessGraph(g.n_points, g.adj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert checked.edge_count == 26532
        assert peak < 1_000_000, peak

    def test_graph_validation_rejects_self_loop(self):
        with pytest.raises(ValueError):
            DisjointnessGraph(3, (0b001, 0b000, 0b000))

    def test_rows_cannot_change_after_the_check(self):
        rows = [0] * 6
        g = DisjointnessGraph(4, rows)
        rows[0] = 1 << 5
        assert g.adj == (0,) * 6 and isinstance(g.adj, tuple)
        assert hash(g) == hash(DisjointnessGraph(4, (0,) * 6))

    @pytest.mark.parametrize("n_points", [True, -1, 4.0, "4", None])
    def test_rejects_bad_point_count(self, n_points):
        with pytest.raises(ValueError, match="n_points must be an integer >= 0"):
            DisjointnessGraph(n_points, ())

    @pytest.mark.parametrize("n_points, rows, message", [
        (2, (0.0,), "adjacency row 0 must be an integer >= 0, got 0.0"),
        (2, (None,), "adjacency row 0 must be an integer >= 0, got None"),
        (2, ("0",), "adjacency row 0 must be an integer >= 0, got '0'"),
        (3, (False,) * 3, "adjacency row 0 must be an integer >= 0, got False"),
        (3, (0, True, 0), "adjacency row 1 must be an integer >= 0, got True"),
        (3, (0, 0, -1), "adjacency row 2 must be an integer >= 0, got -1"),
    ])
    def test_rejects_rows_that_are_not_ints(self, n_points, rows, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DisjointnessGraph(n_points, rows)

    @pytest.mark.parametrize("n_points, edges, message", [
        # segments (0, 1) and (0, 2) share point 0, so they are never disjoint
        (3, [(0, 1)], "vertex 1, segment (0, 2), is adjacent to vertex 0, segment (0, 1)"),
        # the next three row sets each hold a triangle, above the clique
        # ceiling n_points // 2 = 2, so they must join segments that share an
        # endpoint
        (4, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (4, 5)],
         "vertex 1, segment (0, 2), is adjacent to vertex 0, segment (0, 1)"),
        # every joined pair of segments that share an endpoint shares the
        # smaller endpoint of the higher-ranked segment
        (4, [(0, 1), (0, 5), (1, 5), (2, 3), (3, 4), (3, 5)],
         "vertex 1, segment (0, 2), is adjacent to vertex 0, segment (0, 1)"),
        # every joined pair of segments that share an endpoint shares the
        # larger endpoint of the higher-ranked segment
        (5, [(0, 7), (1, 6), (2, 6), (2, 7), (2, 8), (3, 7), (5, 7), (6, 8)],
         "vertex 7, segment (2, 3), is adjacent to vertex 5, segment (1, 3)"),
    ])
    def test_graph_validation_rejects_shared_endpoint(self, n_points, edges, message):
        rows = [0] * (n_points * (n_points - 1) // 2)
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        with pytest.raises(ValueError, match=re.escape(message)):
            DisjointnessGraph(n_points, tuple(rows))


def is_hull_cycle(ps: PointSet, cycle: list[int]) -> bool:
    """Every point off each directed edge of the closed cycle lies strictly
    to its left. Each edge is then a hull edge, and a closed cycle of hull
    edges is the whole hull: the counterclockwise hull of ps has exactly
    these len(cycle) edges."""
    return all(turn(ps.points, a, b, p) > 0
               for a, b in zip(cycle, cycle[1:] + cycle[:1])
               for p in range(ps.n) if p not in (a, b))


def chain_ends_are_hull(k: int, l: int) -> bool:
    """Whether the ends of the cap, then those of the cup, counterclockwise,
    are the hull cycle of gen_double_chain(k, l): a quadrilateral, or a
    triangle when the cup has one point."""
    ps = gen_double_chain(k, l)
    up, low = (sorted(side, key=ps.points.__getitem__)
               for side in (ps.partition.upper, ps.partition.lower))
    return is_hull_cycle(ps, [low[0], low[-1], up[-1], up[0]][:3 if k == 1 else 4])


class TestConvexHullEdges:
    """The hulls of the generated sets, from the definition of a hull edge:
    a double chain's hull is the polygon on the ends of its two chains, and
    a convex set's hull holds every point."""

    def test_double_chain_22_has_four(self):
        assert chain_ends_are_hull(2, 2)

    def test_double_chain_23_has_four(self):
        assert chain_ends_are_hull(2, 3)

    def test_convex5_has_five(self):
        assert is_hull_cycle(gen_convex(5), [0, 1, 2, 3, 4])

    def test_double_chain_13_has_three(self):
        # single cup point: middle cap point is interior
        assert chain_ends_are_hull(1, 3)

    @pytest.mark.parametrize("k,l", [(k, l) for k in range(2, 7)
                                     for l in range(k, 13 - k)])
    def test_chains_with_two_plus_per_side_have_four(self, k, l):
        assert chain_ends_are_hull(k, l)

    def test_counterclockwise_traversal(self):
        ps = gen_convex(6)
        assert is_hull_cycle(ps, list(range(6)))
        assert not is_hull_cycle(ps, list(range(5, -1, -1)))


class TestHullEdgeNeighborhoods:
    @pytest.mark.parametrize("k,l", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)])
    def test_hull_edge_vertex_adjacent_to_exactly_the_avoiding_segments(self, k, l):
        # a chain hull edge crosses nothing, so its neighborhood in D is
        # precisely the segments meeting neither endpoint
        ps = gen_double_chain(k, l)
        g = build_graph(ps)
        segs = all_segments(ps.n)
        for side in (ps.partition.upper, ps.partition.lower):
            for e in chain_hull_edges(ps, side):
                u = segs.index(tuple(sorted(e)))
                for v, s in enumerate(segs):
                    if v == u:
                        continue
                    avoids = not (set(e) & set(s))
                    assert g.adjacent(u, v) == avoids, (e, s)


class TestExports:
    def test_dimacs_convex4(self):
        data = export_graph(build_graph(gen_convex(4)), "dimacs")
        assert data == b"p edge 6 2\ne 1 6\ne 3 4\n"

    def test_dimacs_two_points(self):
        g = build_graph(PointSet(((0, 0), (1, 2))))
        assert export_graph(g, "dimacs") == b"p edge 1 0\n"

    def test_dimacs_bytes_pinned(self):
        # sha256 of the DIMACS bytes as written by the per-edge f-string
        # export, for convex 2..24 and every (k, l) with k <= l <= 12
        pins = json.loads(Path(__file__).with_name("export_pins.json").read_text())
        assert len(pins) == 101
        for pin in pins:
            ps = gen_double_chain(pin["k"], pin["l"]) if "k" in pin else gen_convex(pin["n"])
            data = export_graph(build_graph(ps), "dimacs")
            assert (len(data), hashlib.sha256(data).hexdigest()) == (pin["bytes"], pin["sha256"]), pin

    def test_dimacs_export_peak_memory_is_linear_in_output(self):
        # one object per row, not per edge: the per-edge strings of a
        # line-list export peak above 9x the output on this graph
        g = build_graph(gen_double_chain(12, 12))
        tracemalloc.start()
        try:
            data = export_graph(g, "dimacs")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) == 244503
        assert peak < 3 * len(data), peak

    def test_json_roundtrip(self):
        # the JSON export parses back to the graph's point count, vertex
        # count and edge list, in g.edges() order
        sampled, _ = sample_general_position(random.Random(8), 8)
        for ps in (gen_double_chain(2, 3), gen_convex(5), sampled):
            g = build_graph(ps)
            data = json.loads(export_graph(g, "json"))
            assert data["n_points"] == g.n_points == ps.n
            assert data["vertices"] == g.n_vertices
            assert data["edges"] == [list(e) for e in g.edges()]

    def test_json_validates_against_points(self):
        # the exported edge list is exactly the pairs of segments that the
        # independent oracle finds disjoint on the points; one dropped edge
        # no longer matches
        ps = gen_convex(5)
        data = json.loads(export_graph(build_graph(ps), "json"))
        mat = pairwise_disjoint_matrix(ps)
        oracle_edges = [[u, v] for u in range(len(mat))
                        for v in range(u + 1, len(mat)) if mat[u][v]]
        assert data["vertices"] == len(mat)
        assert data["edges"] == oracle_edges
        assert data["edges"][1:] != oracle_edges

    def test_unknown_format_rejected(self):
        g = build_graph(gen_convex(4))
        # the format is matched exactly, as the CLI's choices pass it
        for fmt in ("graphml", "DIMACS", " json"):
            with pytest.raises(ValueError, match=f"unknown graph format {fmt!r}"):
                export_graph(g, fmt)
        with pytest.raises(ValueError, match="unknown graph format None"):
            export_graph(g, None)
