import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dchain import (
    Coloring,
    Partition,
    PointSet,
    all_segments,
    build_graph,
    coloring_from_json,
    coloring_to_json,
    construct_double_chain_coloring,
    chromatic_number_exact,
    dsatur_upper,
    f_of,
    gen_convex,
    gen_double_chain,
    load_coloring,
    pointset_to_json,
    sample_general_position,
    verify_coloring,
    verify_report_to_json,
)
from helpers import (oracle_apex, oracle_apices, oracle_classes, oracle_delete,
                     oracle_optimal_colorings, oracle_star_coloring, oracle_verify)


@st.composite
def colorings(draw):
    """A Coloring of up to 8 points: raw colors relabelled to 0..k-1 in
    order of first appearance."""
    n = draw(st.integers(0, 8))
    raw = draw(st.lists(st.integers(0, 5), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    relabel = {col: new for new, col in enumerate(dict.fromkeys(raw))}
    return Coloring(n, [relabel[col] for col in raw])


def _exact_witness(cap):
    """An optimal coloring of the cap, from the exact solver."""
    result = chromatic_number_exact(build_graph(cap))
    assert result.is_exact
    return result.witness


def one_row(row):
    """coloring_from_json on 4 points, with `row` as the only colors row."""
    return coloring_from_json({"n_points": 4, "colors": [row]})


def flat_coloring(n_points, pairs_to_colors):
    """Coloring from a {(i, j): color} dict in any key order, read the way
    coloring JSON is; colors must already be contiguous."""
    rows = [[i, j, col] for (i, j), col in pairs_to_colors.items()]
    return coloring_from_json({"n_points": n_points, "colors": rows})


class TestColoringType:
    def test_rejects_partial_assignment(self):
        with pytest.raises(ValueError, match="expected 6 vertex colors, got 1"):
            Coloring(4, (0,))

    @pytest.mark.parametrize("n_points", [-1, True, 3.0, "3", None])
    def test_rejects_bad_point_count(self, n_points):
        with pytest.raises(ValueError, match="n_points must be an integer >= 0"):
            Coloring(n_points, ())

    def test_all_segments_is_shared(self):
        for n in range(12):
            assert len(all_segments(n)) == n * (n - 1) // 2

    def test_rejects_noncontiguous_colors(self):
        with pytest.raises(ValueError):
            Coloring(3, [0, 2, 4])

    def test_rejects_wrong_color_count(self):
        # the count is worked out from the colors, never passed in
        with pytest.raises(TypeError):
            Coloring(3, [0, 0, 0], 2)
        assert Coloring(3, [0, 0, 0]).color_count == 1

    def test_normalizes_reversed_pairs(self):
        c = flat_coloring(3, {(1, 0): 0, (2, 0): 1, (2, 1): 2})
        assert c.colors == (0, 1, 2)
        assert oracle_classes(c)[0] == {(0, 1)}

    def test_vertex_colors_roundtrip(self):
        colors = [0, 1, 2, 0, 1, 2]
        c = Coloring(4, colors)
        assert c.colors == tuple(colors)
        assert c.color_count == 3
        colors[0] = 5  # the caller's list is copied, not kept
        assert c.colors == (0, 1, 2, 0, 1, 2)

    def test_hash_and_equality_follow_points_and_colors(self):
        cases = [(4, (0, 1, 2, 0, 1, 2)), (4, (0, 1, 2, 0, 1, 2)), (4, (0, 1, 2, 0, 2, 1)),
                 (4, (0,) * 6), (3, (0, 1, 2)), (2, (0,))]
        for n, colors in cases:
            c = Coloring(n, list(colors))
            assert hash(c) == hash(Coloring(n, colors))
            for m, other in cases:
                assert (c == Coloring(m, other)) == ((n, colors) == (m, other))
        assert len({Coloring(n, colors) for n, colors in cases}) == 5

    def test_vertex_colors_in_rank_order_for_any_key_order(self):
        rng = random.Random(7)
        for n in range(2, 9):
            segs = all_segments(n)
            colors = [rng.randrange(3) for _ in segs]
            colors = [sorted(set(colors)).index(col) for col in colors]
            rows = [[j, i, col] if rng.random() < 0.5 else [i, j, col]
                    for (i, j), col in zip(segs, colors)]
            rng.shuffle(rows)
            c = coloring_from_json({"n_points": n, "colors": rows})
            assert c.colors == tuple(colors)
            assert c == Coloring(n, colors)

    @pytest.mark.parametrize("colors, message", [
        ([0, 1, 2, 0, 1, -1], "color must be an integer >= 0, got -1"),
        ([0, True, 0, True, 0, True], "color must be an integer >= 0, got True"),
        ([0, 1.0, 0, 1, 0, 1], "color must be an integer >= 0, got 1.0"),
        ([0, 2, 0, 2, 0, 2], "exactly 0"),
        ([0, 1, 2, 0, 1], "expected 6 vertex colors"),
        ([0, 1, 2, 0, 1, 2, 0], "expected 6 vertex colors"),
        ([0, "1", 0, 1, 0, 1], "color must be an integer >= 0, got '1'"),
        ([0, None, 0, 1, 0, 1], "color must be an integer >= 0, got None"),
    ])
    def test_from_vertex_colors_rejects_bad_colors(self, colors, message):
        # one color per vertex, as every producer passes them to the constructor
        with pytest.raises(ValueError, match=message):
            Coloring(4, colors)

    def test_classes_partition_segments(self):
        c = Coloring(4, [0, 1, 2, 0, 1, 2])
        classes = oracle_classes(c)
        assert sorted(classes) == [0, 1, 2]
        assert sum(len(s) for s in classes.values()) == 6
        # colors[r] belongs to the rank-r segment
        assert classes == {col: frozenset(all_segments(4)[col::3]) for col in range(3)}


class TestVerifyColoring:
    def test_star_plus_cap_coloring_is_proper(self):
        # the two-color pattern: all cap segments one color, cup star the other
        ps = gen_double_chain(1, 3)
        g = build_graph(ps)
        c = flat_coloring(4, {(0, 1): 1, (0, 2): 1, (0, 3): 1,
                              (1, 2): 0, (1, 3): 0, (2, 3): 0})
        report = verify_coloring(g, c)
        assert report.proper and report.violations == ()

    def test_disjoint_pair_same_color_reported(self):
        ps = gen_double_chain(1, 3)
        g = build_graph(ps)
        c = flat_coloring(4, {(0, 2): 0, (1, 3): 0,
                              (0, 1): 1, (0, 3): 2, (1, 2): 3, (2, 3): 4})
        report = verify_coloring(g, c)
        assert not report.proper
        assert (1, 4) in report.violations  # ranks of (0,2) and (1,3)

    def test_all_distinct_colors_proper(self):
        g = build_graph(gen_convex(5))
        c = Coloring(5, list(range(10)))
        assert verify_coloring(g, c).proper

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_edge_scan_oracle(self, n):
        rng = random.Random(n)
        graphs = [build_graph(gen_convex(n))]
        if n >= 3:
            graphs.append(build_graph(sample_general_position(rng, n, box=50)[0]))
        improper = 0
        for g in graphs:
            v = g.n_vertices
            colorings = [chromatic_number_exact(g).witness.colors]
            for _ in range(40):
                # few colors for most draws, so most colorings are improper
                t = rng.choice((1, 2, 3, max(1, v // 2), v))
                raw = [rng.randrange(t) for _ in range(v)]
                relabel = {c: new for new, c in enumerate(dict.fromkeys(raw))}
                colorings.append([relabel[c] for c in raw])
            for vc in colorings:
                report = verify_coloring(g, Coloring(n, vc))
                assert (report.proper, report.violations) == oracle_verify(g, vc), vc
                improper += not report.proper
        if n >= 4:
            assert improper > len(graphs) * 41 // 2

    def test_rejects_mismatched_point_count(self):
        g = build_graph(gen_convex(4))
        c = Coloring(5, [0] * 10)
        with pytest.raises(ValueError, match="^coloring covers 5 points but the graph has 4$"):
            verify_coloring(g, c)


class TestClassify:
    def test_common_endpoint_star(self):
        assert oracle_apex([(0, 1), (0, 2), (0, 4)]) == 0

    def test_triangle_is_thrackle(self):
        assert oracle_apex([(0, 1), (1, 2), (0, 2)]) is None

    def test_singleton_reports_smaller_endpoint(self):
        assert oracle_apex([(1, 3)]) == 1


class TestConstruction:
    @pytest.mark.parametrize("l", range(3, 15))
    def test_matches_star_oracle(self, l):
        # past coloring_pins.json, which stops at l = 10
        for k in range(1, l + 1):
            c = construct_double_chain_coloring(k, l)
            ps = gen_double_chain(k, l)
            assert list(c.colors) == oracle_star_coloring(ps, _exact_witness)
            assert c.color_count == k + f_of(l)
            assert verify_coloring(build_graph(ps), c).proper

    @pytest.mark.parametrize("l", range(3, 15))
    def test_matches_star_oracle_with_greedy_provider(self, l):
        def greedy(cap):
            return dsatur_upper(build_graph(cap))

        for k in range(1, l + 1):
            c = construct_double_chain_coloring(k, l, greedy)
            assert list(c.colors) == oracle_star_coloring(gen_double_chain(k, l), greedy)

    def test_class_structure(self):
        # cup-incident classes are stars at cup points; the rest stay inside the cap
        k, l = 3, 4
        ps = gen_double_chain(k, l)
        c = construct_double_chain_coloring(k, l)
        apices = oracle_apices(c)
        upper = set(ps.partition.upper)
        for color, segs in oracle_classes(c).items():
            touches_cup = any(i in upper or j in upper for i, j in segs)
            if touches_cup:
                assert apices[color] in upper
            else:
                assert all(i not in upper and j not in upper for i, j in segs)

    def test_suboptimal_provider_still_proper(self):
        k, l = 2, 4
        provider_counts = []

        def greedy_provider(cap):
            coloring = dsatur_upper(build_graph(cap))
            provider_counts.append(coloring.color_count)
            return coloring

        c = construct_double_chain_coloring(k, l, greedy_provider)
        g = build_graph(gen_double_chain(k, l))
        assert verify_coloring(g, c).proper
        assert c.color_count == provider_counts[0] + k

    def test_rejects_provider_without_a_coloring(self):
        with pytest.raises(ValueError, match="^provider must return a coloring of the cap"):
            construct_double_chain_coloring(2, 4, lambda cap: dsatur_upper(build_graph(cap)).colors)

    def test_rejects_improper_provider(self):
        def bad_provider(cap):
            # one color for everything is improper once the cap has a disjoint pair
            return Coloring(cap.n, [0] * len(all_segments(cap.n)))

        with pytest.raises(ValueError, match="not proper"):
            construct_double_chain_coloring(2, 4, bad_provider)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            construct_double_chain_coloring(3, 2)
        with pytest.raises(ValueError):
            construct_double_chain_coloring(1, 2)
        for k, l, name in ((True, 3, "k"), (1, 3.0, "l"), (0, 3, "k"), (1.0, 3, "k"),
                           ("1", 3, "k"), (None, 3, "k"), (1, True, "l"), (1, "3", "l"),
                           (1, None, "l"), (3, 2, "l"), (4, 3, "l")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                construct_double_chain_coloring(k, l)


class TestValidators:
    # each index argument refuses True, 1.0, "1", None and an out-of-range
    # int. A segment's endpoints are checked only as a coloring JSON row,
    # whose ints are all checked before the endpoint range
    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: one_row([-1, 2, 0]),
                     r"coloring JSON colors\[0\]\[0\] must be an integer >= 0, got -1",
                     id="segment_negative"),
        pytest.param(lambda: one_row([True, 2, 0]),
                     r"coloring JSON colors\[0\]\[0\] must be an integer >= 0, got True",
                     id="segment_bool"),
        pytest.param(lambda: one_row([0, 2.0, 0]),
                     r"coloring JSON colors\[0\]\[1\] must be an integer >= 0, got 2\.0",
                     id="segment_float"),
        pytest.param(lambda: one_row(["1", 2, 0]),
                     r"coloring JSON colors\[0\]\[0\] must be an integer >= 0, got '1'",
                     id="segment_str"),
        pytest.param(lambda: one_row([0, None, 0]),
                     r"coloring JSON colors\[0\]\[1\] must be an integer >= 0, got None",
                     id="segment_none"),
        pytest.param(lambda: one_row([0, 4, 0]),
                     r"coloring JSON colors\[0\] endpoint must be an integer in 0\.\.3, got 4",
                     id="segment_out_of_range"),
        pytest.param(lambda: PointSet(gen_convex(3).points, Partition((0, -1), (2,))),
                     "partition index must be an integer >= 0, got -1", id="partition_negative"),
        pytest.param(lambda: PointSet(gen_convex(3).points, Partition((0, False), (2,))),
                     "partition index must be an integer >= 0, got False", id="partition_bool"),
        pytest.param(lambda: PointSet(gen_convex(3).points, Partition((0, 1.0), (2,))),
                     r"partition index must be an integer >= 0, got 1\.0", id="partition_float"),
        pytest.param(lambda: PointSet(gen_convex(3).points, Partition((0, "1"), (2,))),
                     "partition index must be an integer >= 0, got '1'", id="partition_str"),
        pytest.param(lambda: PointSet(gen_convex(3).points, Partition((0, None), (2,))),
                     "partition index must be an integer >= 0, got None", id="partition_none"),
    ])
    def test_index_arguments_checked_alike(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


class TestRemoveStarApices:
    def test_empty_removal_is_identity(self):
        ps = gen_double_chain(1, 3)
        c = construct_double_chain_coloring(1, 3)
        assert oracle_delete(ps, [], c) == (ps, c)

    def test_removing_cup_stars_leaves_cap_coloring(self):
        k, l = 2, 4
        ps = gen_double_chain(k, l)
        c = construct_double_chain_coloring(k, l)
        new_ps, new_c = oracle_delete(ps, ps.partition.upper, c)
        assert new_ps.n == l
        assert new_c.color_count == c.color_count - k
        assert verify_coloring(build_graph(new_ps), new_c).proper

class TestColoringJson:
    def test_roundtrip(self, tmp_path):
        c = construct_double_chain_coloring(2, 4)
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps(coloring_to_json(c)), encoding="utf-8")
        assert load_coloring(path) == c

    @settings(max_examples=200, deadline=None, database=None)
    @given(c=colorings())
    def test_json_roundtrip_any_coloring(self, c):
        assert coloring_from_json(coloring_to_json(c)) == c

    def test_rank_sorted_rows(self):
        c = construct_double_chain_coloring(1, 3)
        data = coloring_to_json(c)
        pairs = [(i, j) for i, j, _ in data["colors"]]
        assert pairs == sorted(pairs)
        assert coloring_from_json(data) == c

    @pytest.mark.parametrize("rows, message", [
        ([[1, 0, 0], [0, 4, 1], [0, 2, 2]],
         r"coloring JSON colors\[1\] endpoint must be an integer in 0\.\.2, got 4"),
        ([[1, 0, 0], [2, 0, 1], [0, 1, 2]], r"^segment \(0, 1\) assigned twice$"),
        ([[2, 1, 0], [0, 1, 1]], r"coloring of 3 points misses segment \(0, 2\)"),
        ([[2, 1, 0], [0, 1, 1], [2, 0, 2], [1, 1, 0]], r"degenerate segment \(1, 1\)"),
        ([[1, 0, 0], [2, 0, -1], [2, 1, 1]],
         r"coloring JSON colors\[1\]\[2\] must be an integer >= 0, got -1"),
        ([[1, 0, 0], [2, 0, 2], [2, 1, 0]], r"exactly 0\.\.1"),
    ], ids=["out_of_range", "duplicate", "missing", "degenerate", "negative_color", "color_gap"])
    def test_json_names_bad_segments(self, rows, message):
        with pytest.raises(ValueError, match=message):
            coloring_from_json({"n_points": 3, "colors": rows})

    def test_verdict_json(self):
        g = build_graph(gen_convex(4))
        report = verify_coloring(g, Coloring(4, list(range(6))))
        assert verify_report_to_json(report) == {"proper": True, "violations": []}


def _sha(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class TestColoringPins:
    """sha256 of coloring outputs, recorded from the earlier `Coloring` that
    normalized any mapping it was given."""

    PINS = json.loads(Path(__file__).with_name("coloring_pins.json").read_text())

    def test_constructive_colorings(self):
        got = {f"{k},{l}": _sha(json.dumps(coloring_to_json(construct_double_chain_coloring(k, l))))
               for k in range(1, 11) for l in range(max(k, 3), 11)}
        assert got == self.PINS["construct"]

    def test_apex_removal(self):
        # the cases and apex choice of the acceptance suite's criterion 6
        cases = [(f"convex {n}", gen_convex(n)) for n in range(4, 9)]
        cases += [(f"chain {k},{l}", gen_double_chain(k, l)) for k, l in
                  [(1, 3), (2, 2), (1, 4), (2, 3), (1, 5), (2, 4), (3, 3),
                   (1, 6), (2, 5), (3, 4), (1, 7), (2, 6), (3, 5), (4, 4)]]
        got = {}
        for label, ps in cases:
            witness = chromatic_number_exact(build_graph(ps)).witness
            apices = []
            for apex in oracle_apices(witness).values():
                if apex is not None and apex not in apices:
                    apices.append(apex)
            new_ps, induced = oracle_delete(ps, apices, witness)
            got[label] = _sha(json.dumps([apices, pointset_to_json(new_ps),
                                          coloring_to_json(induced)]))
        assert got == self.PINS["apex_removal"]

    def test_enumerator_stream(self):
        pin = self.PINS["enumerator"]
        g = build_graph(gen_double_chain(*pin["chain"]))
        text = "".join("".join(map(str, c)) + "\n"
                       for c in oracle_optimal_colorings(g, pin["colors"]))
        assert text.count("\n") == pin["count"] == 64727
        assert _sha(text) == pin["sha256"]
