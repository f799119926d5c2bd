import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dchain import (build_graph, clique_lower, coloring_to_json, double_chain_chi, dsatur_upper,
                    f_of, gen_double_chain, save_points)
from dchain.cli import main


# the points files that test_golden_outputs reads, as `dchain gen` arguments
GEN_ARGS = {"c46.json": ["--k", "4", "--l", "6"], "convex40.json": ["--n", "40"]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_convex_to_stdout(self, capsys):
        code, out, err = run(capsys, "gen", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 4 and data["partition"] is None

    def test_double_chain_to_file(self, tmp_path, capsys):
        target = tmp_path / "pts.json"
        code, _, err = run(capsys, "gen", "--k", "2", "--l", "3", "--out", str(target))
        assert code == 0
        data = json.loads(target.read_text())
        assert data["partition"] == {"U": [0, 1], "L": [2, 3, 4]}

    def test_needs_arguments(self, capsys):
        code, _, _ = run(capsys, "gen")
        assert code == 2

    def test_rejects_mixed_arguments(self, capsys):
        code, _, _ = run(capsys, "gen", "--n", "4", "--k", "1")
        assert code == 2

    def test_rejects_bad_sizes(self, capsys):
        code, _, err = run(capsys, "gen", "--k", "5", "--l", "3")
        assert code == 2
        assert "error" in err


class TestGraph:
    def test_dimacs_stdout(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        run(capsys, "gen", "--n", "4", "--out", str(pts))
        code, out, _ = run(capsys, "graph", "--points", str(pts))
        assert code == 0
        assert out == "p edge 6 2\ne 1 6\ne 3 4\n"

    def test_json_format(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        run(capsys, "gen", "--k", "1", "--l", "3", "--out", str(pts))
        code, out, _ = run(capsys, "graph", "--points", str(pts), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["vertices"] == 6 and data["edges"] == [[0, 5], [1, 4], [2, 3]]

    def test_dimacs_to_file(self, tmp_path, capsys):
        pts, target = tmp_path / "pts.json", tmp_path / "graph.dimacs"
        run(capsys, "gen", "--n", "4", "--out", str(pts))
        code, out, _ = run(capsys, "graph", "--points", str(pts), "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == b"p edge 6 2\ne 1 6\ne 3 4\n"


class TestFormulas:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "formulas", "--n", "6")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["n"] for r in rows] == ["1", "2", "3", "4", "5", "6"]
        assert [r["f"] for r in rows] == ["0", "1", "1", "2", "3", "3"]
        assert [r["g"] for r in rows] == ["2", "2", "3", "3", "3", "4"]


class TestChiAndVerify:
    def test_pipeline_roundtrip(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        chi_out = tmp_path / "chi.json"
        col = tmp_path / "col.json"
        run(capsys, "gen", "--k", "1", "--l", "3", "--out", str(pts))
        code, _, err = run(capsys, "chi", "--points", str(pts), "--out", str(chi_out))
        assert code == 0
        result = json.loads(chi_out.read_text())
        assert result["chi"] == 2
        col.write_text(json.dumps(result["witness"]))
        code, out, _ = run(capsys, "verify", "--points", str(pts), "--coloring", str(col))
        assert code == 0
        assert json.loads(out)["proper"] is True

    def test_verify_flags_violation(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        run(capsys, "gen", "--k", "1", "--l", "3", "--out", str(pts))
        bad = {"n_points": 4, "colors": [[0, 1, 1], [0, 2, 0], [0, 3, 2],
                                         [1, 2, 3], [1, 3, 0], [2, 3, 4]]}
        col = tmp_path / "bad.json"
        col.write_text(json.dumps(bad))
        code, out, err = run(capsys, "verify", "--points", str(pts), "--coloring", str(col))
        assert code == 1
        verdict = json.loads(out)
        assert verdict["proper"] is False
        assert [1, 4] in verdict["violations"]

    def test_identical_runs_reproduce_identical_outputs(self, tmp_path, capsys):
        # an exact solve, and a budgeted one that stops on entering node 256
        for (k, l), budget, code, nodes in [((2, 4), [], 0, 9),
                                            ((6, 7), ["--max-nodes", "255"], 3, 256)]:
            pts = tmp_path / f"c{k}{l}.json"
            run(capsys, "gen", "--k", str(k), "--l", str(l), "--out", str(pts))
            first = run(capsys, "chi", "--points", str(pts), *budget)
            second = run(capsys, "chi", "--points", str(pts), *budget)
            a, b = json.loads(first[1]), json.loads(second[1])
            a.pop("ms"), b.pop("ms")  # wall time is the one non-reproducible field
            assert first[0] == second[0] == code
            assert a["nodes"] == nodes
            assert a == b

    def test_chi_budget_exhaustion_exits_3(self, tmp_path, capsys):
        # a one-node budget stops the search at its root: the witness is
        # dsatur_upper's coloring, and the bounds are clique_lower's size and
        # that coloring's color count
        for k, l in ((4, 5), (6, 7)):
            pts = tmp_path / "pts.json"
            save_points(gen_double_chain(k, l), pts)
            code, out, _ = run(capsys, "chi", "--points", str(pts), "--max-nodes", "1")
            assert code == 3
            data = json.loads(out)
            assert data["status"] == "indeterminate" and data["chi"] is None
            assert data["lower_bound"] <= data["upper_bound"]
            g = build_graph(gen_double_chain(k, l))
            greedy = dsatur_upper(g)
            assert data["witness"] == coloring_to_json(greedy)
            assert (data["lower_bound"], data["upper_bound"]) == (clique_lower(g)[0], greedy.color_count)

    @pytest.mark.parametrize("k, l, budget, code, fields, digest", [
        (4, 6, [], 0, ("exact", 7, 7, 7, 375),
         "df57b9f6de23838f640c5bfad7b4a1b135f383279712a96e19e8cf315a8d1ed5"),
        # stops on entering node 256 with the incumbent's bound, below the
        # greedy one of the one-node budget
        (6, 7, ["--max-nodes", "255"], 3, ("indeterminate", None, 6, 10, 256),
         "2cb1a02b8142a5f9cb934c7d4bec0d2421b6052490f3b61e49bc3875730d8ae9"),
        (6, 7, ["--max-nodes", "1"], 3, ("indeterminate", None, 6, 11, 2),
         "bb2cb4a99704dba6abac17a22bd049ff12863a6b0b50867de361eb0518c1a2f1"),
        # chi = k + f(l) = 7 + 4 on the largest chain pinned
        (7, 7, [], 0, ("exact", 11, 11, 11, 6416), None),
    ], ids=["4-6", "6-7-budget-255", "6-7-budget-1", "7-7"])
    def test_chi_pins(self, tmp_path, capsys, k, l, budget, code, fields, digest):
        # every field but ms, and the sha256 of the witness's JSON line
        pts = tmp_path / "pts.json"
        save_points(gen_double_chain(k, l), pts)
        got, out, _ = run(capsys, "chi", "--points", str(pts), *budget)
        data = json.loads(out)
        assert got == code
        assert list(data) == ["status", "chi", "lower_bound", "upper_bound", "witness", "nodes", "ms"]
        witness = data.pop("witness")
        del data["ms"]
        assert tuple(data.values()) == fields
        if digest:
            assert hashlib.sha256((json.dumps(witness) + "\n").encode()).hexdigest() == digest

    def test_chi_json_has_one_shape(self, tmp_path, capsys):
        # exact and indeterminate solves write the same keys in the same order
        pts = tmp_path / "pts.json"
        save_points(gen_double_chain(4, 5), pts)
        keys = ["status", "chi", "lower_bound", "upper_bound", "witness", "nodes", "ms"]
        code, out, _ = run(capsys, "chi", "--points", str(pts))
        data = json.loads(out)
        assert code == 0 and list(data) == keys
        assert (data["status"], data["chi"]) == ("exact", 7)
        assert data["lower_bound"] == data["upper_bound"] == 7
        code, out, _ = run(capsys, "chi", "--points", str(pts), "--max-nodes", "1")
        assert code == 3 and list(json.loads(out)) == keys

    def test_invalid_budget_is_usage_error(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        save_points(gen_double_chain(2, 3), pts)
        for budget in ("0", "-5"):
            code, out, err = run(capsys, "chi", "--points", str(pts), "--max-nodes", budget)
            assert code == 2, budget
            assert out == "" and "max_nodes must be an integer >= 1" in err
        # not an int: argparse refuses it
        code, out, err = run(capsys, "chi", "--points", str(pts), "--max-nodes", "1.5")
        assert code == 2
        assert out == "" and "invalid int value: '1.5'" in err

    def test_non_integer_coordinate_is_usage_error(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        col = tmp_path / "col.json"
        run(capsys, "gen", "--n", "4", "--out", str(pts))
        run(capsys, "color", "--k", "1", "--l", "3", "--out", str(col))
        data = json.loads(pts.read_text())
        data["points"][1][0] = 1.5
        pts.write_text(json.dumps(data))
        for argv in (["chi", "--points", str(pts)], ["graph", "--points", str(pts)],
                     ["verify", "--points", str(pts), "--coloring", str(col)]):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: ") and "1.5" in err

    def test_deeply_nested_json_is_usage_error(self, tmp_path, capsys):
        # the decoder gives up with RecursionError, which must not read as exit 1
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        pts = tmp_path / "pts.json"
        run(capsys, "gen", "--n", "4", "--out", str(pts))
        for argv in (["chi", "--points", str(deep)], ["graph", "--points", str(deep)],
                     ["verify", "--points", str(pts), "--coloring", str(deep)]):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: ") and "recursion" in err


class TestColor:
    def test_construct_and_verify(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        col = tmp_path / "col.json"
        for k, l, colors in (("2", "4", 4), ("4", "6", 7)):
            run(capsys, "gen", "--k", k, "--l", l, "--out", str(pts))
            code, _, err = run(capsys, "color", "--k", k, "--l", l, "--out", str(col))
            assert code == 0
            assert f"{colors} colors" in err
            code, out, _ = run(capsys, "verify", "--points", str(pts), "--coloring", str(col))
            assert code == 0
            assert json.loads(out)["proper"] is True


class TestSweep:
    def test_matching_grid(self, capsys):
        code, out, err = run(capsys, "sweep", "--max-sum", "7")
        assert code == 0
        assert out.splitlines()[0] == "k,l,chi,expected,match"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        assert all(r["match"] == "true" for r in rows)

    def test_double_chain_mismatch_exits_1(self, capsys, monkeypatch):
        import dchain.experiments

        monkeypatch.setattr(dchain.experiments, "double_chain_chi",
                            lambda k, l: double_chain_chi(k, l) + ((k, l) == (2, 4)))
        code, out, err = run(capsys, "sweep", "--max-sum", "7")
        assert code == 1
        assert out.splitlines()[0] == "k,l,chi,expected,match"
        assert [line for line in out.splitlines() if line.endswith("false")] == ["2,4,4,5,false"]
        assert err == "1 grid points disagree with the prediction, first at (k=2, l=4)\n"

    def test_convex_mismatch_exits_1(self, capsys, monkeypatch):
        import dchain.experiments

        monkeypatch.setattr(dchain.experiments, "f_of", lambda n: f_of(n) + (n == 6))
        code, out, err = run(capsys, "sweep", "--convex", "--max-sum", "7")
        assert code == 1
        assert out.splitlines() == ["n,chi,expected,match", "4,2,2,true", "5,3,3,true",
                                    "6,3,4,false", "7,4,4,true"]
        assert err == "1 grid points disagree with the prediction, first at (n=6)\n"

    @pytest.mark.parametrize("max_sum", ["3", "0"])
    def test_convex_rejects_small_max_sum(self, capsys, max_sum):
        code, out, err = run(capsys, "sweep", "--convex", "--max-sum", max_sum)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv, code, digest", [
        # the sweeps' pins were recorded before the frame rewrite of the exact
        # search (double chain) and from the convex sweep script that --convex
        # replaced: any change to chi or to the CSV shows here. --max-sum 17
        # (69 points) and --convex 19 are the widest grids pinned. The CSVs
        # hold no node counts, so a change of the search's pick rule keeps
        # their bytes: --max-sum 17 gave the same sha256 with unscored ties
        pytest.param(["sweep", "--max-sum", "9"], 0,
                     "55f12dc4043182183c62bbc5796f16645683bc068eb0a20efb1e6ff0e7bef12c", id="sweep-9"),
        pytest.param(["sweep", "--max-sum", "11"], 0,
                     "90b21c0432f3d24173728b114ead1db20204f12a0cdbd9a8ea928e711fa0562f", id="sweep-11"),
        pytest.param(["sweep", "--max-sum", "15"], 0,
                     "a9c91e32b9cfc7d8a1d8221b4daff1bfa78efcbbf920854739fac1728c9e1731", id="sweep-15"),
        pytest.param(["sweep", "--max-sum", "17"], 0,
                     "ed6bf447833292afcb34139ab77aa91fbf378cb6d279c2713474afdb2e36ebb4", id="sweep-17"),
        pytest.param(["sweep", "--convex", "--max-sum", "10"], 0,
                     "858c815b19c2b88fea812d3387dc2516bd240407d411174216374ee4f796cfe8", id="convex-10"),
        pytest.param(["sweep", "--convex", "--max-sum", "13"], 0,
                     "47a710cc706c132d5b6ba5651264142758489770ada5e57ceb06a653ff817cbb", id="convex-13"),
        pytest.param(["sweep", "--convex", "--max-sum", "16"], 0,
                     "8997e2587d841d31eca63a3a8de5f045499dafe9b763fad39000e19c7092c454", id="convex-16"),
        pytest.param(["sweep", "--convex", "--max-sum", "19"], 0,
                     "269bd50af3d8e10fca39957e2bee485ea13b710cce5ac801c5038ad018c3aa77", id="convex-19"),
        # the generators, the constructive coloring (the (12, 12) one is the
        # largest that certify_large builds) and the formula table
        pytest.param(["gen", "--k", "40", "--l", "40"], 0,
                     "8380d0cc79dafd7204f03fdfb95c161dc041f60f950644305a1b0a7e41aff200", id="gen-40-40"),
        pytest.param(["gen", "--n", "40"], 0,
                     "489cbc28fc0b1ebb3321565cf41aa576e453fac641117d51553655a79ca6edf1", id="gen-40"),
        pytest.param(["color", "--k", "4", "--l", "6", "--out", "col.json"], 0,
                     "0a7eafaa3b316567c3173b27177d677e52838c375981615b5f9e35c4faff94de", id="color-4-6"),
        pytest.param(["color", "--k", "12", "--l", "12", "--out", "col.json"], 0,
                     "fef35f14da61cd29e24b15ea1d37513331b235a1d5353d7fdb34f04049b7123b", id="color-12-12"),
        pytest.param(["formulas", "--n", "1000"], 0,
                     "7c90bc12a71ff22ef3f2737243086a174c0e7d0b55ab1c1771b2f5f13a177742", id="formulas-1000"),
        # the randomized scan's report; n = 8 draws 500 sets
        pytest.param(["conjecture", "--n", "6", "--trials", "20", "--seed", "1", "--out", "scan.json"],
                     0, "bcbee46d000688c7dc57563f99f2020c90640677a0f772835513402875aa877a",
                     id="conjecture-6"),
        pytest.param(["conjecture", "--n", "8", "--trials", "500", "--seed", "0", "--out", "scan.json"],
                     0, "eabe4e2950b547d1564a0d650516c544f048b0934254349920d9fd0bc95bf61a",
                     id="conjecture-8"),
        # the graph export past every workload's size (780 vertices, 182,780
        # edges) and the JSON export; tests/export_pins.json pins the chains'
        # DIMACS bytes
        pytest.param(["graph", "--points", "convex40.json", "--format", "dimacs", "--out", "g.txt"],
                     0, "5c0f1dec23081d92152dc81d74d3132f57bab67d3b9457a1852bd638876d22bc",
                     id="graph-40-dimacs"),
        pytest.param(["graph", "--points", "c46.json", "--format", "json", "--out", "g.txt"],
                     0, "927c6caf6aaa1cc413eddc94a113bd2cd94de70c16b6fa1a2362a838908dbce9",
                     id="graph-4-6-json"),
    ])
    def test_golden_outputs(self, tmp_path, capsys, monkeypatch, argv, code, digest):
        # sha256 of the --out file, or of stdout where there is none; a
        # points file that argv names is written by `dchain gen` first
        monkeypatch.chdir(tmp_path)
        for name, size in GEN_ARGS.items():
            if name in argv:
                assert run(capsys, "gen", *size, "--out", name)[0] == 0
        got, out, _ = run(capsys, *argv)
        data = Path(argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv else out.encode()
        assert got == code
        assert hashlib.sha256(data).hexdigest() == digest


class TestMalformedJson:
    """A points or coloring file with a missing or ill-typed field exits 2
    with an error that names the field."""

    POINTS = {"n": 4, "points": [[0, 0], [4, 1], [3, 5], [-1, 3]], "partition": None}
    COLORING = {"n_points": 4, "colors": [[0, 1, 0], [0, 2, 1], [0, 3, 2],
                                          [1, 2, 3], [1, 3, 4], [2, 3, 5]]}

    def check(self, tmp_path, capsys, points, coloring, message):
        pts = tmp_path / "pts.json"
        col = tmp_path / "col.json"
        pts.write_text(json.dumps(points))
        col.write_text(json.dumps(coloring))
        argvs = [["verify", "--points", str(pts), "--coloring", str(col)]]
        if points is not self.POINTS:  # a malformed points file fails chi and graph too
            argvs += [["chi", "--points", str(pts)], ["graph", "--points", str(pts)]]
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err == f"error: {message}\n", argv

    def test_well_formed_files_pass(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        col = tmp_path / "col.json"
        pts.write_text(json.dumps(self.POINTS))
        col.write_text(json.dumps(self.COLORING))
        code, _, _ = run(capsys, "verify", "--points", str(pts), "--coloring", str(col))
        assert code == 0

    def test_points_field_missing(self, tmp_path, capsys):
        self.check(tmp_path, capsys, {"n": 3}, self.COLORING,
                   "points JSON has no 'points' field")

    def test_points_not_an_object(self, tmp_path, capsys):
        self.check(tmp_path, capsys, [[0, 0], [1, 2]], self.COLORING,
                   "points JSON must be an object, got [[0, 0], [1, 2]]")

    def test_point_not_a_pair(self, tmp_path, capsys):
        points = dict(self.POINTS, points=[[0, 0], [4, 1, 7], [3, 5], [-1, 3]])
        self.check(tmp_path, capsys, points, self.COLORING,
                   "points JSON points[1] must be a list of 2 ints, got [4, 1, 7]")
        # coordinates are any ints, so there is no out-of-range case
        for bad in (True, 1.0, 1.5, "1", None):
            points = dict(self.POINTS, points=[[0, 0], [4, bad], [3, 5], [-1, 3]])
            self.check(tmp_path, capsys, points, self.COLORING,
                       f"points JSON points[1][1] must be an integer, got {bad!r}")

    def test_point_count_missing_or_ill_typed(self, tmp_path, capsys):
        points = {"points": self.POINTS["points"]}
        self.check(tmp_path, capsys, points, self.COLORING, "points JSON has no 'n' field")
        for bad in ("4", True, 4.0, None, -4):
            points = dict(self.POINTS, n=bad)
            self.check(tmp_path, capsys, points, self.COLORING,
                       f"points JSON field 'n' must be an integer >= 0, got {bad!r}")

    def test_partition_ill_formed(self, tmp_path, capsys):
        points = dict(self.POINTS, partition=[[0, 1], [2, 3]])
        self.check(tmp_path, capsys, points, self.COLORING,
                   "points JSON field 'partition' must be an object, got [[0, 1], [2, 3]]")
        points = dict(self.POINTS, partition={"U": [0, 1]})
        self.check(tmp_path, capsys, points, self.COLORING,
                   "points JSON partition has no 'L' field")
        for bad in (True, 1.0, "1", None, -1):
            points = dict(self.POINTS, partition={"U": [0, bad], "L": [2, 3]})
            self.check(tmp_path, capsys, points, self.COLORING,
                       f"partition index must be an integer >= 0, got {bad!r}")

    def test_coloring_point_count_is_a_list(self, tmp_path, capsys):
        for bad in ([4], True, 4.0, "4", None):
            coloring = dict(self.COLORING, n_points=bad)
            self.check(tmp_path, capsys, self.POINTS, coloring,
                       f"coloring JSON field 'n_points' must be an integer >= 0, got {bad!r}")

    def test_coloring_point_count_huge(self, tmp_path, capsys):
        # the row count is compared with C(n_points, 2) before any list of
        # that size is made, and the missing segment is found by a lazy walk
        n = 10**30
        coloring = dict(self.COLORING, n_points=n)
        self.check(tmp_path, capsys, self.POINTS, coloring,
                   f"coloring of {n} points misses segment (0, 4)")

    def test_coloring_point_count_negative(self, tmp_path, capsys):
        coloring = dict(self.COLORING, n_points=-4)
        self.check(tmp_path, capsys, self.POINTS, coloring,
                   "coloring JSON field 'n_points' must be an integer >= 0, got -4")

    def test_coloring_rows_missing_or_ill_formed(self, tmp_path, capsys):
        self.check(tmp_path, capsys, self.POINTS, {"n_points": 4},
                   "coloring JSON has no 'colors' field")
        for bad in ("5", True, 5.0, None, -5):
            coloring = dict(self.COLORING, colors=self.COLORING["colors"][:5] + [[2, 3, bad]])
            self.check(tmp_path, capsys, self.POINTS, coloring,
                       f"coloring JSON colors[5][2] must be an integer >= 0, got {bad!r}")
        for bad in ("3", True, 3.0, None, -1):
            coloring = dict(self.COLORING, colors=self.COLORING["colors"][:5] + [[2, bad, 5]])
            self.check(tmp_path, capsys, self.POINTS, coloring,
                       f"coloring JSON colors[5][1] must be an integer >= 0, got {bad!r}")
        coloring = dict(self.COLORING, colors=self.COLORING["colors"][:5] + [[2, 4, 5]])
        self.check(tmp_path, capsys, self.POINTS, coloring,
                   "coloring JSON colors[5] endpoint must be an integer in 0..3, got 4")
        # the same faults in row 1
        for row, message in (([0, 2, True], "colors[1][2] must be an integer >= 0, got True"),
                             ([0, 4, 1], "colors[1] endpoint must be an integer in 0..3, got 4")):
            coloring = dict(self.COLORING, colors=[[0, 1, 0], row, *self.COLORING["colors"][2:]])
            self.check(tmp_path, capsys, self.POINTS, coloring, f"coloring JSON {message}")

    def test_coloring_segment_assigned_twice(self, tmp_path, capsys):
        for row in (1, 5):
            colors = list(self.COLORING["colors"])
            colors[row] = [1, 0, row]
            coloring = dict(self.COLORING, colors=colors)
            self.check(tmp_path, capsys, self.POINTS, coloring, "segment (0, 1) assigned twice")


class TestProp4:
    @pytest.mark.parametrize("n", range(4, 9))
    def test_holds(self, capsys, n):
        # one exact solve per pair of segments; n = 8 has 378 pairs
        code, out, _ = run(capsys, "prop4", "--n", str(n))
        assert code == 0
        assert json.loads(out) == {"n": n, "holds": True}

    def test_below_four_is_usage_error(self, capsys):
        code, out, err = run(capsys, "prop4", "--n", "3")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1, err

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        import dchain.cli

        monkeypatch.setattr(dchain.cli, "singleton_class_check", lambda n: False)
        code, out, err = run(capsys, "prop4", "--n", "5")
        assert code == 1
        assert json.loads(out) == {"n": 5, "holds": False}
        assert "two single-segment classes at n=5" in err


class TestConjecture:
    def test_small_scan(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, err = run(capsys, "conjecture", "--n", "4", "--trials", "3",
                           "--seed", "5", "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert list(report) == ["n", "trials", "f", "min_chi", "counterexamples", "forced",
                                "resamples", "exhausted"]
        assert report["min_chi"] >= report["f"] == f_of(4)
        assert report["counterexamples"] == []

    def test_exhausted_sampling_exits_3(self, tmp_path, capsys, monkeypatch):
        import dchain.experiments

        monkeypatch.setattr(dchain.experiments, "sample_general_position",
                            lambda rng, n: (None, 1_000))
        report_path = tmp_path / "report.json"
        code, _, err = run(capsys, "conjecture", "--n", "4", "--trials", "3",
                           "--seed", "5", "--out", str(report_path))
        assert code == 3
        report = json.loads(report_path.read_text())
        assert report["exhausted"] is True
        assert report["counterexamples"] == []
        assert "ran out of attempts" in err

    def test_seed_required(self, capsys):
        code, _, _ = run(capsys, "conjecture", "--n", "4")
        assert code == 2


class TestUsage:
    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    @pytest.mark.parametrize("argv, work", [
        (["chi", "--points", "p.json"], "chromatic_number_exact"),
        (["conjecture", "--n", "6", "--trials", "20", "--seed", "1"], "conjecture_scan"),
        (["sweep", "--max-sum", "15"], "double_chain_sweep"),
    ], ids=["chi", "conjecture", "sweep"])
    def test_unwritable_out_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                    argv, work):
        import dchain.cli

        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")

        monkeypatch.setattr(dchain.cli, work, never)
        save_points(gen_double_chain(2, 3), tmp_path / "p.json")
        monkeypatch.chdir(tmp_path)
        for out, why in (("nodir/r.json", "nodir is not a directory"),
                         ("p.json/r.json", "p.json is not a directory"),
                         (".", ". is a directory")):
            code, stdout, err = run(capsys, *argv, "--out", out)
            assert code == 2 and stdout == ""
            assert err.endswith(f"{why}\n") and err.count("\n") == 1, err
        assert not (tmp_path / "nodir").exists()

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2


# Mostly valid points and coloring files with faults mixed in: small
# coordinates (so collinear points are common), stray entries, wrong counts
# and partitions, colorings with gaps, reversed, missing or foreign
# segments, a different point count, or arbitrary JSON instead of a file.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


@st.composite
def cli_inputs(draw):
    rnd = draw(st.randoms())  # picks which faults go in
    coords = st.integers(-2, 9)
    size = st.integers(0, 7) if rnd.random() < 0.2 else st.integers(2, 7)
    pts = [list(p) for p in draw(st.lists(st.tuples(coords, coords), unique=True,
                                          min_size=draw(size), max_size=7))]
    n = len(pts)
    if rnd.random() < 0.1:
        pts.insert(rnd.randint(0, n), draw(json_values))
    points = {"n": draw(json_values) if rnd.random() < 0.1 else len(pts), "points": pts}
    if rnd.random() < 0.3:
        order = list(range(n))
        rnd.shuffle(order)
        cut = rnd.randint(0, n)
        points["partition"] = (draw(json_values) if rnd.random() < 0.1
                               else {"U": order[:cut], "L": order[cut:]})
    raw = [draw(st.integers(0, 3)) for _ in range(n * (n - 1) // 2)]
    if rnd.random() < 0.8:  # contiguous color ids 0..count-1
        first = {c: new for new, c in enumerate(dict.fromkeys(raw))}
        raw = [first[c] for c in raw]
    rows = [[i, j, c] for (i, j), c in zip(
        [(i, j) if rnd.random() < 0.7 else (j, i) for i in range(n) for j in range(i + 1, n)], raw)]
    rnd.shuffle(rows)
    if rnd.random() < 0.1:
        rows = rows[:rnd.randint(0, len(rows))]
    if rnd.random() < 0.1:
        rows.append(draw(st.lists(st.integers(-1, n + 1) | json_values, max_size=4)))
    coloring = {"n_points": draw(json_values | st.integers(-1, 8)) if rnd.random() < 0.1 else n,
                "colors": rows}
    return (draw(json_values) if rnd.random() < 0.05 else points,
            draw(json_values) if rnd.random() < 0.05 else coloring)


@settings(max_examples=150, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(files=cli_inputs())
def test_exit_contract_on_arbitrary_json(tmp_path, capsys, files):
    points, coloring = files
    # fresh files for every example: truncating a written file can be slow
    here = Path(tempfile.mkdtemp(dir=tmp_path))
    pts = here / "pts.json"
    col = here / "col.json"
    pts.write_text(json.dumps(points), encoding="utf-8")
    col.write_text(json.dumps(coloring), encoding="utf-8")
    for argv in (["chi", "--points", str(pts)], ["graph", "--points", str(pts)],
                 ["verify", "--points", str(pts), "--coloring", str(col)]):
        assert main(argv) in (0, 1, 2, 3), argv
    capsys.readouterr()
