"""Tests of the benchmark's own code: the percentile rule, self time on
nested spans, failure counting, the deterministic-count check, and the
reference-kernel bookkeeping.

    python3 -m pytest perfbench/tests
"""

import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from calibrate import REFERENCE_S, Reference, slowdown  # noqa: E402
from dchain import double_chain_chi, f_of  # noqa: E402
from spans import Span, Tracer, highest_percentile, percentile, self_times, total_times  # noqa: E402
from workloads import REFERENCE_COUNTS, WORKLOADS, PassResult, run_pass  # noqa: E402

SMALL = [
    ("double_chain_exact", 2, 3),
    ("convex_exact", 5),
    ("chain", 3, 4),
    ("certify", 2, 4),
    ("random_set", random.Random(0), 5),
]


@pytest.mark.parametrize("n, expected", [
    (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
    (100000, 99.99),
])
def test_highest_percentile_leaves_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_percentile_interpolates_linearly():
    xs = [float(v) for v in range(1, 101)]
    assert percentile(xs, 50) == pytest.approx(50.5)
    assert percentile(xs, 90) == pytest.approx(90.1)
    assert percentile([3.0], 99) == 3.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("solver.a", 0.0, 10.0, -1, 0),
        Span("coloring.b", 2.0, 5.0, 0, 0),
        Span("solver.a", 3.0, 4.0, 1, 0),
        Span("formulas.c", 6.0, 7.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx({"solver.a": 6.0 + 1.0, "coloring.b": 2.0,
                                               "formulas.c": 1.0})
    assert total_times(spans) == pytest.approx({"solver.a": 11.0, "coloring.b": 3.0,
                                                "formulas.c": 1.0})
    # self times add up to the top-level span's duration
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_tracer_records_nesting_and_instance():
    tr = Tracer(True)
    tr.instance = 7
    assert tr.call("bench.outer", lambda: tr.call("solver.inner", lambda: 42)) == 42
    outer, inner = tr.spans
    assert (outer.name, outer.parent, outer.instance) == ("bench.outer", -1, 7)
    assert (inner.name, inner.parent, inner.instance) == ("solver.inner", 0, 7)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_disabled_tracer_records_nothing():
    tr = Tracer(False)
    assert tr.call("solver.x", max, 1, 2) == 2
    assert tr.spans == []


def test_every_pipeline_passes_its_checks():
    result = run_pass(SMALL, Tracer(True))
    assert (result.attempted, result.failed) == (len(SMALL), 0), result.messages
    assert result.counts["coloring.construct_calls"] == 1
    assert result.counts["disjointness.export_bytes"] > 0


def test_wrong_expected_value_counts_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "f_of", lambda n: f_of(n) + 1)
    monkeypatch.setattr(workloads, "double_chain_chi", lambda k, l: double_chain_chi(k, l) + 1)
    result = run_pass(SMALL, Tracer(False))
    # every pipeline that compares with a closed form fails; `chain` has none
    assert result.failed == len(SMALL) - 1
    assert result.failed / result.attempted > 0
    assert all("CheckFailed" in m for m in result.messages)


def test_checks_survive_python_O():
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
            "workloads.f_of = lambda n: 0; "
            "print(workloads.run_pass([('convex_exact', 5)], workloads.Tracer(False)).failed)")
    out = subprocess.run([sys.executable, "-O", "-c", code, str(HERE.parent / "src"), str(HERE)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "1"


def _result(**counts):
    return PassResult(1.0, [1.0], Counter(counts), 1, 0)


def test_count_check_flags_reference_and_pass_to_pass_differences():
    ref = {k: 5 for k in REFERENCE_COUNTS}
    same = [_result(**ref), _result(**ref)]
    assert run.compare_counts(same, ref)[0] == 0
    assert run.compare_counts(same, None)[0] == 0
    changed = dict(ref, **{"solver.nodes": 6})
    assert run.compare_counts([_result(**ref), _result(**changed)], ref)[0] == 1
    assert run.compare_counts([_result(**changed)], ref)[0] == 1


def test_reference_covers_every_workload():
    for w in WORKLOADS:
        table = run.load_reference(w)
        assert table, w
        for counts in table.values():
            assert set(counts) == set(REFERENCE_COUNTS)


def test_reference_kernel_times_are_kept_out_of_the_pass_wall_time():
    result = run_pass(SMALL[:2], Tracer(False), Reference())
    assert len(result.ref_times) >= 2  # before the first instance and after the last
    assert result.wall_s == pytest.approx(sum(result.instance_ms) / 1000.0)
    assert slowdown([REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S]) == pytest.approx(2.0)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact_grid",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
