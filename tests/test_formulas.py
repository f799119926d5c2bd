import os
import subprocess
import sys
from math import comb, isqrt
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dchain.formulas as formulas_mod
from dchain import double_chain_chi, f_of, formula_table, g_of

positive_n = st.integers(1, 10 ** 7)


class TestG:
    @pytest.mark.parametrize("n,expected", [(3, 3), (6, 4), (1, 2)])
    def test_examples(self, n, expected):
        assert g_of(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            g_of(0)
        with pytest.raises(ValueError):
            g_of(-3)

    @given(positive_n)
    def test_bracketed_by_binomials(self, n):
        g = g_of(n)
        assert comb(g, 2) <= n < comb(g + 1, 2)

    @given(st.integers(3, 2000))
    def test_exact_at_triangular_boundaries(self, i):
        n = comb(i, 2)
        assert g_of(n) == i
        assert g_of(n - 1) == i - 1


class TestF:
    @pytest.mark.parametrize("n,expected", [(3, 1), (4, 2), (10, 6), (1, 0), (2, 1)])
    def test_examples(self, n, expected):
        assert f_of(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            f_of(0)

    @given(positive_n)
    def test_identity_with_g(self, n):
        assert f_of(n) == n - g_of(n) + 1

    @given(positive_n)
    def test_direct_isqrt_evaluation(self, n):
        assert f_of(n) == n - (isqrt(8 * n + 1) - 1) // 2


class TestFStep:
    @pytest.mark.parametrize("n,expected", [(5, 0), (3, 1), (2, 0), (1, 1)])
    def test_examples(self, n, expected):
        assert f_of(n + 1) - f_of(n) == expected

    @given(positive_n)
    def test_binary_valued(self, n):
        assert f_of(n + 1) - f_of(n) in (0, 1)

    @given(positive_n)
    def test_zero_exactly_below_triangular_counts(self, n):
        g = g_of(n + 1)
        is_below_triangular = comb(g, 2) == n + 1
        assert (f_of(n + 1) == f_of(n)) == is_below_triangular

    @given(st.integers(1, 10 ** 4), st.integers(0, 10 ** 4))
    def test_growth_at_most_k(self, n, k):
        assert f_of(n + k) - f_of(n) <= k


class TestDoubleChainChi:
    @pytest.mark.parametrize("k,l,expected", [(1, 3, 2), (2, 4, 4), (5, 7, 9)])
    def test_examples(self, k, l, expected):
        assert double_chain_chi(k, l) == expected

    def test_rejects_small_l(self):
        with pytest.raises(ValueError, match="^l must be an integer >= 3, got 2$"):
            double_chain_chi(1, 2)

    def test_rejects_k_above_l(self):
        with pytest.raises(ValueError, match="^l must be an integer >= 5, got 4$"):
            double_chain_chi(5, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="^k must be an integer >= 1, got 0$"):
            double_chain_chi(0, 5)
        for k, l, name in ((True, 5, "k"), (1.0, 5, "k"), ("1", 5, "k"), (None, 5, "k"),
                           (1, True, "l"), (1, 5.0, "l"), (1, "5", "l"), (1, None, "l")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
                double_chain_chi(k, l)

    @given(st.integers(1, 500), st.integers(3, 500))
    def test_step_in_l_is_f_step(self, k, l):
        if k > l:
            k, l = l, k
        assert double_chain_chi(k, l + 1) - double_chain_chi(k, l) == f_of(l + 1) - f_of(l)


class TestFormulaTable:
    def test_rows_and_invariants(self):
        rows = formula_table(12)
        assert [n for n, _, _ in rows] == list(range(1, 13))
        assert [f for _, _, f in rows] == [0, 1, 1, 2, 3, 3, 4, 5, 6, 6, 7, 8]

    def test_result_self_checks(self, monkeypatch):
        # a row has no check of its own: f_of's cross check with g_of
        # refuses a row whose g breaks f = n - g + 1
        monkeypatch.setattr(formulas_mod, "g_of", lambda n: 1)
        with pytest.raises(RuntimeError, match=r"^f\(1\) = 0 disagrees with n - g\(n\) \+ 1 = 1$"):
            formula_table(3)

    def test_result_refuses_an_unbracketed_g(self, monkeypatch):
        # g_of's bracket check refuses a row whose g is off
        monkeypatch.setattr(formulas_mod, "isqrt", lambda x: isqrt(x) + 2)
        with pytest.raises(RuntimeError, match=r"^g\(1\) = 3 fails C\(g, 2\) <= n < C\(g \+ 1, 2\)$"):
            formula_table(3)


def test_cross_checks_survive_python_O():
    script = """
import math
import dchain.formulas as formulas
assert False, "asserts must be stripped for this check to mean anything"
formulas.isqrt = lambda x: math.isqrt(x) + 2
try:
    formulas.g_of(10)
except RuntimeError as exc:
    print("g:", exc)
formulas.isqrt = math.isqrt
formulas.g_of = lambda n: 1
try:
    formulas.f_of(10)
except RuntimeError as exc:
    print("f:", exc)
"""
    src = Path(formulas_mod.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "g: g(10) = 6 fails C(g, 2) <= n < C(g + 1, 2)" in proc.stdout
    assert "f: f(10) = 6 disagrees with n - g(n) + 1 = 10" in proc.stdout


class TestCheckInt:
    def test_exclusive_high(self):
        check = formulas_mod._check_int
        assert check(0, "i", 0, 3) == 0
        assert check(2, "i", 0, 3) == 2
        for bad in (-1, 3, True, 1.0, "1", None):
            with pytest.raises(ValueError, match=r"^i must be an integer in 0\.\.2, got"):
                check(bad, "i", 0, 3)
        for bad in (-1, True, 1.0, "1", None):
            with pytest.raises(ValueError, match=f"^i must be an integer >= 0, got {bad!r}$"):
                check(bad, "i", 0)
        # low=None: any int, negative or huge, and still no bool
        assert check(-10**30, "i", None) == -10**30
        for bad in (True, 1.0, "1", None):
            with pytest.raises(ValueError, match=f"^i must be an integer, got {bad!r}$"):
                check(bad, "i", None)
