"""Closed-form chromatic values for disjointness graphs: the convex-position
formula f, its companion g, the unit increment law, and the double-chain
prediction k + f(l). Everything is integer-exact; there is no floating point,
so there are no rounding hazards near the triangular-number boundaries.
"""

from __future__ import annotations

from math import comb, isqrt


def _check_int(value: int, name: str = "n", low: int | None = 1, high: int | None = None) -> int:
    """Return value if it is an int (bool excluded) with low <= value, and
    value < high when high is given; low=None admits any int. Raise
    ValueError naming `name` otherwise."""
    if (not isinstance(value, int) or isinstance(value, bool) or low is not None
            and (value < low or high is not None and value >= high)):
        bound = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high - 1}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def _check_chain(k: int, l: int, l_low: int = 1) -> None:
    """Raise ValueError unless k, l size a double chain C_{k,l}: 1 <= k <= l,
    and l >= l_low."""
    _check_int(k, "k")
    _check_int(l, "l", max(k, l_low))


def g_of(n: int) -> int:
    """Largest positive integer i with C(i, 2) <= n."""
    _check_int(n)
    g = (1 + isqrt(8 * n + 1)) // 2
    if not comb(g, 2) <= n < comb(g + 1, 2):  # bracketing check of the isqrt algebra
        raise RuntimeError(f"g({n}) = {g} fails C(g, 2) <= n < C(g + 1, 2)")
    return g


def f_of(n: int) -> int:
    """Chromatic number of the disjointness graph of n convex-position points.

    Evaluates n - floor(sqrt(2n + 1/4) - 1/2) via integer square root
    (floor((isqrt(8n+1) - 1) / 2) is algebraically identical for integer n)
    and cross-checks it against the identity n - g(n) + 1 on every call.
    The closed form is defined for all n >= 1; its chromatic reading needs
    n >= 3 (f(1) = 0, f(2) = 1 are formal values).
    """
    _check_int(n)
    direct = n - (isqrt(8 * n + 1) - 1) // 2
    via_g = n - g_of(n) + 1
    if direct != via_g:
        raise RuntimeError(f"f({n}) = {direct} disagrees with n - g(n) + 1 = {via_g}")
    return direct


def double_chain_chi(k: int, l: int) -> int:
    """Predicted chromatic number k + f(l) of the (k, l) double chain, l >= 3."""
    _check_chain(k, l, 3)
    return k + f_of(l)


def formula_table(n_max: int) -> list[tuple[int, int, int]]:
    """The rows (n, g(n), f(n)) for n = 1..n_max."""
    _check_int(n_max, "n_max")
    return [(n, g_of(n), f_of(n)) for n in range(1, n_max + 1)]
