"""Exact patch sizes from Steinberg's growth series of the Coxeter group.

The (p, q) triangle reflection group is the Coxeter group on a, b, c
with m(a,b) = q, m(b,c) = p and m(a,c) = 2.  When it is infinite
(1/p + 1/q <= 1/2) every proper parabolic subgroup is finite, and
Steinberg's formula gives the growth series W(t) = sum_n w_n t^n, where
w_n counts the group elements of word length n:

    1/W(t) = 1 - 3t/(1+t) + t^2/([2][2]) + t^p/([2][p]) + t^q/([2][q])

with [m] = 1 + t + ... + t^(m-1).  A patch of depth d is the word ball of
radius d, so its exact triangle count is w_0 + ... + w_d.  Only integer
arithmetic is used, so the oracle shares nothing with the float model.
"""
from __future__ import annotations


def _mul(u: list[int], v: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, a in enumerate(u[: n + 1]):
        if a:
            for j, b in enumerate(v[: n + 1 - i]):
                out[i + j] += a * b
    return out


def _inverse(u: list[int], n: int) -> list[int]:
    """Power series 1/u up to t^n; u[0] must be 1."""
    if u[0] != 1:
        raise ValueError("series must start with 1")
    out = [1] + [0] * n
    for k in range(1, n + 1):
        out[k] = -sum(u[i] * out[k - i] for i in range(1, min(k, len(u) - 1) + 1))
    return out


def _dihedral_term(m: int, n: int) -> list[int]:
    """t^m / ([2][m]) = t^m (1 - t) / ((1 + t)(1 - t^m)) up to t^n."""
    num = [0] * (n + 1)
    if m <= n:
        num[m] = 1
    if m + 1 <= n:
        num[m + 1] = -1
    den = [1, 1] + [0] * n  # (1 + t)(1 - t^m)
    den = _mul(den, [1] + [0] * (m - 1) + [-1], n)
    return _mul(num, _inverse(den, n), n)


def growth_series(p: int, q: int, n: int) -> list[int]:
    """w_0 .. w_n: how many elements of the (p, q) group have length k."""
    if p < 2 or q < 2 or n < 0:
        raise ValueError("need p, q >= 2 and n >= 0")
    if 2 * (p + q) > p * q:
        raise ValueError(f"({p},{q}) is spherical; the formula needs an infinite group")
    # -3t/(1+t) = -3 (t - t^2 + t^3 - ...)
    inv = [1] + [3 * (-1) ** k for k in range(1, n + 1)]
    for m in (2, p, q):
        inv = [a + b for a, b in zip(inv, _dihedral_term(m, n))]
    return _inverse(inv, n)


def ball_size(p: int, q: int, depth: int) -> int:
    """Exact number of triangles in the depth-`depth` patch."""
    return sum(growth_series(p, q, depth))
