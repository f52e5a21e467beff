"""Certified real roots of exact polynomials that split over the reals.

Each square-free factor (exact multiplicities) becomes a primitive integer
polynomial f with its root at 0 split off.  The positive roots of f(x) and
f(-x) are isolated in (0, 2^e), e from Fujiwara's bound, by Descartes' rule
of signs with bisection (Collins and Akritas, SYMSAC 1976), on the local
polynomial c of each interval mapped to (0, 1).  A root on a bisection point
is recorded and divided out, so no interval has a root at an endpoint.  Each
isolating interval is halved on exact integer signs until its midpoint is
within 2^-53 relative of the root: every float is a pure function of the
polynomial, and a factor with a non-real root raises ArithmeticError.
"""

import math

from .polynomials import Polynomial, _int_quotient, _primitive, square_free_decomposition


def _taylor1(c: list[int]) -> list[int]:
    """c(x + 1), ascending coefficients."""
    c = list(c)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _variations(c: list[int]) -> int:
    """Descartes' bound on the roots of c in (0, 1)."""
    signs = [x > 0 for x in _taylor1(c[::-1]) if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _value(c: list[int], m: int, j: int) -> int:
    """2^(j deg c) * c(m / 2^j), by homogeneous Horner."""
    v, t = c[-1], 1
    for x in c[-2::-1]:
        t <<= j
        v = v * m + x * t
    return v


def _refine(c: list[int], a: int, k: int, e: int) -> float:
    """The root of c in (0, 1), c being local to the interval (a, a + 1) * 2^(e - k)."""
    s, m, j = c[0] > 0, 0, 0
    while (a << j) + m < 1 << 52:
        m, j = 2 * m + 1, j + 1
        v = _value(c, m, j)
        if v == 0:
            return math.ldexp((a << j) + m, e - k - j)
        if (v > 0) != s:
            m -= 1
    return math.ldexp(2 * ((a << j) + m) + 1, e - k - j - 1)


def _positive_roots(f: list[int]) -> list[float]:
    """Positive roots of a square-free integer polynomial with f(0) != 0."""
    n, lead = len(f) - 1, abs(f[-1]).bit_length()
    e = 1 + max([0] + [-((lead - abs(x).bit_length() - 1) // (n - i)) for i, x in enumerate(f[:-1]) if x])
    out, todo = [], [([x << (e * i) for i, x in enumerate(f)], 0, 0)]
    while todo:
        c, a, k = todo.pop()
        v = _variations(c)
        if v == 1:
            out.append(_refine(c, a, k, e))
        elif v > 1:
            half = [x << (len(c) - 1 - i) for i, x in enumerate(c)]
            if sum(half) == 0:
                out.append(math.ldexp(2 * a + 1, e - k - 1))
                half = _int_quotient(half, [-1, 1])
            todo += [(half, 2 * a, k + 1), (_taylor1(half), 2 * a + 1, k + 1)]
    return out


def real_roots(p: Polynomial) -> list[float]:
    """Every root of p, repeated by multiplicity, ascending; p must split over the reals."""
    out: list[float] = []
    for factor, mult in square_free_decomposition(p):
        f = _primitive(factor.nums)
        roots, f = ([0.0], f[1:]) if f[0] == 0 else ([], f)
        roots += [-r for r in _positive_roots([-x if i % 2 else x for i, x in enumerate(f)])]
        roots += _positive_roots(f)
        if len(roots) < factor.degree:
            raise ArithmeticError(f"{factor} has {factor.degree - len(roots)} non-real roots")
        out += roots * mult
    return sorted(out)
