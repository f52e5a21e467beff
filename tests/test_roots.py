import math
import random

import pytest

from joinspectra.errors import DomainError
from joinspectra.polynomials import Polynomial
from joinspectra.roots import numeric_roots, real_roots

X = Polynomial.x()


def bisect_roots(p: Polynomial, lo: float, hi: float, expected: int, steps: int = 200) -> list[float]:
    """Independent oracle: scan for sign changes, then bisect each bracket."""
    f = lambda t: p(t)
    grid = [lo + (hi - lo) * i / 4000 for i in range(4001)]
    brackets = []
    for a, b in zip(grid, grid[1:]):
        if f(a) == 0:
            brackets.append((a, a))
        elif f(a) * f(b) < 0:
            brackets.append((a, b))
    assert len(brackets) == expected, f"expected {expected} sign changes, found {len(brackets)}"
    out = []
    for a, b in brackets:
        for _ in range(steps):
            mid = (a + b) / 2
            if f(a) * f(mid) <= 0:
                b = mid
            else:
                a = mid
        out.append((a + b) / 2)
    return out


def test_sqrt2():
    got = sorted(r.real for r in numeric_roots(X**2 - 2))
    assert abs(got[0] + math.sqrt(2)) < 1e-12
    assert abs(got[1] - math.sqrt(2)) < 1e-12


def test_cubic_with_zero_root():
    got = sorted(r.real for r in numeric_roots(X**3 - 2 * X))
    assert abs(got[0] + math.sqrt(2)) < 1e-12
    assert abs(got[1]) < 1e-12
    assert abs(got[2] - math.sqrt(2)) < 1e-12


def test_fixture_cubic_against_bisection():
    p = X**3 - 5 * X**2 - 8 * X + 2
    expected = bisect_roots(p, -10.0, 10.0, expected=3)
    got = real_roots(p)
    assert len(got) == 3
    for g, e in zip(got, sorted(expected)):
        assert abs(g - e) < 1e-8


def test_multiplicities_resolved_exactly():
    p = (X**2 - 2) ** 3
    got = sorted(r.real for r in numeric_roots(p))
    assert len(got) == 6
    for i in range(3):
        assert abs(got[i] + math.sqrt(2)) < 1e-10
        assert abs(got[3 + i] - math.sqrt(2)) < 1e-10


def test_reconstruction_property():
    rng = random.Random(12)
    for _ in range(25):
        deg = rng.randint(1, 12)
        p = Polynomial([rng.randint(-5, 5) for _ in range(deg)] + [1])
        roots = numeric_roots(p)
        assert len(roots) == deg
        # multiply the roots back out and compare coefficients
        coeffs = [complex(1.0)]
        for r in roots:
            coeffs = [0j] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        scale = max(abs(float(c)) for c in p.coeffs)
        for i in range(deg + 1):
            assert abs(coeffs[i] - float(p.coeffs[i])) <= 1e-8 * max(scale, 1.0)


def test_sum_of_roots_matches_trace_coefficient():
    rng = random.Random(13)
    for _ in range(20):
        deg = rng.randint(2, 8)
        p = Polynomial([rng.randint(-4, 4) for _ in range(deg)] + [1])
        s = sum(numeric_roots(p))
        assert abs(s - (-float(p.coeffs[deg - 1]))) < 1e-8 * max(1.0, abs(float(p.coeffs[deg - 1])))


def test_degenerate_inputs():
    with pytest.raises(DomainError):
        numeric_roots(Polynomial())
    assert numeric_roots(Polynomial.constant(7)) == []
    with pytest.raises(ArithmeticError):
        real_roots(X**2 + 1)

