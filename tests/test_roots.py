import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import rand_symmetric_matrix
from joinspectra.errors import DomainError
from joinspectra.matrices import charpoly
from joinspectra.polynomials import Polynomial, square_free_decomposition
from joinspectra.roots import real_roots
from joinspectra.verification import random_graph

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


def assert_bracketed(p: Polynomial, roots: list[float]) -> None:
    """Each root r of the square-free p is exact, or p changes sign across r(1 -+ 2^-51)."""
    for r in roots:
        x = Fraction(r)
        if p(x) != 0:
            d = abs(x) / 2**51
            assert p(x - d) * p(x + d) < 0, f"{r} is not within 2^-51 relative of a root of {p}"


def test_sqrt2():
    got = real_roots(X**2 - 2)
    assert abs(got[0] + math.sqrt(2)) < 1e-12
    assert abs(got[1] - math.sqrt(2)) < 1e-12


def test_cubic_with_zero_root():
    got = real_roots(X**3 - 2 * X)
    assert abs(got[0] + math.sqrt(2)) < 1e-12
    assert got[1] == 0.0
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
    got = real_roots(p)
    assert len(got) == 6
    for i in range(3):
        assert abs(got[i] + math.sqrt(2)) < 1e-10
        assert abs(got[3 + i] - math.sqrt(2)) < 1e-10


def test_rational_repeated_and_zero_roots():
    third, minus_7_2 = Fraction(1, 3), Fraction(-7, 2)
    got = real_roots((X - third) * (X - minus_7_2))
    assert got == sorted(got) and len(got) == 2
    assert abs(Fraction(got[0]) - minus_7_2) <= abs(minus_7_2) / 2**53
    assert abs(Fraction(got[1]) - third) <= third / 2**53
    assert real_roots(X**3 * (X - 1) ** 2 * (X + 2)) == [-2.0, 0.0, 0.0, 0.0, 1.0, 1.0]
    assert real_roots(Fraction(5, 7) * X**4) == [0.0] * 4


@pytest.mark.parametrize(
    "p, expected",
    [
        # roots 2, 4 and 6 -+ 2 sqrt(2): 2 and 4 fall on bisection points
        (X**4 - 18 * X**3 + 108 * X**2 - 264 * X + 224, [2, 6 - 2 * math.sqrt(2), 4, 6 + 2 * math.sqrt(2)]),
        # roots -2, -1 and the three real roots of x^3 - 3x^2 - 4x + 4
        (X**5 - 11 * X**3 - 14 * X**2 + 4 * X + 8, [-2, -1] + bisect_roots(X**3 - 3 * X**2 - 4 * X + 4, -5, 5, 3)),
    ],
)
def test_roots_on_bisection_points(p, expected):
    got = real_roots(p)
    assert len(got) == len(expected)
    for g, e in zip(got, sorted(expected)):
        assert abs(g - e) <= 1e-14 * max(1.0, abs(e))
    assert_bracketed(p, got)


def test_integer_roots_among_irrational_ones():
    # integer roots land on bisection points in many positions relative to
    # the irrational roots a -+ sqrt(b) around them
    for seed in range(100):
        rng = random.Random(seed)
        p, want = Polynomial.one(), []
        for _ in range(rng.randint(1, 3)):
            r = rng.randint(-8, 8)
            p, want = p * (X - r), want + [r]
        for _ in range(rng.randint(1, 2)):
            a, b = rng.randint(-6, 6), rng.choice([2, 3, 5, 6, 7])
            p, want = p * (X**2 - 2 * a * X + a * a - b), want + [a - math.sqrt(b), a + math.sqrt(b)]
        got = real_roots(p)
        assert len(got) == len(want), seed
        for g, w in zip(got, sorted(want)):
            assert abs(g - w) <= 1e-14 * max(1.0, abs(w)), seed


def test_every_root_is_certified():
    rng = random.Random(7)
    for _ in range(20):
        p = charpoly(rand_symmetric_matrix(rng, rng.randint(1, 9)))
        got = real_roots(p)
        assert len(got) == p.degree and got == sorted(got)
        for factor, _ in square_free_decomposition(p):
            assert_bracketed(factor, real_roots(factor))


@pytest.mark.parametrize("n", [14, 16, 18, 20, 32])
def test_laplacian_sweep_against_eigvalsh(n):
    # the float heuristic this replaces was off by up to 1.2, or raised, from n = 18 on
    for seed in range(10):
        g = random_graph(random.Random(seed), n, 0.4)
        lap = g.degree_matrix() - g.adjacency()
        got = real_roots(charpoly(lap))
        want = np.linalg.eigvalsh(np.array(lap.to_floats()))
        assert len(got) == n
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))


def test_degenerate_inputs():
    with pytest.raises(DomainError):
        real_roots(Polynomial())
    assert real_roots(Polynomial.constant(7)) == []
    with pytest.raises(ArithmeticError):
        real_roots(X**2 + 1)
    with pytest.raises(ArithmeticError, match="2 non-real roots"):
        real_roots((X**2 + 1) * (X - 3))  # one real root is not enough
