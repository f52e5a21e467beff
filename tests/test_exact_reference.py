"""Polynomial and RationalMatrix against the Fraction reference in helpers.py.

Both classes hold integers over one denominator; FracPoly and FracMatrix do
every operation in textbook Fraction arithmetic.  The seeded cases include
zero, constants, negative leading coefficients and large denominators.
Every result must also be in canonical form: no trailing zero, a positive
denominator coprime to the numerators (so the least one), and the same
fields, hence equality and hash, whichever path built the value.
"""

import math
import random
from fractions import Fraction

import pytest

from helpers import PRESET_VALUES, FracMatrix, FracPoly, ref, ref_matrix
from joinspectra import Graph
from joinspectra.joins import UniversalParams, universal_matrix
from joinspectra.matrices import RationalMatrix, charpoly, determinant
from joinspectra.polynomials import NEG_INF, Polynomial, poly_gcd
from joinspectra.verification import random_graph

BIG = 2**66 + 13


def _scalar(rng: random.Random) -> Fraction:
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    if kind == 3:
        return Fraction(rng.randint(-(2**90), 2**90), rng.randint(1, BIG))
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.choice((BIG, 3 * BIG, 2**40)))


def _raw(rng: random.Random) -> list:
    """Coefficients of the zero polynomial, a constant, or a random polynomial
    whose leading coefficient is often negative; a trailing zero now and then."""
    kind = rng.randrange(5)
    if kind == 0:
        return [0] * rng.randint(0, 2)
    deg = 0 if kind == 1 else rng.randint(1, 6)
    cs = [_scalar(rng) for _ in range(deg)]
    lead = _scalar(rng) or Fraction(rng.choice((-7, -1, 3)), rng.choice((1, 5, BIG)))
    return cs + [lead] + [0] * (rng.random() < 0.2)


def _canonical(p: Polynomial) -> None:
    assert type(p.nums) is tuple and all(type(c) is int for c in p.nums)
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.den == math.lcm(*[c.denominator for c in p.coeffs])
    assert p.coeffs == tuple(Fraction(c, p.den) for c in p.nums)


def _canonical_matrix(m: RationalMatrix) -> None:
    assert type(m.nums) is tuple and len(m.nums) == m.rows * m.cols
    assert all(type(x) is int for x in m.nums)
    assert m.den > 0 and math.gcd(m.den, *m.nums) == 1
    assert m.den == math.lcm(*[x.denominator for x in m.entries])
    assert m.entries == tuple(Fraction(x, m.den) for x in m.nums)


def test_polynomial_operations_match_fraction_reference():
    rng = random.Random(1601)
    for _ in range(250):
        ra, rb = _raw(rng), _raw(rng)
        a, b, fa, fb = Polynomial(ra), Polynomial(rb), FracPoly(ra), FracPoly(rb)
        c = _scalar(rng)
        cases = {
            "view": (a, fa),
            "a + b": (a + b, fa + fb),
            "a - b": (a - b, fa - fb),
            "-a": (-a, -fa),
            "a * b": (a * b, fa * fb),
            "a * c": (a * c, fa * c),
            "c * a": (c * a, fa * c),
            "a * int": (a * -3, fa * -3),
            "a + c": (a + c, fa + c),
            "c - a": (c - a, c - fa),
            "a ** 3": (a**3, fa * fa * fa),
            "derivative": (a.derivative(), fa.derivative()),
            "monic": (a.monic(), fa.monic()),
            "gcd": (poly_gcd(a, b), fa.gcd(fb)),
        }
        if fb.cs:
            cases["exact_div"] = ((a * b).exact_div(b), (fa * fb).exact_div(fb))
        for name, (got, want) in cases.items():
            assert ref(got) == want, name
            _canonical(got)
        for x in (0, 1, -2, Fraction(-3, 7), c):
            assert a(x) == fa(x)
        assert a.degree == (fa.degree if fa.cs else NEG_INF)
        for i in range(-1, len(ra) + 2):
            assert a[i] == (fa.cs[i] if 0 <= i < len(fa.cs) else 0)
        if fa.cs:
            assert a.lead == fa.cs[-1]
            assert a.is_monic == (fa.cs[-1] == 1)
        assert a.to_strings() == [str(x) for x in fa.cs]
        assert (a == b) == (fa == fb)
        if fb.degree > 0:
            # a nonzero remainder of degree below b's makes the division inexact
            off = Polynomial([_scalar(rng) for _ in range(fb.degree - 1)] + [Fraction(1, BIG)])
            with pytest.raises(ArithmeticError):
                (a * b + off).exact_div(b)
            with pytest.raises(ArithmeticError):
                (fa * fb + ref(off)).exact_div(fb)


def test_polynomial_canonical_form_across_paths():
    rng = random.Random(1602)
    for _ in range(120):
        raw = _raw(rng)
        p = Polynomial(raw)
        q = Polynomial(_raw(rng)) or Polynomial([Fraction(-2, BIG), 1])
        c = _scalar(rng) or Fraction(-5, 3)
        paths = [
            Polynomial([str(x) for x in raw]),
            Polynomial([Fraction(x) * 6 / 6 for x in raw]),
            Polynomial.from_strings(p.to_strings()),
            (p * q).exact_div(q),
            (p * c) * (1 / c),
            p + q - q,
            -(-p),
            p.monic() * p.lead if p else p,
            sum((Polynomial([0] * i + [x]) for i, x in enumerate(raw)), Polynomial()),
        ]
        for other in paths:
            assert other == p and hash(other) == hash(p)
            _canonical(other)
    assert (Polynomial([Fraction(1, 2), Fraction(1, 3)]).nums, Polynomial([Fraction(1, 2), Fraction(1, 3)]).den) == ((3, 2), 6)
    assert (Polynomial([Fraction(2, 6), 0]).nums, Polynomial([Fraction(2, 6), 0]).den) == ((1,), 3)
    third = Polynomial([0, Fraction(1, 3)])
    zero = third - third
    assert (zero.nums, zero.den) == ((), 1) and zero == Polynomial() and hash(zero) == hash(Polynomial())
    minus_three_x = Polynomial.x().exact_div(Polynomial.constant(Fraction(-1, 3)))
    assert (minus_three_x.nums, minus_three_x.den) == ((0, -3), 1)


def _entries(rng: random.Random, count: int) -> list:
    if rng.random() < 0.15:
        return [0] * count
    if rng.random() < 0.3:
        return [rng.randint(-5, 5) for _ in range(count)]
    return [_scalar(rng) for _ in range(count)]


def test_matrix_operations_match_fraction_reference():
    rng = random.Random(1603)
    for _ in range(120):
        n, k, p = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        ea, eb, ec = _entries(rng, n * k), _entries(rng, n * k), _entries(rng, k * p)
        a, b, c = RationalMatrix(n, k, ea), RationalMatrix(n, k, eb), RationalMatrix(k, p, ec)
        fa, fb, fc = FracMatrix(n, k, ea), FracMatrix(n, k, eb), FracMatrix(k, p, ec)
        s = _scalar(rng)
        cases = {
            "view": (a, fa),
            "a + b": (a + b, fa + fb),
            "a - b": (a - b, fa - fb),
            "-a": (-a, -fa),
            "a * s": (a * s, fa.scaled(s)),
            "s * a": (s * a, fa.scaled(s)),
            "a @ c": (a @ c, fa @ fc),
            "transpose": (a.transpose(), fa.transpose()),
        }
        for name, (got, want) in cases.items():
            assert ref_matrix(got) == want, name
            _canonical_matrix(got)
        assert a.to_floats() == fa.to_floats()
        assert a.is_symmetric() == fa.is_symmetric()
        assert (a == b) == (fa == fb)
        for i in range(n):
            assert a.row(i) == tuple(fa.at(i, j) for j in range(k))
            for j in range(k):
                assert a[i, j] == fa.at(i, j)
        square = RationalMatrix(n, n, _entries(rng, n * n))
        fsq = ref_matrix(square)
        for m, fm in ((square, fsq), (square + square.transpose(), fsq + fsq.transpose())):
            assert m.trace() == fm.trace()
            assert m.is_symmetric() == fm.is_symmetric()
            assert ref(charpoly(m)) == fm.charpoly()
            _canonical(charpoly(m))
            if n:
                assert determinant(m) == fm.charpoly().cs[0] * (-1) ** n


def test_matrix_canonical_form_across_paths():
    rng = random.Random(1604)
    for _ in range(80):
        n = rng.randint(0, 4)
        es = _entries(rng, n * n)
        m = RationalMatrix(n, n, es)
        paths = [
            RationalMatrix(n, n, [str(x) for x in es]),
            RationalMatrix.from_rows(m.to_lists()) if n else RationalMatrix(0, 0, []),
            RationalMatrix.from_ints(n, n, [7 * x for x in m.nums], 7 * m.den),
            RationalMatrix.from_ints(n, n, [-x for x in m.nums], -m.den),
            (m * 3) * Fraction(1, 3),
            (m + m) * Fraction(1, 2),
            m + RationalMatrix.zeros(n, n),
            m - RationalMatrix.zeros(n, n),
            m.transpose().transpose(),
            m @ RationalMatrix.identity(n),
            -(-m),
        ]
        for other in paths:
            assert other == m and hash(other) == hash(m)
            _canonical_matrix(other)
    zero = RationalMatrix(2, 2, [Fraction(1, 3)] * 4) * 0
    assert (zero.nums, zero.den) == ((0, 0, 0, 0), 1)


def _literal_universal(g: Graph, params: UniversalParams, shift) -> FracMatrix:
    """alpha*A + beta*I + gamma*J + delta*D + shift*I, entry by entry."""
    a, b, c, d = params.as_tuple()
    degs = [sum(1 for e in g.edges if v in e) for v in range(g.n)]
    es = []
    for i in range(g.n):
        for j in range(g.n):
            if i == j:
                es.append(b + c + shift + d * degs[i])
            else:
                es.append(c + (a if (min(i, j), max(i, j)) in g.edges else 0))
    return FracMatrix(g.n, g.n, es)


def test_universal_matrix_matches_fraction_reference():
    rng = random.Random(1605)
    huge = Fraction(1, BIG)
    # gamma with a large denominator that the complete graph never shows
    # (edges hold alpha + gamma = 1, the diagonal beta + gamma = 0), and alpha
    # with one that the edgeless graph never shows
    no_gamma = UniversalParams(1 - huge, -huge, huge, 0)
    no_edge = UniversalParams(huge, 2, 1, huge)
    params = [UniversalParams(*p) for p in PRESET_VALUES] + [no_gamma, no_edge]
    graphs = [Graph.complete(n) for n in range(6)] + [Graph.empty(n) for n in range(6)]
    graphs += [Graph.star(3), Graph.path(4)] + [random_graph(rng, rng.randint(2, 7)) for _ in range(6)]
    for g in graphs:
        for p in params:
            for shift in (0, Fraction(1, 3), -2, Fraction(5, 2**33)):
                m = universal_matrix(g, p, shift)
                assert ref_matrix(m) == _literal_universal(g, p, shift)
                _canonical_matrix(m)
    for n in range(6):
        assert universal_matrix(Graph.complete(n), no_gamma).den == 1
        assert universal_matrix(Graph.empty(n), no_edge, huge * 2).den == (BIG if n else 1)
    assert universal_matrix(Graph(1), no_gamma, Fraction(1, 2)).den == 2
    assert universal_matrix(Graph(0), no_edge).nums == ()
