import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import FracPoly, ref
from joinspectra.errors import DomainError
from joinspectra.polynomials import (
    NEG_INF,
    Polynomial,
    is_square_free,
    poly_gcd,
    square_free_decomposition,
)

X = Polynomial.x()

small_polys = st.lists(st.integers(-9, 9), max_size=6).map(Polynomial)


def test_zero_polynomial_degree_sentinel():
    z = Polynomial()
    assert z.is_zero
    assert z.degree == NEG_INF
    assert z.degree < 0
    assert Polynomial((0, 0, 0)).is_zero


def test_trailing_zeros_stripped():
    p = Polynomial((1, 2, 0, 0))
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1


def test_basic_arithmetic():
    assert (X + 1) * (X - 1) == X**2 - 1
    assert (X + 1) + (X - 1) == 2 * X
    assert -(X - 1) == 1 - X
    assert (X**2 - 1)[0] == -1
    assert (X**2 - 1)[5] == 0
    assert X**0 == Polynomial.one()


def test_indexing_and_eval():
    p = X**3 - 2 * X
    assert p(Fraction(2)) == 4
    assert p(0) == 0
    assert abs(p(1.5) - (1.5**3 - 3.0)) < 1e-12
    assert p(1j) == complex(0, -3)  # i^3 - 2i = -3i


def _divides(d: Polynomial, p: Polynomial) -> bool:
    return ref(p).divmod(ref(d))[1] == FracPoly()


@given(small_polys, small_polys)
def test_divmod_identity(a, b):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.exact_div(b)
        return
    q, r = ref(a).divmod(ref(b))
    assert q * ref(b) + r == ref(a)
    assert r.degree < b.degree


def test_exact_div_rejects_remainder():
    with pytest.raises(ArithmeticError):
        (X**2 + 1).exact_div(X + 1)
    assert (X**2 - 1).exact_div(X + 1) == X - 1


def _rand_coeff(rng: random.Random) -> Fraction:
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(rng.randint(-9, 9))
    if kind == 1:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    if kind == 2:
        return rng.choice((1, -1)) * Fraction(2**62 + rng.randint(-3, 3))
    if kind == 3:
        return Fraction(rng.randint(-(2**100), 2**100), rng.randint(1, 2**66))
    return Fraction(0)


def _rand_poly(rng: random.Random, max_deg: int, nonzero: bool = False) -> Polynomial:
    """Zero or constant operands, per-coefficient denominators, negative or huge leads."""
    deg = rng.randint(0 if nonzero else -1, max_deg)
    if deg < 0:
        return Polynomial()
    lead = _rand_coeff(rng) or Fraction(rng.choice((-3, -1, 2)))
    return Polynomial([_rand_coeff(rng) for _ in range(deg)] + [lead])


def test_product_matches_fraction_reference():
    rng = random.Random(51)
    for _ in range(300):
        a, b = _rand_poly(rng, 7), _rand_poly(rng, 7)
        p = a * b
        assert ref(p) == ref(a) * ref(b)
        assert all(type(c) is Fraction for c in p.coeffs)


def test_exact_div_matches_fraction_reference():
    rng = random.Random(52)
    for _ in range(300):
        a, b = _rand_poly(rng, 6), _rand_poly(rng, 6, nonzero=True)
        p = a * b
        assert p.exact_div(b) == a
        assert ref(a) == ref(p).exact_div(ref(b))
        if b.degree > 0:
            off = p + _rand_poly(rng, b.degree - 1, nonzero=True)
            with pytest.raises(ArithmeticError):
                off.exact_div(b)
            with pytest.raises(ArithmeticError):
                ref(off).exact_div(ref(b))


def test_exact_div_rejects_inexact_inputs():
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    inexact = [
        (X**2 + 1, 6 * X + 4),  # non-primitive divisor that does not divide
        (X + 1, X**2),  # divisor of higher degree than a nonzero dividend
        (Polynomial.constant(3), X - 1),
        ((3 * X + 2) * (X**2 - X + 5) + 3, 3 * X + 2),  # remainder only in the constant
        ((6 * X + 4) * (fifth * X**3 - third) + fifth * X, -6 * X - 4),  # ... only in x^1
    ]
    for p, d in inexact:
        with pytest.raises(ArithmeticError):
            p.exact_div(d)
        with pytest.raises(ArithmeticError):
            ref(p).exact_div(ref(d))
    q = fifth * X**2 - third
    assert ((6 * X + 4) * q).exact_div(6 * X + 4) == q
    assert ((6 * X + 4) * q).exact_div(-6 * X - 4) == -q
    assert (third * X + 2).exact_div(Polynomial.constant(-fifth)) == -5 * third * X - 10
    assert Polynomial().exact_div(X + 1).is_zero
    with pytest.raises(ZeroDivisionError):
        (X + 1).exact_div(Polynomial())


def test_pow_matches_repeated_multiplication(monkeypatch):
    bases = (X - 2, Fraction(1, 3) * X**2 - Fraction(5, 7) * X + Fraction(2, 9), Polynomial.constant(-4))
    for base in bases:
        expected = FracPoly([1])
        for n in range(10):
            assert ref(base**n) == expected
            expected = expected * ref(base)
    # one product per set bit of n and one squaring per further bit
    calls = []
    exact = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: calls.append(1) or exact(a, b))
    for n in range(10):
        calls.clear()
        assert X**n == Polynomial([0] * n + [1])
        assert len(calls) == bin(n).count("1") + max(n.bit_length() - 1, 0)


def test_derivative():
    assert (X**3 - 2 * X).derivative() == 3 * X**2 - 2
    assert Polynomial.constant(5).derivative().is_zero


def test_gcd_basics():
    g = poly_gcd((X - 1) * (X + 2), (X - 1) * (X - 3))
    assert g == X - 1
    assert poly_gcd(Polynomial(), X + 1) == X + 1
    assert poly_gcd(X + 1, Polynomial()) == X + 1
    assert poly_gcd(Polynomial.constant(4), X**2).degree == 0


def test_gcd_random_products():
    rng = random.Random(11)
    for _ in range(60):
        g = Polynomial([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1])
        a = g * Polynomial([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [1])
        b = g * Polynomial([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [1])
        d = poly_gcd(a, b)
        assert d.is_monic
        assert _divides(d, a)
        assert _divides(d, b)
        assert _divides(g, d)  # the planted factor divides the gcd


def test_gcd_coprimality_certificate(monkeypatch):
    import joinspectra.polynomials as polynomials
    from joinspectra.kernel import prime

    rng = random.Random(12)
    prs_steps = []
    exact = polynomials._pseudo_rem
    monkeypatch.setattr(polynomials, "_pseudo_rem", lambda a, b: prs_steps.append(1) or exact(a, b))

    def rand_poly(lo, hi):
        return Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(lo, hi))] + [rng.randint(1, 5)])

    coprime = 0
    for _ in range(40):
        a, b = rand_poly(1, 8), rand_poly(1, 8)
        if ref(a).gcd(ref(b)).degree == 0:
            coprime += 1
            prs_steps.clear()
            assert poly_gcd(a, b) == Polynomial.one()
            assert not prs_steps  # decided by the certificate
    assert coprime >= 30

    for _ in range(20):
        g = rand_poly(1, 3)
        a, b = g * rand_poly(0, 4), g * rand_poly(0, 4)
        d = poly_gcd(a, b)
        assert ref(d) == ref(a).gcd(ref(b)) and _divides(g.monic(), d)

    # q divides the leading coefficient: reduced mod q, the common factor
    # q*x + 1 turns into a unit and the pair looks coprime, so the
    # certificate must not be used
    q = prime(0)
    common = Polynomial((1, q))
    a, b = common * (X + 5), common * (X + 7)
    assert poly_gcd(a, b) == common.monic()
    assert poly_gcd(Polynomial((0, 1, q)), X + q) == Polynomial.one()


def test_gcd_matches_euclid_reference(monkeypatch):
    import joinspectra.polynomials as polynomials
    from joinspectra.kernel import prime

    rng = random.Random(54)
    pairs = []
    for _ in range(40):
        g = _rand_poly(rng, 3, nonzero=True)
        pairs.append((g * _rand_poly(rng, 4), g * _rand_poly(rng, 4)))
        pairs.append((_rand_poly(rng, 5), _rand_poly(rng, 5)))
    for q in (prime(0), prime(1), 2**64 + 13):
        common = Polynomial((1, q))
        pairs.append((common * (X + 5), common * (X - 7) ** 2))
        pairs.append((common * (X + 5), Polynomial((1, q + 1)) * (X + 5)))
        pairs.append((common**2 * (X - 1), common * (q * X - 1)))
    expected = [ref(a).gcd(ref(b)) for a, b in pairs]
    assert [ref(poly_gcd(a, b)) for a, b in pairs] == expected

    prs_steps = []
    exact = polynomials._pseudo_rem
    monkeypatch.setattr(polynomials, "_pseudo_rem", lambda a, b: prs_steps.append(1) or exact(a, b))
    monkeypatch.setattr(polynomials, "_gcd_heuristic", lambda a, b: None)
    assert [ref(poly_gcd(a, b)) for a, b in pairs] == expected
    assert prs_steps  # the pseudo-remainder sequence decided


def test_square_free_decomposition_matches_fraction_reference():
    rng = random.Random(53)
    for _ in range(40):
        p = Polynomial.constant(_rand_coeff(rng) or 7)
        for mult in range(1, rng.randint(2, 4)):
            for _ in range(rng.randint(0, 2)):
                p = p * _rand_poly(rng, 2, nonzero=True) ** mult
        if rng.random() < 0.3:
            p = p * (X - 1) * Polynomial((1, 2**62 + 1))  # planted factors shared across multiplicities
        assert [(ref(f), m) for f, m in square_free_decomposition(p)] == ref(p).yun()


def test_square_free_decomposition_reconstructs():
    rng = random.Random(5)
    for _ in range(40):
        parts = []
        for mult in range(1, rng.randint(2, 4)):
            parts.append((Polynomial([rng.randint(-4, 4), 1]), mult))
        p = Polynomial.one()
        for f, m in parts:
            p = p * f**m
        p = p * Fraction(rng.randint(1, 5))
        decomp = square_free_decomposition(p)
        rebuilt = Polynomial.one()
        for f, m in decomp:
            assert f.is_monic
            assert is_square_free(f)
            rebuilt = rebuilt * f**m
        assert rebuilt == p.monic()
        for i in range(len(decomp)):
            for j in range(i + 1, len(decomp)):
                assert poly_gcd(decomp[i][0], decomp[j][0]).degree == 0
    with pytest.raises(DomainError):
        square_free_decomposition(Polynomial())


def test_serialization_round_trip():
    p = Polynomial((Fraction(1, 2), -3, 0, 1))
    assert Polynomial.from_strings(p.to_strings()) == p
    assert p.to_strings() == ["1/2", "-3", "0", "1"]


def test_str_rendering():
    assert str(X**3 - 2 * X) == "x^3 - 2*x"
    assert str(Polynomial()) == "0"
