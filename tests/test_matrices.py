import random
from fractions import Fraction

import pytest

from helpers import adjugate_form, cofactor_det, coupling_rows, determinant, identity, outer, rand_int_matrix, rand_rational_matrix, rand_vector, to_lists, trace, transpose
from joinspectra import Graph
from joinspectra.errors import ShapeError
from joinspectra.matrices import RationalMatrix, charpoly, cleared_rows, coupling_poly, interpolated_det, packed_det, packed_width, realization_charpoly
from joinspectra.polynomials import Polynomial

X = Polynomial.x()


def test_construction_and_shape_errors():
    m = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert m[0, 1] == 2
    assert trace(m) == 5
    with pytest.raises(ShapeError):
        RationalMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ShapeError):
        RationalMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ShapeError):
        charpoly(RationalMatrix(1, 2, [1, 2]))


def test_matrix_algebra():
    a = RationalMatrix.from_rows([[0, 1], [1, 0]])
    i = identity(2)
    assert a @ a == i
    assert (a + a) == a * 2
    assert transpose(a) == a
    assert a.is_symmetric()
    assert not RationalMatrix.from_rows([[0, 1], [0, 0]]).is_symmetric()
    assert not RationalMatrix(2, 3, range(6)).is_symmetric()
    assert RationalMatrix(0, 0, []).is_symmetric()
    rng = random.Random(8)
    for n in range(6):
        s = rand_int_matrix(rng, n)
        s = s + transpose(s)
        assert s.is_symmetric()
        for k in range(n * n):
            i, j = divmod(k, n)
            # one entry off: symmetric exactly when it lies on the diagonal
            off = RationalMatrix(n, n, [x + Fraction(1, 3) * (e == k) for e, x in enumerate(s.entries)])
            assert off.is_symmetric() == (i == j)


def test_charpoly_trivial_cases():
    assert charpoly(RationalMatrix(1, 1, [0])) == X
    assert charpoly(RationalMatrix(0, 0, [])) == Polynomial.one()


def test_charpoly_small_graphs():
    assert charpoly(Graph.path(3).adjacency()) == X**3 - 2 * X
    star = Graph(4, [(0, 2), (1, 2), (2, 3)])
    assert charpoly(star.adjacency()) == X**4 - 3 * X**2


def test_charpoly_rational_entries():
    m = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2)]])
    phi = charpoly(m)
    # det(xI - M) evaluated at a few rational points vs cofactor expansion
    for r in (0, 1, Fraction(-3, 2)):
        shifted = [
            [Fraction(r) - m[0, 0], -m[0, 1]],
            [-m[1, 0], Fraction(r) - m[1, 1]],
        ]
        assert phi(Fraction(r)) == cofactor_det(shifted)


def test_determinant_vs_cofactor():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rand_rational_matrix(rng, n)
        assert determinant(m) == cofactor_det(to_lists(m))


def test_matrix_determinant_lemma():
    # det(A + u v^T) == (1 + v^T A^{-1} u) det(A), exactly
    rng = random.Random(9)
    checked = 0
    while checked < 25:
        n = rng.randint(1, 5)
        a = rand_int_matrix(rng, n)
        det_a = determinant(a)
        if det_a == 0:
            continue
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        lhs = determinant(a + outer(u, v))
        rhs = (1 + adjugate_form(to_lists(a), u, v) / det_a) * det_a
        assert lhs == rhs
        checked += 1


def test_poly_det_examples():
    # [[x, -1], [-1, x]] is G - F rho for g_i = x, f_i = 1 and rho the swap; k = 0 gives 1
    rows = cleared_rows([Polynomial.one()] * 2, [X, X], ((0, 1), (1, 0)))
    assert interpolated_det(rows) == X**2 - 1
    assert interpolated_det(cleared_rows([], [], ())) == Polynomial.one()


def _phi_cases(rng):
    """(fs, gs, rho) of Phi's matrix G - F rho: any polynomials (rational,
    non-monic, zero, deg f >= deg g) under asymmetric rational rho with zeros
    for k = 0..5; then a zero first pivot, constants only (degree bound 0),
    and rows whose leading terms cancel below the row-degree bound."""

    def rand_poly(max_len: int = 4) -> Polynomial:
        den = rng.choice((1, 2, 6, 35))
        return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(rng.randint(0, max_len))])

    def rand_rho(k: int) -> list[list]:
        return [[0 if i == j or rng.random() < 0.3 else Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for j in range(k)] for i in range(k)]

    for _ in range(60):
        k = rng.randint(0, 5)
        yield [rand_poly() for _ in range(k)], [rand_poly() for _ in range(k)], rand_rho(k)
    for k in (2, 4, 6):
        fs, gs, rho = [rand_poly() for _ in range(k)], [rand_poly() for _ in range(k)], rand_rho(k)
        fs[0], gs[0], rho[0][1] = X + 1, Polynomial(), Fraction(1, 2)
        yield fs, gs, rho
        yield [rand_poly(1) for _ in range(k)], [rand_poly(1) for _ in range(k)], rand_rho(k)
        # rows 0 and 1 couple only to each other, and their 2 x 2 minor loses its x^4 term
        fs, gs, rho = [rand_poly() for _ in range(k)], [rand_poly() for _ in range(k)], rand_rho(k)
        fs[0], fs[1] = X**2 + rand_poly(2), X**2 + rand_poly(2)
        gs[0], gs[1] = X**2 + rand_poly(2), X**2 + rand_poly(2)
        rho[0] = [0, 1] + [0] * (k - 2)
        rho[1] = [1, 0] + [0] * (k - 2)
        yield fs, gs, rho


def _phi_reference(fs, gs, rho) -> Polynomial:
    return cofactor_det(coupling_rows(fs, gs, rho)) if fs else Polynomial.one()


def test_poly_det_vs_cofactor():
    cancelled = 0
    for fs, gs, rho in _phi_cases(random.Random(6)):
        rows = cleared_rows(fs, gs, rho)
        want = _phi_reference(fs, gs, rho)
        assert interpolated_det(rows) == want
        cancelled += want.degree < rows.degree
    assert cancelled >= 3


def test_poly_det_rejects_a_wrong_value(monkeypatch):
    import joinspectra.matrices as matrices

    exact = matrices._int_det
    calls = []

    def off_by_one_at_two(m):
        calls.append(m)
        return exact(m) + (1 if len(calls) == 3 else 0)

    monkeypatch.setattr(matrices, "_int_det", off_by_one_at_two)
    # [[x^2 + 1, x], [x, x^2 - 3]]
    rows = cleared_rows([X, X], [X**2 + 1, X**2 - 3], ((0, -1), (-1, 0)))
    with pytest.raises(ArithmeticError):
        interpolated_det(rows)
    assert len(calls) == 5  # one value per point x = 0..4


def test_packed_det_vs_cofactor():
    for fs, gs, rho in _phi_cases(random.Random(24)):
        rows = cleared_rows(fs, gs, rho)
        assert packed_det(rows, packed_width(rows)) == _phi_reference(fs, gs, rho)


def test_packed_det_rejects_a_wrong_value(monkeypatch):
    import joinspectra.matrices as matrices

    fs, gs = [X + 1, 2 * X - Fraction(1, 3)], [X**2 - 3, X**2 + X]
    rho = ((0, Fraction(1, 2)), (-3, 0))
    rows = cleared_rows(fs, gs, rho)
    w = packed_width(rows)
    assert packed_det(rows, w) == cofactor_det(coupling_rows(fs, gs, rho))
    exact = matrices._int_det
    # off by one, and off by a multiple of 2^w - 1 past the top slot, which keeps
    # the digit sum but adds digits: the check at x = 1 and the digit count catch them
    for error in (1, ((1 << w) - 1) << (w * (rows.degree + 1))):
        calls = []

        def wrong_packed_value(m):
            calls.append(m)
            return exact(m) + (error if len(calls) == 1 else 0)

        monkeypatch.setattr(matrices, "_int_det", wrong_packed_value)
        with pytest.raises(ArithmeticError):
            packed_det(rows, w)
        assert len(calls) == (2 if error == 1 else 1)  # the packed value, then x = 1


def test_poly_det_needs_pivot_search():
    # [[0, x], [x, 0]]: a leading zero pivot forces a row swap (sign flip);
    # [[x, x], [x, x]] is singular
    swap = ((0, -1), (-1, 0))
    rows = cleared_rows([X, X], [Polynomial(), Polynomial()], swap)
    singular = cleared_rows([X, X], [X, X], swap)
    assert interpolated_det(rows) == packed_det(rows, packed_width(rows)) == -(X**2)
    assert interpolated_det(singular).is_zero
    assert packed_det(singular, packed_width(singular)).is_zero


def test_zero_rows_give_a_zero_phi_in_every_form():
    # row i of G - F rho is zero when g_i = 0 and f_i = 0 or row i of rho is;
    # two zero rows of degree -1 each once sent the packed check into a digit
    # count of 0 > -1, on a determinant that is 0.  Without zero rows every g_i
    # is monic with deg f_i < deg g_i, so the realization is checked too
    rng = random.Random(27)
    zero = Polynomial()
    cases = [([zero, zero], [zero, zero], ((0, 1), (1, 0)))]
    for _ in range(60):
        k = rng.randint(1, 5)
        degrees = [rng.randint(1, 3) for _ in range(k)]
        gs = [X**d + Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]) for d in degrees]
        fs = [Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(0, d))]) for d in degrees]
        rho = [[0 if i == j or rng.random() < 0.3 else Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for j in range(k)] for i in range(k)]
        for i in rng.sample(range(k), rng.randint(0, min(3, k))):
            gs[i] = zero
            if rng.random() < 0.5:
                fs[i] = zero
            else:
                rho[i] = [0] * k
        cases.append((fs, gs, rho))
    seen = set()
    for fs, gs, rho in cases:
        zero_rows = sum(not g and (not f or not any(r)) for f, g, r in zip(fs, gs, rho))
        rows = cleared_rows(fs, gs, rho)
        want = cofactor_det(coupling_rows(fs, gs, rho))
        assert interpolated_det(rows) == want
        assert packed_det(rows, packed_width(rows)) == want
        assert coupling_poly(fs, gs, rho) == want
        if zero_rows:
            assert want.is_zero
        else:
            assert realization_charpoly(rows) == want
        seen.add(zero_rows)
    assert seen == {0, 1, 2, 3}


def test_fixture_coupling_determinant_identity():
    # Phi from the fixture's reduced resolvents f_i / g_i, multiplied by every
    # block cofactor phi_i / g_i, must expand to the known 10-vertex join charpoly
    from joinspectra.fixtures import mixed_join_charpoly_factors, mixed_join_resolvents, product
    from joinspectra.spectra import coupling_poly

    forms = mixed_join_resolvents()
    phis = [X**3 - 2 * X, X**4 - 3 * X**2, X**3 - X]
    rho = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    total = coupling_poly([f for f, _ in forms], [g for _, g in forms], rho)
    for phi, (_, g) in zip(phis, forms):
        total = total * phi.exact_div(g)
    assert total == product(mixed_join_charpoly_factors())
