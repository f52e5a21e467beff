import random
from fractions import Fraction

import pytest

from helpers import adjugate_form, cofactor_det, coupling_rows, determinant, identity, outer, rand_int_matrix, rand_rational_matrix, rand_vector, to_lists, trace, transpose
from joinspectra import Graph
from joinspectra.errors import ShapeError
from joinspectra.matrices import RationalMatrix, charpoly, packed_det, packed_rows, poly_det
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


def _poly_entries(m: RationalMatrix) -> list[list[Polynomial]]:
    return [[Polynomial.constant(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


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
    m = [[X, Polynomial.constant(-1)], [Polynomial.constant(-1), X]]
    assert poly_det(m) == X**2 - 1
    assert poly_det([]) == Polynomial.one()


def test_poly_det_vs_cofactor():
    rng = random.Random(6)
    for _ in range(30):
        k = rng.randint(1, 4)
        rows = [
            [Polynomial([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]) for _ in range(k)]
            for _ in range(k)
        ]
        assert poly_det(rows) == cofactor_det(rows)

    def rand_poly(max_len: int, den: int = 1) -> Polynomial:
        return Polynomial([Fraction(rng.randint(-3, 3), rng.randint(1, den)) for _ in range(rng.randint(0, max_len))])

    def rand_rows(k: int, max_len: int = 3) -> list[list[Polynomial]]:
        # every row draws from its own denominators
        return [[rand_poly(max_len, rng.choice((1, 2, 6, 35))) for _ in range(k)] for _ in range(k)]

    cases = [rand_rows(rng.randint(1, 6)) for _ in range(12)]
    for k in (2, 4, 6):
        zero_row = rand_rows(k)
        zero_row[rng.randrange(k)] = [Polynomial()] * k
        cases.append(zero_row)
        zero_pivot = rand_rows(k)
        zero_pivot[0][0] = Polynomial()
        cases.append(zero_pivot)
        cases.append(rand_rows(k, max_len=1))  # constant matrix: degree bound 0
    for rows in cases:
        assert poly_det(rows) == cofactor_det(rows)

    # the second row repeats the first up to constants, so the determinant
    # cancels below the row-degree bound
    for k in (2, 3, 5):
        rows = rand_rows(k)
        rows[0] = [X**2 + p for p in rows[0]]
        rows[1] = [rows[0][j] + Fraction(rng.randint(-3, 3), 2) for j in range(k)]
        want = cofactor_det(rows)
        assert want.degree < sum(max(p.degree for p in r) for r in rows)
        assert poly_det(rows) == want


def test_poly_det_rejects_a_wrong_value(monkeypatch):
    import joinspectra.matrices as matrices

    exact = matrices._int_det
    calls = []

    def off_by_one_at_two(m):
        calls.append(m)
        return exact(m) + (1 if len(calls) == 3 else 0)

    monkeypatch.setattr(matrices, "_int_det", off_by_one_at_two)
    rows = [[X**2 + 1, X], [X, X**2 - 3]]
    with pytest.raises(ArithmeticError):
        poly_det(rows)
    assert len(calls) == 5  # one value per point x = 0..4


def test_packed_det_vs_cofactor():
    # any polynomials: rational, non-monic, zero, deg f >= deg g; zero and
    # asymmetric rational rho entries, and k = 0
    rng = random.Random(24)

    def rand_poly() -> Polynomial:
        den = rng.choice((1, 2, 6, 35))
        return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(rng.randint(0, 4))])

    for _ in range(60):
        k = rng.randint(0, 5)
        fs, gs = [rand_poly() for _ in range(k)], [rand_poly() for _ in range(k)]
        rho = [[0 if i == j or rng.random() < 0.3 else Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for j in range(k)] for i in range(k)]
        rows = coupling_rows(fs, gs, rho)
        want = cofactor_det(rows) if k else Polynomial.one()
        assert packed_det(fs, gs, packed_rows(fs, gs, rho)) == want


def test_packed_det_rejects_a_wrong_value(monkeypatch):
    import joinspectra.matrices as matrices

    fs, gs = [X + 1, 2 * X - Fraction(1, 3)], [X**2 - 3, X**2 + X]
    rho = ((0, Fraction(1, 2)), (-3, 0))
    rows = packed_rows(fs, gs, rho)
    assert packed_det(fs, gs, rows) == cofactor_det(coupling_rows(fs, gs, rho))
    _, _, degree, w = rows
    exact = matrices._int_det
    # off by one, and off by a multiple of 2^w - 1 past the top slot, which keeps
    # the digit sum but adds digits: the check at x = 1 and the digit count catch them
    for error in (1, ((1 << w) - 1) << (w * (degree + 1))):
        calls = []

        def wrong_packed_value(m):
            calls.append(m)
            return exact(m) + (error if len(calls) == 1 else 0)

        monkeypatch.setattr(matrices, "_int_det", wrong_packed_value)
        with pytest.raises(ArithmeticError):
            packed_det(fs, gs, rows)
        assert len(calls) == (2 if error == 1 else 1)  # the packed value, then x = 1


def test_poly_det_needs_pivot_search():
    # leading zero pivot forces a row swap (sign flip)
    rows = [
        [Polynomial(), X],
        [X, Polynomial()],
    ]
    assert poly_det(rows) == -(X**2)
    singular = [[X, X], [X, X]]
    assert poly_det(singular).is_zero


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
