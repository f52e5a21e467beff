import random
from fractions import Fraction

import pytest

from helpers import (
    adjugate_form,
    char_matrix,
    cofactor_det,
    cycle,
    dense_join_blocks,
    identity,
    is_square_free,
    lead,
    outer,
    rand_rational_matrix,
    rand_symmetric_matrix,
    rand_vector,
    reduced,
    ref,
    regular_graph_menu,
)
from joinspectra import Graph, JoinSpec, UniversalParams
from joinspectra.errors import PreconditionError, ShapeError
from joinspectra.fixtures import (
    mixed_join_resolvents,
    mixed_join_spec,
    subset_join_resolvents,
    subset_join_spec,
)
from joinspectra.matrices import RationalMatrix, as_vector, charpoly
from joinspectra.polynomials import Polynomial, poly_gcd
from joinspectra.resolvent import main_poles, resolvent_form
from joinspectra.verification import random_graph, random_universal_params

X = Polynomial.x()


def ones(n):
    return tuple(Fraction(1) for _ in range(n))


def pair(form):
    return form.num, form.den


def test_fixture_resolvents_all_ones():
    spec = mixed_join_spec()
    for g, want in zip(spec.components, mixed_join_resolvents()):
        assert pair(resolvent_form(g.adjacency(), ones(g.n))) == want


def test_fixture_resolvents_subset_indicators():
    spec = subset_join_spec()
    for g, s, want in zip(spec.components, spec.subsets, subset_join_resolvents()):
        assert pair(resolvent_form(g.adjacency(), s.indicator())) == want


def test_single_vertex():
    form = resolvent_form(RationalMatrix(1, 1, [0]), (1,))
    assert pair(form) == (Polynomial.one(), X)
    assert form.cofactor * form.den == X


def test_form_reduction_examples():
    # phi = x^3 - 2x over the numerator 3x^2 + 4x reduces to (3x + 4) / (x^2 - 2)
    p3 = Graph.path(3).adjacency()
    form = resolvent_form(p3, ones(3))
    assert form.cofactor * form.den == X**3 - 2 * X
    assert pair(form) == (3 * X + 4, X**2 - 2)
    assert pair(resolvent_form(p3, (0, 0, 0))) == (Polynomial(), Polynomial.one())
    # e_0^T (xI - M)^{-1} (e_0 / 2) for M = diag(1/3, 0): (1/2) / (x - 1/3)
    m = RationalMatrix(2, 2, [Fraction(1, 3), 0, 0, 0])
    assert pair(resolvent_form(m, (Fraction(1, 2), 0), (1, 0))) == (Polynomial.constant(Fraction(1, 2)), X - Fraction(1, 3))


def test_form_canonical_form():
    # coprime, monic denominator dividing phi, zero as 0/1, and reducing again changes nothing
    rng = random.Random(41)
    for trial in range(30):
        n = rng.randint(0, 5)
        m = rand_rational_matrix(rng, n)
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        if trial % 5 == 0:
            u = tuple(Fraction(0) for _ in range(n))
        form = resolvent_form(m, u, v if trial % 2 else u)
        assert form.den.is_monic
        assert form.cofactor * form.den == charpoly(m)
        if form.num.is_zero:
            assert form.den == Polynomial.one()
        else:
            assert poly_gcd(form.num, form.den).degree == 0
            assert form.num.degree < form.den.degree
        assert reduced(form.num, form.den) == pair(form)


def test_form_reduction_preserves_evaluation():
    # num(x) / den(x) is v^T (xI - M)^{-1} u at every rational x off the spectrum,
    # the right side by Cramer's rule on the scalar matrix xI - M
    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rand_rational_matrix(rng, n)
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        form = resolvent_form(m, u, v)
        for x in (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6), 7)):
            rows = [[(x if i == j else 0) - m[i, j] for j in range(n)] for i in range(n)]
            det = cofactor_det(rows)
            if det == 0:
                continue
            assert form.num(x) / form.den(x) == adjugate_form(rows, u, v) / det


def test_shape_errors():
    with pytest.raises(ShapeError):
        resolvent_form(RationalMatrix(1, 2, [1, 2]), (1,))
    with pytest.raises(ShapeError):
        resolvent_form(identity(2), (1,))


def test_eigenvector_shortcut_matches_full_computation():
    # Fiedler's case: the form of an eigenvector u for mu is |u|^2 / (x - mu).
    # All-ones is an eigenvector of the 4-cycle for eigenvalue 2: 4 / (x - 2)
    c4 = cycle(4).adjacency()
    assert pair(resolvent_form(c4, ones(4))) == (Polynomial.constant(4), X - 2)
    for n in (2, 3, 5):
        kn = Graph.complete(n).adjacency()
        assert pair(resolvent_form(kn, ones(n))) == (Polynomial.constant(n), X - (n - 1))
    # a rational eigenvector of a rational matrix: |u|^2 = 4/9, mu = 1/2
    half = RationalMatrix(1, 1, [Fraction(1, 2)])
    assert pair(resolvent_form(half, (Fraction(2, 3),))) == (Polynomial.constant(Fraction(4, 9)), X - Fraction(1, 2))


def test_main_poles_fixture():
    spec = mixed_join_spec()
    form = resolvent_form(spec.components[0].adjacency(), ones(3))
    assert form.den == X**2 - 2
    poles = main_poles(spec.components[0].adjacency(), ones(3))
    assert len(poles) == 2
    assert abs(poles[0] + 2**0.5) < 1e-10 and abs(poles[1] - 2**0.5) < 1e-10
    assert main_poles(RationalMatrix(1, 1, [0]), (1,)) == [0.0]
    sub = subset_join_spec()
    g1 = resolvent_form(sub.components[0].adjacency(), sub.subsets[0].indicator())
    assert g1.den == X**3 - 2 * X
    got = main_poles(sub.components[0].adjacency(), sub.subsets[0].indicator())
    assert multiclose(got, [-(2**0.5), 0.0, 2**0.5])


def multiclose(a, b, tol=1e-9):
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(sorted(a), sorted(b)))


def test_main_poles_rejects_asymmetric():
    m = RationalMatrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(PreconditionError):
        main_poles(m, (1, 1))
    assert main_poles(RationalMatrix.from_rows([[0, 1], [1, 0]]), (1, 1)) == [1.0]


def form_at_x_minus(form, c):
    """(num(x - c), den(x - c)) by the reference polynomials: the form of M + c I."""
    return Polynomial(ref(form.num).shift(c).cs), Polynomial(ref(form.den).shift(c).cs)


def test_shift_examples():
    # 1/x for [0] becomes 1/(x - 2) for [2], and the path's (3x + 4) / (x^2 - 2)
    # becomes (3(x - 2) + 4) / ((x - 2)^2 - 2) for P3 + 2I
    assert pair(resolvent_form(RationalMatrix(1, 1, [2]), (1,))) == (Polynomial.one(), X - 2)
    p3 = Graph.path(3).adjacency() + identity(3) * 2
    assert pair(resolvent_form(p3, ones(3))) == (3 * X - 2, X**2 - 4 * X + 2)


def test_shift_agrees_with_shifted_matrix():
    # the form of M + c I is the form of M at x - c
    a = Graph.path(3).adjacency()
    direct = resolvent_form(a + identity(3) * 3, ones(3))
    assert form_at_x_minus(resolvent_form(a, ones(3)), 3) == pair(direct)
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = rand_symmetric_matrix(rng, n)
        u = rand_vector(rng, n)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        lhs = form_at_x_minus(resolvent_form(m, u), c)
        rhs = pair(resolvent_form(m + identity(n) * c, u))
        assert lhs == rhs


def test_denominator_square_free_and_divides_charpoly():
    rng = random.Random(32)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = rand_symmetric_matrix(rng, n)
        u = rand_vector(rng, n)
        form = resolvent_form(m, u)
        phi = charpoly(m)
        phi.exact_div(form.den)  # raises unless the denominator divides phi
        if not form.num.is_zero:
            assert is_square_free(form.den)
            assert form.num.degree < form.den.degree


def test_nonzero_for_nonzero_symmetric_vector():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_symmetric_matrix(rng, n)
        u = rand_vector(rng, n)
        if all(x == 0 for x in u):
            continue
        assert not resolvent_form(m, u).num.is_zero


def test_leading_behavior_matches_inner_product():
    # x * form(x) tends to v.u: degrees differ by one and the leading
    # coefficient ratio equals the inner product (when it is nonzero)
    rng = random.Random(34)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_symmetric_matrix(rng, n)
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        inner = sum(a * b for a, b in zip(u, v))
        form = resolvent_form(m, u, v)
        if inner != 0:
            assert form.den.degree - form.num.degree == 1
            assert lead(form.num) == inner  # denominator is monic
    ones5 = ones(5)
    f = resolvent_form(rand_symmetric_matrix(rng, 5), ones5)
    assert lead(f.num) == 5


def test_bilinearity():
    rng = random.Random(35)
    for _ in range(15):
        n = rng.randint(1, 5)
        m = rand_symmetric_matrix(rng, n)
        u1, u2, v = rand_vector(rng, n), rand_vector(rng, n), rand_vector(rng, n)
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        combo = tuple(a * x + y for x, y in zip(u1, u2))
        lhs = pair(resolvent_form(m, combo, v))
        # a n1 / d1 + n2 / d2 over the common denominator d1 d2
        f1, f2 = resolvent_form(m, u1, v), resolvent_form(m, u2, v)
        assert lhs == reduced(a * f1.num * f2.den + f2.num * f1.den, f1.den * f2.den)


def test_zero_vector_gives_zero_form():
    m = rand_symmetric_matrix(random.Random(36), 3)
    form = resolvent_form(m, (0, 0, 0))
    assert pair(form) == (Polynomial(), Polynomial.one())
    assert form.cofactor * form.den == charpoly(m)
    assert main_poles(m, (0, 0, 0)) == []


def test_polynomial_image_of_poles():
    # poles of the resolvent of p(M) are exactly p applied to the poles of the
    # resolvent of M (as sets), for quadratic p
    rng = random.Random(37)
    for _ in range(10):
        n = rng.randint(2, 5)
        m = rand_symmetric_matrix(rng, n)
        u = rand_vector(rng, n, integer=True)
        a, b, c = rng.randint(1, 2), rng.randint(-2, 2), rng.randint(-2, 2)
        pm = (m @ m) * a + m * b + identity(n) * c
        base = resolvent_form(m, u)
        image = resolvent_form(pm, u)
        if base.num.is_zero:
            assert image.num.is_zero
            continue
        got = main_poles(pm, u)
        expected = {a * t * t + b * t + c for t in main_poles(m, u)}
        reduced = set()
        for t in sorted(expected):
            if all(abs(t - s) > 1e-6 for s in reduced):
                reduced.add(t)
        assert multiclose(sorted(got), sorted(reduced), tol=1e-7)


def test_resolvent_of_rank_one_update():
    # v^T (xI - (A - a u v^T))^{-1} u  ==  form / (1 + a * form), which is
    # num / (den + a * num) for the form num / den
    rng = random.Random(38)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = rand_symmetric_matrix(rng, n)
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        base = resolvent_form(m, u, v)
        den = base.den + a * base.num
        if den.is_zero:
            continue
        updated = m - outer(u, v) * a
        lhs = pair(resolvent_form(updated, u, v))
        assert lhs == reduced(base.num, den)


def test_matches_adjugate_reference():
    # v^T adj(xI - M) u / det(xI - M), both by cofactor expansion
    rng = random.Random(31)
    for trial in range(24):
        n = rng.randint(1, 4)
        m = rand_rational_matrix(rng, n)
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        zero = tuple(Fraction(0) for _ in range(n))
        if trial % 6 == 0:
            u, v = (zero, v) if trial % 12 == 0 else (u, zero)
        rows = char_matrix(m)
        phi = cofactor_det(rows)
        form = resolvent_form(m, u, v)
        assert form.cofactor * form.den == phi
        assert pair(form) == reduced(adjugate_form(rows, u, v), phi)
        if zero in (u, v):
            assert pair(form) == (Polynomial(), Polynomial.one())


def test_rational_forms_equal_the_two_charpoly_reference():
    # the clearing of rational M, u and v for the bordered pass, against
    # phi_M and phi_M - phi_{M + u v^T}
    rng = random.Random(40)
    for n in range(13):
        m = rand_rational_matrix(rng, n)
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        phi = charpoly(m)
        for vv in (v, u):
            form = resolvent_form(m, u, vv)
            assert form.cofactor * form.den == phi
            assert pair(form) == reduced(phi - charpoly(m + outer(u, vv)), phi)


def _eigenvector_inputs(rng):
    """Seeded (M, u) with M u = mu u, u != 0, every M at most 5 x 5."""
    out = []
    for case in range(12):
        k = rng.randint(1, 3)
        host = random_graph(rng, k)
        params = random_universal_params(rng)
        if case % 2:
            # alpha + delta = 0: all-ones is an eigenvector of any block
            comps = tuple(random_graph(rng, rng.randint(1, 5)) for _ in range(k))
            params = UniversalParams(params.alpha, params.beta, params.gamma, -params.alpha)
        else:
            comps = []
            while len(comps) < k:
                g = regular_graph_menu(rng)
                if g.n <= 5:
                    comps.append(g)
        # the blocks carry the delta * w_i shift of the join weights
        for m, u, _ in dense_join_blocks(JoinSpec(host, tuple(comps), universal=params))[0]:
            out.append((m, u))
            c = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
            out.append((m, tuple(c * x for x in u)))  # a rational multiple of all-ones
    for size, copies in ((2, 2), (1, 3), (1, 5), (2, 2)):
        # disjoint copies of K_size form a regular graph (the empty graph for
        # size 1), and the indicator of one copy is an eigenvector
        n = size * copies
        edges = [(b + i, b + j) for b in range(0, n, size) for i in range(size) for j in range(i + 1, size)]
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        m = Graph(n, edges).adjacency() + identity(n) * c
        out.append((m, tuple(Fraction(int(i < size)) for i in range(n))))
    for n in (2, 4):
        # constant row sums make all-ones an eigenvector of an asymmetric matrix
        rows = [[rng.randint(-3, 3) for _ in range(n - 1)] for _ in range(n)]
        rows = [r + [n - sum(r)] for r in rows]
        out.append((RationalMatrix.from_rows(rows), ones(n)))
    return out


def test_eigenvector_branch_matches_adjugate_reference(kernel_calls):
    # an eigenvector takes the one bordered pass of every form, and the gcd
    # leaves |u|^2 / (x - mu) with cofactor phi / (x - mu); Cramer's rule runs
    # no kernel, so it checks that form independently
    for m, u in _eigenvector_inputs(random.Random(39)):
        n = m.rows
        i = next(i for i, x in enumerate(u) if x)
        mu = sum(m.entries[i * n + j] * x for j, x in enumerate(u)) / u[i]
        assert all(sum(m.entries[r * n + j] * x for j, x in enumerate(u)) == mu * u[r] for r in range(n))
        kernel_calls.clear()
        form = resolvent_form(m, u)
        assert kernel_calls == [("bordered", n)]
        rows = char_matrix(m)
        phi = cofactor_det(rows)
        assert pair(form) == (Polynomial.constant(sum(x * x for x in u)), X - mu)
        assert form.cofactor == phi.exact_div(X - mu)
        assert pair(form) == reduced(adjugate_form(rows, u, u), phi)


def test_non_eigenvectors_take_one_bordered_pass(kernel_calls):
    k4 = Graph.complete(4).adjacency()
    # K4 1 = 3 1 on every row but the last
    last_row_off = k4 + RationalMatrix(4, 4, [0] * 15 + [1])
    c4 = cycle(4).adjacency()
    cases = [
        (last_row_off, ones(4), ones(4)),
        (c4, ones(4), (1, 0, 0, 0)),  # u is an eigenvector, but u != v
        (k4, (0, 0, 0, 0), (0, 0, 0, 0)),
    ]
    for m, u, v in cases:
        kernel_calls.clear()
        form = resolvent_form(m, u, v)
        assert kernel_calls == [("bordered", m.rows)]
        rows = char_matrix(m)
        phi = cofactor_det(rows)
        assert form.cofactor * form.den == phi
        assert pair(form) == reduced(adjugate_form(rows, as_vector(u), as_vector(v)), phi)
    kernel_calls.clear()
    form = resolvent_form(RationalMatrix(0, 0, []), ())
    assert kernel_calls == [("bordered", 0)]
    assert pair(form) == (Polynomial(), Polynomial.one()) and form.cofactor * form.den == Polynomial.one()


def test_scaled_and_rank_one_updated_forms_equal_the_forms_of_their_matrices():
    # the form of cM + gamma u v^T from that of M, on symmetric blocks with
    # u = v (the universal blocks' case) and on general ones
    rng = random.Random(45)
    for trial in range(60):
        n = rng.randint(0, 6)
        u = rand_vector(rng, n)
        if trial % 2:
            m, v = rand_symmetric_matrix(rng, n), u
        else:
            m, v = rand_rational_matrix(rng, n), rand_vector(rng, n)
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
        gamma = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        base = resolvent_form(m, u, v)
        assert base.scaled(c) == resolvent_form(m * c, u, v)
        assert base.rank_one_updated(gamma) == resolvent_form(m + outer(u, v) * gamma, u, v)
        assert base.scaled(c).rank_one_updated(gamma).translated(gamma) == resolvent_form(
            m * c + outer(u, v) * gamma + identity(n) * gamma, u, v
        )
