"""Acceptance suite: one test per criterion, each printing a PASS line.

Exact checks compare Polynomial objects (Fraction coefficients), so equality
is coefficient-for-coefficient.  Numeric multiset checks use the stated
1e-8 tolerance.  Stated runtime budgets are asserted with perf_counter.
"""

import random
import time
from fractions import Fraction

from helpers import adjugate_form, char_matrix, multisets_close, outer, rand_int_matrix, rand_symmetric_matrix, rand_vector, reduced, regular_graph_menu
from joinspectra import (
    Graph,
    JoinSpec,
    UniversalParams,
    assemble,
    compare,
    corona_charpoly,
    corona_charpoly_via_join,
    coupled_charpoly,
    coupled_spectrum,
    determinant,
    generalized_charpoly,
    h_join,
    hgen_join_charpoly,
    hjoin_universal_charpoly,
    hjoin_universal_spectrum,
    hjoin_universal_spectrum_alpha_delta_zero,
    hjoin_universal_spectrum_regular,
    lexicographic,
    oracle_charpoly,
    resolvent_form,
    universal_matrix,
)
from joinspectra.matrices import charpoly
from joinspectra.polynomials import Polynomial, is_square_free
from joinspectra.spectra import universal_blocks
from joinspectra.fixtures import (
    mixed_join_charpoly_factors,
    mixed_join_resolvents,
    mixed_join_spec,
    poly_det_charpoly,
    product,
    subset_join_charpoly_factors,
    subset_join_resolvents,
    subset_join_spec,
)
from joinspectra.verification import (
    random_coupled_blocks,
    random_graph,
    random_join_spec,
    random_universal_params,
)

ADJ = UniversalParams.adjacency()
X = Polynomial.x()
TOL = 1e-8


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS  {text}")


def test_criterion_01_mixed_join_golden_charpoly():
    start = time.perf_counter()
    spec = mixed_join_spec().with_universal(ADJ)
    got = hjoin_universal_charpoly(spec)
    elapsed = time.perf_counter() - start
    assert got == product(mixed_join_charpoly_factors())
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, f"mixed-join charpoly exact in {elapsed * 1e3:.1f} ms")


def test_criterion_02_mixed_join_resolvents():
    spec = mixed_join_spec()
    for g, want in zip(spec.components, mixed_join_resolvents()):
        got = resolvent_form(g.adjacency(), [1] * g.n)
        assert (got.num, got.den) == want
    report(2, "all three all-ones resolvents exactly reduced")


def test_criterion_03_subset_join_golden():
    start = time.perf_counter()
    spec = subset_join_spec()
    got = hgen_join_charpoly(spec)
    elapsed = time.perf_counter() - start
    assert got == product(subset_join_charpoly_factors())
    for g, s, want in zip(spec.components, spec.subsets, subset_join_resolvents()):
        got = resolvent_form(g.adjacency(), s.indicator())
        assert (got.num, got.den) == want
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(3, f"subset-join charpoly and resolvents exact in {elapsed * 1e3:.1f} ms")


def test_criterion_04_oracle_equivalence_suite():
    start = time.perf_counter()
    rng = random.Random(2024)
    zero_vectors = 0
    asym = 0
    for i in range(200):
        cb = random_coupled_blocks(rng, max_k=5, max_n=5)
        zero_vectors += sum(1 for _, u, v in cb.blocks if all(x == 0 for x in u) or all(x == 0 for x in v))
        asym += 0 if all(cb.rho[i][j] == cb.rho[j][i] for i in range(cb.k) for j in range(cb.k)) else 1
        verdict = compare(coupled_charpoly(cb), oracle_charpoly(assemble(cb)))
        assert verdict.equal, f"case {i}: {verdict.detail}"
    elapsed = time.perf_counter() - start
    assert zero_vectors > 0 and asym > 0  # the tricky shapes really occurred
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(4, f"200/200 random glued systems equal the oracle exactly in {elapsed:.1f} s")


def test_criterion_05_universal_sweep():
    presets = {
        "adjacency": UniversalParams.adjacency(),
        "laplacian": UniversalParams.laplacian(),
        "signless": UniversalParams.signless_laplacian(),
        "seidel": UniversalParams.seidel(),
    }
    rng = random.Random(55)
    total = 0
    for name, params in presets.items():
        for _ in range(50):
            spec = random_join_spec(rng, max_k=4, max_n=4, universal=params)
            formula = hjoin_universal_charpoly(spec)
            truth = oracle_charpoly(universal_matrix(h_join(spec.with_universal(None)), params))
            verdict = compare(formula, truth)
            assert verdict.equal, f"{name}: {verdict.detail}"
            total += 1
    assert total == 200
    report(5, "200/200 universal-matrix sweeps equal the graph oracle exactly")


def test_criterion_06_shortcut_consistency():
    rng = random.Random(56)
    for _ in range(50):
        k = rng.randint(1, 3)
        spec = JoinSpec(
            random_graph(rng, k),
            tuple(regular_graph_menu(rng) for _ in range(k)),
            universal=random_universal_params(rng),
        )
        shortcut = hjoin_universal_spectrum_regular(spec)
        general = hjoin_universal_spectrum(spec)
        assert multisets_close(shortcut.eigenvalues(), general.eigenvalues(), TOL)
    for _ in range(50):
        alpha = Fraction(0)
        while alpha == 0:
            alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        params = UniversalParams(alpha, rng.randint(-2, 2), rng.randint(-2, 2), -alpha)
        spec = random_join_spec(rng, max_k=3, max_n=4, universal=params)
        shortcut = hjoin_universal_spectrum_alpha_delta_zero(spec)
        general = hjoin_universal_spectrum(spec)
        assert multisets_close(shortcut.eigenvalues(), general.eigenvalues(), TOL)
    report(6, "100/100 shortcut spectra match the general route within 1e-8")


def test_criterion_07_corona_two_routes():
    assert corona_charpoly(Graph(1), (Graph(1),)) == X**2 - 1
    rng = random.Random(57)
    for _ in range(50):
        k = rng.randint(1, 4)
        host = random_graph(rng, k)
        family = tuple(random_graph(rng, rng.randint(1, 4)) for _ in range(k))
        assert corona_charpoly(host, family) == corona_charpoly_via_join(host, family)
    report(7, "50/50 corona computations agree across both constructions exactly")


def test_criterion_08_lexicographic():
    # H[G] is the join whose components are all G; its identical blocks take
    # the closed-form Phi, checked against the general Phi and the oracle
    assert hjoin_universal_charpoly(JoinSpec(Graph.complete(2), (Graph(1),) * 2, universal=ADJ)) == X**2 - 1
    rng = random.Random(58)
    for _ in range(25):
        k = rng.randint(1, 4)
        host = random_graph(rng, k)
        inner = random_graph(rng, rng.randint(1, 4))
        p = random_universal_params(rng)
        params = UniversalParams(p.alpha, p.beta, p.gamma, 0)
        spec = JoinSpec(host, (inner,) * k, universal=params)
        via_lex = hjoin_universal_charpoly(spec)
        assert via_lex == poly_det_charpoly(universal_blocks(spec))
        assert compare(via_lex, oracle_charpoly(universal_matrix(lexicographic(host, inner), params))).equal
    report(8, "25/25 lexicographic products equal the join route exactly")


def test_criterion_09_degree_shift_family():
    spec = mixed_join_spec()
    assert generalized_charpoly(spec, 0) == product(mixed_join_charpoly_factors())
    rng = random.Random(59)
    for t in (0, 1, Fraction(1, 2), -2):
        for _ in range(25):
            s = random_join_spec(rng, max_k=3, max_n=3)
            g = h_join(s)
            truth = oracle_charpoly(g.adjacency() - g.degree_matrix() * Fraction(t))
            verdict = compare(generalized_charpoly(s, t), truth)
            assert verdict.equal, verdict.detail
    report(9, "100/100 degree-shift charpolys equal the oracle exactly (t in {0, 1, 1/2, -2})")


def test_criterion_10_property_suite():
    rng = random.Random(60)

    # determinant update identity: det(A + u v^T) == (1 + v^T A^{-1} u) det A,
    # with v^T A^{-1} u by Cramer's rule
    checked = 0
    while checked < 20:
        n = rng.randint(1, 5)
        a = rand_int_matrix(rng, n)
        if determinant(a) == 0:
            continue
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        assert determinant(a + outer(u, v)) == (1 + adjugate_form(a.to_lists(), u, v) / determinant(a)) * determinant(a)
        checked += 1

    # resolvent of a rank-one update: form / (1 + c * form), which is
    # num / (den + c * num) for the form num / den
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rand_symmetric_matrix(rng, n)
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        base = resolvent_form(m, u, v)
        den = base.den + c * base.num
        if den.is_zero:
            continue
        got = resolvent_form(m - outer(u, v) * c, u, v)
        assert (got.num, got.den) == reduced(base.num, den)

    # resolvent numerators against the adjugate: v^T adj(xI - M) u / charpoly,
    # the adjugate applied by Cramer's rule, for every pair of unit vectors
    for _ in range(10):
        n = rng.randint(1, 5)
        m = rand_int_matrix(rng, n)
        rows, phi = char_matrix(m), charpoly(m)
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        for u in units:
            for v in units:
                got = resolvent_form(m, u, v)
                assert (got.num, got.den) == reduced(adjugate_form(rows, u, v), phi)

    # square-free resolvent denominators in the symmetric u = v case
    for _ in range(20):
        n = rng.randint(1, 6)
        form = resolvent_form(rand_symmetric_matrix(rng, n), rand_vector(rng, n))
        if not form.num.is_zero:
            assert is_square_free(form.den)

    # degree, trace and multiplicity accounting on random glued systems
    for _ in range(15):
        cb = random_coupled_blocks(rng, max_k=4, max_n=4, symmetric=True)
        p = coupled_charpoly(cb)
        assert p.degree == cb.total_dim and p.is_monic
        assert p[cb.total_dim - 1] == -sum((m.trace() for m, _, _ in cb.blocks), Fraction(0))
        assert len(coupled_spectrum(cb).eigenvalues()) == cb.total_dim

    report(10, "all exact identities and accounting checks hold")
