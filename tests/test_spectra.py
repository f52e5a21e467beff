import json
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import PRESET_VALUES, literal_universal_matrix, multisets_close, regular_graph_menu
from joinspectra import (
    CoupledBlocks,
    Graph,
    JoinSpec,
    UniversalParams,
    VertexSubset,
    assemble,
    check,
    compare,
    corona_charpoly,
    corona_charpoly_via_join,
    coupled_charpoly,
    coupled_spectrum,
    generalized_charpoly,
    generalized_corona,
    h_join,
    hgen_join_charpoly,
    hgen_join_spectrum,
    hjoin_universal_charpoly,
    hjoin_universal_spectrum,
    hjoin_universal_spectrum_alpha_delta_zero,
    hjoin_universal_spectrum_regular,
    join_graph,
    join_truth,
    join_weights,
    lexicographic,
    oracle_charpoly,
    oracle_spectrum,
    universal_matrix,
)
from joinspectra import spectra
from joinspectra.cli import main
from joinspectra.errors import PreconditionError, ShapeError
from joinspectra.fixtures import (
    mixed_join_charpoly_factors,
    mixed_join_spec,
    poly_det_charpoly,
    product,
    subset_join_charpoly_factors,
    subset_join_spec,
)
from joinspectra.joins import host_rho
from joinspectra.matrices import RationalMatrix, charpoly, poly_det, realization_charpoly
from joinspectra.polynomials import Polynomial
from joinspectra.resolvent import resolvent_form
from joinspectra.spectra import _universal_rho, coupling_poly, subset_blocks, universal_blocks
from joinspectra.verification import (
    random_coupled_blocks,
    random_fraction,
    random_graph,
    random_join_spec,
    random_universal_params,
)

X = Polynomial.x()
ADJ = UniversalParams.adjacency()


def scalar_blocks(values, rho):
    blocks = [(RationalMatrix(1, 1, [v]), (Fraction(1),), (Fraction(1),)) for v in values]
    return CoupledBlocks(blocks, rho)


def test_coupled_blocks_validation():
    with pytest.raises(ShapeError):
        CoupledBlocks([(RationalMatrix(1, 2, [1, 2]), (1,), (1,))], ((0,),))
    with pytest.raises(ShapeError):
        CoupledBlocks([(RationalMatrix(1, 1, [0]), (1, 2), (1,))], ((0,),))
    with pytest.raises(ShapeError):
        CoupledBlocks([(RationalMatrix(1, 1, [0]), (1,), (1,))], ((1,),))


def test_two_singletons_make_an_edge():
    cb = scalar_blocks([0, 0], ((0, 1), (1, 0)))
    assert coupled_charpoly(cb) == X**2 - 1


def test_asymmetric_coupling():
    cb = scalar_blocks([0, 0], ((0, 2), (3, 0)))
    assert coupled_charpoly(cb) == X**2 - 6
    with pytest.raises(PreconditionError):
        coupled_spectrum(cb)


def test_fixture_charpoly():
    spec = mixed_join_spec().with_universal(ADJ)
    assert hjoin_universal_charpoly(spec) == product(mixed_join_charpoly_factors())


def test_zero_vector_splits_off_block():
    rng = random.Random(41)
    for _ in range(10):
        cb = random_coupled_blocks(rng, max_k=3, max_n=3)
        blocks = list(cb.blocks)
        m0, _, v0 = blocks[0]
        zero = tuple(Fraction(0) for _ in range(m0.rows))
        blocks[0] = (m0, zero, zero)
        cut = CoupledBlocks(blocks, cb.rho)
        rest = CoupledBlocks(blocks[1:], tuple(row[1:] for row in cb.rho[1:]))
        assert coupled_charpoly(cut) == charpoly(m0) * coupled_charpoly(rest)


def test_zero_size_block_is_transparent():
    cb = CoupledBlocks(
        [
            (RationalMatrix(0, 0, []), (), ()),
            (RationalMatrix(1, 1, [2]), (Fraction(1),), (Fraction(1),)),
        ],
        ((0, 1), (1, 0)),
    )
    assert coupled_charpoly(cb) == X - 2


def test_eigenvector_coupling_reduces_to_small_determinant():
    # with unit coordinate vectors as exact eigenvectors of diagonal blocks,
    # the glued charpoly is prod(phi_i / (x - a_i)) * det(xI - rho-coupled
    # diagonal of the a_i): the classical special case
    rng = random.Random(42)
    for _ in range(10):
        k = rng.randint(1, 4)
        blocks = []
        tops = []
        cofs = []
        for _ in range(k):
            n = rng.randint(1, 4)
            diag = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            m = RationalMatrix(n, n, [diag[i] if i == j else 0 for i in range(n) for j in range(n)])
            e1 = tuple(Fraction(1 if t == 0 else 0) for t in range(n))
            blocks.append((m, e1, e1))
            tops.append(diag[0])
            cof = Polynomial.one()
            for d in diag[1:]:
                cof = cof * Polynomial((-d, 1))
            cofs.append(cof)
        rho = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                rho[i][j] = rho[j][i] = Fraction(rng.randint(-2, 2))
        cb = CoupledBlocks(blocks, rho)
        small = [
            [Polynomial((-tops[i], 1)) if i == j else Polynomial.constant(-rho[i][j]) for j in range(k)]
            for i in range(k)
        ]
        expected = poly_det(small)
        for cof in cofs:
            expected = expected * cof
        assert coupled_charpoly(cb) == expected


def test_oracle_equivalence_random():
    rng = random.Random(43)
    cases = [random_coupled_blocks(rng) for _ in range(50)]
    # 16 universal-Laplacian blocks: a 16 x 16 coupling determinant, the largest any test reaches
    big = random.Random(53)
    comps = tuple(random_graph(big, big.randint(2, 4)) for _ in range(16))
    cases.append(universal_blocks(JoinSpec(random_graph(big, 16), comps, universal=UniversalParams.laplacian())))
    for cb in cases:
        assert compare(coupled_charpoly(cb), oracle_charpoly(assemble(cb))).equal


def test_degree_and_trace():
    rng = random.Random(44)
    for _ in range(20):
        cb = random_coupled_blocks(rng)
        p = coupled_charpoly(cb)
        n = cb.total_dim
        assert p.degree == n and p.is_monic
        trace = sum((m.trace() for m, _, _ in cb.blocks), Fraction(0))
        assert p[n - 1] == -trace


def test_evaluation_spot_check():
    # charpoly(r) == det(rI - assembled matrix) at random rational points
    from joinspectra.matrices import determinant

    rng = random.Random(52)
    cb = random_coupled_blocks(rng, max_k=4, max_n=4)
    p = coupled_charpoly(cb)
    a = assemble(cb)
    n = a.rows
    eye = RationalMatrix.identity(n)
    for _ in range(10):
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert p(r) == determinant(eye * r - a)


def test_spectrum_complete_graph_join():
    # joining two single edges across gives the complete graph on 4 vertices
    spec = JoinSpec(Graph.complete(2), (Graph.complete(2), Graph.complete(2)), universal=ADJ)
    report = hjoin_universal_spectrum(spec)
    assert check(report.charpoly, join_truth(spec), report.eigenvalues()).equal
    assert multisets_close(report.eigenvalues(), [3, -1, -1, -1], 1e-10)
    # each block inherits only its eigenvalue -1; both visible eigenvalues drop out
    assert sorted((round(v), m, b) for v, m, b in report.inherited) == [(-1, 1, 0), (-1, 1, 1)]
    assert report.reduced == ()
    assert multisets_close(report.coupling_roots, [3, -1], 1e-10)


def test_spectrum_single_block_is_plain_spectrum():
    g = Graph.path(4)
    spec = JoinSpec(Graph(1), (g,), universal=ADJ)
    report = hjoin_universal_spectrum(spec)
    assert multisets_close(report.eigenvalues(), oracle_spectrum(g.adjacency()), 1e-8)


def test_fixture_spectrum_classification():
    spec = mixed_join_spec().with_universal(ADJ)
    report = hjoin_universal_spectrum(spec)
    assert check(report.charpoly, join_truth(spec), report.eigenvalues()).equal
    # 3-path: eigenvalue 0 invisible to all-ones; star: 0 twice; edge+point: -1
    inh = sorted((round(v, 6), m, b) for v, m, b in report.inherited)
    assert inh == [(-1.0, 1, 2), (0.0, 1, 0), (0.0, 2, 1)]
    assert report.reduced == ()
    assert report.coupling.degree == 6
    truth = oracle_spectrum(h_join(mixed_join_spec()).adjacency())
    assert multisets_close(report.eigenvalues(), truth, 1e-7)


def test_multiplicity_accounting_random_symmetric():
    rng = random.Random(45)
    for _ in range(15):
        cb = random_coupled_blocks(rng, max_k=4, max_n=4, symmetric=True)
        report = coupled_spectrum(cb)
        assert len(report.eigenvalues()) == cb.total_dim
        got = report.eigenvalues()
        truth = oracle_spectrum(assemble(cb))
        assert multisets_close(got, truth, 1e-6)


def test_glued_product_is_checked_on_both_routes(monkeypatch):
    import joinspectra.spectra as spectra

    exact = spectra.resolvent_form

    def scaled(m, u, v):
        # every block's cofactor phi / g comes out twice too large
        form = exact(m, u, v)
        return replace(form, charpoly=form.charpoly * 2)

    monkeypatch.setattr(spectra, "resolvent_form", scaled)
    rng = random.Random(48)
    for _ in range(5):
        cb = random_coupled_blocks(rng, max_k=4, max_n=4, symmetric=True)
        with pytest.raises(ArithmeticError):
            coupled_charpoly(cb)
        with pytest.raises(ArithmeticError):
            coupled_spectrum(cb)


def test_glued_product_is_checked_on_shortcut_routes(monkeypatch):
    import joinspectra.spectra as spectra

    exact = spectra.resolvent_form
    calls = []

    def first_block_doubled(m, u, v):
        # block 0's cofactor phi / g comes out twice too large
        calls.append(m)
        form = exact(m, u, v)
        return replace(form, charpoly=form.charpoly * 2) if len(calls) == 1 else form

    monkeypatch.setattr(spectra, "resolvent_form", first_block_doubled)
    regular = JoinSpec(Graph.path(2), (Graph.cycle(4), Graph.complete(3)), universal=ADJ)
    with pytest.raises(ArithmeticError):
        hjoin_universal_spectrum_regular(regular)
    calls.clear()
    with pytest.raises(ArithmeticError):
        hjoin_universal_spectrum_alpha_delta_zero(mixed_join_spec().with_universal(UniversalParams.laplacian()))


def test_eigenvector_blocks_take_one_kernel_call(kernel_calls):
    # all-ones is an eigenvector of every Laplacian block, so its resolvent
    # needs the block's charpoly only; A - D/2 of the same irregular blocks
    # takes one bordered pass per block instead.  With one pole per Laplacian block,
    # D = 3 and D^2 < k^3, so the last call is Phi's glued realization; the
    # A - D/2 blocks give D^2 >= k^3 and Phi by poly_det, with no kernel call
    lap = mixed_join_spec().with_universal(UniversalParams.laplacian())
    hjoin_universal_charpoly(lap)
    assert kernel_calls == [3, 4, 3, 3]
    kernel_calls.clear()
    hjoin_universal_spectrum_alpha_delta_zero(lap)
    assert kernel_calls == [3, 4, 3, 3]
    kernel_calls.clear()
    generalized_charpoly(mixed_join_spec(), Fraction(1, 2))
    assert kernel_calls == [("bordered", 3), ("bordered", 4), ("bordered", 3)]


def _coupling_rows(fs, gs, rho):
    k = len(fs)
    return [[gs[i] if i == j else (-rho[i][j]) * fs[i] for j in range(k)] for i in range(k)]


def _realization_cases(rng):
    for _ in range(6):
        spec = random_join_spec(rng, max_k=7, max_n=4)
        yield universal_blocks(spec.with_universal(ADJ))
        yield universal_blocks(spec.with_universal(UniversalParams.laplacian()))
        yield universal_blocks(spec.with_universal(random_universal_params(rng)))
        yield subset_blocks(random_join_spec(rng, max_k=7, max_n=4, with_subsets=True))
        cones = [generalized_corona(Graph(1), (g,)).adjacency() for g in spec.components]
        yield CoupledBlocks([(m, (1,) + (0,) * (m.rows - 1), (1,) + (0,) * (m.rows - 1)) for m in cones], host_rho(spec.host))
    for _ in range(40):
        yield random_coupled_blocks(rng, max_k=7, max_n=4, zero_vector_rate=0.3)
    yield scalar_blocks([2], ((0,),))
    yield random_coupled_blocks(random.Random(3), max_k=1)


def test_glued_realization_equals_poly_det_on_both_sides_of_the_rule():
    # adjacency, Laplacian and rational universal blocks, subset joins, corona
    # cones, asymmetric rational rho with zeros, zero forms (f = 0, g = 1)
    # between blocks that have rows, and k = 1
    sides, zero_forms = set(), 0
    for cb in _realization_cases(random.Random(12)):
        forms = [resolvent_form(m, u, v) for m, u, v in cb.blocks]
        fs, gs = [f.num for f in forms], [f.den for f in forms]
        want = poly_det(_coupling_rows(fs, gs, cb.rho))
        assert realization_charpoly(fs, gs, cb.rho) == want
        assert coupling_poly(fs, gs, cb.rho) == want
        sides.add(sum(g.degree for g in gs) ** 2 < cb.k**3)
        zero_forms += any(g.degree == 0 and any(h.degree for h in gs[:i]) for i, g in enumerate(gs))
    assert sides == {True, False}
    assert zero_forms >= 5


def test_phi_takes_one_kernel_call_of_dimension_d_when_d_squared_is_below_k_cubed(kernel_calls):
    def run(spec):
        """(D, the kernel calls of each distinct block's form, the route's kernel calls)"""
        cb = universal_blocks(spec)
        forms = {block: resolvent_form(*block) for block in dict.fromkeys(cb.blocks)}
        dim = sum(forms[block].den.degree for block in cb.blocks)
        blocks_only = list(kernel_calls)
        kernel_calls.clear()
        hjoin_universal_charpoly(spec)
        calls = list(kernel_calls)
        kernel_calls.clear()
        return dim, blocks_only, calls

    rng = random.Random(7)
    spec = JoinSpec(random_graph(rng, 12), tuple(random_graph(rng, rng.randint(2, 4)) for _ in range(12)), universal=ADJ)
    assert len(set(spec.components)) < 12  # repeated blocks cost once
    dim, blocks_only, calls = run(spec)
    assert dim**2 < 12**3
    assert calls == blocks_only + [dim]
    dim, blocks_only, calls = run(JoinSpec(Graph.path(2), (random_graph(rng, 22), random_graph(rng, 28)), universal=ADJ))
    assert dim**2 >= 2**3
    assert calls == blocks_only


def test_coupling_poly_on_public_inputs_is_poly_det():
    # a non-monic g or deg f >= deg g has no companion realization: k = 2 and
    # D = 2 pass the size rule, so only the form check sends these to poly_det;
    # the last case takes the realization with a plain int in rho
    rho = ((0, Fraction(1, 2)), (-3, 0))
    cases = [
        ([X + 1, Polynomial.constant(2)], [2 * X + 1, X - 3]),
        ([X**2, Polynomial.one()], [X - 1, X + 2]),
        ([Polynomial.constant(2), Polynomial.constant(Fraction(1, 3))], [X - 1, X + 2]),
    ]
    for fs, gs in cases:
        assert coupling_poly(fs, gs, rho) == poly_det(_coupling_rows(fs, gs, rho))


def test_laplacian_join_of_16_vertex_blocks_matches_eigvalsh():
    # eight random 16-vertex Laplacian blocks under K8: the float root finder
    # this replaces reported a non-real root of a degree-15 block factor
    import numpy as np

    rng = random.Random(1)
    lap = UniversalParams.laplacian()
    spec = JoinSpec(Graph.complete(8), tuple(random_graph(rng, 16, 0.4) for _ in range(8)), universal=lap)
    got = hjoin_universal_spectrum(spec).eigenvalues()
    want = np.linalg.eigvalsh(np.array(universal_matrix(h_join(spec), lap).to_floats()))
    assert len(got) == 128
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * float(np.max(np.abs(want)))


def test_coupling_degree_matches_visible_count():
    rng = random.Random(46)
    for _ in range(10):
        cb = random_coupled_blocks(rng, max_k=4, max_n=4, symmetric=True)
        report = coupled_spectrum(cb)
        from joinspectra.resolvent import resolvent_form

        total_visible = 0
        for m, u, _ in cb.blocks:
            total_visible += max(0, int(resolvent_form(m, u).den.degree))
        assert report.coupling.degree == total_visible


# -- universal-matrix routes ---------------------------------------------------


def test_universal_laplacian_complete_join():
    spec = JoinSpec(Graph.complete(2), (Graph.complete(2), Graph.complete(2)), universal=UniversalParams.laplacian())
    assert hjoin_universal_charpoly(spec) == X * (X - 4) ** 3


def test_universal_routes_against_graph_oracle():
    rng = random.Random(47)
    presets = [
        UniversalParams.adjacency(),
        UniversalParams.laplacian(),
        UniversalParams.signless_laplacian(),
        UniversalParams.seidel(),
    ]
    for _ in range(12):
        params = presets[rng.randrange(4)] if rng.random() < 0.7 else random_universal_params(rng)
        spec = random_join_spec(rng, max_k=3, max_n=3, universal=params)
        formula = hjoin_universal_charpoly(spec)
        truth = oracle_charpoly(universal_matrix(h_join(spec.with_universal(None)), params))
        assert compare(formula, truth).equal


def test_regular_shortcut_complete_join():
    spec = JoinSpec(Graph.complete(2), (Graph.complete(2), Graph.complete(2)), universal=ADJ)
    report = hjoin_universal_spectrum_regular(spec)
    assert multisets_close(report.eigenvalues(), [3, -1, -1, -1], 1e-10)
    # the small symmetrized matrix has entries [[1, 2], [2, 1]]
    assert report.coupling == (X - 1) ** 2 - 4


def test_regular_shortcut_cross_validates():
    rng = random.Random(48)
    for _ in range(10):
        k = rng.randint(1, 3)
        host = random_graph(rng, k)
        comps = tuple(regular_graph_menu(rng) for _ in range(k))
        params = random_universal_params(rng)
        spec = JoinSpec(host, comps, universal=params)
        shortcut = hjoin_universal_spectrum_regular(spec)
        general = hjoin_universal_spectrum(spec)
        assert multisets_close(shortcut.eigenvalues(), general.eigenvalues(), 1e-8)
        assert shortcut.charpoly == general.charpoly


def test_regular_shortcut_symmetrized_matrix_is_literal():
    # the shortcut's new eigenvalues must equal those of the literal
    # symmetrized matrix with sqrt(n_i n_j) off-diagonal entries
    import numpy as np

    rng = random.Random(53)
    for _ in range(8):
        k = rng.randint(1, 3)
        host = random_graph(rng, k)
        comps = tuple(regular_graph_menu(rng) for _ in range(k))
        params = random_universal_params(rng)
        spec = JoinSpec(host, comps, universal=params)
        report = hjoin_universal_spectrum_regular(spec)
        from joinspectra.joins import host_rho, join_weights

        rho = host_rho(spec.host)
        w = join_weights(spec)
        ns = [g.n for g in comps]
        rs = [g.regular_degree() for g in comps]
        a, b, c, d = params.as_tuple()
        ps = [a * r + b + c * n + d * (r + wi) for r, n, wi in zip(rs, ns, w)]
        sym = np.zeros((k, k))
        for i in range(k):
            sym[i, i] = float(ps[i])
            for j in range(k):
                if i != j:
                    sym[i, j] = (ns[i] * ns[j]) ** 0.5 * float(rho[i][j] * a + c)
        literal = sorted(np.linalg.eigvalsh(sym).tolist())
        assert multisets_close(sorted(report.coupling_roots), literal, 1e-7)


def test_regular_shortcut_cycle_join_laplacian():
    # two 4-cycles joined across, with laplacian coefficients: the regular
    # shortcut, the balanced shortcut and the general route all agree
    spec = JoinSpec(Graph.complete(2), (Graph.cycle(4), Graph.cycle(4)), universal=UniversalParams.laplacian())
    via_regular = hjoin_universal_spectrum_regular(spec).eigenvalues()
    via_balanced = hjoin_universal_spectrum_alpha_delta_zero(spec).eigenvalues()
    via_general = hjoin_universal_spectrum(spec).eigenvalues()
    assert multisets_close(via_regular, via_general, 1e-8)
    assert multisets_close(via_balanced, via_general, 1e-8)


def test_regular_shortcut_single_component():
    spec = JoinSpec(Graph(1), (Graph.cycle(5),), universal=ADJ)
    report = hjoin_universal_spectrum_regular(spec)
    assert multisets_close(report.eigenvalues(), oracle_spectrum(Graph.cycle(5).adjacency()), 1e-8)


def test_regular_shortcut_rejects_irregular():
    spec = JoinSpec(Graph(1), (Graph.path(3),), universal=ADJ)
    with pytest.raises(PreconditionError):
        hjoin_universal_spectrum_regular(spec)


def test_balanced_shortcut_laplacian():
    spec = mixed_join_spec().with_universal(UniversalParams.laplacian())
    report = hjoin_universal_spectrum_alpha_delta_zero(spec)
    general = hjoin_universal_spectrum(spec)
    assert multisets_close(report.eigenvalues(), general.eigenvalues(), 1e-8)
    laplacian = universal_matrix(h_join(mixed_join_spec()), UniversalParams.laplacian())
    assert multisets_close(report.eigenvalues(), oracle_spectrum(laplacian), 1e-7)


def test_balanced_shortcut_beta_shift():
    base = mixed_join_spec().with_universal(UniversalParams(-1, 0, 0, 1))
    moved = mixed_join_spec().with_universal(UniversalParams(-1, 5, 0, 1))
    a = hjoin_universal_spectrum_alpha_delta_zero(base).eigenvalues()
    b = hjoin_universal_spectrum_alpha_delta_zero(moved).eigenvalues()
    assert multisets_close([v + 5 for v in a], b, 1e-8)


def test_balanced_shortcut_single_block():
    spec = JoinSpec(Graph(1), (Graph.path(3),), universal=UniversalParams(-1, 2, 1, 1))
    report = hjoin_universal_spectrum_alpha_delta_zero(spec)
    truth = oracle_spectrum(universal_matrix(Graph.path(3), UniversalParams(-1, 2, 1, 1)))
    assert multisets_close(report.eigenvalues(), truth, 1e-8)


def test_balanced_shortcut_precondition():
    with pytest.raises(PreconditionError):
        hjoin_universal_spectrum_alpha_delta_zero(mixed_join_spec().with_universal(ADJ))


def test_shortcut_coupling_is_the_small_ones_matrix():
    # Phi of both shortcuts must be the charpoly of the k x k matrix with p_i
    # on the diagonal and n_j * rho_hat_ij off it, rho_hat = rho*alpha + gamma
    from joinspectra.joins import effective_rho

    rng = random.Random(57)
    for case in range(12):
        k = rng.randint(1, 4)
        host = random_graph(rng, k)
        params = random_universal_params(rng)
        if case % 2:
            comps = tuple(random_graph(rng, rng.randint(1, 4)) for _ in range(k))
            params = UniversalParams(params.alpha, params.beta, params.gamma, -params.alpha)
        else:
            comps = tuple(regular_graph_menu(rng) for _ in range(k))
        rho = None
        if case % 3 == 0:
            rho = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    rho[i][j] = rho[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        spec = JoinSpec(host, comps, universal=params, rho_override=rho)
        a, b, c, d = params.as_tuple()
        w = join_weights(spec)
        ns = [g.n for g in comps]
        if case % 2:
            report = hjoin_universal_spectrum_alpha_delta_zero(spec)
            ps = [b + c * n + d * wi for n, wi in zip(ns, w)]
        else:
            report = hjoin_universal_spectrum_regular(spec)
            rs = [g.regular_degree() for g in comps]
            ps = [a * r + b + c * n + d * (r + wi) for r, n, wi in zip(rs, ns, w)]
        eff = effective_rho(spec)
        entries = [ps[i] if i == j else ns[j] * (eff[i][j] * a + c) for i in range(k) for j in range(k)]
        assert report.coupling == charpoly(RationalMatrix(k, k, entries))


def test_shortcut_routes_verify_against_the_oracle():
    spec = JoinSpec(Graph.complete(2), (Graph.complete(3), Graph.complete(2)), universal=ADJ)
    report = hjoin_universal_spectrum_regular(spec)
    assert check(report.charpoly, join_truth(spec), report.eigenvalues()).equal
    lap = mixed_join_spec().with_universal(UniversalParams.laplacian())
    report = hjoin_universal_spectrum_alpha_delta_zero(lap)
    assert check(report.charpoly, join_truth(lap), report.eigenvalues()).equal


def test_universal_route_with_coupling_override():
    # an override detached from the host is matrix-only: the formula route
    # must still match the literally assembled block matrix
    base = mixed_join_spec()
    rho = ((0, Fraction(1, 2), 2), (Fraction(1, 2), 0, -1), (2, -1, 0))
    spec = JoinSpec(base.host, base.components, universal=ADJ, rho_override=rho)
    formula = hjoin_universal_charpoly(spec)
    assert compare(formula, oracle_charpoly(assemble(universal_blocks(spec)))).equal
    asym = ((0, 1, 0), (2, 0, 1), (0, 3, 0))
    spec2 = JoinSpec(base.host, base.components, universal=ADJ, rho_override=asym)
    assert compare(hjoin_universal_charpoly(spec2), oracle_charpoly(assemble(universal_blocks(spec2)))).equal


# -- lexicographic ---------------------------------------------------------------


def _lex_spec(host, inner, params=ADJ):
    """H[G] as the join whose components are all G."""
    return JoinSpec(host, (inner,) * host.n, universal=params)


def test_lex_simple_cases():
    assert hjoin_universal_charpoly(_lex_spec(Graph.complete(2), Graph(1))) == X**2 - 1
    assert hjoin_universal_charpoly(_lex_spec(Graph(1), Graph.path(4))) == charpoly(Graph.path(4).adjacency())
    spec = _lex_spec(Graph.path(3), Graph.complete(2))
    via_lex = hjoin_universal_charpoly(spec)
    assert via_lex == poly_det_charpoly(universal_blocks(spec))
    assert via_lex == charpoly(lexicographic(Graph.path(3), Graph.complete(2)).adjacency())


def test_lex_cross_validates_with_general_parameters():
    # delta drawn too: the blocks then differ by host degree, and stay
    # identical, taking the closed-form Phi, on hosts of one degree
    rng = random.Random(49)
    for _ in range(10):
        k = rng.randint(1, 3)
        host = random_graph(rng, k)
        inner = random_graph(rng, rng.randint(1, 3))
        params = random_universal_params(rng)
        spec = _lex_spec(host, inner, params)
        via_lex = hjoin_universal_charpoly(spec)
        assert via_lex == poly_det_charpoly(universal_blocks(spec))
        assert compare(via_lex, oracle_charpoly(universal_matrix(lexicographic(host, inner), params))).equal


def test_lex_takes_degree_term(capsys, tmp_path):
    # the degree term shifts block i by delta * w_i, which the join route
    # carries for any delta; the lexicographic verb goes through it
    rng = random.Random(63)
    for case in range(8):
        host = random_graph(rng, rng.randint(2, 4))
        inner = random_graph(rng, rng.randint(1, 4))
        params = random_universal_params(rng).to_json_obj()
        params["delta"] = rng.choice(["-2", "-1", "-1/3", "1/2", "1", "2"])
        p = tmp_path / f"lex_{case}.json"
        p.write_text(json.dumps({"host": host.to_json_obj(), "components": [inner.to_json_obj()], "universal": params}))
        assert main(["lex", str(p), "--verify"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle"]["equal"] is True


def _refuse(*args):
    raise AssertionError("identical blocks left the closed-form Phi")


def test_identical_blocks_take_the_closed_form_phi(monkeypatch):
    # symmetric rho (host patterns through universal couplings) and asymmetric
    # rational rho with zeros, k = 2..6; the other two forms are disabled, and
    # the closed form must equal poly_det on the same coupling rows
    monkeypatch.setattr(spectra, "realization_charpoly", _refuse)
    monkeypatch.setattr(spectra, "poly_det", _refuse)
    rng = random.Random(14)
    for k in range(2, 7):
        for _ in range(4):
            m, u, v = random_coupled_blocks(rng, max_k=1, max_n=5, zero_vector_rate=0.2).blocks[0]
            form = resolvent_form(m, u, v)
            fs, gs = [form.num] * k, [form.den] * k
            sym = _universal_rho(host_rho(random_graph(rng, k)), random_universal_params(rng))
            asym = tuple(
                tuple(Fraction(0) if i == j or rng.random() < 0.3 else random_fraction(rng) for j in range(k)) for i in range(k)
            )
            for rho in (sym, asym):
                assert coupling_poly(fs, gs, rho) == poly_det(_coupling_rows(fs, gs, rho))


def test_one_matrix_under_other_vectors_is_another_block():
    # a route computes block data once per distinct (matrix object, u, v)
    m = Graph.path(4).adjacency()
    ones, end = (1,) * 4, (1, 0, 0, 0)
    cb = CoupledBlocks([(m, ones, ones), (m, end, end), (m, ones, ones)], host_rho(Graph.path(3)))
    truth = oracle_charpoly(assemble(cb))
    assert compare(coupled_charpoly(cb), truth).equal
    assert compare(coupled_spectrum(cb).charpoly, truth).equal


def test_lex_join_takes_one_blocks_kernel_calls_plus_one_k_by_k_call(kernel_calls):
    # an irregular inner graph takes one bordered pass, a regular one (or a
    # Laplacian block) one charpoly; then Phi's closed form takes one k x k call
    rng = random.Random(9)
    irregular = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    cases = [
        (_lex_spec(random_graph(rng, 8), irregular), [("bordered", 5), 8]),
        (_lex_spec(random_graph(rng, 7), Graph.cycle(5)), [5, 7]),
        (_lex_spec(Graph.cycle(6), irregular, UniversalParams.laplacian()), [5, 6]),
    ]
    for spec, want in cases:
        for route in (hjoin_universal_charpoly, hjoin_universal_spectrum):
            kernel_calls.clear()
            route(spec)
            assert kernel_calls == want


# -- degree-shift family ----------------------------------------------------------


def test_generalized_reduces_to_adjacency_at_zero():
    spec = mixed_join_spec()
    assert generalized_charpoly(spec, 0) == product(mixed_join_charpoly_factors())


def test_generalized_negated_laplacian_at_one():
    spec = JoinSpec(Graph.complete(2), (Graph.complete(2), Graph.complete(2)))
    got = generalized_charpoly(spec, 1)
    assert got == X * (X + 4) ** 3  # negated complete-graph laplacian


def test_generalized_matches_oracle_at_half():
    spec = mixed_join_spec()
    g = h_join(spec)
    m = g.adjacency() - g.degree_matrix() * Fraction(1, 2)
    assert compare(generalized_charpoly(spec, Fraction(1, 2)), oracle_charpoly(m)).equal


def test_generalized_rejects_universal_params():
    with pytest.raises(PreconditionError):
        generalized_charpoly(mixed_join_spec().with_universal(ADJ), 1)


# -- subset joins ------------------------------------------------------------------


def test_subset_join_fixture():
    spec = subset_join_spec()
    assert hgen_join_charpoly(spec) == product(subset_join_charpoly_factors())


def test_subset_join_full_subsets_match_plain_join():
    base = mixed_join_spec()
    full = JoinSpec(base.host, base.components, subsets=tuple(VertexSubset.full(c.n) for c in base.components))
    assert hgen_join_charpoly(full) == hjoin_universal_charpoly(base.with_universal(ADJ))


def test_subset_join_empty_subset_factorizes():
    base = mixed_join_spec()
    empty_first = JoinSpec(
        base.host,
        base.components,
        subsets=(VertexSubset(3, ()), VertexSubset.full(4), VertexSubset.full(3)),
    )
    got = hgen_join_charpoly(empty_first)
    # component 0 separates: remaining join lives on the host minus vertex 0
    rest = JoinSpec(Graph(2, [(0, 1)]), base.components[1:])
    expected = charpoly(base.components[0].adjacency()) * hjoin_universal_charpoly(rest.with_universal(ADJ))
    assert got == expected
    assert compare(got, oracle_charpoly(join_graph(empty_first).adjacency())).equal


def test_subset_join_spectrum_fixture():
    report = hgen_join_spectrum(subset_join_spec())
    assert check(report.charpoly, join_truth(subset_join_spec()), report.eigenvalues()).equal
    zeros = [v for v in report.eigenvalues() if abs(v) < 1e-9]
    assert len(zeros) == 4


def test_subset_join_spectrum_regular_full_subsets():
    rng = random.Random(50)
    for _ in range(8):
        k = rng.randint(1, 3)
        host = random_graph(rng, k)
        comps = tuple(regular_graph_menu(rng) for _ in range(k))
        spec = JoinSpec(host, comps, subsets=tuple(VertexSubset.full(c.n) for c in comps))
        report = hgen_join_spectrum(spec)
        shortcut = hjoin_universal_spectrum_regular(JoinSpec(host, comps, universal=ADJ))
        assert multisets_close(report.eigenvalues(), shortcut.eigenvalues(), 1e-7)


def test_subset_join_single_block():
    g = Graph.path(4)
    spec = JoinSpec(Graph(1), (g,), subsets=(VertexSubset(4, (0, 2)),))
    report = hgen_join_spectrum(spec)
    assert multisets_close(report.eigenvalues(), oracle_spectrum(g.adjacency()), 1e-8)


def test_subset_join_requires_subsets_and_plain_matrix():
    with pytest.raises(PreconditionError):
        hgen_join_charpoly(mixed_join_spec())
    with pytest.raises(PreconditionError):
        hgen_join_charpoly(subset_join_spec().with_universal(ADJ))


# -- coronas -----------------------------------------------------------------------


def test_corona_single_vertex():
    assert corona_charpoly(Graph(1), (Graph(1),)) == X**2 - 1


def test_corona_path():
    got = corona_charpoly(Graph.path(2), (Graph(1), Graph(1)))
    assert got == X**4 - 3 * X**2 + 1  # the 4-path
    assert got == oracle_charpoly(generalized_corona(Graph.path(2), (Graph(1), Graph(1))).adjacency())


def test_corona_sun_graph():
    host = Graph.cycle(4)
    fam = (Graph(1),) * 4
    got = corona_charpoly(host, fam)
    assert compare(got, oracle_charpoly(generalized_corona(host, fam).adjacency())).equal


def test_corona_two_routes_agree():
    rng = random.Random(51)
    for _ in range(12):
        k = rng.randint(1, 4)
        host = random_graph(rng, k)
        fam = tuple(random_graph(rng, rng.randint(1, 3)) for _ in range(k))
        direct = corona_charpoly(host, fam)
        via_join = corona_charpoly_via_join(host, fam)
        assert direct == via_join
        assert compare(direct, oracle_charpoly(generalized_corona(host, fam).adjacency())).equal


def test_corona_matches_oracle_on_edge_case_companions():
    # empty (0-vertex), single-vertex and disconnected companions on
    # edgeless, complete and random hosts
    rng = random.Random(52)
    companions = (
        lambda: Graph(0),
        lambda: Graph(1),
        lambda: Graph.empty(rng.randint(2, 3)),
        lambda: Graph(4, [(0, 1), (2, 3)]),
        lambda: random_graph(rng, rng.randint(0, 4)),
    )
    hosts = (Graph.empty, Graph.complete, lambda k: random_graph(rng, k))
    for trial in range(24):
        k = rng.randint(1, 4)
        host = hosts[trial % 3](k)
        fam = tuple(rng.choice(companions)() for _ in range(k))
        if trial < 3:
            fam = (Graph(0),) * k
        got = corona_charpoly(host, fam)
        assert got == oracle_charpoly(generalized_corona(host, fam).adjacency())


# -- concurrency sanity --------------------------------------------------------------


def test_routes_are_pure_under_threads():
    spec = mixed_join_spec().with_universal(ADJ)
    expected = hjoin_universal_charpoly(spec)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: hjoin_universal_charpoly(spec), range(8)))
    assert all(r == expected for r in results)


def test_universal_blocks_are_shifted_literal_matrices():
    rng = random.Random(26)
    presets = [UniversalParams(*p) for p in PRESET_VALUES]
    for trial in range(25):
        params = presets[trial] if trial < len(presets) else random_universal_params(rng)
        spec = random_join_spec(rng, max_k=5, max_n=6, universal=params)
        w = join_weights(spec)
        cb = universal_blocks(spec)
        for i, (g, (m, u, v)) in enumerate(zip(spec.components, cb.blocks)):
            shift = RationalMatrix.identity(g.n) * (params.delta * w[i])
            assert m == literal_universal_matrix(g, params) + shift
            assert u == v == tuple(Fraction(1) for _ in range(g.n))
