import json
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import permutations

import pytest

from helpers import PRESET_VALUES, classify_block_from_charpoly, cofactor_det, corona_cone, coupled, coupling_rows, cycle, dense_join_blocks, determinant, disjoint_copies, full_subset, identity, json_obj, lexicographic, literal_universal_matrix, multisets_close, regular_graph_menu, seidel, signless_laplacian, star, trace
from joinspectra import (
    CoupledBlocks,
    Graph,
    JoinSpec,
    ResolventForm,
    UniversalParams,
    VertexSubset,
    assemble,
    check,
    compare,
    corona_as_hjoin,
    corona_blocks,
    coupled_charpoly,
    coupled_spectrum,
    degree_shift_spec,
    generalized_corona,
    join_blocks,
    join_graph,
    join_truth,
    join_weights,
    oracle_charpoly,
    oracle_spectrum,
    universal_matrix,
)
from joinspectra import matrices, spectra
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
from joinspectra.graphs import canonical_key
from joinspectra.joins import host_rho
from joinspectra.matrices import RationalMatrix, charpoly, cleared_rows, closed_form_phi, interpolated_det, packed_det, packed_width, realization_charpoly
from joinspectra.polynomials import Polynomial
from joinspectra.resolvent import resolvent_form
from joinspectra.spectra import (
    _universal_rho,
    coupling_poly,
    require_balanced,
    require_regular,
    subset_blocks,
    universal_blocks,
)
from joinspectra.verification import (
    random_coupled_blocks,
    random_fraction,
    random_graph,
    random_join_spec,
    random_universal_params,
)

X = Polynomial.x()
ADJ = UniversalParams.adjacency()


def _regular_spectrum(spec):
    """The regular shortcut: its precondition, then the spectrum of the universal blocks."""
    require_regular(spec)
    return coupled_spectrum(universal_blocks(spec))


def _balanced_spectrum(spec):
    """The alpha + delta = 0 shortcut: its precondition, then the spectrum of the universal blocks."""
    require_balanced(spec)
    return coupled_spectrum(universal_blocks(spec))


def scalar_blocks(values, rho):
    blocks = [(RationalMatrix(1, 1, [v]), (Fraction(1),), (Fraction(1),)) for v in values]
    return coupled(blocks, rho)


def test_coupled_blocks_validation():
    # a block's shape is checked by `resolvent_form`, the coupling by `CoupledBlocks`
    with pytest.raises(ShapeError):
        coupled([(RationalMatrix(1, 2, [1, 2]), (1,), (1,))], ((0,),))
    with pytest.raises(ShapeError):
        coupled([(RationalMatrix(1, 1, [0]), (1, 2), (1,))], ((0,),))
    with pytest.raises(ShapeError):
        coupled([(RationalMatrix(1, 1, [0]), (1,), (1,))], ((1,),))
    with pytest.raises(ShapeError):
        coupled([(RationalMatrix(1, 1, [0]), (1,), (1,))], ((0, 1), (1, 0)))


def test_coupled_blocks_normalize_rho_to_fractions():
    # Fractions are kept as they are; ints and 'p/q' strings become Fractions;
    # floats and bools are rejected
    forms = [resolvent_form(RationalMatrix(1, 1, [0]), (1,))] * 2
    half = Fraction(1, 2)
    cb = CoupledBlocks(forms, ((0, half), (half, 0)))
    assert cb.rho[0][1] is half
    for raw, exact in ((3, Fraction(3)), ("-2/6", Fraction(-1, 3))):
        rho = CoupledBlocks(forms, ((0, raw), (raw, 0))).rho
        assert rho == ((0, exact), (exact, 0)) and all(type(x) is Fraction for row in rho for x in row)
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            CoupledBlocks(forms, ((0, bad), (1, 0)))


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
    assert coupled_charpoly(universal_blocks(spec)) == product(mixed_join_charpoly_factors())


def test_zero_vector_splits_off_block():
    rng = random.Random(41)
    for _ in range(10):
        blocks, rho = random_coupled_blocks(rng, max_k=3, max_n=3)
        m0, _, v0 = blocks[0]
        zero = tuple(Fraction(0) for _ in range(m0.rows))
        blocks[0] = (m0, zero, zero)
        cut = coupled(blocks, rho)
        rest = coupled(blocks[1:], tuple(row[1:] for row in rho[1:]))
        assert coupled_charpoly(cut) == charpoly(m0) * coupled_charpoly(rest)


def test_zero_size_block_is_transparent():
    cb = coupled(
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
        cb = coupled(blocks, rho)
        small = [
            [Polynomial((-tops[i], 1)) if i == j else Polynomial.constant(-rho[i][j]) for j in range(k)]
            for i in range(k)
        ]
        expected = cofactor_det(small)
        for cof in cofs:
            expected = expected * cof
        assert coupled_charpoly(cb) == expected


def test_oracle_equivalence_random():
    rng = random.Random(43)
    for _ in range(50):
        blocks, rho = random_coupled_blocks(rng)
        assert compare(coupled_charpoly(coupled(blocks, rho)), oracle_charpoly(assemble(blocks, rho))).equal
    # 16 universal-Laplacian blocks: a 16 x 16 coupling determinant, the largest any test reaches
    big = random.Random(53)
    comps = tuple(random_graph(big, big.randint(2, 4)) for _ in range(16))
    spec = JoinSpec(random_graph(big, 16), comps, universal=UniversalParams.laplacian())
    assert compare(coupled_charpoly(universal_blocks(spec)), oracle_charpoly(assemble(*dense_join_blocks(spec)))).equal


def test_degree_and_trace():
    rng = random.Random(44)
    for _ in range(20):
        blocks, rho = random_coupled_blocks(rng)
        cb = coupled(blocks, rho)
        p = coupled_charpoly(cb)
        n = cb.total_dim
        assert p.degree == n and p.is_monic
        assert p[n - 1] == -sum((trace(m) for m, _, _ in blocks), Fraction(0))


def test_evaluation_spot_check():
    # charpoly(r) == det(rI - assembled matrix) at random rational points
    rng = random.Random(52)
    blocks, rho = random_coupled_blocks(rng, max_k=4, max_n=4)
    p = coupled_charpoly(coupled(blocks, rho))
    a = assemble(blocks, rho)
    n = a.rows
    eye = identity(n)
    for _ in range(10):
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert p(r) == determinant(eye * r - a)


def test_spectrum_complete_graph_join():
    # joining two single edges across gives the complete graph on 4 vertices
    spec = JoinSpec(Graph.complete(2), (Graph.complete(2), Graph.complete(2)), universal=ADJ)
    report = coupled_spectrum(universal_blocks(spec))
    assert check(report.charpoly, join_truth(spec), report.eigenvalues()).equal
    assert multisets_close(report.eigenvalues(), [3, -1, -1, -1], 1e-10)
    # each block inherits only its eigenvalue -1; both visible eigenvalues drop out
    assert sorted((round(v), m, b) for v, m, b in report.inherited) == [(-1, 1, 0), (-1, 1, 1)]
    assert report.reduced == ()
    assert multisets_close(report.coupling_roots, [3, -1], 1e-10)


def test_spectrum_single_block_is_plain_spectrum():
    g = Graph.path(4)
    spec = JoinSpec(Graph(1), (g,), universal=ADJ)
    report = coupled_spectrum(universal_blocks(spec))
    assert multisets_close(report.eigenvalues(), oracle_spectrum(g.adjacency()), 1e-8)


def test_fixture_spectrum_classification():
    spec = mixed_join_spec().with_universal(ADJ)
    report = coupled_spectrum(universal_blocks(spec))
    assert check(report.charpoly, join_truth(spec), report.eigenvalues()).equal
    # 3-path: eigenvalue 0 invisible to all-ones; star: 0 twice; edge+point: -1
    inh = sorted((round(v, 6), m, b) for v, m, b in report.inherited)
    assert inh == [(-1.0, 1, 2), (0.0, 1, 0), (0.0, 2, 1)]
    assert report.reduced == ()
    assert report.coupling.degree == 6
    truth = oracle_spectrum(join_graph(mixed_join_spec()).adjacency())
    assert multisets_close(report.eigenvalues(), truth, 1e-7)


def test_multiplicity_accounting_random_symmetric():
    rng = random.Random(45)
    for _ in range(15):
        blocks, rho = random_coupled_blocks(rng, max_k=4, max_n=4, symmetric=True)
        cb = coupled(blocks, rho)
        report = coupled_spectrum(cb)
        assert len(report.eigenvalues()) == cb.total_dim
        got = report.eigenvalues()
        truth = oracle_spectrum(assemble(blocks, rho))
        assert multisets_close(got, truth, 1e-6)


def test_glued_product_is_checked_on_both_routes():
    rng = random.Random(48)
    for _ in range(5):
        blocks, rho = random_coupled_blocks(rng, max_k=4, max_n=4, symmetric=True)
        # every block's cofactor phi / g comes out twice too large
        forms = [ResolventForm(f.num, f.den, f.cofactor * 2, f.hermitian) for f in coupled(blocks, rho).forms]
        cb = CoupledBlocks(forms, rho)
        with pytest.raises(ArithmeticError):
            coupled_charpoly(cb)
        with pytest.raises(ArithmeticError):
            coupled_spectrum(cb)


def test_glued_product_is_checked_on_shortcut_routes(monkeypatch):
    import joinspectra.spectra as spectra

    exact = spectra.resolvent_form
    calls = []

    def first_block_doubled(m, u, v=None):
        # block 0's cofactor phi / g comes out twice too large
        calls.append(m)
        form = exact(m, u, v)
        return ResolventForm(form.num, form.den, form.cofactor * 2, form.hermitian) if len(calls) == 1 else form

    monkeypatch.setattr(spectra, "resolvent_form", first_block_doubled)
    regular = JoinSpec(Graph.path(2), (cycle(4), Graph.complete(3)), universal=ADJ)
    with pytest.raises(ArithmeticError):
        _regular_spectrum(regular)
    calls.clear()
    with pytest.raises(ArithmeticError):
        _balanced_spectrum(mixed_join_spec().with_universal(UniversalParams.laplacian()))


def test_eigenvector_blocks_take_one_kernel_call(kernel_calls):
    # all-ones is an eigenvector of every Laplacian block, and its form, like
    # that of A - D/2 of the same irregular blocks, is one bordered pass per
    # block.  With one pole per Laplacian block, D = k = 3: the realization's
    # D^3 is no more than the k^3 the packed form costs at least, so the last
    # call is Phi's glued realization; the A - D/2 blocks have D > k and take
    # the packed form, with no kernel call
    lap = mixed_join_spec().with_universal(UniversalParams.laplacian())
    coupled_charpoly(universal_blocks(lap))
    assert kernel_calls == [("bordered", 3), ("bordered", 4), ("bordered", 3), 3]
    kernel_calls.clear()
    _balanced_spectrum(lap)
    assert kernel_calls == [("bordered", 3), ("bordered", 4), ("bordered", 3), 3]
    kernel_calls.clear()
    coupled_charpoly(universal_blocks(degree_shift_spec(mixed_join_spec(), Fraction(1, 2))))
    assert kernel_calls == [("bordered", 3), ("bordered", 4), ("bordered", 3)]


def _realization_cases(rng):
    for _ in range(6):
        spec = random_join_spec(rng, max_k=7, max_n=4)
        yield universal_blocks(spec.with_universal(ADJ))
        yield universal_blocks(spec.with_universal(UniversalParams.laplacian()))
        yield universal_blocks(spec.with_universal(random_universal_params(rng)))
        yield subset_blocks(random_join_spec(rng, max_k=7, max_n=4, with_subsets=True))
        yield coupled([corona_cone(g) for g in spec.components], host_rho(spec.host))
    for _ in range(40):
        yield coupled(*random_coupled_blocks(rng, max_k=7, max_n=4, zero_vector_rate=0.3))
    yield scalar_blocks([2], ((0,),))
    yield coupled(*random_coupled_blocks(random.Random(3), max_k=1))
    # host "0;" (k = 0), and a "0;" component: a block with no rows and the zero form
    yield universal_blocks(JoinSpec.from_json_obj({"host": "0;", "components": []}))
    yield universal_blocks(JoinSpec.from_json_obj({"host": "3; 0-1,1-2", "components": ["2; 0-1", "0;", "3; 0-1"]}))


def test_every_phi_form_equals_the_cofactor_reference():
    # adjacency, Laplacian and rational universal blocks, subset joins, corona
    # cones, asymmetric rational rho with zeros, zero forms (f = 0, g = 1)
    # between blocks that have rows, k = 0 and k = 1; every case is a
    # resolvent form, so the realization applies to each
    sides, zero_forms, ks = set(), 0, set()
    for cb in _realization_cases(random.Random(12)):
        fs, gs = [f.num for f in cb.forms], [f.den for f in cb.forms]
        want = cofactor_det(coupling_rows(fs, gs, cb.rho)) if cb.k else Polynomial.one()
        rows = cleared_rows(fs, gs, cb.rho)
        assert realization_charpoly(rows) == want
        assert interpolated_det(rows) == want
        assert packed_det(rows, packed_width(rows)) == want
        assert coupling_poly(fs, gs, cb.rho) == want
        sides.add(sum(g.degree for g in gs) ** 2 < cb.k**3)
        zero_forms += any(g.degree == 0 and any(h.degree for h in gs[:i]) for i, g in enumerate(gs))
        ks.add(cb.k)
    assert sides == {True, False}
    assert zero_forms >= 5
    assert {0, 1, 7} <= ks


def test_glued_realization_equals_poly_det_on_both_sides_of_the_rule():
    # the realization against the form that takes any rows, which
    # fixtures.poly_det_charpoly glues, on both sides of coupling_poly's rule
    # D^2 < k^3, zero forms between blocks that have rows included
    sides, zero_forms = set(), 0
    for cb in _realization_cases(random.Random(12)):
        fs, gs = [f.num for f in cb.forms], [f.den for f in cb.forms]
        rows = cleared_rows(fs, gs, cb.rho)
        phi = realization_charpoly(rows)
        assert phi == interpolated_det(rows)
        assert coupling_poly(fs, gs, cb.rho) == phi
        assert product([phi] + [f.cofactor for f in cb.forms]) == poly_det_charpoly(cb)
        sides.add(sum(g.degree for g in gs) ** 2 < cb.k**3)
        zero_forms += any(g.degree == 0 and any(h.degree for h in gs[:i]) for i, g in enumerate(gs))
    assert sides == {True, False}
    assert zero_forms >= 5


def test_packed_det_equals_poly_det_and_the_cofactor_reference():
    # the same corpus: asymmetric rational rho, zero forms, corona cones, k = 0 and k = 1
    ks = set()
    for cb in _realization_cases(random.Random(12)):
        fs, gs = [f.num for f in cb.forms], [f.den for f in cb.forms]
        rows = cleared_rows(fs, gs, cb.rho)
        want = cofactor_det(coupling_rows(fs, gs, cb.rho)) if cb.k else Polynomial.one()
        assert interpolated_det(rows) == want
        assert packed_det(rows, packed_width(rows)) == want
        ks.add(cb.k)
    assert {0, 1, 7} <= ks


def _random_coupling(rng, k, degree, bits):
    """k monic g_i of one degree and f_i of lower degree, coefficients of about
    `bits` bits, under an asymmetric rational rho with zeros."""
    def coeff():
        return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 3))

    gs = [Polynomial([coeff() for _ in range(degree)] + [1]) for _ in range(k)]
    fs = [Polynomial([coeff() for _ in range(rng.randint(0, degree))]) for _ in range(k)]
    rho = tuple(tuple(Fraction(0) if i == j or rng.random() < 0.3 else random_fraction(rng) for j in range(k)) for i in range(k))
    return fs, gs, rho


def _record_forms(monkeypatch) -> list[str]:
    """The names of the non-closed Phi forms `coupling_poly` runs, in order."""
    picked = []

    def recording(form):
        def run(*args):
            picked.append(form.__name__)
            return form(*args)

        return run

    for form in (realization_charpoly, packed_det, interpolated_det):
        monkeypatch.setattr(matrices, form.__name__, recording(form))
    return picked


def test_coupling_poly_picks_each_of_its_three_forms_on_a_seeded_grid(monkeypatch):
    # the cost model sends D <= k to the realization, many blocks of small
    # coefficients to the packed form and few blocks of huge coefficients to
    # the interpolation form; each grid point takes the form listed for it, so
    # a change to the cost model shows here, and equals the cofactor reference
    real, packed, interp = "realization_charpoly", "packed_det", "interpolated_det"
    expected = [
        real, real, packed, packed, packed, packed,  # k = 1
        real, real, packed, interp, packed, interp,  # k = 2
        real, real, packed, interp, packed, interp,  # k = 3
        real, real, packed, interp, packed, interp,  # k = 5
    ]
    picked = _record_forms(monkeypatch)
    rng = random.Random(2026)
    for k in (1, 2, 3, 5):
        for degree in (1, 3, 12):
            for bits in (2, 700):
                fs, gs, rho = _random_coupling(rng, k, degree, bits)
                assert coupling_poly(fs, gs, rho) == cofactor_det(coupling_rows(fs, gs, rho))
    assert picked == expected


def test_phi_takes_one_kernel_call_of_dimension_d_only_through_the_realization(kernel_calls, monkeypatch):
    realized = []

    def recorded(rows):
        realized.append(sum(g.degree for g in rows.gs))
        return realization_charpoly(rows)

    monkeypatch.setattr(matrices, "realization_charpoly", recorded)

    def run(spec):
        """(D, the kernel calls of each distinct block's form, the route's kernel calls)"""
        dim = sum(form.den.degree for form in universal_blocks(spec).forms)
        blocks_only = list(kernel_calls)
        kernel_calls.clear()
        realized.clear()
        coupled_charpoly(universal_blocks(spec))
        calls = list(kernel_calls)
        kernel_calls.clear()
        return dim, blocks_only, calls

    rng = random.Random(7)
    spec = JoinSpec(random_graph(rng, 12), tuple(random_graph(rng, rng.randint(2, 4)) for _ in range(12)), universal=ADJ)
    assert len(set(spec.components)) < 12  # repeated blocks cost once
    # adjacency blocks: D > k, and the packed form makes no kernel call
    dim, blocks_only, calls = run(spec)
    assert dim > 12
    assert realized == []
    assert calls == blocks_only
    # Laplacian blocks: one pole each, D = k, and the realization is one call of dimension D
    dim, blocks_only, calls = run(spec.with_universal(UniversalParams.laplacian()))
    assert dim == 12
    assert realized == [dim]
    assert calls == blocks_only + [dim]
    dim, blocks_only, calls = run(JoinSpec(Graph.path(2), (random_graph(rng, 22), random_graph(rng, 28)), universal=ADJ))
    assert realized == []
    assert calls == blocks_only


def test_coupling_poly_on_public_inputs_is_poly_det(monkeypatch):
    # a non-monic g or deg f >= deg g has no companion realization: k = 2 and
    # D = 2 pass the size rule, so only the form check sends the first two to
    # the packed form; the last case takes the realization with a plain int in rho
    picked = _record_forms(monkeypatch)
    rho = ((0, Fraction(1, 2)), (-3, 0))
    cases = [
        ([X + 1, Polynomial.constant(2)], [2 * X + 1, X - 3]),
        ([X**2, Polynomial.one()], [X - 1, X + 2]),
        ([Polynomial.constant(2), Polynomial.constant(Fraction(1, 3))], [X - 1, X + 2]),
    ]
    for fs, gs in cases:
        assert coupling_poly(fs, gs, rho) == cofactor_det(coupling_rows(fs, gs, rho))
    assert picked == ["packed_det", "packed_det", "realization_charpoly"]


def test_laplacian_join_of_16_vertex_blocks_matches_eigvalsh():
    # eight random 16-vertex Laplacian blocks under K8: the float root finder
    # this replaces reported a non-real root of a degree-15 block factor
    import numpy as np

    rng = random.Random(1)
    lap = UniversalParams.laplacian()
    spec = JoinSpec(Graph.complete(8), tuple(random_graph(rng, 16, 0.4) for _ in range(8)), universal=lap)
    got = coupled_spectrum(universal_blocks(spec)).eigenvalues()
    want = np.linalg.eigvalsh(np.array(universal_matrix(join_graph(spec), lap).to_floats()))
    assert len(got) == 128
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * float(np.max(np.abs(want)))


def test_coupling_degree_matches_visible_count():
    rng = random.Random(46)
    for _ in range(10):
        blocks, rho = random_coupled_blocks(rng, max_k=4, max_n=4, symmetric=True)
        report = coupled_spectrum(coupled(blocks, rho))
        total_visible = 0
        for m, u, _ in blocks:
            total_visible += max(0, int(resolvent_form(m, u).den.degree))
        assert report.coupling.degree == total_visible


# -- universal-matrix routes ---------------------------------------------------


def test_universal_laplacian_complete_join():
    spec = JoinSpec(Graph.complete(2), (Graph.complete(2), Graph.complete(2)), universal=UniversalParams.laplacian())
    assert coupled_charpoly(universal_blocks(spec)) == X * (X - 4) ** 3


def test_universal_routes_against_graph_oracle():
    rng = random.Random(47)
    presets = [
        UniversalParams.adjacency(),
        UniversalParams.laplacian(),
        signless_laplacian(),
        seidel(),
    ]
    for _ in range(12):
        params = presets[rng.randrange(4)] if rng.random() < 0.7 else random_universal_params(rng)
        spec = random_join_spec(rng, max_k=3, max_n=3, universal=params)
        formula = coupled_charpoly(universal_blocks(spec))
        truth = oracle_charpoly(universal_matrix(join_graph(spec.with_universal(None)), params))
        assert compare(formula, truth).equal


def test_regular_shortcut_complete_join():
    spec = JoinSpec(Graph.complete(2), (Graph.complete(2), Graph.complete(2)), universal=ADJ)
    report = _regular_spectrum(spec)
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
        shortcut = _regular_spectrum(spec)
        general = coupled_spectrum(universal_blocks(spec))
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
        report = _regular_spectrum(spec)
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
    spec = JoinSpec(Graph.complete(2), (cycle(4), cycle(4)), universal=UniversalParams.laplacian())
    via_regular = _regular_spectrum(spec).eigenvalues()
    via_balanced = _balanced_spectrum(spec).eigenvalues()
    via_general = coupled_spectrum(universal_blocks(spec)).eigenvalues()
    assert multisets_close(via_regular, via_general, 1e-8)
    assert multisets_close(via_balanced, via_general, 1e-8)


def test_regular_shortcut_single_component():
    spec = JoinSpec(Graph(1), (cycle(5),), universal=ADJ)
    report = _regular_spectrum(spec)
    assert multisets_close(report.eigenvalues(), oracle_spectrum(cycle(5).adjacency()), 1e-8)


def test_regular_shortcut_rejects_irregular():
    spec = JoinSpec(Graph(1), (Graph.path(3),), universal=ADJ)
    with pytest.raises(PreconditionError):
        _regular_spectrum(spec)


def test_balanced_shortcut_laplacian():
    spec = mixed_join_spec().with_universal(UniversalParams.laplacian())
    report = _balanced_spectrum(spec)
    general = coupled_spectrum(universal_blocks(spec))
    assert multisets_close(report.eigenvalues(), general.eigenvalues(), 1e-8)
    laplacian = universal_matrix(join_graph(mixed_join_spec()), UniversalParams.laplacian())
    assert multisets_close(report.eigenvalues(), oracle_spectrum(laplacian), 1e-7)


def test_balanced_shortcut_beta_shift():
    base = mixed_join_spec().with_universal(UniversalParams(-1, 0, 0, 1))
    moved = mixed_join_spec().with_universal(UniversalParams(-1, 5, 0, 1))
    a = _balanced_spectrum(base).eigenvalues()
    b = _balanced_spectrum(moved).eigenvalues()
    assert multisets_close([v + 5 for v in a], b, 1e-8)


def test_balanced_shortcut_single_block():
    spec = JoinSpec(Graph(1), (Graph.path(3),), universal=UniversalParams(-1, 2, 1, 1))
    report = _balanced_spectrum(spec)
    truth = oracle_spectrum(universal_matrix(Graph.path(3), UniversalParams(-1, 2, 1, 1)))
    assert multisets_close(report.eigenvalues(), truth, 1e-8)


def test_balanced_shortcut_precondition():
    with pytest.raises(PreconditionError):
        _balanced_spectrum(mixed_join_spec().with_universal(ADJ))


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
            report = _balanced_spectrum(spec)
            ps = [b + c * n + d * wi for n, wi in zip(ns, w)]
        else:
            report = _regular_spectrum(spec)
            rs = [g.regular_degree() for g in comps]
            ps = [a * r + b + c * n + d * (r + wi) for r, n, wi in zip(rs, ns, w)]
        eff = effective_rho(spec)
        entries = [ps[i] if i == j else ns[j] * (eff[i][j] * a + c) for i in range(k) for j in range(k)]
        assert report.coupling == charpoly(RationalMatrix(k, k, entries))


def test_shortcut_routes_verify_against_the_oracle():
    spec = JoinSpec(Graph.complete(2), (Graph.complete(3), Graph.complete(2)), universal=ADJ)
    report = _regular_spectrum(spec)
    assert check(report.charpoly, join_truth(spec), report.eigenvalues()).equal
    lap = mixed_join_spec().with_universal(UniversalParams.laplacian())
    report = _balanced_spectrum(lap)
    assert check(report.charpoly, join_truth(lap), report.eigenvalues()).equal


def test_universal_route_with_coupling_override():
    # an override detached from the host is matrix-only: the formula route
    # must still match the literally assembled block matrix
    base = mixed_join_spec()
    rho = ((0, Fraction(1, 2), 2), (Fraction(1, 2), 0, -1), (2, -1, 0))
    spec = JoinSpec(base.host, base.components, universal=ADJ, rho_override=rho)
    formula = coupled_charpoly(universal_blocks(spec))
    assert compare(formula, oracle_charpoly(assemble(*dense_join_blocks(spec)))).equal
    asym = ((0, 1, 0), (2, 0, 1), (0, 3, 0))
    spec2 = JoinSpec(base.host, base.components, universal=ADJ, rho_override=asym)
    cb = universal_blocks(spec2)
    assert compare(coupled_charpoly(cb), oracle_charpoly(assemble(*dense_join_blocks(spec2)))).equal


# -- lexicographic ---------------------------------------------------------------


def _lex_spec(host, inner, params=ADJ):
    """H[G] as the join whose components are all G."""
    return JoinSpec(host, (inner,) * host.n, universal=params)


def test_lex_simple_cases():
    assert coupled_charpoly(universal_blocks(_lex_spec(Graph.complete(2), Graph(1)))) == X**2 - 1
    single = _lex_spec(Graph(1), Graph.path(4))
    assert coupled_charpoly(universal_blocks(single)) == charpoly(Graph.path(4).adjacency())
    spec = _lex_spec(Graph.path(3), Graph.complete(2))
    via_lex = coupled_charpoly(universal_blocks(spec))
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
        via_lex = coupled_charpoly(universal_blocks(spec))
        assert via_lex == poly_det_charpoly(universal_blocks(spec))
        assert compare(via_lex, oracle_charpoly(universal_matrix(lexicographic(host, inner), params))).equal


def test_lex_takes_degree_term(capsys, tmp_path):
    # the degree term shifts block i by delta * w_i, which the join route
    # carries for any delta; the lexicographic verb goes through it
    rng = random.Random(63)
    for case in range(8):
        host = random_graph(rng, rng.randint(2, 4))
        inner = random_graph(rng, rng.randint(1, 4))
        params = json_obj(random_universal_params(rng))
        params["delta"] = rng.choice(["-2", "-1", "-1/3", "1/2", "1", "2"])
        p = tmp_path / f"lex_{case}.json"
        p.write_text(json.dumps({"host": json_obj(host), "components": [json_obj(inner)], "universal": params}))
        assert main(["lex", str(p), "--verify"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle"]["equal"] is True


def _refuse(*args):
    raise AssertionError("identical blocks left the closed-form Phi")


def test_identical_blocks_take_the_closed_form_phi():
    # symmetric rho (host patterns through universal couplings) and asymmetric
    # rational rho with zeros, k = 2..6: the closed form must equal the
    # cofactor reference on the same coupling rows.  Blocks this small cost
    # less in another form, so the closed form is called by name here, and
    # coupling_poly must agree whichever form its cost rule takes
    rng = random.Random(14)
    for k in range(2, 7):
        for _ in range(4):
            m, u, v = random_coupled_blocks(rng, max_k=1, max_n=5, zero_vector_rate=0.2)[0][0]
            form = resolvent_form(m, u, v)
            fs, gs = [form.num] * k, [form.den] * k
            sym = _universal_rho(host_rho(random_graph(rng, k)), random_universal_params(rng))
            asym = tuple(
                tuple(Fraction(0) if i == j or rng.random() < 0.3 else random_fraction(rng) for j in range(k)) for i in range(k)
            )
            for rho in (sym, asym):
                want = cofactor_det(coupling_rows(fs, gs, rho))
                assert closed_form_phi(form.num, form.den, rho) == want
                assert coupling_poly(fs, gs, rho) == want


def test_lex_products_take_the_closed_form_phi(monkeypatch):
    # the cost rule keeps the closed form where it wins by far: on lex shapes
    # of this size the other forms take ten times longer or more
    monkeypatch.setattr(matrices, "realization_charpoly", _refuse)
    monkeypatch.setattr(matrices, "packed_det", _refuse)
    monkeypatch.setattr(matrices, "interpolated_det", _refuse)
    rng = random.Random(2026)
    for k, n in ((12, 12), (30, 10)):
        cb = universal_blocks(_lex_spec(random_graph(rng, k), random_graph(rng, n)))
        assert coupled_charpoly(cb).degree == k * n


def test_one_matrix_under_other_vectors_is_another_block():
    # a block is its form, so one matrix under another vector gives another block
    m = Graph.path(4).adjacency()
    ones, end = (1,) * 4, (1, 0, 0, 0)
    blocks = [(m, ones, ones), (m, end, end), (m, ones, ones)]
    cb = coupled(blocks, host_rho(Graph.path(3)))
    assert cb.forms[0] == cb.forms[2] != cb.forms[1]
    truth = oracle_charpoly(assemble(blocks, cb.rho))
    assert compare(coupled_charpoly(cb), truth).equal
    assert compare(coupled_spectrum(cb).charpoly, truth).equal


def test_lex_join_takes_one_blocks_kernel_calls_plus_one_k_by_k_call(kernel_calls):
    # the inner graph's block takes one bordered pass, whether it is irregular,
    # regular or a Laplacian block; then Phi's closed form takes one k x k
    # call.  The first host is large enough for the closed form to be the
    # cheapest; the other two have one pole per block (D = k), and their
    # realization is the one call of dimension k
    rng = random.Random(9)
    irregular = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    cases = [
        (_lex_spec(random_graph(rng, 10), irregular), [("bordered", 5), 10]),
        (_lex_spec(random_graph(rng, 7), cycle(5)), [("bordered", 5), 7]),
        (_lex_spec(cycle(6), irregular, UniversalParams.laplacian()), [("bordered", 5), 6]),
    ]
    for spec, want in cases:
        for glue in (coupled_charpoly, coupled_spectrum):
            kernel_calls.clear()
            glue(universal_blocks(spec))
            assert kernel_calls == want


# -- degree-shift family ----------------------------------------------------------


def test_generalized_reduces_to_adjacency_at_zero():
    spec = mixed_join_spec()
    at_zero = coupled_charpoly(universal_blocks(degree_shift_spec(spec, 0)))
    assert at_zero == product(mixed_join_charpoly_factors())


def test_generalized_negated_laplacian_at_one():
    spec = JoinSpec(Graph.complete(2), (Graph.complete(2), Graph.complete(2)))
    got = coupled_charpoly(universal_blocks(degree_shift_spec(spec, 1)))
    assert got == X * (X + 4) ** 3  # negated complete-graph laplacian


def test_generalized_matches_oracle_at_half():
    spec = mixed_join_spec()
    g = join_graph(spec)
    m = g.adjacency() - g.degree_matrix() * Fraction(1, 2)
    half = coupled_charpoly(universal_blocks(degree_shift_spec(spec, Fraction(1, 2))))
    assert compare(half, oracle_charpoly(m)).equal


def test_generalized_rejects_universal_params():
    with pytest.raises(PreconditionError):
        coupled_charpoly(universal_blocks(degree_shift_spec(mixed_join_spec().with_universal(ADJ), 1)))


@pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(-2)])
def test_degree_shift_truth_catches_a_flipped_sign_of_t(monkeypatch, t):
    # the truth is A - tD of the join graph itself, so a shifted spec built with +t must not match it
    from joinspectra import verification

    spec = mixed_join_spec()
    route, cb, truth = verification.CONSTRUCTIONS["degree-shift"](spec, t)
    assert route == "degree-shift"
    assert check(coupled_charpoly(cb), truth()).equal

    monkeypatch.setattr(verification, "degree_shift_spec", lambda spec, t: spec.with_universal(UniversalParams(1, 0, 0, t)))
    _, cb, truth = verification.CONSTRUCTIONS["degree-shift"](spec, t)
    verdict = check(coupled_charpoly(cb), truth())
    assert not verdict.equal
    assert verdict.first_mismatch is not None


# -- subset joins ------------------------------------------------------------------


def test_subset_join_fixture():
    spec = subset_join_spec()
    assert coupled_charpoly(subset_blocks(spec)) == product(subset_join_charpoly_factors())


def test_subset_join_full_subsets_match_plain_join():
    base = mixed_join_spec()
    full = JoinSpec(base.host, base.components, subsets=tuple(full_subset(c.n) for c in base.components))
    plain = coupled_charpoly(universal_blocks(base.with_universal(ADJ)))
    assert coupled_charpoly(subset_blocks(full)) == plain


def test_subset_join_empty_subset_factorizes():
    base = mixed_join_spec()
    empty_first = JoinSpec(
        base.host,
        base.components,
        subsets=(VertexSubset(3, ()), full_subset(4), full_subset(3)),
    )
    got = coupled_charpoly(subset_blocks(empty_first))
    # component 0 separates: remaining join lives on the host minus vertex 0
    rest = JoinSpec(Graph(2, [(0, 1)]), base.components[1:])
    rest_charpoly = coupled_charpoly(universal_blocks(rest.with_universal(ADJ)))
    expected = charpoly(base.components[0].adjacency()) * rest_charpoly
    assert got == expected
    assert compare(got, oracle_charpoly(join_graph(empty_first).adjacency())).equal


def test_subset_join_spectrum_fixture():
    report = coupled_spectrum(subset_blocks(subset_join_spec()))
    assert check(report.charpoly, join_truth(subset_join_spec()), report.eigenvalues()).equal
    zeros = [v for v in report.eigenvalues() if abs(v) < 1e-9]
    assert len(zeros) == 4


def test_subset_join_spectrum_regular_full_subsets():
    rng = random.Random(50)
    for _ in range(8):
        k = rng.randint(1, 3)
        host = random_graph(rng, k)
        comps = tuple(regular_graph_menu(rng) for _ in range(k))
        spec = JoinSpec(host, comps, subsets=tuple(full_subset(c.n) for c in comps))
        report = coupled_spectrum(subset_blocks(spec))
        shortcut = _regular_spectrum(JoinSpec(host, comps, universal=ADJ))
        assert multisets_close(report.eigenvalues(), shortcut.eigenvalues(), 1e-7)


def test_subset_join_single_block():
    g = Graph.path(4)
    spec = JoinSpec(Graph(1), (g,), subsets=(VertexSubset(4, (0, 2)),))
    report = coupled_spectrum(subset_blocks(spec))
    assert multisets_close(report.eigenvalues(), oracle_spectrum(g.adjacency()), 1e-8)


def test_subset_join_requires_subsets_and_plain_matrix():
    with pytest.raises(PreconditionError):
        coupled_charpoly(subset_blocks(mixed_join_spec()))
    with pytest.raises(PreconditionError):
        coupled_charpoly(subset_blocks(subset_join_spec().with_universal(ADJ)))


# -- coronas -----------------------------------------------------------------------


def test_corona_single_vertex():
    assert coupled_charpoly(corona_blocks(Graph(1), (Graph(1),))) == X**2 - 1


def test_corona_path():
    got = coupled_charpoly(corona_blocks(Graph.path(2), (Graph(1), Graph(1))))
    assert got == X**4 - 3 * X**2 + 1  # the 4-path
    assert got == oracle_charpoly(generalized_corona(Graph.path(2), (Graph(1), Graph(1))).adjacency())


def test_corona_sun_graph():
    host = cycle(4)
    fam = (Graph(1),) * 4
    got = coupled_charpoly(corona_blocks(host, fam))
    assert compare(got, oracle_charpoly(generalized_corona(host, fam).adjacency())).equal


def test_corona_two_routes_agree():
    rng = random.Random(51)
    for _ in range(12):
        k = rng.randint(1, 4)
        host = random_graph(rng, k)
        fam = tuple(random_graph(rng, rng.randint(1, 3)) for _ in range(k))
        direct = coupled_charpoly(corona_blocks(host, fam))
        via_join = coupled_charpoly(join_blocks(corona_as_hjoin(host, fam)))
        assert direct == via_join
        assert compare(direct, oracle_charpoly(generalized_corona(host, fam).adjacency())).equal


def test_corona_matches_oracle_on_edge_case_companions():
    # empty (0-vertex), single-vertex and disconnected companions on
    # edgeless, complete and random hosts
    rng = random.Random(52)
    companions = (
        lambda: Graph(0),
        lambda: Graph(1),
        lambda: Graph(rng.randint(2, 3)),
        lambda: Graph(4, [(0, 1), (2, 3)]),
        lambda: random_graph(rng, rng.randint(0, 4)),
    )
    hosts = (Graph, Graph.complete, lambda k: random_graph(rng, k))
    for trial in range(24):
        k = rng.randint(1, 4)
        host = hosts[trial % 3](k)
        fam = tuple(rng.choice(companions)() for _ in range(k))
        if trial < 3:
            fam = (Graph(0),) * k
        got = coupled_charpoly(corona_blocks(host, fam))
        assert got == oracle_charpoly(generalized_corona(host, fam).adjacency())


def test_corona_forms_are_the_dense_cone_forms():
    # the apex form g / (x g - f) and charpoly (phi / g)(x g - f), made from
    # the companion's all-ones form, against `resolvent_form` of the dense cone
    # at e_0: empty, single-vertex, edgeless, disconnected, regular and
    # irregular companions
    rng = random.Random(28)
    companions = [Graph(0), Graph(1), Graph(3), Graph(4, [(0, 1), (2, 3)]), cycle(5), Graph.path(4)]
    companions += [Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)]), Graph(5, [(0, 1), (0, 2), (3, 4)])]
    companions += [random_graph(rng, rng.randint(0, 6)) for _ in range(16)]
    for g in companions:
        (form,) = corona_blocks(Graph(1), (g,)).forms
        assert form == resolvent_form(*corona_cone(g))
    for _ in range(6):
        host = random_graph(rng, rng.randint(1, 6))
        fam = tuple(rng.choice(companions) for _ in range(host.n))
        cb = corona_blocks(host, fam)
        assert cb.forms == tuple(resolvent_form(*corona_cone(g)) for g in fam)
        assert cb.rho == host_rho(host)


def _repeated_graph(rng):
    """A graph whose eigenvalues repeat: disjoint copies of a random graph, or
    a complete, edgeless, star or cycle graph."""
    kind = rng.randrange(5)
    if kind == 0:
        return disjoint_copies(random_graph(rng, rng.randint(1, 3)), rng.randint(2, 3))
    if kind == 1:
        return Graph.complete(rng.randint(1, 5))
    if kind == 2:
        return Graph(rng.randint(1, 5))
    return star(rng.randint(1, 5)) if kind == 3 else cycle(rng.randint(3, 6))


def _charpoly_reference_split(cb, phis):
    """(inherited, reduced) of the glued spectrum by the reference that splits
    each block's full charpoly phi_i."""
    inherited, reduced = [], []
    for idx, (form, phi) in enumerate(zip(cb.forms, phis)):
        inh, red = classify_block_from_charpoly(phi, form.den, idx)
        inherited += inh
        reduced += red
    return tuple(inherited), tuple(reduced)


def test_cofactor_classification_equals_the_charpoly_reference():
    # coupled_spectrum splits each block's cofactor q = phi / g by gcd with g;
    # the reference splits the dense block's own charpoly phi and counts a seen
    # eigenvalue once less.  Hermitian blocks with repeated eigenvalues, as
    # adjacency or rational universal matrices, at all-ones, an indicator or
    # the zero vector, then corona apex forms against their dense cones
    rng = random.Random(30)
    vectors, repeated_seen = set(), 0
    for _ in range(40):
        k = rng.randint(1, 4)
        rho = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                rho[i][j] = rho[j][i] = random_fraction(rng)
        blocks = []
        for _ in range(k):
            g = _repeated_graph(rng)
            m = g.adjacency() if rng.random() < 0.5 else literal_universal_matrix(g, random_universal_params(rng))
            kind = rng.choice(["ones", "indicator", "zero"])
            vectors.add(kind)
            if kind == "ones":
                u = (Fraction(1),) * g.n
            else:
                u = tuple(Fraction(int(kind == "indicator" and rng.random() < 0.5)) for _ in range(g.n))
            blocks.append((m, u, u))
        cb = coupled(blocks, rho)
        report = coupled_spectrum(cb)
        assert (report.inherited, report.reduced) == _charpoly_reference_split(cb, [charpoly(m) for m, _, _ in blocks])
        repeated_seen += sum(mult > 1 for _, mult, _ in report.reduced)
    assert vectors == {"ones", "indicator", "zero"}
    assert repeated_seen >= 5
    for _ in range(12):
        host = random_graph(rng, rng.randint(1, 4))
        family = tuple(_repeated_graph(rng) for _ in range(host.n))
        cb = corona_blocks(host, family)
        report = coupled_spectrum(cb)
        phis = [charpoly(corona_cone(g)[0]) for g in family]
        assert (report.inherited, report.reduced) == _charpoly_reference_split(cb, phis)


def test_spectrum_refuses_a_block_that_is_not_hermitian():
    # with a symmetric rho, the per-block half of the precondition decides:
    # `resolvent_form` records it on both of its branches
    rho = ((0, 1), (1, 0))
    good = (Graph.path(3).adjacency(), (1, 1, 1), (1, 1, 1))
    regular = (cycle(4).adjacency(), (1,) * 4, (1,) * 4)
    cb = coupled([good, regular], rho)
    assert cb.forms[1].den == X - 2  # the eigenvector branch
    assert cb.is_hermitian()
    coupled_spectrum(cb)
    bad = [
        (RationalMatrix(3, 3, [0, 1, 0, 2, 0, 1, 0, 1, 0]), (1, 0, 1), (1, 0, 1)),  # M not symmetric
        (Graph.path(3).adjacency(), (1, 1, 1), (1, 0, 1)),  # u != v
        (RationalMatrix(2, 2, [1, 2, 0, 3]), (1, 1), (1, 1)),  # M not symmetric, u an eigenvector
    ]
    for block in bad:
        cb = coupled([good, block], rho)
        assert not cb.forms[1].hermitian and not cb.is_hermitian()
        with pytest.raises(PreconditionError):
            coupled_spectrum(cb)
        assert coupled_charpoly(cb) == oracle_charpoly(assemble([good, block], rho))
    assert coupled([good, bad[2]], rho).forms[1].den == X - 3  # the eigenvector branch


# -- concurrency sanity --------------------------------------------------------------


def test_routes_are_pure_under_threads():
    spec = mixed_join_spec().with_universal(ADJ)
    expected = coupled_charpoly(universal_blocks(spec))
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: coupled_charpoly(universal_blocks(spec)), range(8)))
    assert all(r == expected for r in results)


def test_universal_blocks_are_shifted_literal_matrices():
    rng = random.Random(26)
    presets = [UniversalParams(*p) for p in PRESET_VALUES]
    for trial in range(25):
        params = presets[trial] if trial < len(presets) else random_universal_params(rng)
        spec = random_join_spec(rng, max_k=5, max_n=6, universal=params)
        w = join_weights(spec)
        cb = universal_blocks(spec)
        assert cb.k == len(spec.components)
        keys = [(g, params.delta * w[i]) for i, g in enumerate(spec.components)]
        for i, (g, form) in enumerate(zip(spec.components, cb.forms)):
            shift = identity(g.n) * (params.delta * w[i])
            assert form == resolvent_form(literal_universal_matrix(g, params) + shift, tuple(Fraction(1) for _ in range(g.n)))
            assert form.hermitian
            # one form per distinct (component, shift), shared by its blocks
            assert form is cb.forms[keys.index(keys[i])]


# a menu with a 0- and a 1-vertex graph, a regular graph (all-ones is an
# eigenvector of its adjacency and signless blocks) and two irregular ones
TRANSLATION_MENU = (Graph(0, ()), Graph(1, ()), cycle(4), star(3), Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)]))
TRANSLATION_PARAMS = [*PRESET_VALUES, (1, "1/3", "1/2", "-5/7")]


def _repeating_join(rng, params):
    """A seeded connected host of 7 to 9 vertices whose blocks repeat menu graphs."""
    k = rng.randint(7, 9)
    host = Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k) if j == i + 1 or rng.random() < 0.4])
    return JoinSpec(host, tuple(rng.choice(TRANSLATION_MENU) for _ in range(k)), universal=params)


@pytest.mark.parametrize("values", TRANSLATION_PARAMS)
def test_translated_forms_equal_the_forms_of_their_own_blocks(values, kernel_calls):
    # a component's class is reduced once, and its blocks at every host weight
    # get that form translated; each must equal its own block's form, which
    # takes one bordered pass too
    rng = random.Random(30)
    params = UniversalParams(*values)
    kinds = set()
    repeated = 0
    for _ in range(6):
        spec = _repeating_join(rng, params)
        w = join_weights(spec)
        kernel_calls.clear()
        cb = universal_blocks(spec)
        # the menu's graphs are pairwise non-isomorphic: one pass per distinct component
        assert kernel_calls == [("bordered", g.n) for g in dict.fromkeys(spec.components)]
        repeated += len({(g, w[i]) for i, g in enumerate(spec.components)}) > len(set(spec.components))
        for i, (g, form) in enumerate(zip(spec.components, cb.forms)):
            kernel_calls.clear()
            want = resolvent_form(universal_matrix(g, params, params.delta * w[i]), [1] * g.n)
            assert kernel_calls == [("bordered", g.n)]
            assert form == want
            assert form.hermitian
            if g.n:
                kinds.add(_all_ones_kind(form))
    # the seeded joins hold components at several host weights, and reach both kinds of block
    assert repeated >= 4
    assert kinds == {"eigenvector", "other"} or params.alpha + params.delta == 0


@pytest.mark.parametrize("values", TRANSLATION_PARAMS)
def test_universal_blocks_take_one_kernel_pass_per_distinct_component(values, kernel_calls):
    rng = random.Random(31)
    params = UniversalParams(*values)
    for _ in range(6):
        spec = _repeating_join(rng, params)
        distinct = list(dict.fromkeys(spec.components))
        w = join_weights(spec)
        pairs = {(g, w[i]) for i, g in enumerate(spec.components)}
        kernel_calls.clear()
        universal_blocks(spec)
        # one bordered pass per distinct component, in order of first appearance
        assert kernel_calls == [("bordered", g.n) for g in distinct]
        # where delta != 0 a pass per (component, weight) pair would be more
        assert len(pairs) > len(distinct) or params.delta == 0


def test_glued_product_equals_the_sequential_product():
    rng = random.Random(32)

    def monic(degree, num_bits=8, den=6):
        coeffs = [Fraction(rng.randint(-(1 << num_bits), 1 << num_bits), rng.randint(1, den)) for _ in range(degree)]
        return Polynomial([*coeffs, 1])

    wide = 0
    for trial in range(40):
        k = 1 if trial % 5 == 0 else rng.randint(2, 6)
        cofactors = [monic(rng.randint(0, 4)) for _ in range(k)]
        if trial % 3 == 0:
            cofactors[rng.randrange(k)] = Polynomial.one()
        phi = monic(rng.randint(0, 12), num_bits=320 if trial % 2 else 4, den=1 if trial % 4 else 35)
        want = phi
        for cof in cofactors:
            want = want * cof
        got = spectra._glued_product(phi, cofactors, want.degree)
        assert got == want
        wide += max(abs(c).bit_length() for c in phi.nums) > 300
    assert wide >= 10


# -- universal blocks as the sparse integer part under exact maps ------------------------


SPLIT_PARAMS = [
    *PRESET_VALUES,
    (2, "1/3", "-1/2", -2),  # alpha + delta = 0
    ("-3/2", "2/5", 0, "1/3"),  # gamma = 0
    ("5/4", -1, "3/2", 0),  # delta = 0
    ("2/3", "1/4", "-2/3", "-5/7"),
]


def _star_join(g: Graph, leaves: int, params) -> JoinSpec:
    """g at the hub of a star host whose leaves carry single vertices, so
    that g's block sits at host weight `leaves`; the leaves' blocks sit at g.n."""
    host = Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    return JoinSpec(host, (g,) + (Graph(1),) * leaves, universal=params)


def _all_ones_kind(form) -> str:
    """The kind of a symmetric block with rows, read off its all-ones form:
    "eigenvector" when all-ones is one (a single main eigenvalue), else "other"."""
    return "eigenvector" if form.den.degree == 1 else "other"


def _assert_split_forms_equal_dense_forms(spec: JoinSpec, kernel_calls) -> set:
    """Every block's form equals `resolvent_form` of its dense universal
    matrix, and each form, the route's and the dense one, takes one bordered
    pass per class; returns the kinds (`_all_ones_kind`) of the blocks with
    rows (an empty block's form is 0/1 from an empty bordered pass)."""
    params = spec.params
    w = join_weights(spec)
    kernel_calls.clear()
    cb = universal_blocks(spec)
    classes = {canonical_key(g): g.n for g in spec.components}
    assert kernel_calls == [("bordered", n) for n in classes.values()]
    kinds = set()
    for i, (g, form) in enumerate(zip(spec.components, cb.forms)):
        kernel_calls.clear()
        want = resolvent_form(universal_matrix(g, params, params.delta * w[i]), [1] * g.n)
        assert kernel_calls == [("bordered", g.n)]
        assert form == want
        assert form.hermitian
        if g.n:
            kinds.add(_all_ones_kind(form))
    return kinds


@pytest.mark.parametrize("values", SPLIT_PARAMS)
def test_split_forms_equal_the_forms_of_the_dense_blocks(values, kernel_calls):
    rng = random.Random(41)
    params = UniversalParams(*values)
    kinds = set()
    for n in range(10):
        for _ in range(3):
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
            kinds |= _assert_split_forms_equal_dense_forms(_star_join(g, rng.randint(0, 3), params), kernel_calls)
        g = regular_graph_menu(rng)
        kinds |= _assert_split_forms_equal_dense_forms(_star_join(g, rng.randint(0, 3), params), kernel_calls)
    alpha, delta = params.alpha, params.delta
    assert kinds == ({"eigenvector"} if alpha + delta == 0 else {"eigenvector", "other"})


def test_split_forms_hold_for_random_parameters_and_zero_alpha(kernel_calls):
    rng = random.Random(42)
    for trial in range(60):
        if trial % 3 == 0:
            params = random_universal_params(rng)
        else:
            # alpha = 0, and alpha = delta = 0 in every other such trial
            delta = 0 if trial % 3 == 2 else random_fraction(rng)
            params = UniversalParams(0, random_fraction(rng), random_fraction(rng), delta, allow_zero_alpha=True)
        g = random_graph(rng, rng.randint(0, 9), rng.random())
        _assert_split_forms_equal_dense_forms(_star_join(g, rng.randint(0, 3), params), kernel_calls)


def test_zero_alpha_joins_match_their_truth():
    rng = random.Random(43)
    for trial in range(60):
        delta = 0 if trial % 4 == 0 else random_fraction(rng)
        params = UniversalParams(0, random_fraction(rng), random_fraction(rng), delta, allow_zero_alpha=True)
        spec = random_join_spec(rng, max_k=4, max_n=5, universal=params)
        verdict = check(coupled_charpoly(universal_blocks(spec)), join_truth(spec))
        assert verdict.equal, (json_obj(spec), verdict.detail)


def test_universal_blocks_call_no_dense_builder(monkeypatch):
    import joinspectra.joins as joins

    def refused(*args):
        raise AssertionError("universal_matrix reached from a route")

    monkeypatch.setattr(joins, "universal_matrix", refused)
    assert not hasattr(spectra, "universal_matrix")
    spec = mixed_join_spec().with_universal(UniversalParams("1/2", "-1/3", "2/3", "-1/2"))
    assert coupled_charpoly(universal_blocks(spec)) == coupled_charpoly(coupled(*dense_join_blocks(spec)))


# -- one kernel pass per isomorphism class ------------------------------------------------


def _relabelings(g: Graph) -> list[Graph]:
    """Every distinct labeled copy of g, in a fixed order."""
    out = {Graph(g.n, [(p[u], p[v]) for u, v in g.edges]) for p in permutations(range(g.n))}
    return sorted(out, key=lambda h: sorted(h.edges))


@pytest.mark.parametrize("values", PRESET_VALUES)
def test_twelve_relabeled_paths_at_distinct_weights_take_one_pass(values, kernel_calls):
    paths = _relabelings(Graph.path(4))
    assert len(paths) == 12
    # host vertices 12..15 carry edgeless graphs of 1, 2, 4 and 8 vertices, and
    # path i meets those of the bits of i + 1: the paths sit at weights 1..12
    edges = [(i, 12 + b) for i in range(12) for b in range(4) if (i + 1) >> b & 1]
    spec = JoinSpec(Graph(16, edges), (*paths, Graph(1), Graph(2), Graph(4), Graph(8)), universal=UniversalParams(*values))
    assert sorted(join_weights(spec)[:12]) == list(range(1, 13))
    kernel_calls.clear()
    cb = universal_blocks(spec)
    assert kernel_calls == [("bordered", n) for n in (4, 1, 2, 4, 8)]
    assert len(set(map(id, cb.forms[:12]))) == (12 if spec.params.delta else 1)
    assert compare(coupled_charpoly(cb), oracle_charpoly(join_truth(spec))).equal


def test_relabeled_subset_pairs_take_one_pass_per_class(kernel_calls):
    # every labeled 3-path with an end as its subset is one class, with its
    # centre another; the 4-path with both ends a third
    ends = [(g, [v]) for g in _relabelings(Graph.path(3)) for v in range(3) if g.degrees()[v] == 1]
    centres = [(g, [g.degrees().index(2)]) for g in _relabelings(Graph.path(3))]
    paths = [(g, [v for v in range(4) if g.degrees()[v] == 1]) for g in _relabelings(Graph.path(4))[:5]]
    pairs = ends + centres + paths
    k = len(pairs)
    host = Graph(k, [(i, i + 1) for i in range(k - 1)])
    spec = JoinSpec(host, [g for g, _ in pairs], subsets=[VertexSubset(g.n, m) for g, m in pairs])
    kernel_calls.clear()
    cb = subset_blocks(spec)
    assert kernel_calls == [("bordered", 3), ("bordered", 3), ("bordered", 4)]
    assert compare(coupled_charpoly(cb), oracle_charpoly(join_truth(spec))).equal


def test_relabeled_corona_companions_take_one_pass_per_class(kernel_calls):
    family = [*_relabelings(Graph.path(4))[:6], *_relabelings(Graph(3, [(0, 1)]))]
    host = Graph(len(family), [(i, (i + 1) % len(family)) for i in range(len(family))])
    kernel_calls.clear()
    cb = corona_blocks(host, family)
    assert kernel_calls == [("bordered", 4), ("bordered", 3)]
    assert compare(coupled_charpoly(cb), oracle_charpoly(generalized_corona(host, family).adjacency())).equal
