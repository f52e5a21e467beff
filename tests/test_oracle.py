import random
from fractions import Fraction

import pytest

from helpers import cofactor_det, coupled, dense_join_blocks, identity, json_obj, multisets_close, rand_symmetric_matrix, to_lists
from joinspectra import (
    Graph,
    JoinSpec,
    UniversalParams,
    assemble,
    check,
    compare,
    join_graph,
    join_truth,
    oracle_charpoly,
    oracle_spectrum,
    universal_matrix,
)
from joinspectra.errors import DomainError, PreconditionError
from joinspectra.fixtures import mixed_join_spec, subset_join_charpoly_factors, subset_join_spec, product
from joinspectra.matrices import RationalMatrix, charpoly
from joinspectra.polynomials import Polynomial
from joinspectra.spectra import coupled_charpoly, join_blocks, subset_blocks, universal_blocks
from joinspectra.verification import random_coupled_blocks

X = Polynomial.x()


def test_assemble_edge():
    blocks = [
        (RationalMatrix(1, 1, [0]), (Fraction(1),), (Fraction(1),)),
        (RationalMatrix(1, 1, [0]), (Fraction(1),), (Fraction(1),)),
    ]
    assert to_lists(assemble(blocks, ((0, 1), (1, 0)))) == [[0, 1], [1, 0]]


def test_assemble_matches_join_graphs():
    # the dense blocks whose forms the join's builder holds assemble to the join graph
    spec = mixed_join_spec()
    assert join_blocks(spec) == coupled(*dense_join_blocks(spec))
    assert assemble(*dense_join_blocks(spec)) == join_graph(spec).adjacency()
    sub = subset_join_spec()
    assert subset_blocks(sub) == coupled(*dense_join_blocks(sub))
    assert assemble(*dense_join_blocks(sub)) == join_graph(sub).adjacency()


def test_assemble_zero_vector_rows():
    blocks = [
        (RationalMatrix(2, 2, [0, 1, 1, 0]), (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        (RationalMatrix(1, 1, [0]), (Fraction(1),), (Fraction(1),)),
    ]
    assert to_lists(assemble(blocks, ((0, 1), (1, 0)))) == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]


def test_assemble_matches_a_literal_fraction_matrix():
    # every entry written as a Fraction: M_i on the diagonal, rho_ij * u_i[r] * v_j[c]
    # off it, with denominators in the blocks, in rho, in u and in v
    def literal(blocks, rho):
        offs = [sum(m.rows for m, _, _ in blocks[:i]) for i in range(len(blocks))]
        n = sum(m.rows for m, _, _ in blocks)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i, (m, u, _) in enumerate(blocks):
            for r in range(m.rows):
                for c in range(m.cols):
                    rows[offs[i] + r][offs[i] + c] = m[r, c]
                for j, (mj, _, v) in enumerate(blocks):
                    if j != i:
                        for c in range(mj.rows):
                            rows[offs[i] + r][offs[j] + c] = Fraction(rho[i][j]) * u[r] * v[c]
        return RationalMatrix.from_rows(rows) if n else RationalMatrix(0, 0, [])

    third, half = Fraction(1, 3), Fraction(1, 2)
    blocks = [
        (RationalMatrix(2, 2, [half, 1, 1, 0]), (third, 2), (Fraction(3, 4), 0)),
        (RationalMatrix(1, 1, [Fraction(-5, 6)]), (Fraction(7, 5),), (Fraction(2, 9),)),
    ]
    rho = ((0, Fraction(3, 7)), (Fraction(-5, 2), 0))
    assert assemble(blocks, rho) == literal(blocks, rho)
    assert assemble(blocks, rho)[0, 2] == Fraction(3, 7) * third * Fraction(2, 9)
    rng = random.Random(63)
    for _ in range(40):
        blocks, rho = random_coupled_blocks(rng, max_k=4, max_n=4, zero_vector_rate=0.2)
        assert assemble(blocks, rho) == literal(blocks, rho)


def test_assemble_universal_matches_whole_graph_matrix():
    rng = random.Random(61)
    from joinspectra.verification import random_join_spec, random_universal_params

    for _ in range(10):
        params = random_universal_params(rng)
        spec = random_join_spec(rng, max_k=3, max_n=3, universal=params)
        whole = universal_matrix(join_graph(spec.with_universal(None)), params)
        assert universal_blocks(spec) == coupled(*dense_join_blocks(spec))
        assert assemble(*dense_join_blocks(spec)) == whole


def test_oracle_charpoly_small():
    assert oracle_charpoly(RationalMatrix(2, 2, [0, 1, 1, 0])) == X**2 - 1
    sub = assemble(*dense_join_blocks(subset_join_spec()))
    assert oracle_charpoly(sub) == product(subset_join_charpoly_factors())


def test_oracle_charpoly_block_diagonal_factorizes():
    rng = random.Random(62)
    for _ in range(10):
        blocks, rho = random_coupled_blocks(rng, max_k=3, max_n=3)
        zero_rho = tuple(tuple(Fraction(0) for _ in row) for row in rho)
        got = oracle_charpoly(assemble(blocks, zero_rho))
        expected = Polynomial.one()
        for m, _, _ in blocks:
            expected = expected * charpoly(m)
        assert got == expected


def test_oracle_charpoly_vs_cofactor():
    rng = random.Random(63)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = rand_symmetric_matrix(rng, n)
        rows = [
            [(X if i == j else Polynomial()) - Polynomial.constant(m[i, j]) for j in range(n)]
            for i in range(n)
        ]
        assert oracle_charpoly(m) == cofactor_det(rows)


def test_oracle_spectrum_examples():
    k4 = Graph.complete(4).adjacency()
    assert multisets_close(oracle_spectrum(k4), [3, -1, -1, -1], 1e-10)
    lap = universal_matrix(Graph.complete(2), UniversalParams.laplacian())
    assert multisets_close(oracle_spectrum(lap), [0, 2], 1e-10)
    with pytest.raises(PreconditionError):
        oracle_spectrum(RationalMatrix(2, 2, [0, 1, 0, 0]))
    assert oracle_spectrum(RationalMatrix(0, 0, [])) == []


def test_oracle_spectrum_matches_charpoly_roots():
    from joinspectra.roots import real_roots

    rng = random.Random(64)
    for _ in range(8):
        m = rand_symmetric_matrix(rng, rng.randint(1, 6))
        vals = oracle_spectrum(m)
        roots = real_roots(charpoly(m))
        assert multisets_close(vals, roots, 1e-8)


def test_compare_verdicts():
    assert compare(X**2 - 1, X**2 - 1).equal
    bad = compare(X**2 - 1, X**2 + 1)
    assert not bad.equal
    assert bad.first_mismatch == 0
    assert "x^0" in bad.detail
    shifted = compare(X**3, X**3 + 2 * X)
    assert shifted.first_mismatch == 1


def test_check_verdicts():
    k2 = Graph.complete(2).adjacency()
    assert check(X**2 - 1, k2) == compare(X**2 - 1, X**2 - 1)
    assert check(X**2 + 1, k2) == compare(X**2 + 1, X**2 - 1)
    assert check(X**2 - 1, X**2 - 1).equal  # a closed-form truth
    assert check(X**2 - 1, k2, [-1.0, 1.0]).detail == "exact match"
    off = check(X**2 - 1, k2, [-1.0, 1.0 + 1e-6])
    assert not off.equal and off.first_mismatch is None
    assert off.detail == f"eigenvalue 1 differs: formula {1.0 + 1e-6}, oracle 1.0"
    assert check(X**2 - 1, k2, [-1.0, 1.0 + 1e-6], tol=1e-5).equal
    # the charpoly is checked first: a wrong one is reported, whatever the eigenvalues
    assert check(X**2, k2, [-1.0, 1.0]).first_mismatch == 0


def test_join_truth_is_the_built_graph_matrix():
    spec = mixed_join_spec()
    assert join_truth(spec) == join_graph(spec).adjacency()
    lap = spec.with_universal(UniversalParams.laplacian())
    assert join_truth(lap) == universal_matrix(join_graph(spec), UniversalParams.laplacian())
    assert join_truth(subset_join_spec()) == join_graph(subset_join_spec()).adjacency()
    # a coupling override is not part of the graph
    rho = ((0, 2, 1), (2, 0, 1), (1, 1, 0))
    assert join_truth(JoinSpec(spec.host, spec.components, rho_override=rho)) == join_truth(spec)


def test_join_truth_equals_the_assembled_route_blocks():
    # the graph is built without the route's blocks, yet on a host-derived
    # coupling both give the same matrix, entry for entry
    from joinspectra.verification import random_join_spec, random_universal_params

    rng = random.Random(65)
    for i in range(90):
        kind = i % 3
        universal = random_universal_params(rng) if kind == 1 else None
        spec = random_join_spec(rng, with_subsets=kind == 2, universal=universal)
        blocks, rho = dense_join_blocks(spec)
        assert join_blocks(spec) == coupled(blocks, rho)
        assert join_truth(spec) == assemble(blocks, rho)


def test_oracle_cap(monkeypatch):
    from joinspectra.oracle import ORACLE_CAP_ENV

    monkeypatch.setenv(ORACLE_CAP_ENV, "3")
    with pytest.raises(DomainError):
        oracle_charpoly(identity(4))
    assert oracle_charpoly(identity(3)) == (X - 1) ** 3
    monkeypatch.setenv(ORACLE_CAP_ENV, "not-a-number")
    with pytest.raises(DomainError):
        oracle_charpoly(identity(2))


def test_oracle_is_independent_of_the_route_kernel(monkeypatch, tmp_path, capsys):
    import json

    import joinspectra.matrices as matrices
    import joinspectra.resolvent as resolvent
    from joinspectra.cli import main
    from joinspectra.verification import verify_spec

    exact, bordered = matrices.charpoly_int, resolvent.charpoly_bordered_int

    def off_by_one(a, n):
        coeffs = exact(a, n)
        coeffs[0] += 1
        return coeffs

    def bordered_off_by_one(a, n, u, v):
        phi, num = bordered(a, n, u, v)
        phi[0] += 1
        return phi, num

    spec = mixed_join_spec()
    dense = join_graph(spec).adjacency()
    truth = oracle_charpoly(dense)
    route = coupled_charpoly(join_blocks(spec))
    assert route == truth and verify_spec(spec).passed
    monkeypatch.setattr(matrices, "charpoly_int", off_by_one)
    monkeypatch.setattr(resolvent, "charpoly_bordered_int", bordered_off_by_one)
    assert coupled_charpoly(join_blocks(spec)) != route  # the routes run the patched kernel
    assert oracle_charpoly(dense) == truth  # the oracle does not
    case = verify_spec(spec)
    assert not case.passed and "differs" in case.detail
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(json_obj(spec)))
    assert main(["verify", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_a_universal_matrix_fault_shows_in_universal_join_checks(monkeypatch):
    # the join truth is built by `joins.universal_matrix` and no block builder
    # calls it, so a fault in it, bound everywhere the package binds it, is a
    # mismatch on every universal join with delta != 0: the truth gains delta
    # on its diagonal, and charpoly(x - delta) = charpoly(x) holds for no
    # nonconstant charpoly
    import sys

    import joinspectra.joins as joins
    from joinspectra.verification import random_join_spec, random_universal_params, verify_spec

    exact = joins.universal_matrix

    def degree_plus_one(g, params, shift=0):
        # delta * (deg + 1) on the diagonal where delta * deg belongs
        return exact(g, params, shift + params.delta)

    bound = [m for name, m in sys.modules.items() if name.split(".")[0] == "joinspectra" and getattr(m, "universal_matrix", None) is exact]
    assert joins in bound and len(bound) >= 3  # joins, oracle and the package namespace
    for module in bound:
        monkeypatch.setattr(module, "universal_matrix", degree_plus_one)
    rng = random.Random(44)
    shown = 0
    for _ in range(40):
        params = random_universal_params(rng)
        spec = random_join_spec(rng, universal=params)
        case = verify_spec(spec)
        assert case.passed == (params.delta == 0), json_obj(spec)
        shown += not case.passed
    assert shown == 35
