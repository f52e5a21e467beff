import json
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import PRESET_VALUES, literal_universal_matrix, multisets_close
from joinspectra import (
    Graph,
    JoinSpec,
    UniversalParams,
    VertexSubset,
    classify_special_eigenvalues,
    corona_as_hjoin,
    generalized_corona,
    h_generalized_join,
    h_join,
    is_k_tau_regular,
    join_graph,
    join_weights,
    lexicographic,
    universal_matrix,
)
from joinspectra.errors import DomainError, PreconditionError, SpecError
from joinspectra.fixtures import mixed_join_spec, subset_join_spec
from joinspectra.joins import host_rho, load_join_spec, rho_is_graphlike
from joinspectra.matrices import RationalMatrix, charpoly
from joinspectra.verification import random_graph, random_join_spec, random_universal_params


def test_spec_validation():
    with pytest.raises(SpecError):
        JoinSpec(Graph.path(3), (Graph(1), Graph(1)))
    with pytest.raises(SpecError):
        JoinSpec(Graph.path(2), (Graph(2), Graph(2)), subsets=(VertexSubset(3, (0,)), VertexSubset(2, (0,))))
    with pytest.raises(SpecError):
        JoinSpec(Graph.path(2), (Graph(1), Graph(1)), rho_override=((0, 1),))
    with pytest.raises(SpecError):
        JoinSpec(Graph.path(2), (Graph(1), Graph(1)), rho_override=((1, 0), (0, 1)))


def test_spec_json_round_trip():
    spec = subset_join_spec()
    spec = JoinSpec(
        spec.host,
        spec.components,
        subsets=spec.subsets,
        universal=UniversalParams(1, 0, "-1/2", 2),
        rho_override=None,
    )
    obj = spec.to_json_obj()
    again = JoinSpec.from_json_obj(json.loads(json.dumps(obj)))
    assert again == spec
    with pytest.raises(SpecError):
        JoinSpec.from_json_obj({"host": {"n": 1}})
    with pytest.raises(SpecError):
        JoinSpec.from_json_obj({"host": {"n": 1}, "components": [{"n": 1}], "bogus": 1})
    assert load_join_spec(json.dumps(obj)) == spec


def test_universal_params():
    with pytest.raises(SpecError):
        UniversalParams(0, 1, 1, 1)
    p = UniversalParams(0, 1, 1, 1, allow_zero_alpha=True)
    assert p.alpha == 0
    assert UniversalParams.laplacian().as_tuple() == (-1, 0, 0, 1)
    assert UniversalParams.from_json_obj({"alpha": "-2", "beta": "-1", "gamma": "1"}).as_tuple() == (-2, -1, 1, 0)


def test_h_join_trivial():
    assert h_join(JoinSpec(Graph.complete(2), (Graph(1), Graph(1)))) == Graph.complete(2)
    # edgeless host: disjoint union of the components
    spec = JoinSpec(Graph.empty(2), (Graph.complete(2), Graph.path(3)))
    g = h_join(spec)
    assert g.num_edges == 1 + 2
    assert not any(u < 2 <= v for u, v in g.edges)


def test_h_join_fixture_edge_count():
    # components carry 2 + 3 + 1 internal edges; host edges contribute the
    # complete bipartite blocks 3*4 and 4*3
    g = h_join(mixed_join_spec())
    assert g.n == 10
    assert g.num_edges == 2 + 3 + 1 + 3 * 4 + 4 * 3


def test_h_join_degrees_add_weights():
    rng = random.Random(21)
    for _ in range(15):
        spec = random_join_spec(rng, max_k=4, max_n=4)
        g = h_join(spec)
        w = join_weights(spec)
        offs = spec.block_offsets()
        for i, comp in enumerate(spec.components):
            for v in range(comp.n):
                assert g.degree(offs[i] + v) == comp.degree(v) + w[i]


def test_weights():
    assert join_weights(mixed_join_spec()) == (4, 6, 4)
    assert join_weights(JoinSpec(Graph.empty(3), (Graph(2), Graph(2), Graph(2)))) == (0, 0, 0)
    assert join_weights(JoinSpec(Graph.complete(2), (Graph(3), Graph(5)))) == (5, 3)


def test_weights_equal_the_neighbour_sums():
    # one pass over the host's edges gives each block the sizes of the
    # components at its host neighbours
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randint(1, 30)
        host = random_graph(rng, k, edge_rate=rng.random())
        spec = JoinSpec(host, tuple(Graph(rng.randint(1, 6)) for _ in range(k)))
        sums = tuple(sum(spec.components[j].n for j in host.neighbors(i)) for i in range(k))
        assert join_weights(spec) == sums


def test_weights_count_cross_edges():
    rng = random.Random(22)
    for _ in range(15):
        spec = random_join_spec(rng, max_k=4, max_n=4)
        g = h_join(spec)
        w = join_weights(spec)
        internal = sum(c.num_edges for c in spec.components)
        cross = g.num_edges - internal
        assert sum(wi * c.n for wi, c in zip(w, spec.components)) == 2 * cross


def test_h_generalized_join():
    spec = subset_join_spec()
    g = h_generalized_join(spec)
    assert g.n == 10
    assert g.num_edges == (2 + 3 + 1) + 2 * 3 + 3 * 2
    # full subsets coincide with the plain join
    base = mixed_join_spec()
    full = JoinSpec(base.host, base.components, subsets=tuple(VertexSubset.full(c.n) for c in base.components))
    assert h_generalized_join(full) == h_join(base)
    # an empty subset cuts that component off from all cross edges
    empty_mid = JoinSpec(
        base.host,
        base.components,
        subsets=(VertexSubset.full(3), VertexSubset(4, ()), VertexSubset.full(3)),
    )
    g2 = h_generalized_join(empty_mid)
    offs = empty_mid.block_offsets()
    block2 = set(range(offs[1], offs[1] + 4))
    for u, v in g2.edges:
        assert not ((u in block2) ^ (v in block2))


def test_join_dispatch_and_preconditions():
    base = mixed_join_spec()
    with pytest.raises(SpecError):
        h_generalized_join(base)
    with pytest.raises(SpecError):
        h_join(subset_join_spec())
    assert join_graph(base) == h_join(base)
    assert join_graph(subset_join_spec()) == h_generalized_join(subset_join_spec())


def test_rho_override_rules():
    host = Graph.complete(2)
    comps = (Graph(1), Graph(1))
    matching = JoinSpec(host, comps, rho_override=((0, 1), (1, 0)))
    assert rho_is_graphlike(matching)
    assert h_join(matching) == Graph.complete(2)
    foreign = JoinSpec(host, comps, rho_override=((0, 2), (2, 0)))
    assert not rho_is_graphlike(foreign)
    with pytest.raises(SpecError):
        h_join(foreign)
    assert host_rho(host)[0][1] == 1


def test_lexicographic():
    assert lexicographic(Graph.complete(2), Graph(1)) == Graph.complete(2)
    assert lexicographic(Graph(1), Graph.path(4)) == Graph.path(4)
    direct = lexicographic(Graph.path(3), Graph.complete(2))
    via_join = h_join(JoinSpec(Graph.path(3), (Graph.complete(2),) * 3))
    assert direct == via_join
    assert direct.n == 6


def test_generalized_corona():
    assert generalized_corona(Graph(1), (Graph(1),)) == Graph.complete(2)
    g = generalized_corona(Graph.path(2), (Graph(1), Graph(1)))
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 3)})
    # isomorphic to the 4-path (same exact charpoly)
    assert charpoly(g.adjacency()) == charpoly(Graph.path(4).adjacency())
    assert sorted(g.degrees()) == sorted(Graph.path(4).degrees())
    with pytest.raises(SpecError):
        generalized_corona(Graph.path(2), (Graph(1),))


def test_corona_as_hjoin_matches():
    rng = random.Random(23)
    for _ in range(10):
        k = rng.randint(1, 4)
        host = random_graph(rng, k)
        family = tuple(random_graph(rng, rng.randint(1, 3)) for _ in range(k))
        direct = generalized_corona(host, family)
        # the join keeps the corona's vertex order
        assert h_join(corona_as_hjoin(host, family)) == direct


def test_universal_matrix_examples():
    k2 = Graph.complete(2)
    assert universal_matrix(k2, UniversalParams.adjacency()).to_lists() == [[0, 1], [1, 0]]
    assert universal_matrix(k2, UniversalParams.laplacian()).to_lists() == [[1, -1], [-1, 1]]
    assert universal_matrix(k2, UniversalParams.seidel()).to_lists() == [[0, -1], [-1, 0]]
    rng = random.Random(24)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 5))
        p = UniversalParams(
            Fraction(rng.randint(1, 3)), rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
        )
        assert universal_matrix(g, p).is_symmetric()


def test_universal_matrix_equals_literal_sum():
    rng = random.Random(25)
    graphs = [Graph(0), Graph(1), Graph.empty(5), Graph.complete(6), Graph.path(4), Graph.cycle(5)]
    graphs += [random_graph(rng, rng.randint(2, 9), rng.choice((0.2, 0.5, 0.8))) for _ in range(8)]
    params = [UniversalParams(*p) for p in PRESET_VALUES]
    params += [random_universal_params(rng) for _ in range(6)]
    params.append(UniversalParams(0, Fraction(-5, 7), Fraction(3, 4), Fraction(2, 9), allow_zero_alpha=True))
    for g in graphs:
        for p in params:
            literal = literal_universal_matrix(g, p)
            assert universal_matrix(g, p) == literal
            shift = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            assert universal_matrix(g, p, shift) == literal + RationalMatrix.identity(g.n) * shift


def test_k_tau_regular():
    c4 = Graph.cycle(4)
    assert is_k_tau_regular(c4, VertexSubset.full(4)) == (2, 0)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert is_k_tau_regular(star, VertexSubset(4, (1, 2, 3))) == (0, 3)
    p3 = Graph.path(3)
    assert is_k_tau_regular(p3, VertexSubset(3, (0, 2))) == (0, 2)
    # ends of a 4-path: induced edge is 1-regular but outside degrees differ
    p4 = Graph.path(4)
    assert is_k_tau_regular(p4, VertexSubset(4, (0, 1))) is None
    assert is_k_tau_regular(p4, VertexSubset.full(4)) is None  # not regular
    with pytest.raises(DomainError):
        is_k_tau_regular(c4, VertexSubset(4, ()))


def test_classify_special_eigenvalues_star(kernel_calls):
    # independent oracle: dense eigendecomposition, classified by hand
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    subset = VertexSubset(4, (1, 2, 3))
    a = np.array(star.adjacency().to_floats())
    w, vecs = np.linalg.eigh(a)
    ones = np.ones(4)
    expect_main = sorted(w[i] for i in range(4) if abs(vecs[:, i] @ ones) > 1e-8)
    expect_rest = sorted(w[i] for i in range(4) if abs(vecs[:, i] @ ones) <= 1e-8)

    split = classify_special_eigenvalues(star, subset)
    assert kernel_calls == [("bordered", 4)] * 2  # two resolvent forms, phi_A reused from the first
    assert (split.k, split.tau) == (0, 3)
    assert multisets_close(split.main, expect_main, 1e-8)
    assert split.at_k_minus_tau == ()  # -3 is not an eigenvalue
    assert multisets_close(split.special, expect_rest, 1e-8)
    assert len(split.special) == 2  # eigenvalue 0 twice


def test_classify_special_eigenvalues_path(kernel_calls):
    p3 = Graph.path(3)
    split = classify_special_eigenvalues(p3, VertexSubset(3, (0, 2)))
    assert kernel_calls == [("bordered", 3)] * 2
    assert (split.k, split.tau) == (0, 2)
    assert multisets_close(split.main, [-(2**0.5), 2**0.5], 1e-10)
    assert split.at_k_minus_tau == ()
    assert multisets_close(split.special, [0.0], 1e-10)


def test_classify_preconditions():
    with pytest.raises(PreconditionError):
        classify_special_eigenvalues(Graph.cycle(4), VertexSubset.full(4))  # tau = 0
    with pytest.raises(PreconditionError):
        classify_special_eigenvalues(Graph.path(4), VertexSubset(4, (0, 1)))  # not (k, tau)-regular
