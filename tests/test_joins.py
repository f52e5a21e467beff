import json
import random
from fractions import Fraction

import pytest

from helpers import PRESET_VALUES, cycle, full_subset, identity, json_obj, lexicographic, literal_universal_matrix, seidel, to_lists
from joinspectra import (
    Graph,
    JoinSpec,
    UniversalParams,
    VertexSubset,
    corona_as_hjoin,
    corona_blocks,
    generalized_corona,
    join_graph,
    join_weights,
    universal_matrix,
)
from joinspectra.errors import SpecError
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
    obj = json_obj(spec)
    again = JoinSpec.from_json_obj(json.loads(json.dumps(obj)))
    assert again == spec
    with pytest.raises(SpecError):
        JoinSpec.from_json_obj({"host": {"n": 1}})
    with pytest.raises(SpecError):
        JoinSpec.from_json_obj({"host": {"n": 1}, "components": [{"n": 1}], "bogus": 1})
    assert load_join_spec(json.dumps(obj)) == spec


def test_zero_alpha_spec_json_round_trip():
    params = UniversalParams(0, 1, 1, 1, allow_zero_alpha=True)
    spec = JoinSpec(Graph.path(2), (Graph(1), Graph.complete(2)), universal=params)
    obj = json_obj(spec)
    assert obj["universal"]["allow_zero_alpha"] is True
    assert JoinSpec.from_json_obj(json.loads(json.dumps(obj))) == spec
    assert "allow_zero_alpha" not in json_obj(UniversalParams.adjacency())
    # only a JSON boolean is read as the flag
    for flag in ("false", "true", 0, 1, None):
        with pytest.raises(SpecError, match="allow_zero_alpha must be true or false"):
            UniversalParams.from_json_obj({"alpha": "0", "allow_zero_alpha": flag})


def test_universal_params():
    with pytest.raises(SpecError):
        UniversalParams(0, 1, 1, 1)
    p = UniversalParams(0, 1, 1, 1, allow_zero_alpha=True)
    assert p.alpha == 0
    assert UniversalParams.laplacian().as_tuple() == (-1, 0, 0, 1)
    assert UniversalParams.from_json_obj({"alpha": "-2", "beta": "-1", "gamma": "1"}).as_tuple() == (-2, -1, 1, 0)


def test_h_join_trivial():
    assert join_graph(JoinSpec(Graph.complete(2), (Graph(1), Graph(1)))) == Graph.complete(2)
    # edgeless host: disjoint union of the components
    spec = JoinSpec(Graph(2), (Graph.complete(2), Graph.path(3)))
    g = join_graph(spec)
    assert len(g.edges) == 1 + 2
    assert not any(u < 2 <= v for u, v in g.edges)


def test_h_join_fixture_edge_count():
    # components carry 2 + 3 + 1 internal edges; host edges contribute the
    # complete bipartite blocks 3*4 and 4*3
    g = join_graph(mixed_join_spec())
    assert g.n == 10
    assert len(g.edges) == 2 + 3 + 1 + 3 * 4 + 4 * 3


def test_h_join_degrees_add_weights():
    rng = random.Random(21)
    for _ in range(15):
        spec = random_join_spec(rng, max_k=4, max_n=4)
        g = join_graph(spec)
        w = join_weights(spec)
        degrees = g.degrees()
        offs = spec.block_offsets()
        for i, comp in enumerate(spec.components):
            for v, d in enumerate(comp.degrees()):
                assert degrees[offs[i] + v] == d + w[i]


def test_weights():
    assert join_weights(mixed_join_spec()) == (4, 6, 4)
    assert join_weights(JoinSpec(Graph(3), (Graph(2), Graph(2), Graph(2)))) == (0, 0, 0)
    assert join_weights(JoinSpec(Graph.complete(2), (Graph(3), Graph(5)))) == (5, 3)


def test_weights_equal_the_neighbour_sums():
    # one pass over the host's edges gives each block the sizes of the
    # components at its host neighbours
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randint(1, 30)
        host = random_graph(rng, k, edge_rate=rng.random())
        spec = JoinSpec(host, tuple(Graph(rng.randint(1, 6)) for _ in range(k)))
        neighbours = [{v for e in host.edges if i in e for v in e} - {i} for i in range(k)]
        sums = tuple(sum(spec.components[j].n for j in neighbours[i]) for i in range(k))
        assert join_weights(spec) == sums


def test_weights_count_cross_edges():
    rng = random.Random(22)
    for _ in range(15):
        spec = random_join_spec(rng, max_k=4, max_n=4)
        g = join_graph(spec)
        w = join_weights(spec)
        internal = sum(len(c.edges) for c in spec.components)
        cross = len(g.edges) - internal
        assert sum(wi * c.n for wi, c in zip(w, spec.components)) == 2 * cross


def test_h_generalized_join():
    spec = subset_join_spec()
    g = join_graph(spec)
    assert g.n == 10
    assert len(g.edges) == (2 + 3 + 1) + 2 * 3 + 3 * 2
    # full subsets coincide with the plain join
    base = mixed_join_spec()
    full = JoinSpec(base.host, base.components, subsets=tuple(full_subset(c.n) for c in base.components))
    assert join_graph(full) == join_graph(base)
    # an empty subset cuts that component off from all cross edges
    empty_mid = JoinSpec(
        base.host,
        base.components,
        subsets=(full_subset(3), VertexSubset(4, ()), full_subset(3)),
    )
    g2 = join_graph(empty_mid)
    offs = empty_mid.block_offsets()
    block2 = set(range(offs[1], offs[1] + 4))
    for u, v in g2.edges:
        assert not ((u in block2) ^ (v in block2))


def test_join_dispatch_and_preconditions():
    # with subsets, cross edges touch only the chosen vertices; without, every vertex
    sub = subset_join_spec()
    plain = JoinSpec(sub.host, sub.components)
    assert join_graph(sub).edges < join_graph(plain).edges
    # a coupling override the host does not give has no graph, with or without subsets
    foreign = ((0, 2, 0), (2, 0, 1), (0, 1, 0))
    for spec in (plain, sub):
        with pytest.raises(SpecError, match="join_graph needs host-derived 0/1 coupling"):
            join_graph(JoinSpec(spec.host, spec.components, spec.subsets, rho_override=foreign))


def test_rho_override_rules():
    host = Graph.complete(2)
    comps = (Graph(1), Graph(1))
    matching = JoinSpec(host, comps, rho_override=((0, 1), (1, 0)))
    assert rho_is_graphlike(matching)
    assert join_graph(matching) == Graph.complete(2)
    foreign = JoinSpec(host, comps, rho_override=((0, 2), (2, 0)))
    assert not rho_is_graphlike(foreign)
    with pytest.raises(SpecError):
        join_graph(foreign)
    assert host_rho(host)[0][1] == 1


def test_lexicographic():
    assert lexicographic(Graph.complete(2), Graph(1)) == Graph.complete(2)
    assert lexicographic(Graph(1), Graph.path(4)) == Graph.path(4)
    direct = lexicographic(Graph.path(3), Graph.complete(2))
    via_join = join_graph(JoinSpec(Graph.path(3), (Graph.complete(2),) * 3))
    assert direct == via_join
    assert direct.n == 6


def test_generalized_corona():
    assert generalized_corona(Graph(1), (Graph(1),)) == Graph.complete(2)
    g = generalized_corona(Graph.path(2), (Graph(1), Graph(1)))
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 3)})
    # isomorphic to the 4-path (same exact charpoly)
    assert charpoly(g.adjacency()) == charpoly(Graph.path(4).adjacency())
    assert sorted(g.degrees()) == sorted(Graph.path(4).degrees())
    # the graph, its join view and its coupled blocks refuse a short family alike
    for build in (generalized_corona, corona_as_hjoin, corona_blocks):
        with pytest.raises(SpecError) as exc:
            build(Graph.path(2), (Graph(1),))
        assert str(exc.value) == "corona host has 2 vertices but 1 companion graphs given"


def test_corona_as_hjoin_matches():
    rng = random.Random(23)
    for _ in range(10):
        k = rng.randint(1, 4)
        host = random_graph(rng, k)
        family = tuple(random_graph(rng, rng.randint(1, 3)) for _ in range(k))
        direct = generalized_corona(host, family)
        # the join keeps the corona's vertex order
        assert join_graph(corona_as_hjoin(host, family)) == direct


def test_universal_matrix_examples():
    k2 = Graph.complete(2)
    assert to_lists(universal_matrix(k2, UniversalParams.adjacency())) == [[0, 1], [1, 0]]
    assert to_lists(universal_matrix(k2, UniversalParams.laplacian())) == [[1, -1], [-1, 1]]
    assert to_lists(universal_matrix(k2, seidel())) == [[0, -1], [-1, 0]]
    rng = random.Random(24)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 5))
        p = UniversalParams(
            Fraction(rng.randint(1, 3)), rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
        )
        assert universal_matrix(g, p).is_symmetric()


def test_universal_matrix_equals_literal_sum():
    rng = random.Random(25)
    graphs = [Graph(0), Graph(1), Graph(5), Graph.complete(6), Graph.path(4), cycle(5)]
    graphs += [random_graph(rng, rng.randint(2, 9), rng.choice((0.2, 0.5, 0.8))) for _ in range(8)]
    params = [UniversalParams(*p) for p in PRESET_VALUES]
    params += [random_universal_params(rng) for _ in range(6)]
    params.append(UniversalParams(0, Fraction(-5, 7), Fraction(3, 4), Fraction(2, 9), allow_zero_alpha=True))
    for g in graphs:
        for p in params:
            literal = literal_universal_matrix(g, p)
            assert universal_matrix(g, p) == literal
            shift = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            assert universal_matrix(g, p, shift) == literal + identity(g.n) * shift
