import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations
from pathlib import Path

import pytest

from helpers import complete_bipartite, cycle, graph_text, json_obj, star, to_lists
from joinspectra.errors import SpecError
from joinspectra import graphs
from joinspectra.graphs import Graph, VertexSubset, canonical_key, graph_from_obj, load_graph


def test_validation():
    with pytest.raises(SpecError):
        Graph(3, [(0, 0)])
    with pytest.raises(SpecError):
        Graph(3, [(0, 3)])
    g = Graph(3, [(2, 0), (0, 2), (1, 2)])  # duplicates and order collapse
    assert g.edges == frozenset({(0, 2), (1, 2)})


def test_standard_families():
    assert len(Graph.path(4).edges) == 3
    assert len(cycle(5).edges) == 5
    assert len(Graph.complete(5).edges) == 10
    assert len(Graph(3).edges) == 0
    assert star(3).degrees() == [3, 1, 1, 1]
    assert len(complete_bipartite(2, 3).edges) == 6


def test_queries():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    assert g.degrees() == [1, 3, 1, 1]
    assert g.regular_degree() is None
    assert cycle(4).regular_degree() == 2


def test_adjacency_and_degree_matrix():
    g = Graph(3, [(0, 1)])
    a = g.adjacency()
    assert to_lists(a) == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    d = g.degree_matrix()
    assert to_lists(d) == [[1, 0, 0], [0, 1, 0], [0, 0, 0]]


def test_json_round_trip():
    g = Graph(4, [(0, 1), (2, 3)])
    obj = json_obj(g)
    assert Graph.from_json_obj(obj) == g
    assert Graph.from_json_obj(json.loads(json.dumps(obj))) == g
    with pytest.raises(SpecError):
        Graph.from_json_obj({"edges": []})
    with pytest.raises(SpecError):
        Graph.from_json_obj({"n": 2, "edges": [[0]]})


def test_text_round_trip():
    g = Graph(4, [(0, 1), (2, 3)])
    assert Graph.from_text(graph_text(g)) == g
    assert Graph.from_text("3;") == Graph(3)
    assert Graph.from_text(" 3 ; 0-1 , 1-2 ") == Graph.path(3)
    with pytest.raises(SpecError):
        Graph.from_text("x; 0-1")
    with pytest.raises(SpecError):
        Graph.from_text("3; 0+1")


def test_loaders():
    assert load_graph('{"n": 2, "edges": [[0, 1]]}') == Graph.complete(2)
    assert load_graph("2; 0-1") == Graph.complete(2)
    assert graph_from_obj("2; 0-1") == graph_from_obj({"n": 2, "edges": [[0, 1]]})


def test_vertex_subset():
    s = VertexSubset(4, (3, 1, 3))
    assert s.members == (1, 3)
    assert [int(x) for x in s.indicator()] == [0, 1, 0, 1]
    with pytest.raises(SpecError):
        VertexSubset(2, (2,))


def labeled_graphs(n: int):
    """Every labeled graph on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pair for b, pair in enumerate(pairs) if mask >> b & 1])


def orbit(g: Graph, members=()) -> frozenset:
    """Every (edge set, colour class) a relabeling maps (g, members) onto, by brute force."""
    return frozenset(
        (frozenset((min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges), frozenset(p[v] for v in members))
        for p in permutations(range(g.n))
    )


def assert_keys_split_like_orbits(inputs):
    """Group (graph, members) inputs by key and by brute-force orbit: the two
    partitions must be one, so keys are equal exactly when a relabeling maps
    one input onto the other."""
    by_key: dict = {}
    by_orbit: dict = {}
    for g, members in inputs:
        label = (g.edges, frozenset(members))
        by_key.setdefault(canonical_key(g, members), set()).add(label)
        found = next((o for o in by_orbit if label in o), None) or orbit(g, members)
        by_orbit.setdefault(found, set()).add(label)
    assert sorted(map(sorted, by_key.values())) == sorted(map(sorted, by_orbit.values()))
    return len(by_key)


@pytest.mark.parametrize("n", range(6))
def test_canonical_keys_are_equal_exactly_for_relabeled_graphs(n):
    classes = assert_keys_split_like_orbits((g, ()) for g in labeled_graphs(n))
    # the numbers of graphs on 0 to 5 vertices up to isomorphism
    assert classes == [1, 1, 2, 4, 11, 34][n]
    assert all(canonical_key(g) == canonical_key(g, ()) for g in labeled_graphs(min(n, 3)))


@pytest.mark.parametrize("n", range(5))
def test_canonical_keys_are_equal_exactly_for_relabeled_graph_subset_pairs(n):
    inputs = [(g, [v for v in range(n) if mask >> v & 1]) for g in labeled_graphs(n) for mask in range(1 << n)]
    assert_keys_split_like_orbits(inputs)


def test_graphs_above_the_size_bound_keep_their_labeled_key():
    n = graphs._CANONICAL_MAX_N + 1
    path, relabeled = Graph.path(n), Graph(n, [(0, 2), (2, 1), (1, 3)] + [(i, i + 1) for i in range(3, n - 1)])
    assert canonical_key(path) == path
    assert canonical_key(relabeled) == relabeled != path
    assert canonical_key(path, (0,)) == (path, (0,)) != canonical_key(path, (n - 1,))
    top = Graph.path(n - 1)
    assert canonical_key(top) == canonical_key(Graph(n - 1, [(i + 1, i) for i in range(n - 2)][::-1]))
    assert canonical_key(top) != top


def test_canonical_tables_are_filled_on_first_use_not_at_import():
    code = (
        "import joinspectra.cli, joinspectra.graphs as g; "
        "assert not g._canonical and not g._relabelings; "
        "g.canonical_key(g.Graph.path(4)); "
        "assert list(g._canonical) == [4] and len(g._canonical[4]) == 12"
    )
    src = str(Path(graphs.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


def test_canonical_keys_agree_when_threads_fill_the_tables(monkeypatch):
    # racing fills of one orbit write the same least mask, so no key differs
    inputs = [(g, [0, 2]) for g in labeled_graphs(5)] + [(g, ()) for g in labeled_graphs(5)]
    serial = [canonical_key(g, m) for g, m in inputs]
    monkeypatch.setattr(graphs, "_canonical", {})
    monkeypatch.setattr(graphs, "_relabelings", {})
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            chunks = [pool.submit(lambda part: [canonical_key(g, m) for g, m in part], inputs[i::8]) for i in range(8)]
            keys = [chunk.result(timeout=60) for chunk in chunks]
    finally:
        sys.setswitchinterval(switch)
    assert [key for i in range(8) for key in keys[i]] == [serial[j] for i in range(8) for j in range(i, len(inputs), 8)]
