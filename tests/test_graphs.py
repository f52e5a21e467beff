import json

import pytest

from helpers import complete_bipartite, cycle, graph_text, json_obj, star, to_lists
from joinspectra.errors import SpecError
from joinspectra.graphs import Graph, VertexSubset, graph_from_obj, load_graph


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
