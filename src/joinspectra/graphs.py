"""Simple undirected graphs with a fixed vertex order, plus file formats.

Two serializations are supported:

* JSON: ``{"n": 4, "edges": [[0, 1], [2, 3]]}``
* one-line text: ``"4; 0-1, 2-3"`` (edge list may be empty: ``"4;"``)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import SpecError
from .matrices import RationalMatrix, Vector


@dataclass(frozen=True)
class Graph:
    """Loopless simple graph on vertices 0..n-1; edges stored u < v."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges=()):
        canon = set()
        for e in edges:
            u, v = e
            if u == v:
                raise SpecError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise SpecError(f"edge {e} out of range for n={n}")
            canon.add((min(u, v), max(u, v)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(canon))

    # -- construction helpers ------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise SpecError("cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def star(cls, leaves: int) -> "Graph":
        """Star on leaves+1 vertices, hub at index 0."""
        return cls(leaves + 1, [(0, i) for i in range(1, leaves + 1)])

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        return cls(a + b, [(i, a + j) for i in range(a) for j in range(b)])

    # -- queries --------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, v: int) -> set[int]:
        return {b if a == v else a for a, b in self.edges if v in (a, b)}

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def degrees(self) -> list[int]:
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return degs

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        degs = self.degrees()
        if self.n == 0:
            return 0
        return degs[0] if len(set(degs)) == 1 else None

    def adjacency(self) -> RationalMatrix:
        a = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            a[u][v] = 1
            a[v][u] = 1
        return RationalMatrix.from_rows(a) if self.n else RationalMatrix(0, 0, [])

    def degree_matrix(self) -> RationalMatrix:
        degs = self.degrees()
        return RationalMatrix(self.n, self.n, [degs[i] if i == j else 0 for i in range(self.n) for j in range(self.n)])

    def induced(self, vertices: tuple[int, ...]) -> "Graph":
        index = {v: i for i, v in enumerate(vertices)}
        es = [(index[u], index[v]) for u, v in self.edges if u in index and v in index]
        return Graph(len(vertices), es)

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": sorted([u, v] for u, v in self.edges)}

    @classmethod
    def from_json_obj(cls, obj) -> "Graph":
        if not isinstance(obj, dict) or "n" not in obj:
            raise SpecError(f"graph object must carry 'n': {obj!r}")
        n = obj["n"]
        if type(n) is not int or n < 0:
            raise SpecError(f"bad vertex count {n!r}")
        edges = obj.get("edges", [])
        if not isinstance(edges, list):
            raise SpecError("'edges' must be a list of pairs")
        out = []
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
                raise SpecError(f"bad edge {e!r}")
            out.append((e[0], e[1]))
        return cls(n, out)

    def to_text(self) -> str:
        body = ",".join(f"{u}-{v}" for u, v in sorted(self.edges))
        return f"{self.n}; {body}" if body else f"{self.n};"

    @classmethod
    def from_text(cls, line: str) -> "Graph":
        head, sep, rest = line.partition(";")
        try:
            n = int(head.strip())
        except ValueError:
            raise SpecError(f"bad vertex count in {line!r}") from None
        if n < 0:
            raise SpecError(f"bad vertex count in {line!r}")
        edges = []
        for chunk in rest.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            u, dash, v = chunk.partition("-")
            if not dash:
                raise SpecError(f"bad edge token {chunk!r}")
            try:
                edges.append((int(u), int(v)))
            except ValueError:
                raise SpecError(f"bad edge token {chunk!r}") from None
        return cls(n, edges)


def load_graph(text: str) -> Graph:
    """Parse a graph from JSON or from the one-line text format."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return Graph.from_json_obj(json.loads(stripped))
    return Graph.from_text(stripped)


def graph_from_obj(obj) -> Graph:
    """Accept either the JSON object form or the one-line text form."""
    if isinstance(obj, str):
        return Graph.from_text(obj)
    return Graph.from_json_obj(obj)


@dataclass(frozen=True)
class VertexSubset:
    """Sorted subset of the vertices of a graph of size parent_size."""

    parent_size: int
    members: tuple[int, ...]

    def __init__(self, parent_size: int, members=()):
        ms = tuple(sorted(set(members)))
        for v in ms:
            if not (0 <= v < parent_size):
                raise SpecError(f"subset member {v} out of range for n={parent_size}")
        object.__setattr__(self, "parent_size", parent_size)
        object.__setattr__(self, "members", ms)

    @classmethod
    def full(cls, parent_size: int) -> "VertexSubset":
        return cls(parent_size, range(parent_size))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_full(self) -> bool:
        return len(self.members) == self.parent_size

    def __contains__(self, v: int) -> bool:
        return v in set(self.members)

    def complement(self) -> tuple[int, ...]:
        inside = set(self.members)
        return tuple(v for v in range(self.parent_size) if v not in inside)

    def indicator(self) -> Vector:
        """0-1 characteristic vector over the parent's vertex order."""
        inside = set(self.members)
        return tuple(Fraction(1 if v in inside else 0) for v in range(self.parent_size))
