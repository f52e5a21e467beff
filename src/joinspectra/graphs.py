"""Simple undirected graphs with a fixed vertex order, plus file formats.

Two serializations are supported:

* JSON: ``{"n": 4, "edges": [[0, 1], [2, 3]]}``
* one-line text: ``"4; 0-1, 2-3"`` (edge list may be empty: ``"4;"``)
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations

from .errors import SpecError
from .matrices import RationalMatrix, Vector
from .records import Record


class Graph(Record):
    """Loopless simple graph on vertices 0..n-1; edges stored u < v."""

    __slots__ = ("n", "edges")

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
        Record.__init__(self, n, frozenset(canon))

    # -- construction helpers ------------------------------------------

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    # -- queries --------------------------------------------------------

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

    # -- serialization ----------------------------------------------------

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


# -- canonical keys ------------------------------------------------------------
#
# A labeled graph on n vertices, with some vertices coloured, is one bit mask:
# one of the C(n, 2) low bits for each edge (`_bit_maps`), and bit C(n, 2) + v
# for a coloured vertex v.  A relabeling permutes the
# bits, and the least mask of a mask's orbit under the n! relabelings is a
# canonical form: two masks share it exactly when a relabeling maps one to
# the other.

# Graphs up to this many vertices key on their canonical mask; larger ones key
# on their labels.  The orbit of a mask costs n! relabelings once, after which
# every mask of the orbit is a dict lookup of 2-3 us.  On a 2-vCPU host
# (Python 3.11) an orbit took 0.006, 0.010, 0.027, 0.11 and 0.50 ms at n = 2
# to 6, against a median 59, 91, 114, 141 and 178 us for the form of one
# G(n, 1/2) adjacency block: a first sighting costs less than the pass a
# repeat saves up to n = 5 and about 3 passes at n = 6, whose relabelings
# also take 2.3 ms to list and whose table could grow to 2^21 masks.
_CANONICAL_MAX_N = 5

# n -> mask -> the least mask of its orbit, filled one orbit at a time on first
# use, so never holding more than the 2^(C(n, 2) + n) masks on n vertices.
# Threads that fill one orbit at once write the same values, so no lock
_canonical: dict[int, dict[int, int]] = {}
# n -> (pair bits, the bit permutation of every relabeling), built on first use
_relabelings: dict[int, tuple[list[int], list[list[int]]]] = {}


def _bit_maps(n: int) -> tuple[list[int], list[list[int]]]:
    """The bit of each vertex pair (u * n + v, either order) and, for every
    permutation p of the vertices, the bit each bit moves to under p."""
    found = _relabelings.get(n)
    if found is None:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        bit = [0] * (n * n)
        for b, (u, v) in enumerate(pairs):
            bit[u * n + v] = bit[v * n + u] = b
        e = len(pairs)
        moves = [[bit[p[u] * n + p[v]] for u, v in pairs] + [e + p[v] for v in range(n)] for p in permutations(range(n))]
        found = _relabelings[n] = bit, moves
    return found


def canonical_key(g: Graph, members=None):
    """A key equal for two (graph, colour class) inputs exactly when a
    relabeling maps one onto the other, members the coloured vertices (none
    when omitted): (n, the least mask of the input's orbit) up to
    `_CANONICAL_MAX_N` vertices, and the labeled graph, or the labeled pair,
    above."""
    n = g.n
    if n > _CANONICAL_MAX_N:
        return g if members is None else (g, tuple(members))
    bit, moves = _bit_maps(n)
    mask = 0
    for u, v in g.edges:
        mask |= 1 << bit[u * n + v]
    if members:
        e = n * (n - 1) // 2
        for v in members:
            mask |= 1 << (e + v)
    table = _canonical.setdefault(n, {})
    least = table.get(mask)
    if least is None:
        bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
        orbit = {sum([1 << move[b] for b in bits]) for move in moves}
        least = min(orbit)
        table.update(dict.fromkeys(orbit, least))
    return n, least


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


class VertexSubset(Record):
    """Sorted subset of the vertices of a graph of size parent_size."""

    __slots__ = ("parent_size", "members")

    parent_size: int
    members: tuple[int, ...]

    def __init__(self, parent_size: int, members=()):
        ms = tuple(sorted(set(members)))
        for v in ms:
            if not (0 <= v < parent_size):
                raise SpecError(f"subset member {v} out of range for n={parent_size}")
        Record.__init__(self, parent_size, ms)

    def indicator(self) -> Vector:
        """0-1 characteristic vector over the parent's vertex order."""
        inside = set(self.members)
        return tuple(Fraction(1 if v in inside else 0) for v in range(self.parent_size))
