"""Join-style graph constructions and their supporting data.

Vertex order of every join: component blocks concatenated in the host's
vertex order, the input order preserved inside each block.  The generalized
corona puts the k host vertices first, then the component blocks, which makes
its host-join view (single-vertex blocks for the host, then the components)
an identity relabelling.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import SpecError
from .graphs import Graph, VertexSubset, graph_from_obj
from .matrices import RationalMatrix
from .polynomials import as_fraction
from .records import Record

RhoMatrix = tuple[tuple[Fraction, ...], ...]


class UniversalParams(Record):
    """Coefficients (alpha, beta, gamma, delta) of alpha*A + beta*I + gamma*J + delta*D."""

    __slots__ = ("alpha", "beta", "gamma", "delta", "allow_zero_alpha")

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    allow_zero_alpha: bool

    def __init__(self, alpha, beta=0, gamma=0, delta=0, allow_zero_alpha=False):
        alpha, beta, gamma, delta = map(as_fraction, (alpha, beta, gamma, delta))
        if alpha == 0 and not allow_zero_alpha:
            raise SpecError("alpha must be nonzero (pass allow_zero_alpha=True to override)")
        Record.__init__(self, alpha, beta, gamma, delta, bool(allow_zero_alpha))

    @classmethod
    def adjacency(cls) -> "UniversalParams":
        return cls(1, 0, 0, 0)

    @classmethod
    def laplacian(cls) -> "UniversalParams":
        return cls(-1, 0, 0, 1)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    @classmethod
    def from_json_obj(cls, obj) -> "UniversalParams":
        if not isinstance(obj, dict):
            raise SpecError("'universal' must be an object with alpha/beta/gamma/delta")
        unknown = set(obj) - {"alpha", "beta", "gamma", "delta", "allow_zero_alpha"}
        if unknown:
            raise SpecError(f"unknown universal keys: {sorted(unknown)}")
        allow_zero_alpha = obj.get("allow_zero_alpha", False)
        if not isinstance(allow_zero_alpha, bool):
            raise SpecError(
                f"bad universal parameters: allow_zero_alpha must be true or false, got {allow_zero_alpha!r}"
            )
        try:
            return cls(
                obj.get("alpha", "1"),
                obj.get("beta", "0"),
                obj.get("gamma", "0"),
                obj.get("delta", "0"),
                allow_zero_alpha=allow_zero_alpha,
            )
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise SpecError(f"bad universal parameters: {exc}") from None


class JoinSpec(Record):
    """Host graph plus one component graph per host vertex.

    Optional pieces: per-component vertex subsets (cross edges then touch only
    those), universal-matrix parameters, and a coupling override replacing the
    0/1 pattern derived from the host's edges.  The override may be
    asymmetric, in which case only matrix-level routes apply.
    """

    __slots__ = ("host", "components", "subsets", "universal", "rho_override")

    host: Graph
    components: tuple[Graph, ...]
    subsets: Optional[tuple[VertexSubset, ...]]
    universal: Optional[UniversalParams]
    rho_override: Optional[RhoMatrix]

    def __init__(self, host, components, subsets=None, universal=None, rho_override=None):
        components = tuple(components)
        if len(components) != host.n:
            raise SpecError(f"host has {host.n} vertices but {len(components)} components given")
        if subsets is not None:
            subsets = tuple(subsets)
            if len(subsets) != host.n:
                raise SpecError(f"expected {host.n} subsets, got {len(subsets)}")
            for i, (s, g) in enumerate(zip(subsets, components)):
                if s.parent_size != g.n:
                    raise SpecError(f"subset {i} sized for {s.parent_size} vertices, component has {g.n}")
        if rho_override is not None:
            k = host.n
            rows = tuple(tuple(as_fraction(x) for x in row) for row in rho_override)
            if len(rows) != k or any(len(r) != k for r in rows):
                raise SpecError(f"coupling override must be {k}x{k}")
            if any(rows[i][i] != 0 for i in range(k)):
                raise SpecError("coupling override must have zero diagonal")
            rho_override = rows
        Record.__init__(self, host, components, subsets, universal, rho_override)

    @property
    def k(self) -> int:
        return self.host.n

    @property
    def total_vertices(self) -> int:
        return sum(g.n for g in self.components)

    def block_offsets(self) -> tuple[int, ...]:
        offs = []
        acc = 0
        for g in self.components:
            offs.append(acc)
            acc += g.n
        return tuple(offs)

    @property
    def params(self) -> UniversalParams:
        """The universal-matrix parameters the spec stands for: adjacency when it names none."""
        return self.universal if self.universal is not None else UniversalParams.adjacency()

    def with_universal(self, params: Optional[UniversalParams]) -> "JoinSpec":
        return JoinSpec(self.host, self.components, self.subsets, params, self.rho_override)

    # -- serialization --------------------------------------------------

    @classmethod
    def from_json_obj(cls, obj) -> "JoinSpec":
        if not isinstance(obj, dict):
            raise SpecError("spec must be a JSON object")
        unknown = set(obj) - {"host", "components", "subsets", "universal", "rho"}
        if unknown:
            raise SpecError(f"unknown spec keys: {sorted(unknown)}")
        if "host" not in obj or "components" not in obj:
            raise SpecError("spec needs 'host' and 'components'")
        host = graph_from_obj(obj["host"])
        if not isinstance(obj["components"], list):
            raise SpecError("'components' must be a list of graphs")
        components = tuple(graph_from_obj(g) for g in obj["components"])
        subsets = None
        if "subsets" in obj and obj["subsets"] is not None:
            raw = obj["subsets"]
            if not (
                isinstance(raw, list)
                and len(raw) == len(components)
                and all(isinstance(idxs, list) and all(type(v) is int for v in idxs) for idxs in raw)
            ):
                raise SpecError("'subsets' must list one index array per component")
            subsets = tuple(VertexSubset(g.n, idxs) for g, idxs in zip(components, raw))
        universal = UniversalParams.from_json_obj(obj["universal"]) if obj.get("universal") is not None else None
        rho = None
        if "rho" in obj and obj["rho"] is not None:
            if not (isinstance(obj["rho"], list) and all(isinstance(row, list) for row in obj["rho"])):
                raise SpecError("'rho' must be a list of rows, each a list of rationals")
            try:
                rho = tuple(tuple(as_fraction(x) for x in row) for row in obj["rho"])
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise SpecError(f"bad coupling override: {exc}") from None
        return cls(host, components, subsets, universal, rho)


def load_join_spec(text: str) -> JoinSpec:
    return JoinSpec.from_json_obj(json.loads(text))


# -- coupling scalars ----------------------------------------------------


def host_rho(host: Graph) -> RhoMatrix:
    """0/1 coupling derived from the host's edges, built from one shared 0 and 1."""
    zero, one = Fraction(0), Fraction(1)
    rows = [[zero] * host.n for _ in range(host.n)]
    for i, j in host.edges:
        rows[i][j] = rows[j][i] = one
    return tuple(map(tuple, rows))


def effective_rho(spec: JoinSpec) -> RhoMatrix:
    return spec.rho_override if spec.rho_override is not None else host_rho(spec.host)


def rho_is_graphlike(spec: JoinSpec) -> bool:
    """True when cross edges are defined by the host (no foreign override)."""
    return spec.rho_override is None or spec.rho_override == host_rho(spec.host)


# -- graph constructions ---------------------------------------------------


def join_weights(spec: JoinSpec) -> tuple[int, ...]:
    """Per-block degree boost: total size of the components at host neighbors."""
    sizes = [g.n for g in spec.components]
    weights = [0] * spec.k
    for u, v in spec.host.edges:
        weights[u] += sizes[v]
        weights[v] += sizes[u]
    return tuple(weights)


def join_graph(spec: JoinSpec) -> Graph:
    """Blow up each host vertex into its component; a host edge joins every
    vertex of one component's subset to every vertex of the other's.  A spec
    without subsets uses every vertex of each component."""
    if not rho_is_graphlike(spec):
        raise SpecError("join_graph needs host-derived 0/1 coupling; the override is matrix-only")
    if spec.subsets is None:
        members = [range(g.n) for g in spec.components]
    else:
        members = [s.members for s in spec.subsets]
    offs = spec.block_offsets()
    edges = []
    for i, g in enumerate(spec.components):
        edges.extend((offs[i] + u, offs[i] + v) for u, v in g.edges)
    for i, j in spec.host.edges:
        for u in members[i]:
            for v in members[j]:
                edges.append((offs[i] + u, offs[j] + v))
    return Graph(spec.total_vertices, edges)


def corona_family(host: Graph, family: Sequence[Graph]) -> tuple[Graph, ...]:
    """The corona's companion graphs as a tuple, checked to hold one per host vertex."""
    family = tuple(family)
    if len(family) != host.n:
        raise SpecError(f"corona host has {host.n} vertices but {len(family)} companion graphs given")
    return family


def generalized_corona(host: Graph, family: Sequence[Graph]) -> Graph:
    """One copy of the host; host vertex i joined to every vertex of family[i]."""
    family = corona_family(host, family)
    k = host.n
    offs = []
    acc = k
    for g in family:
        offs.append(acc)
        acc += g.n
    edges = list(host.edges)
    for i, g in enumerate(family):
        edges.extend((offs[i] + u, offs[i] + v) for u, v in g.edges)
        edges.extend((i, offs[i] + u) for u in range(g.n))
    return Graph(acc, edges)


def corona_as_hjoin(host: Graph, family: Sequence[Graph]) -> JoinSpec:
    """The corona rebuilt as a join: pendant-extended host, single-vertex blocks first.

    The join's vertex order is the corona's (see the module docstring), so
    both constructions give the same matrix with no relabelling.
    """
    family = corona_family(host, family)
    k = host.n
    big_host = Graph(2 * k, list(host.edges) + [(i, k + i) for i in range(k)])
    return JoinSpec(big_host, tuple(Graph(1) for _ in range(k)) + family)


def universal_matrix(g: Graph, params: UniversalParams, shift: Fraction | int = 0) -> RationalMatrix:
    """alpha*A + beta*I + gamma*J + delta*D + shift*I for one graph.

    Off the diagonal an entry is alpha + gamma on an edge and gamma
    elsewhere, and the diagonal entry is beta + gamma + shift + delta*deg(i).
    Those four rationals are put over one common denominator L once, and the
    matrix is filled with L times its entries as ints; `RationalMatrix.from_ints`
    then reduces L to the least one, whichever values the graph has.
    """
    a, b, c, d = params.as_tuple()
    n = g.n
    base, edge = b + c + shift, a + c
    den = math.lcm(base.denominator, d.denominator, edge.denominator, c.denominator)

    def cleared(x: Fraction) -> int:
        return x.numerator * (den // x.denominator)

    nums = [cleared(c)] * (n * n)
    e = cleared(edge)
    for u, v in g.edges:
        nums[u * n + v] = nums[v * n + u] = e
    b0, d0 = cleared(base), cleared(d)
    for i, deg in enumerate(g.degrees()):
        nums[i * (n + 1)] = b0 + d0 * deg
    return RationalMatrix.from_ints(n, n, nums, den)
