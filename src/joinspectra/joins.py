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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError, PreconditionError, SpecError
from .graphs import Graph, VertexSubset, graph_from_obj
from .matrices import RationalMatrix
from .polynomials import Polynomial, as_fraction, poly_gcd, square_free_decomposition

RhoMatrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class UniversalParams:
    """Coefficients (alpha, beta, gamma, delta) of alpha*A + beta*I + gamma*J + delta*D."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    allow_zero_alpha: bool = False

    def __init__(self, alpha, beta=0, gamma=0, delta=0, allow_zero_alpha=False):
        object.__setattr__(self, "alpha", as_fraction(alpha))
        object.__setattr__(self, "beta", as_fraction(beta))
        object.__setattr__(self, "gamma", as_fraction(gamma))
        object.__setattr__(self, "delta", as_fraction(delta))
        object.__setattr__(self, "allow_zero_alpha", bool(allow_zero_alpha))
        if self.alpha == 0 and not self.allow_zero_alpha:
            raise SpecError("alpha must be nonzero (pass allow_zero_alpha=True to override)")

    @classmethod
    def adjacency(cls) -> "UniversalParams":
        return cls(1, 0, 0, 0)

    @classmethod
    def laplacian(cls) -> "UniversalParams":
        return cls(-1, 0, 0, 1)

    @classmethod
    def signless_laplacian(cls) -> "UniversalParams":
        return cls(1, 0, 0, 1)

    @classmethod
    def seidel(cls) -> "UniversalParams":
        return cls(-2, -1, 1, 0)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    def to_json_obj(self) -> dict:
        return {"alpha": str(self.alpha), "beta": str(self.beta), "gamma": str(self.gamma), "delta": str(self.delta)}

    @classmethod
    def from_json_obj(cls, obj) -> "UniversalParams":
        if not isinstance(obj, dict):
            raise SpecError("'universal' must be an object with alpha/beta/gamma/delta")
        try:
            return cls(
                obj.get("alpha", "1"),
                obj.get("beta", "0"),
                obj.get("gamma", "0"),
                obj.get("delta", "0"),
                allow_zero_alpha=bool(obj.get("allow_zero_alpha", False)),
            )
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise SpecError(f"bad universal parameters: {exc}") from None


@dataclass(frozen=True)
class JoinSpec:
    """Host graph plus one component graph per host vertex.

    Optional pieces: per-component vertex subsets (cross edges then touch only
    those), universal-matrix parameters, and a coupling override replacing the
    0/1 pattern derived from the host's edges.  The override may be
    asymmetric, in which case only matrix-level routes apply.
    """

    host: Graph
    components: tuple[Graph, ...]
    subsets: Optional[tuple[VertexSubset, ...]] = None
    universal: Optional[UniversalParams] = None
    rho_override: Optional[RhoMatrix] = None

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
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "subsets", subsets)
        object.__setattr__(self, "universal", universal)
        object.__setattr__(self, "rho_override", rho_override)

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

    def with_universal(self, params: Optional[UniversalParams]) -> "JoinSpec":
        return replace(self, universal=params)

    # -- serialization --------------------------------------------------

    def to_json_obj(self) -> dict:
        obj: dict = {
            "host": self.host.to_json_obj(),
            "components": [g.to_json_obj() for g in self.components],
        }
        if self.subsets is not None:
            obj["subsets"] = [list(s.members) for s in self.subsets]
        if self.universal is not None:
            obj["universal"] = self.universal.to_json_obj()
        if self.rho_override is not None:
            obj["rho"] = [[str(x) for x in row] for row in self.rho_override]
        return obj

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


def _require_graphlike(spec: JoinSpec, what: str) -> None:
    if not rho_is_graphlike(spec):
        raise SpecError(f"{what} needs host-derived 0/1 coupling; the override is matrix-only")


# -- graph constructions ---------------------------------------------------


def join_weights(spec: JoinSpec) -> tuple[int, ...]:
    """Per-block degree boost: total size of the components at host neighbors."""
    sizes = [g.n for g in spec.components]
    weights = [0] * spec.k
    for u, v in spec.host.edges:
        weights[u] += sizes[v]
        weights[v] += sizes[u]
    return tuple(weights)


def h_join(spec: JoinSpec) -> Graph:
    """Blow up each host vertex into its component; host edges become complete bipartite blocks."""
    if spec.subsets is not None:
        raise SpecError("spec carries subsets; use h_generalized_join")
    _require_graphlike(spec, "h_join")
    return _join_graph(spec, [VertexSubset.full(g.n) for g in spec.components])


def h_generalized_join(spec: JoinSpec) -> Graph:
    """As h_join, but cross edges only touch each component's chosen subset."""
    if spec.subsets is None:
        raise SpecError("spec has no subsets; use h_join")
    _require_graphlike(spec, "h_generalized_join")
    return _join_graph(spec, spec.subsets)


def join_graph(spec: JoinSpec) -> Graph:
    return h_generalized_join(spec) if spec.subsets is not None else h_join(spec)


def _join_graph(spec: JoinSpec, subsets: Sequence[VertexSubset]) -> Graph:
    offs = spec.block_offsets()
    edges = []
    for i, g in enumerate(spec.components):
        edges.extend((offs[i] + u, offs[i] + v) for u, v in g.edges)
    for i, j in spec.host.edges:
        for u in subsets[i].members:
            for v in subsets[j].members:
                edges.append((offs[i] + u, offs[j] + v))
    return Graph(spec.total_vertices, edges)


def lexicographic(host: Graph, inner: Graph) -> Graph:
    """Substitute a copy of `inner` for every host vertex."""
    return h_join(JoinSpec(host, (inner,) * host.n))


def generalized_corona(host: Graph, family: Sequence[Graph]) -> Graph:
    """One copy of the host; host vertex i joined to every vertex of family[i]."""
    family = tuple(family)
    if len(family) != host.n:
        raise SpecError(f"corona host has {host.n} vertices but {len(family)} companion graphs given")
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
    family = tuple(family)
    if len(family) != host.n:
        raise SpecError(f"corona host has {host.n} vertices but {len(family)} companion graphs given")
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


# -- structured vertex subsets ---------------------------------------------


def is_k_tau_regular(g: Graph, subset: VertexSubset) -> Optional[tuple[int, int]]:
    """(k, tau) when the subset induces a k-regular graph and every outside
    vertex has exactly tau neighbors inside; None otherwise.

    The full vertex set of a regular graph counts as (degree, 0)-regular.
    """
    if subset.size == 0:
        raise DomainError("empty subset")
    if subset.parent_size != g.n:
        raise SpecError("subset sized for a different graph")
    inner = g.induced(subset.members)
    k = inner.regular_degree()
    if k is None:
        return None
    outside = subset.complement()
    if not outside:
        return (k, 0)
    inside = set(subset.members)
    taus = {len(g.neighbors(v) & inside) for v in outside}
    if len(taus) != 1:
        return None
    return (k, taus.pop())


@dataclass(frozen=True)
class SpecialEigenvalueSplit:
    """Numeric spectrum partitioned against a (k, tau)-regular subset."""

    k: int
    tau: int
    main: tuple[float, ...]
    at_k_minus_tau: tuple[float, ...]
    special: tuple[float, ...]


def classify_special_eigenvalues(g: Graph, subset: VertexSubset) -> SpecialEigenvalueSplit:
    """Split the spectrum into main / k-tau / special eigenvalues.

    Special = neither main nor equal to k - tau.  Consistency is enforced
    exactly: the non-main part of each square-free factor, with the k - tau
    root removed, must have no root in common with the subset-indicator
    resolvent's denominator (whose roots are the eigenvalues visible to the
    indicator vector).
    """
    from .resolvent import resolvent_form
    from .roots import real_roots

    kt = is_k_tau_regular(g, subset)
    if kt is None or kt[1] <= 0:
        raise PreconditionError("subset must be (k, tau)-regular with tau > 0")
    k, tau = kt
    boundary = Fraction(k - tau)
    adj = g.adjacency()
    ones = tuple(Fraction(1) for _ in range(g.n))
    main_form = resolvent_form(adj, ones)
    g_main = main_form.den
    g_chi = resolvent_form(adj, subset.indicator()).den

    main: list[float] = []
    at_boundary: list[float] = []
    special: list[float] = []
    for factor, mult in square_free_decomposition(main_form.charpoly):
        main_part = poly_gcd(factor, g_main)
        rest = factor.exact_div(main_part)
        if main_part.degree > 0:
            main.extend(r for r in real_roots(main_part) for _ in range(mult))
        if rest(boundary) == 0:
            rest = rest.exact_div(Polynomial((-boundary, 1)))
            at_boundary.extend([float(boundary)] * mult)
        if rest.degree > 0:
            stray = poly_gcd(rest, g_chi)
            if stray.degree > 0:
                raise ArithmeticError("special eigenvalue visible to the subset indicator; classification is inconsistent")
            special.extend(r for r in real_roots(rest) for _ in range(mult))
    return SpecialEigenvalueSplit(k, tau, tuple(sorted(main)), tuple(sorted(at_boundary)), tuple(sorted(special)))
