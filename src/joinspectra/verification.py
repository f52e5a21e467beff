"""The construction table and seeded randomized formula-vs-oracle verification.

`CONSTRUCTIONS` maps each construction's name to its route name, its blocks
and its truth: the matrix of the graph actually built, never one assembled
from the route's blocks, made only when a check asks for it.  Every verb,
`verify_spec` and the fixtures look their route up there.  A random case
builds some glued system twice: through a formula route, and as a dense
matrix for `oracle.check`: its construction's truth for graph specs, the
literally assembled matrix for raw blocks, which have no graph and reach
the formula route through their `resolvent_form`s.
Comparisons are exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Optional

from .errors import PreconditionError
from .graphs import Graph, VertexSubset
from .joins import JoinSpec, UniversalParams, generalized_corona, join_graph
from .matrices import RationalMatrix, Vector
from .oracle import assemble, check, join_truth
from .records import Record
from .resolvent import resolvent_form
from .spectra import (
    CoupledBlocks,
    corona_blocks,
    coupled_charpoly,
    degree_shift_spec,
    require_balanced,
    require_regular,
    subset_blocks,
    universal_blocks,
)

# (route name, blocks, truth): the truth is the dense matrix of the constructed graph, built on call
Construction = tuple[str, CoupledBlocks, Callable[[], RationalMatrix]]


def _join(route: str, precondition: Callable[[JoinSpec], None] = lambda spec: None):
    """The entry of a universal-matrix join: `universal_blocks` once precondition accepts the spec."""

    def entry(spec: JoinSpec) -> Construction:
        precondition(spec)
        return route, universal_blocks(spec), lambda: join_truth(spec)

    return entry


def _adjacency(spec: JoinSpec) -> Construction:
    if spec.subsets is not None:
        raise PreconditionError("adjacency route applies to plain joins; drop 'subsets' or use --route subset")
    spec = spec.with_universal(None)
    return "adjacency-join", universal_blocks(spec), lambda: join_truth(spec)


def _subset(spec: JoinSpec) -> Construction:
    return "subset-join", subset_blocks(spec), lambda: join_truth(spec)


def _degree_shift(spec: JoinSpec, t) -> Construction:
    """A - tD of the plain join: blocks from the spec `degree_shift_spec` gives, truth
    from the join graph's own adjacency and vertex degrees, so a fault in that spec shows."""

    def truth() -> RationalMatrix:
        g = join_graph(JoinSpec(spec.host, spec.components))
        return g.adjacency() - g.degree_matrix() * t

    return "degree-shift", universal_blocks(degree_shift_spec(spec, t)), truth


def _corona(spec: JoinSpec) -> Construction:
    if spec.universal is not None or spec.subsets is not None or spec.rho_override is not None:
        raise PreconditionError("corona route reads host + companion components only")
    host, family = spec.host, spec.components
    return "corona", corona_blocks(host, family), lambda: generalized_corona(host, family).adjacency()


def _require_lex(spec: JoinSpec) -> None:
    """The lexicographic product is the join whose components are all the inner graph."""
    if spec.subsets is not None or spec.rho_override is not None:
        raise PreconditionError("lexicographic route takes a plain host + one inner graph")
    if len(set(spec.components)) != 1:
        raise PreconditionError("lexicographic route needs all components identical (or a single one)")


def _auto(spec: JoinSpec) -> Construction:
    """The join route the spec's optional keys pick."""
    key = "subset" if spec.subsets is not None else "adjacency" if spec.universal is None else "universal"
    return CONSTRUCTIONS[key](spec)


# every construction by name: the --route values, A - tD (called with the
# spec and t), the generalized corona (host = base graph, components =
# companions) and the lexicographic product
CONSTRUCTIONS: dict[str, Callable[..., Construction]] = {
    "auto": _auto,
    "adjacency": _adjacency,
    "universal": _join("universal-join"),
    "subset": _subset,
    "regular": _join("regular-shortcut", require_regular),
    "balanced": _join("balanced-shortcut", require_balanced),
    "degree-shift": _degree_shift,
    "corona": _corona,
    "lex": _join("lexicographic", _require_lex),
}


class VerifyCase(Record):
    """One verification verdict: the case's name, pass or fail, and the check's detail."""

    __slots__ = ("name", "passed", "detail")

    name: str
    passed: bool
    detail: str


def random_fraction(rng: random.Random, lo: int = -3, hi: int = 3, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_graph(rng: random.Random, n: int, edge_rate: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_rate]
    return Graph(n, edges)


def random_coupled_blocks(
    rng: random.Random,
    max_k: int = 5,
    max_n: int = 5,
    zero_vector_rate: float = 0.15,
    asym_rho_rate: float = 0.3,
    symmetric: bool = False,
) -> tuple[list[tuple[RationalMatrix, Vector, Vector]], list[list[Fraction]]]:
    """Random raw blocks (M_i, u_i, v_i), with rational entries in [-3, 3] and
    occasional zero vectors, and their coupling rho, occasionally asymmetric
    unless symmetric is set."""
    k = rng.randint(1, max_k)
    blocks = []
    for _ in range(k):
        n = rng.randint(1, max_n)
        if symmetric:
            entries = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    x = random_fraction(rng)
                    entries[i][j] = x
                    entries[j][i] = x
            m = RationalMatrix.from_rows(entries)
        else:
            m = RationalMatrix(n, n, [random_fraction(rng) for _ in range(n * n)])
        if rng.random() < zero_vector_rate:
            u = tuple(Fraction(0) for _ in range(n))
        else:
            u = tuple(random_fraction(rng) for _ in range(n))
        if symmetric:
            v = u
        else:
            v = u if rng.random() < 0.5 else tuple(random_fraction(rng) for _ in range(n))
        blocks.append((m, u, v))
    asym = not symmetric and rng.random() < asym_rho_rate
    rho = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            rho[i][j] = random_fraction(rng)
            rho[j][i] = random_fraction(rng) if asym else rho[i][j]
    return blocks, rho


def random_join_spec(
    rng: random.Random,
    max_k: int = 4,
    max_n: int = 4,
    with_subsets: bool = False,
    universal: Optional[UniversalParams] = None,
) -> JoinSpec:
    k = rng.randint(1, max_k)
    host = random_graph(rng, k)
    components = tuple(random_graph(rng, rng.randint(1, max_n)) for _ in range(k))
    subsets = None
    if with_subsets:
        subsets = tuple(
            VertexSubset(g.n, [v for v in range(g.n) if rng.random() < 0.6]) for g in components
        )
    return JoinSpec(host, components, subsets=subsets, universal=universal)


def random_universal_params(rng: random.Random) -> UniversalParams:
    while True:
        alpha = random_fraction(rng)
        if alpha != 0:
            break
    return UniversalParams(alpha, random_fraction(rng), random_fraction(rng), random_fraction(rng))


def verify_spec(spec: JoinSpec, name: str = "spec") -> VerifyCase:
    """Formula route vs the graph built from the host's edges.

    A coupling override deliberately different from the host's pattern will
    fail here: the formula follows the override, the graph does not.
    """
    route, cb, truth = CONSTRUCTIONS["auto"](spec)
    verdict = check(coupled_charpoly(cb), truth())
    return VerifyCase(name, verdict.equal, f"route {route}: {verdict.detail}")


def verify_blocks(blocks, rho, name: str = "blocks") -> VerifyCase:
    """Raw blocks (M_i, u_i, v_i) glued by rho: the charpoly of their forms
    against the literally assembled matrix."""
    cb = CoupledBlocks([resolvent_form(*block) for block in blocks], rho)
    verdict = check(coupled_charpoly(cb), assemble(blocks, rho))
    return VerifyCase(name, verdict.equal, verdict.detail)


def run_random_suite(seed: int, cases: int, max_k: int = 5, max_n: int = 5) -> list[VerifyCase]:
    """Deterministic mixed suite: raw coupled blocks, plain joins with random
    universal parameters, and subset joins, all against the oracle."""
    rng = random.Random(seed)
    out = []
    for idx in range(cases):
        kind = rng.random()
        if kind < 0.5:
            blocks, rho = random_coupled_blocks(rng, max_k=max_k, max_n=max_n)
            out.append(verify_blocks(blocks, rho, name=f"case-{idx:04d}-blocks"))
        elif kind < 0.8:
            spec = random_join_spec(rng, max_k=min(max_k, 4), max_n=min(max_n, 4), universal=random_universal_params(rng))
            out.append(verify_spec(spec, name=f"case-{idx:04d}-join"))
        else:
            spec = random_join_spec(rng, max_k=min(max_k, 4), max_n=min(max_n, 4), with_subsets=True)
            out.append(verify_spec(spec, name=f"case-{idx:04d}-subset-join"))
    return out
