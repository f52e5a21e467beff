"""Seeded randomized formula-vs-oracle verification.

Every case builds some glued system twice: once through a formula route and
once as a dense matrix for `oracle.check`: the matrix of the actually
constructed graph for graph specs, the literally assembled matrix for raw
blocks, which have no graph.  Comparisons are exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graphs import Graph, VertexSubset
from .joins import JoinSpec, UniversalParams
from .matrices import RationalMatrix
from .oracle import assemble, check, join_truth
from .spectra import CoupledBlocks, coupled_charpoly, join_blocks


@dataclass(frozen=True)
class VerifyCase:
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
) -> CoupledBlocks:
    """Random blocks with rational entries in [-3, 3], occasional zero vectors,
    and (unless symmetric) occasional asymmetric coupling."""
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
    return CoupledBlocks(blocks, rho)


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
    route, cb = join_blocks(spec)
    verdict = check(coupled_charpoly(cb), join_truth(spec))
    return VerifyCase(name, verdict.equal, f"route {route}: {verdict.detail}")


def verify_blocks(cb: CoupledBlocks, name: str = "blocks") -> VerifyCase:
    verdict = check(coupled_charpoly(cb), assemble(cb))
    return VerifyCase(name, verdict.equal, verdict.detail)


def run_random_suite(seed: int, cases: int, max_k: int = 5, max_n: int = 5) -> list[VerifyCase]:
    """Deterministic mixed suite: raw coupled blocks, plain joins with random
    universal parameters, and subset joins, all against the oracle."""
    rng = random.Random(seed)
    out = []
    for idx in range(cases):
        kind = rng.random()
        if kind < 0.5:
            cb = random_coupled_blocks(rng, max_k=max_k, max_n=max_n)
            out.append(verify_blocks(cb, name=f"case-{idx:04d}-blocks"))
        elif kind < 0.8:
            spec = random_join_spec(rng, max_k=min(max_k, 4), max_n=min(max_n, 4), universal=random_universal_params(rng))
            out.append(verify_spec(spec, name=f"case-{idx:04d}-join"))
        else:
            spec = random_join_spec(rng, max_k=min(max_k, 4), max_n=min(max_n, 4), with_subsets=True)
            out.append(verify_spec(spec, name=f"case-{idx:04d}-subset-join"))
    return out
