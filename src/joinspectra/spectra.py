"""Characteristic polynomials and spectra of coupled block systems.

The core object is a family of square blocks M_i carrying vectors (u_i, v_i),
glued by scalars rho_ij into the block matrix with M_i on the diagonal and
rho_ij * u_i v_j^T off it.  A block's one record is its `resolvent_form`:
the reduced resolvent f_i / g_i and phi_i = det(xI - M_i).  The
characteristic polynomial of the glued matrix factors exactly as

    prod_i (phi_i / g_i) * Phi,

where Phi is the determinant of the k x k polynomial matrix with g_i on the
diagonal and -rho_ij * f_i off it.  Everything here works with that cleared
form, so zero vectors (f_i = 0, g_i = 1) and asymmetric couplings cost
nothing special, and repeated blocks cost once.  Phi has three forms, each
chosen on a property of the input: a closed form through the charpoly of the
coupling scalars when every (f_i, g_i) is the same; else the charpoly of the
glued companion realization, about D^3 work for D = sum deg g_i, when
D^2 < k^3, and evaluation-interpolation (`poly_det`, about D k^3) when not.
Graph joins, their universal-matrix and subset variants, lexicographic
products (the join whose components are all one graph) and generalized
coronas are thin wrappers that pick the right blocks.  Every spectrum is
classified by one step.  A block whose vector is an eigenvector
(all-ones on regular or alpha + delta = 0 blocks, Fiedler's lemma being the
rank-one case) has the resolvent n_i / (x - p_i) and costs one charpoly;
`resolvent_form` detects this on every route, so the regular and
alpha + delta = 0 shortcuts are only precondition checks before that path.

The routes here compute and never verify themselves: a check needs a truth
built without these blocks, and that is `oracle.check`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError, ShapeError, SpecError
from .graphs import Graph
from .joins import (
    JoinSpec,
    RhoMatrix,
    UniversalParams,
    corona_as_hjoin,
    effective_rho,
    generalized_corona,
    host_rho,
    join_weights,
    universal_matrix,
)
from .matrices import RationalMatrix, Vector, as_vector, charpoly, poly_det, realization_charpoly
from .polynomials import Polynomial, as_fraction, poly_gcd, square_free_decomposition
from .resolvent import ResolventForm, resolvent_form
from .roots import real_roots


@dataclass(frozen=True)
class CoupledBlocks:
    """Blocks (M_i, u_i, v_i) plus the k x k coupling scalars (zero diagonal)."""

    blocks: tuple[tuple[RationalMatrix, Vector, Vector], ...]
    rho: RhoMatrix

    def __init__(self, blocks, rho):
        canon = []
        for m, u, v in blocks:
            if not m.is_square:
                raise ShapeError("every block must be square")
            u, v = as_vector(u), as_vector(v)
            if len(u) != m.rows or len(v) != m.rows:
                raise ShapeError(f"block vectors must have length {m.rows}")
            canon.append((m, u, v))
        k = len(canon)
        rho = tuple(tuple(as_fraction(x) for x in row) for row in rho)
        if len(rho) != k or any(len(r) != k for r in rho):
            raise ShapeError(f"coupling matrix must be {k}x{k}")
        if any(rho[i][i] != 0 for i in range(k)):
            raise ShapeError("coupling matrix must have zero diagonal")
        object.__setattr__(self, "blocks", tuple(canon))
        object.__setattr__(self, "rho", rho)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def total_dim(self) -> int:
        return sum(m.rows for m, _, _ in self.blocks)

    def is_hermitian(self) -> bool:
        """Symmetric blocks, u_i = v_i, symmetric coupling: real spectrum."""
        if any(u != v or not m.is_symmetric() for m, u, v in self.blocks):
            return False
        k = self.k
        return all(self.rho[i][j] == self.rho[j][i] for i in range(k) for j in range(i + 1, k))


def _blocks_data(cb: CoupledBlocks) -> list[tuple[ResolventForm, Polynomial]]:
    """(resolvent form, cofactor phi / g) of each block, once per shared
    block: keyed on the identities of the matrix and the vectors, so nothing
    is hashed by value.  Blocks built from one shared (M, u, v), as
    `universal_blocks` builds repeated ones, cost once; `CoupledBlocks` keeps
    the vectors' identity."""
    keys = [tuple(map(id, block)) for block in cb.blocks]
    memo: dict = {}
    for key, block in zip(keys, cb.blocks):
        if key not in memo:
            form = resolvent_form(*block)
            memo[key] = form, form.charpoly.exact_div(form.den)
    return [memo[key] for key in keys]


def coupling_poly(fs: Sequence[Polynomial], gs: Sequence[Polynomial], rho: RhoMatrix) -> Polynomial:
    """Phi: determinant of the cleared coupling matrix (g_i diagonal, -rho_ij f_i off).

    When k >= 2 and every (f_i, g_i) is one (f, g), Phi = det(g I - f rho) =
    sum_j c_j f^(k-j) g^j for c the charpoly of rho, asymmetric or not.  Else
    the glued realization, when every g_i is monic with deg f_i < deg g_i, as
    every resolvent form has, and D^2 < k^3; any other input goes to `poly_det`.
    """
    k = len(fs)
    if k >= 2 and all(f == fs[0] for f in fs) and all(g == gs[0] for g in gs):
        cs = charpoly(RationalMatrix(k, k, [x for row in rho for x in row])).coeffs  # ascending, monic
        # homogeneous Horner: acc runs through sum_{i <= m} c_(k-i) f^i g^(m-i)
        acc, f_pow = Polynomial.one(), Polynomial.one()
        for c in reversed(cs[:-1]):
            f_pow = f_pow * fs[0]
            acc = acc * gs[0] + c * f_pow
        return acc
    if all(g.is_monic and f.degree < g.degree for f, g in zip(fs, gs)) and sum(g.degree for g in gs) ** 2 < k**3:
        return realization_charpoly(fs, gs, rho)
    rows = [
        [gs[i] if i == j else (-rho[i][j]) * fs[i] for j in range(k)]
        for i in range(k)
    ]
    return poly_det(rows)


def _glued_product(phi: Polynomial, cofactors: Sequence[Polynomial], total_dim: int) -> Polynomial:
    """Phi times every block cofactor, checked to be monic of the glued dimension."""
    # the small cofactors first: the large Phi then takes part in one product only
    out = Polynomial.one()
    for cof in cofactors:
        out = out * cof
    out = phi * out
    if out.degree != total_dim or not out.is_monic:
        raise ArithmeticError("glued characteristic polynomial failed its degree check")
    return out


def coupled_charpoly(cb: CoupledBlocks) -> Polynomial:
    """Exact characteristic polynomial of the glued block matrix."""
    data = _blocks_data(cb)
    phi = coupling_poly([form.num for form, _ in data], [form.den for form, _ in data], cb.rho)
    return _glued_product(phi, [cof for _, cof in data], cb.total_dim)


def _classify_block(phi: Polynomial, g: Polynomial, idx: int):
    """Split one block's eigenvalues by whether the block's resolvent sees them.

    Exact: square-free factors of phi are split by gcd against g, so no
    numeric matching between eigenvalues and poles ever happens.
    """
    inherited: list[tuple[float, int, int]] = []
    reduced: list[tuple[float, int, int]] = []
    for factor, mult in square_free_decomposition(phi):
        seen = poly_gcd(factor, g)
        unseen = factor.exact_div(seen)
        if seen.degree > 0 and mult > 1:
            reduced.extend((r, mult - 1, idx) for r in real_roots(seen))
        if unseen.degree > 0:
            inherited.extend((r, mult, idx) for r in real_roots(unseen))
    return inherited, reduced


@dataclass(frozen=True)
class SpectrumReport:
    """Classified exact/numeric spectrum of a glued system.

    inherited: block eigenvalues invisible to that block's vector, full
    multiplicity.  reduced: visible ones, multiplicity dropped by one.
    coupling_roots: the roots of Phi, which contribute the rest.
    Entries are (value, multiplicity, block index).
    """

    charpoly: Polynomial
    inherited: tuple[tuple[float, int, int], ...]
    reduced: tuple[tuple[float, int, int], ...]
    coupling: Polynomial
    coupling_roots: tuple[float, ...]

    def eigenvalues(self) -> list[float]:
        """Full numeric spectrum as a sorted multiset."""
        out = [v for v, mult, _ in self.inherited for _ in range(mult)]
        out += [v for v, mult, _ in self.reduced for _ in range(mult)]
        out += list(self.coupling_roots)
        return sorted(out)


def coupled_spectrum(cb: CoupledBlocks) -> SpectrumReport:
    """Classified spectrum of the glued matrix (symmetric case only).

    Classifies every block, forms Phi and the checked product.
    """
    if not cb.is_hermitian():
        raise PreconditionError("spectrum classification needs symmetric blocks, u = v and symmetric coupling")
    data = _blocks_data(cb)
    inherited: list[tuple[float, int, int]] = []
    reduced: list[tuple[float, int, int]] = []
    for idx, (form, _) in enumerate(data):
        inh, red = _classify_block(form.charpoly, form.den, idx)
        inherited += inh
        reduced += red
    phi = coupling_poly([form.num for form, _ in data], [form.den for form, _ in data], cb.rho)
    total = _glued_product(phi, [cof for _, cof in data], cb.total_dim)
    croots = real_roots(phi) if phi.degree > 0 else []
    counted = sum(m for _, m, _ in inherited) + sum(m for _, m, _ in reduced) + len(croots)
    if counted != cb.total_dim:
        raise ArithmeticError(f"eigenvalue accounting mismatch: {counted} of {cb.total_dim}")
    return SpectrumReport(total, tuple(inherited), tuple(reduced), phi, tuple(croots))


# -- block builders for graph joins -----------------------------------------


def adjacency_blocks(spec: JoinSpec) -> CoupledBlocks:
    """Adjacency blocks; vectors are all-ones, or the subset indicators if given."""
    blocks = []
    for i, g in enumerate(spec.components):
        vec = spec.subsets[i].indicator() if spec.subsets is not None else tuple(Fraction(1) for _ in range(g.n))
        blocks.append((g.adjacency(), vec, vec))
    return CoupledBlocks(blocks, effective_rho(spec))


def _require(spec: JoinSpec, route: str) -> None:
    """The optional keys a route needs: "universal" wants universal
    parameters and no subsets, "subset-join" wants subsets and no parameters."""
    if route == "universal":
        if spec.universal is None:
            raise PreconditionError("universal route needs universal parameters")
        if spec.subsets is not None:
            raise PreconditionError("universal route applies to plain joins (no subsets)")
    else:
        if spec.subsets is None:
            raise PreconditionError("subset-join route needs per-component subsets")
        if spec.universal is not None:
            raise PreconditionError("subset-join route is stated for the adjacency matrix only")


def subset_blocks(spec: JoinSpec) -> CoupledBlocks:
    """Adjacency blocks of a subset-constrained join, coupled through the subset indicators."""
    _require(spec, "subset-join")
    return adjacency_blocks(spec)


def universal_blocks(spec: JoinSpec) -> CoupledBlocks:
    """Blocks U_i + delta*w_i*I with all-ones vectors, coupled by rho*alpha + gamma;
    equal (component, shift) pairs share one matrix, whose data is then computed once."""
    _require(spec, "universal")
    params = spec.universal
    # keyed on the weight w of the shift delta * w, an int, which hashes in C where Fractions do not
    keys = [(g, w if params.delta else 0) for g, w in zip(spec.components, join_weights(spec))]
    shared = {}
    for g, w in keys:
        if (g, w) not in shared:
            ones = (Fraction(1),) * g.n
            shared[g, w] = (universal_matrix(g, params, params.delta * w), ones, ones)
    return CoupledBlocks([shared[key] for key in keys], _universal_rho(effective_rho(spec), params))


def _universal_rho(rho: RhoMatrix, params: UniversalParams) -> RhoMatrix:
    """Coupling scalars of a universal-matrix join: rho_ij * alpha + gamma off the diagonal."""
    # one value per distinct scalar, keyed on int pairs, which hash in C where Fractions do not
    keys = [[(r.numerator, r.denominator) for r in row] for row in rho]
    coupled = {key: Fraction(*key) * params.alpha + params.gamma for key in {key for row in keys for key in row}}
    zero = Fraction(0)
    return tuple(tuple(coupled[q] if i != j else zero for j, q in enumerate(row)) for i, row in enumerate(keys))


# -- graph-level formula routes ------------------------------------------------


def hjoin_universal_charpoly(spec: JoinSpec) -> Polynomial:
    """Characteristic polynomial of the universal matrix of a plain join."""
    return coupled_charpoly(universal_blocks(spec))


def hjoin_universal_spectrum(spec: JoinSpec) -> SpectrumReport:
    """Classified universal spectrum of a plain join (general route)."""
    return coupled_spectrum(universal_blocks(spec))


def hgen_join_charpoly(spec: JoinSpec) -> Polynomial:
    """Characteristic polynomial of a subset-constrained join (adjacency only)."""
    return coupled_charpoly(subset_blocks(spec))


def hgen_join_spectrum(spec: JoinSpec) -> SpectrumReport:
    """Classified spectrum of a subset-constrained join."""
    return coupled_spectrum(subset_blocks(spec))


def generalized_charpoly(spec: JoinSpec, t) -> Polynomial:
    """Characteristic polynomial of A - t*D of a plain join, at exact rational t."""
    if spec.universal is not None:
        raise PreconditionError("degree-shift route fixes its own matrix parameters")
    params = UniversalParams(1, 0, 0, -as_fraction(t))
    return hjoin_universal_charpoly(spec.with_universal(params))


def _join_blocks(spec: JoinSpec) -> tuple[str, CoupledBlocks]:
    """Dispatch on the spec's optional keys; returns (route name, blocks)."""
    if spec.subsets is not None:
        return "subset-join", subset_blocks(spec)
    if spec.universal is not None:
        return "universal-join", universal_blocks(spec)
    return "adjacency-join", universal_blocks(spec.with_universal(UniversalParams.adjacency()))


def join_charpoly(spec: JoinSpec) -> tuple[str, Polynomial]:
    """(route name, characteristic polynomial) on the route the spec's keys pick."""
    route, cb = _join_blocks(spec)
    return route, coupled_charpoly(cb)


def join_spectrum(spec: JoinSpec) -> tuple[str, SpectrumReport]:
    """(route name, classified spectrum) on the route the spec's keys pick."""
    route, cb = _join_blocks(spec)
    return route, coupled_spectrum(cb)


# -- precondition-checked shortcut routes --------------------------------------


def hjoin_universal_spectrum_regular(spec: JoinSpec) -> SpectrumReport:
    """`hjoin_universal_spectrum` of a join whose components are all regular and non-empty."""
    _require(spec, "universal")
    if any(g.regular_degree() is None for g in spec.components):
        raise PreconditionError("regular shortcut needs every component regular")
    if any(g.n == 0 for g in spec.components):
        raise PreconditionError("every component needs at least one vertex")
    return coupled_spectrum(universal_blocks(spec))


def hjoin_universal_spectrum_alpha_delta_zero(spec: JoinSpec) -> SpectrumReport:
    """`hjoin_universal_spectrum` of a join with alpha + delta = 0 and non-empty components."""
    _require(spec, "universal")
    a, d = spec.universal.alpha, spec.universal.delta
    if a + d != 0:
        raise PreconditionError(f"shortcut needs alpha + delta = 0, got {a} + {d}")
    if any(g.n == 0 for g in spec.components):
        raise PreconditionError("every component needs at least one vertex")
    return coupled_spectrum(universal_blocks(spec))


# -- coronas -------------------------------------------------------------------


def corona_charpoly(host: Graph, family: Sequence[Graph]) -> Polynomial:
    """Characteristic polynomial of the corona of host with one graph per vertex.

    Block i is the cone over family[i], apex first, with vector e_0, coupled
    by the host's edges.  With f_i / g_i the companion's all-ones resolvent,
    the cone's resolvent at e_0 is g_i / (x g_i - f_i), already reduced, and
    its cofactor is phi_i / g_i, so Phi is the determinant with x g_i - f_i
    on the diagonal and -rho_ij g_i off it.
    """
    family = tuple(family)
    if len(family) != host.n:
        raise SpecError(f"corona host has {host.n} vertices but {len(family)} companion graphs given")
    blocks = []
    for g in family:
        apex = (1,) + (0,) * g.n
        blocks.append((generalized_corona(Graph(1), (g,)).adjacency(), apex, apex))
    return coupled_charpoly(CoupledBlocks(blocks, host_rho(host)))


def corona_charpoly_via_join(host: Graph, family: Sequence[Graph]) -> Polynomial:
    """Cross-route: the corona rebuilt as a join of single-vertex blocks plus the family."""
    return coupled_charpoly(adjacency_blocks(corona_as_hjoin(host, family)))
