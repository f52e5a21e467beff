"""Characteristic polynomials and spectra of coupled block systems.

The core object is a family of square blocks M_i carrying vectors (u_i, v_i),
glued by scalars rho_ij into the block matrix with M_i on the diagonal and
rho_ij * u_i v_j^T off it.  A block is held only as its record, a
`ResolventForm`: the reduced main function f_i / g_i = v_i^T (xI - M_i)^(-1) u_i
and its cofactor q_i = det(xI - M_i) / g_i.  `CoupledBlocks` is those forms
and rho; the characteristic polynomial of the glued matrix factors exactly as

    prod_i q_i * Phi,

where Phi is the determinant of the k x k polynomial matrix with g_i on the
diagonal and -rho_ij * f_i off it, `matrices.coupling_poly`, and the product
is one big-integer product by Kronecker substitution (`poly_product`).
Everything here works with that cleared form, so zero vectors (f_i = 0,
g_i = 1) and asymmetric couplings cost nothing special.

Graph joins, their universal-matrix and subset variants, lexicographic
products (the join whose components are all one graph) and generalized
coronas are block builders: each only picks the blocks and the coupling,
makes one form per block up to relabeling, and callers pass them to
`coupled_charpoly` or `coupled_spectrum`.  Forms are keyed on
`graphs.canonical_key`, equal exactly for relabeled inputs: a relabeling P
maps all-ones to itself and a subset's indicator to the relabeled subset's,
and leaves the form unchanged.  So each isomorphism class of components (of
(component, subset) pairs for subset joins) takes one kernel pass per
build.  A universal block alpha A + beta I + gamma J + delta D + delta w_i I
is never built: it is c B + (beta + delta w_i) I + gamma 11^T with
B = qA + pD a sparse integer matrix, and its form is B's under three exact
maps, `ResolventForm.scaled`, `rank_one_updated` and `translated`
(`universal_blocks`).  A corona's cone takes the apex form from its
companion's form.  A builder names no route: `verification.CONSTRUCTIONS`
pairs each one with its route name and its truth.  A universal-matrix
builder reads the parameters `JoinSpec.params` states, so a spec that names
none is the adjacency join.  Every spectrum is classified by one step.  A
block whose vector is an eigenvector (all-ones on regular or
alpha + delta = 0 blocks, Fiedler's lemma being the rank-one case) has the
resolvent n_i / (x - p_i), and its one bordered pass and gcd give exactly
that, as they give every other form (for a universal block all-ones is an
eigenvector of B exactly when the graph is regular or p = -q).  So the
regular and alpha + delta = 0 shortcuts are only the preconditions
`require_regular` and `require_balanced` before the one path.

Nothing here verifies itself: a check needs a truth built without these
blocks, and that is `oracle.check`'s job.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError, ShapeError
from .graphs import Graph, canonical_key
from .joins import (
    JoinSpec,
    RhoMatrix,
    UniversalParams,
    corona_family,
    effective_rho,
    host_rho,
    join_weights,
)
from .matrices import RationalMatrix, coupling_poly
from .polynomials import Polynomial, as_fraction, poly_gcd, poly_product, square_free_decomposition
from .records import Record
from .resolvent import ResolventForm, resolvent_form
from .roots import real_roots


class CoupledBlocks(Record):
    """One `ResolventForm` per block plus the k x k coupling scalars (zero diagonal)."""

    __slots__ = ("forms", "rho")

    forms: tuple[ResolventForm, ...]
    rho: RhoMatrix

    def __init__(self, forms, rho):
        forms = tuple(forms)
        k = len(forms)
        # the route's builders hand over Fractions; anything else is normalized or rejected
        rho = tuple(tuple(x if type(x) is Fraction else as_fraction(x) for x in row) for row in rho)
        if len(rho) != k or any(len(r) != k for r in rho):
            raise ShapeError(f"coupling matrix must be {k}x{k}")
        if any(rho[i][i] != 0 for i in range(k)):
            raise ShapeError("coupling matrix must have zero diagonal")
        Record.__init__(self, forms, rho)

    @property
    def k(self) -> int:
        return len(self.forms)

    @property
    def total_dim(self) -> int:
        return sum(form.cofactor.degree + form.den.degree for form in self.forms)

    def is_hermitian(self) -> bool:
        """Hermitian blocks (symmetric M_i, u_i = v_i) and symmetric coupling: real spectrum."""
        if not all(form.hermitian for form in self.forms):
            return False
        k = self.k
        return all(self.rho[i][j] == self.rho[j][i] for i in range(k) for j in range(i + 1, k))


def _glued_product(phi: Polynomial, cofactors: Sequence[Polynomial], total_dim: int) -> Polynomial:
    """Phi times every block cofactor, one Kronecker-substituted product
    (`poly_product`), checked to be monic of the glued dimension."""
    # the small cofactors first: the large Phi then takes part in one product only
    out = poly_product([*cofactors, phi])
    if out.degree != total_dim or not out.is_monic:
        raise ArithmeticError("glued characteristic polynomial failed its degree check")
    return out


def _glue(cb: CoupledBlocks) -> tuple[Polynomial, Polynomial]:
    """(Phi, the glued characteristic polynomial) from the blocks' forms."""
    forms = cb.forms
    phi = coupling_poly([form.num for form in forms], [form.den for form in forms], cb.rho)
    return phi, _glued_product(phi, [form.cofactor for form in forms], cb.total_dim)


def coupled_charpoly(cb: CoupledBlocks) -> Polynomial:
    """Exact characteristic polynomial of the glued block matrix."""
    return _glue(cb)[1]


def _classify_block(q: Polynomial, g: Polynomial, idx: int):
    """Split the eigenvalues of one block's cofactor q by whether the block's
    resolvent sees them: g is square-free and divides phi = q g for a Hermitian
    block, so q holds a seen eigenvalue (a root of g) once less than phi and an
    unseen one as often.  Exact: square-free factors of q are split by gcd.
    """
    inherited: list[tuple[float, int, int]] = []
    reduced: list[tuple[float, int, int]] = []
    for factor, mult in square_free_decomposition(q):
        seen = poly_gcd(factor, g)
        unseen = factor.exact_div(seen)
        if seen.degree > 0:
            reduced.extend((r, mult, idx) for r in real_roots(seen))
        if unseen.degree > 0:
            inherited.extend((r, mult, idx) for r in real_roots(unseen))
    return inherited, reduced


class SpectrumReport(Record):
    """Classified exact/numeric spectrum of a glued system.

    inherited: block eigenvalues invisible to that block's vector, full
    multiplicity.  reduced: visible ones, multiplicity dropped by one.
    coupling_roots: the roots of Phi, which contribute the rest.
    Entries are (value, multiplicity, block index).
    """

    __slots__ = ("charpoly", "inherited", "reduced", "coupling", "coupling_roots")

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
    inherited: list[tuple[float, int, int]] = []
    reduced: list[tuple[float, int, int]] = []
    for idx, form in enumerate(cb.forms):
        inh, red = _classify_block(form.cofactor, form.den, idx)
        inherited += inh
        reduced += red
    phi, total = _glue(cb)
    croots = real_roots(phi) if phi.degree > 0 else []
    counted = sum(m for _, m, _ in inherited) + sum(m for _, m, _ in reduced) + len(croots)
    if counted != cb.total_dim:
        raise ArithmeticError(f"eigenvalue accounting mismatch: {counted} of {cb.total_dim}")
    return SpectrumReport(total, tuple(inherited), tuple(reduced), phi, tuple(croots))


# -- block builders -------------------------------------------------------


def _require_plain(spec: JoinSpec) -> None:
    if spec.subsets is not None:
        raise PreconditionError("universal route applies to plain joins (no subsets)")


def subset_blocks(spec: JoinSpec) -> CoupledBlocks:
    """Forms of the adjacency blocks of a subset-constrained join at the
    subset indicators, coupled through them; one form per (component, subset)
    pair up to relabeling (`canonical_key` with the subset as a colour class),
    since a relabeling P that maps one pair onto another maps the indicator
    too, and P^T (xI - A)^(-1) P is the resolvent of the relabeled graph."""
    if spec.subsets is None:
        raise PreconditionError("subset-join route needs per-component subsets")
    if spec.universal is not None:
        raise PreconditionError("subset-join route is stated for the adjacency matrix only")
    keys = [canonical_key(g, subset.members) for g, subset in zip(spec.components, spec.subsets)]
    forms: dict[object, ResolventForm] = {}
    for key, g, subset in zip(keys, spec.components, spec.subsets):
        if key not in forms:
            forms[key] = resolvent_form(g.adjacency(), subset.indicator())
    return CoupledBlocks([forms[key] for key in keys], effective_rho(spec))


def _integer_part(params: UniversalParams) -> tuple[int, int, Fraction]:
    """(q, p, c) with alpha A + delta D = c (qA + pD) for every graph: q : p is
    alpha : delta in lowest integer terms, signed so that c > 0 (c = 1 needs
    no scaling, as for the Laplacian, whose B is L itself); B = D when
    alpha = 0, and B = 0, c = 1 when alpha = delta = 0."""
    alpha, delta = params.alpha, params.delta
    if alpha:
        ratio, sign = delta / alpha, 1 if alpha > 0 else -1
        return sign * ratio.denominator, sign * ratio.numerator, abs(alpha) / ratio.denominator
    if delta:
        return 0, 1 if delta > 0 else -1, abs(delta)
    return 0, 0, Fraction(1)


def _integer_block(g: Graph, q: int, p: int) -> RationalMatrix:
    """qA + pD of g, a sparse integer matrix."""
    n = g.n
    nums = [0] * (n * n)
    for u, v in g.edges:
        nums[u * n + v] = nums[v * n + u] = q
    if p:
        for i, deg in enumerate(g.degrees()):
            nums[i * (n + 1)] = p * deg
    return RationalMatrix.from_ints(n, n, nums)


def universal_blocks(spec: JoinSpec) -> CoupledBlocks:
    """Forms of the blocks U_i + delta*w_i*I at all-ones, coupled by rho*alpha + gamma,
    for the parameters `spec.params` (adjacency when the spec names none);
    one form per (component up to relabeling, shift) pair, shared by its blocks.

    A block is U + delta w I = c B + (beta + delta w) I + gamma 11^T, with
    B = qA + pD the sparse integer part (`_integer_part`).  So each
    isomorphism class of components (`canonical_key`: a relabeling P has
    P 1 = 1 and leaves every form at all-ones unchanged) is reduced once, as
    the form of B, and each of its blocks takes that form through three exact
    maps: scaled by c, updated by gamma 11^T, and translated by
    beta + delta w (`ResolventForm.scaled`, `rank_one_updated` and
    `translated`).
    """
    _require_plain(spec)
    params = spec.params
    beta, gamma, delta = params.beta, params.gamma, params.delta
    q, p, c = _integer_part(params)
    # keyed on the weight w of the shift delta * w, an int, which hashes in C where Fractions do not
    keys = [(canonical_key(g), w if delta else 0) for g, w in zip(spec.components, join_weights(spec))]
    forms: dict[tuple[object, int], ResolventForm] = {}
    classes: dict[object, ResolventForm] = {}
    for key, g in zip(keys, spec.components):
        if key in forms:
            continue
        cls, w = key
        if cls not in classes:
            form = resolvent_form(_integer_block(g, q, p), (Fraction(1),) * g.n)
            classes[cls] = form.scaled(c).rank_one_updated(gamma)
        forms[key] = classes[cls].translated(beta + delta * w)
    return CoupledBlocks([forms[key] for key in keys], _universal_rho(effective_rho(spec), params))


def _universal_rho(rho: RhoMatrix, params: UniversalParams) -> RhoMatrix:
    """Coupling scalars of a universal-matrix join: rho_ij * alpha + gamma off the diagonal."""
    # one value per distinct scalar, keyed on int pairs, which hash in C where Fractions do not
    keys = [[(r.numerator, r.denominator) for r in row] for row in rho]
    coupled = {key: Fraction(*key) * params.alpha + params.gamma for key in {key for row in keys for key in row}}
    zero = Fraction(0)
    return tuple(tuple(coupled[q] if i != j else zero for j, q in enumerate(row)) for i, row in enumerate(keys))


def join_blocks(spec: JoinSpec) -> CoupledBlocks:
    """The blocks of the join the spec's optional keys pick: subset or universal."""
    return universal_blocks(spec) if spec.subsets is None else subset_blocks(spec)


def degree_shift_spec(spec: JoinSpec, t) -> JoinSpec:
    """The plain join's spec for A - t*D, at exact rational t."""
    if spec.universal is not None:
        raise PreconditionError("degree-shift route fixes its own matrix parameters")
    return spec.with_universal(UniversalParams(1, 0, 0, -as_fraction(t)))


def corona_blocks(host: Graph, family: Sequence[Graph]) -> CoupledBlocks:
    """Blocks of the corona of host with one graph per vertex.

    Block i is the cone over family[i], apex first, with vector e_0, coupled
    by the host's edges; no cone is built.  With f / g the companion's
    all-ones form and phi its charpoly, the Schur complement of the apex gives
    the cone's form e_0^T (xI - C)^(-1) e_0 = 1 / (x - f / g) = g / (x g - f),
    reduced since f and g are coprime, over the monic x g - f, and its
    charpoly det(xI - C) = phi (x - f / g) = (phi / g) (x g - f), so its
    cofactor is the companion's own.  Companions equal up to relabeling
    (`canonical_key`) share one form.
    """
    family = corona_family(host, family)
    keys = [canonical_key(g) for g in family]
    cones = {}
    for key, g in zip(keys, family):
        if key not in cones:
            form = resolvent_form(g.adjacency(), (Fraction(1),) * g.n)
            cones[key] = ResolventForm(form.den, Polynomial.x() * form.den - form.num, form.cofactor, form.hermitian)
    return CoupledBlocks([cones[key] for key in keys], host_rho(host))


# -- shortcut preconditions ----------------------------------------------------


def require_regular(spec: JoinSpec) -> None:
    """Refuse the spec unless it is a plain join of regular, non-empty components."""
    _require_plain(spec)
    if any(g.regular_degree() is None for g in spec.components):
        raise PreconditionError("regular shortcut needs every component regular")
    if any(g.n == 0 for g in spec.components):
        raise PreconditionError("every component needs at least one vertex")


def require_balanced(spec: JoinSpec) -> None:
    """Refuse the spec unless it is a plain join with alpha + delta = 0 (of
    `spec.params`) and non-empty components."""
    _require_plain(spec)
    a, d = spec.params.alpha, spec.params.delta
    if a + d != 0:
        raise PreconditionError(f"shortcut needs alpha + delta = 0, got {a} + {d}")
    if any(g.n == 0 for g in spec.components):
        raise PreconditionError("every component needs at least one vertex")
