"""Golden regression fixtures.

The centerpiece is a 10-vertex mixed join: a 3-path host whose vertices carry
a 3-path, a 4-vertex star (hub at index 2), and an edge plus an isolated
vertex.  Its characteristic polynomial and per-block resolvents are known in
closed form, as are those of its subset-constrained variant, so both serve as
exact end-to-end regressions for every route in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, VertexSubset
from .joins import JoinSpec, UniversalParams, generalized_corona, h_join, lexicographic, universal_matrix
from .matrices import charpoly, poly_det
from .oracle import check, join_truth
from .polynomials import Polynomial
from .resolvent import resolvent_form
from .spectra import (
    CoupledBlocks,
    corona_charpoly,
    corona_charpoly_via_join,
    generalized_charpoly,
    hgen_join_charpoly,
    hgen_join_spectrum,
    hjoin_universal_charpoly,
    hjoin_universal_spectrum,
    hjoin_universal_spectrum_alpha_delta_zero,
    hjoin_universal_spectrum_regular,
    universal_blocks,
)


def mixed_join_spec() -> JoinSpec:
    """3-path host over {3-path, star with hub at index 2, edge + isolated vertex}."""
    host = Graph.path(3)
    components = (
        Graph.path(3),
        Graph(4, [(0, 2), (1, 2), (2, 3)]),
        Graph(3, [(0, 1)]),
    )
    return JoinSpec(host, components)


def subset_join_spec() -> JoinSpec:
    base = mixed_join_spec()
    subsets = (
        VertexSubset(3, (0, 1)),
        VertexSubset(4, (0, 1, 3)),
        VertexSubset(3, (1, 2)),
    )
    return JoinSpec(base.host, base.components, subsets=subsets)


def mixed_join_charpoly_factors() -> list[Polynomial]:
    return [
        Polynomial((0, 0, 0, 1)),  # x^3
        Polynomial((-6, -1, 4, 1)),
        Polynomial((2, -8, -5, 1)),
        Polynomial((1, 1)),
    ]


def subset_join_charpoly_factors() -> list[Polynomial]:
    return [
        Polynomial((0, 0, 0, 0, 1)),  # x^4
        Polynomial((-15, 6, 35, -6, -18, 0, 1)),
    ]


def mixed_join_resolvents() -> list[tuple[Polynomial, Polynomial]]:
    """The reduced all-ones resolvent (num, den) of each mixed-join component."""
    return [
        (Polynomial((4, 3)), Polynomial((-2, 0, 1))),
        (Polynomial((6, 4)), Polynomial((-3, 0, 1))),
        (Polynomial((-1, 3)), Polynomial((0, -1, 1))),
    ]


def subset_join_resolvents() -> list[tuple[Polynomial, Polynomial]]:
    """The reduced subset-indicator resolvent (num, den) of each subset-join component."""
    return [
        (Polynomial((-1, 2, 2)), Polynomial((0, -2, 0, 1))),
        (Polynomial((0, 3)), Polynomial((-3, 0, 1))),
        (Polynomial((-1, 0, 2)), Polynomial((0, -1, 0, 1))),
    ]


def product(polys) -> Polynomial:
    out = Polynomial.one()
    for p in polys:
        out = out * p
    return out


def poly_det_charpoly(cb: CoupledBlocks) -> Polynomial:
    """The glued charpoly with Phi by `poly_det` on the coupling rows: the general Phi, to check the others."""
    forms = [resolvent_form(m, u, v) for m, u, v in cb.blocks]
    rows = [[f.den if i == j else -r * f.num for j, r in enumerate(cb.rho[i])] for i, f in enumerate(forms)]
    return product([poly_det(rows)] + [f.charpoly.exact_div(f.den) for f in forms])


def multisets_close(a, b, tol: float) -> bool:
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= tol * max(1.0, abs(x)) for x, y in zip(sorted(a), sorted(b)))


@dataclass(frozen=True)
class FixtureResult:
    name: str
    route: str
    passed: bool
    detail: str


def _result(name: str, route: str, cond: bool, detail: str = "") -> FixtureResult:
    return FixtureResult(name, route, cond, detail if detail else ("ok" if cond else "mismatch"))


def run_fixture_checks(tol: float = 1e-8, with_oracle: bool = True) -> list[FixtureResult]:
    """Run every golden check; oracle comparisons can be switched off.

    tol is the relative eigenvalue tolerance of the spectrum comparisons.
    """
    out: list[FixtureResult] = []
    adjacency = UniversalParams.adjacency()
    mixed = mixed_join_spec().with_universal(adjacency)
    subset = subset_join_spec()
    expected_mixed = product(mixed_join_charpoly_factors())
    expected_subset = product(subset_join_charpoly_factors())

    def run(name, route, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # report, never abort the table
            out.append(FixtureResult(name, route, False, f"error: {exc}"))
            return
        out.append(_result(name, route, ok, detail))

    def check_poly(formula: Polynomial, expected: Polynomial, spec: JoinSpec):
        verdict = check(formula, expected)
        if verdict and not with_oracle:
            return True, "matches the closed form"
        if verdict:
            verdict = check(formula, join_truth(spec))
        return verdict.equal, verdict.detail

    run(
        "mixed-join charpoly",
        "universal-join",
        lambda: check_poly(hjoin_universal_charpoly(mixed), expected_mixed, mixed_join_spec()),
    )

    def resolvents_match(graphs, vectors, wanted):
        for g, u, (num, den) in zip(graphs, vectors, wanted):
            form = resolvent_form(g.adjacency(), u)
            if (form.num, form.den) != (num, den):
                return False, f"resolvent ({form.num}) / ({form.den}) != ({num}) / ({den})"
        return True, "all three reduced forms match"

    ones = [[1] * g.n for g in mixed.components]
    run("mixed-join resolvents", "resolvent", lambda: resolvents_match(mixed.components, ones, mixed_join_resolvents()))

    run(
        "subset-join charpoly",
        "subset-join",
        lambda: check_poly(hgen_join_charpoly(subset), expected_subset, subset),
    )

    indicators = [s.indicator() for s in subset.subsets]
    run(
        "subset-join resolvents",
        "resolvent",
        lambda: resolvents_match(subset.components, indicators, subset_join_resolvents()),
    )

    def mixed_spectrum():
        report = hjoin_universal_spectrum(mixed)
        values = report.eigenvalues()
        if len(values) != 10:
            return False, f"{len(values)} eigenvalues reported"
        if with_oracle:
            return check(report.charpoly, join_truth(mixed), values, tol).equal, "numeric union vs dense eigensolver"
        return True, "accounting complete"

    run("mixed-join spectrum", "universal-join", mixed_spectrum)

    def subset_spectrum():
        report = hgen_join_spectrum(subset)
        values = report.eigenvalues()
        zeros = sum(1 for v in values if abs(v) <= 1e-7)
        if zeros != 4:
            return False, f"expected root 0 with multiplicity 4, saw {zeros}"
        if with_oracle:
            return check(report.charpoly, join_truth(subset), values, tol).equal, "numeric union vs dense eigensolver"
        return True, "zero multiplicity correct"

    run("subset-join spectrum", "subset-join", subset_spectrum)

    def laplacian_shortcut():
        spec = mixed_join_spec().with_universal(UniversalParams.laplacian())
        report = hjoin_universal_spectrum_alpha_delta_zero(spec)
        general = hjoin_universal_spectrum(spec)
        ok = multisets_close(report.eigenvalues(), general.eigenvalues(), tol)
        return ok, "shortcut vs general route multisets"

    run("laplacian shortcut", "balanced-shortcut", laplacian_shortcut)

    def regular_shortcut():
        spec = JoinSpec(Graph.complete(2), (Graph.complete(2), Graph.complete(2)), universal=adjacency)
        report = hjoin_universal_spectrum_regular(spec)
        want = [-1.0, -1.0, -1.0, 3.0]
        return multisets_close(report.eigenvalues(), want, tol), "complete-graph join spectrum"

    run("regular shortcut", "regular-shortcut", regular_shortcut)

    def corona_routes():
        host = Graph(1)
        direct = corona_charpoly(host, (Graph(1),))
        if direct != Polynomial((-1, 0, 1)):
            return False, f"single-vertex corona gave {direct}"
        host2 = Graph.path(2)
        fam = (Graph(1), Graph(1))
        d2 = corona_charpoly(host2, fam)
        if d2 != charpoly(Graph.path(4).adjacency()):
            return False, "2-path corona is not the 4-path"
        if d2 != corona_charpoly_via_join(host2, fam):
            return False, "corona routes disagree"
        if with_oracle and not check(d2, generalized_corona(host2, fam).adjacency()):
            return False, "corona vs dense oracle"
        return True, "both constructions agree"

    run("corona routes", "corona", corona_routes)

    def lex_routes():
        # the lexicographic product is the join whose components are all the inner graph
        edge = JoinSpec(Graph.complete(2), (Graph(1),) * 2, universal=adjacency)
        if hjoin_universal_charpoly(edge) != Polynomial((-1, 0, 1)):
            return False, "2-clique of a point is not the single edge"
        host, inner = Graph.path(3), Graph.complete(2)
        spec = JoinSpec(host, (inner,) * 3, universal=adjacency)
        via_lex = hjoin_universal_charpoly(spec)
        if via_lex != poly_det_charpoly(universal_blocks(spec)):
            return False, "closed-form vs general Phi"
        if with_oracle and not check(via_lex, universal_matrix(lexicographic(host, inner), adjacency)):
            return False, "lexicographic vs dense oracle"
        return True, "product form matches the join route"

    run("lexicographic routes", "lexicographic", lex_routes)

    def degree_shift():
        base = mixed_join_spec()
        at_zero = generalized_charpoly(base, 0)
        if at_zero != expected_mixed:
            return False, "t = 0 does not reduce to the adjacency charpoly"
        if with_oracle:
            t = Fraction(1, 2)
            g = h_join(base)
            m = g.adjacency() - g.degree_matrix() * t
            verdict = check(generalized_charpoly(base, t), m)
            return verdict.equal, verdict.detail
        return True, "t = 0 reduction holds"

    run("degree-shift charpoly", "degree-shift", degree_shift)

    return out
