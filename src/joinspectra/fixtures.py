"""Golden regression fixtures.

The centerpiece is a 10-vertex mixed join: a 3-path host whose vertices carry
a 3-path, a 4-vertex star (hub at index 2), and an edge plus an isolated
vertex.  Its characteristic polynomial and per-block resolvents are known in
closed form, as are those of its subset-constrained variant, so both serve as
exact end-to-end regressions for every route in the package.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import Graph, VertexSubset
from .joins import JoinSpec, UniversalParams, corona_as_hjoin
from .matrices import charpoly, cleared_rows, interpolated_det
from .oracle import check
from .polynomials import Polynomial
from .records import Record
from .resolvent import resolvent_form
from .roots import real_roots
from .spectra import (
    CoupledBlocks,
    corona_blocks,
    coupled_charpoly,
    coupled_spectrum,
    degree_shift_spec,
    join_blocks,
    universal_blocks,
)
from .verification import CONSTRUCTIONS


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
    """The glued charpoly with Phi by `interpolated_det`, the form that takes any rows, to check the others."""
    rows = cleared_rows([f.num for f in cb.forms], [f.den for f in cb.forms], cb.rho)
    return product([interpolated_det(rows)] + [f.cofactor for f in cb.forms])


def multisets_close(a, b, tol: float) -> bool:
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= tol * max(1.0, abs(x)) for x, y in zip(sorted(a), sorted(b)))


class FixtureResult(Record):
    """One fixture row: its name, the route it ran, pass or fail, and the detail."""

    __slots__ = ("name", "route", "passed", "detail")

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

    def run_on(name, key, spec, fn, *options):
        """A row on CONSTRUCTIONS[key](spec, *options), labelled with its route name:
        fn(blocks, truth) gives the verdict."""
        try:
            route, cb, truth = CONSTRUCTIONS[key](spec, *options)
        except Exception as exc:  # report, never abort the table
            out.append(FixtureResult(name, key, False, f"error: {exc}"))
            return
        run(name, route, lambda: fn(cb, truth))

    def check_poly(cb: CoupledBlocks, expected: Polynomial, truth):
        formula = coupled_charpoly(cb)
        verdict = check(formula, expected)
        if verdict and not with_oracle:
            return True, "matches the closed form"
        if verdict:
            verdict = check(formula, truth())
        return verdict.equal, verdict.detail

    run_on("mixed-join charpoly", "universal", mixed, lambda cb, truth: check_poly(cb, expected_mixed, truth))

    def resolvents_match(graphs, vectors, wanted):
        for g, u, (num, den) in zip(graphs, vectors, wanted):
            form = resolvent_form(g.adjacency(), u)
            if (form.num, form.den) != (num, den):
                return False, f"resolvent ({form.num}) / ({form.den}) != ({num}) / ({den})"
        return True, "all three reduced forms match"

    ones = [[1] * g.n for g in mixed.components]
    run("mixed-join resolvents", "resolvent", lambda: resolvents_match(mixed.components, ones, mixed_join_resolvents()))

    run_on("subset-join charpoly", "subset", subset, lambda cb, truth: check_poly(cb, expected_subset, truth))

    indicators = [s.indicator() for s in subset.subsets]
    run(
        "subset-join resolvents",
        "resolvent",
        lambda: resolvents_match(subset.components, indicators, subset_join_resolvents()),
    )

    def mixed_spectrum(cb, truth):
        report = coupled_spectrum(cb)
        values = report.eigenvalues()
        if len(values) != 10:
            return False, f"{len(values)} eigenvalues reported"
        if with_oracle:
            return check(report.charpoly, truth(), values, tol).equal, "numeric union vs dense eigensolver"
        return True, "accounting complete"

    run_on("mixed-join spectrum", "universal", mixed, mixed_spectrum)

    def subset_spectrum(cb, truth):
        report = coupled_spectrum(cb)
        values = report.eigenvalues()
        zeros = sum(1 for v in values if abs(v) <= 1e-7)
        if zeros != 4:
            return False, f"expected root 0 with multiplicity 4, saw {zeros}"
        if with_oracle:
            return check(report.charpoly, truth(), values, tol).equal, "numeric union vs dense eigensolver"
        return True, "zero multiplicity correct"

    run_on("subset-join spectrum", "subset", subset, subset_spectrum)

    def laplacian_shortcut(cb, _truth):
        # the classified spectrum against the roots of the charpoly with the general Phi
        ok = multisets_close(coupled_spectrum(cb).eigenvalues(), real_roots(poly_det_charpoly(cb)), tol)
        return ok, "shortcut vs general route multisets"

    laplacian = mixed_join_spec().with_universal(UniversalParams.laplacian())
    run_on("laplacian shortcut", "balanced", laplacian, laplacian_shortcut)

    def regular_shortcut(cb, _truth):
        want = [-1.0, -1.0, -1.0, 3.0]
        return multisets_close(coupled_spectrum(cb).eigenvalues(), want, tol), "complete-graph join spectrum"

    complete = JoinSpec(Graph.complete(2), (Graph.complete(2), Graph.complete(2)), universal=adjacency)
    run_on("regular shortcut", "regular", complete, regular_shortcut)

    corona = JoinSpec(Graph.path(2), (Graph(1), Graph(1)))

    def corona_routes(cb, truth):
        direct = coupled_charpoly(corona_blocks(Graph(1), (Graph(1),)))
        if direct != Polynomial((-1, 0, 1)):
            return False, f"single-vertex corona gave {direct}"
        d2 = coupled_charpoly(cb)
        if d2 != charpoly(Graph.path(4).adjacency()):
            return False, "2-path corona is not the 4-path"
        if d2 != coupled_charpoly(join_blocks(corona_as_hjoin(corona.host, corona.components))):
            return False, "corona routes disagree"
        if with_oracle and not check(d2, truth()):
            return False, "corona vs dense oracle"
        return True, "both constructions agree"

    run_on("corona routes", "corona", corona, corona_routes)

    def lex_routes(cb, truth):
        # the lexicographic product is the join whose components are all the inner graph
        edge = JoinSpec(Graph.complete(2), (Graph(1),) * 2, universal=adjacency)
        if coupled_charpoly(universal_blocks(edge)) != Polynomial((-1, 0, 1)):
            return False, "2-clique of a point is not the single edge"
        via_lex = coupled_charpoly(cb)
        if via_lex != poly_det_charpoly(cb):
            return False, "closed-form vs general Phi"
        if with_oracle and not check(via_lex, truth()):
            return False, "lexicographic vs dense oracle"
        return True, "product form matches the join route"

    lex = JoinSpec(Graph.path(3), (Graph.complete(2),) * 3, universal=adjacency)
    run_on("lexicographic routes", "lex", lex, lex_routes)

    base, half = mixed_join_spec(), Fraction(1, 2)

    def degree_shift(cb, truth):
        at_zero = coupled_charpoly(universal_blocks(degree_shift_spec(base, 0)))
        if at_zero != expected_mixed:
            return False, "t = 0 does not reduce to the adjacency charpoly"
        if with_oracle:
            verdict = check(coupled_charpoly(cb), truth())
            return verdict.equal, verdict.detail
        return True, "t = 0 reduction holds"

    run_on("degree-shift charpoly", "degree-shift", base, degree_shift, half)

    return out
