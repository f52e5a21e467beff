"""Resolvent forms v^T (xI - M)^{-1} u as exact reduced quotients.

A form is det(xI - M) and the numerator v^T adj(xI - M) u, and one kernel
pass gives both.  Bordering M by the two vectors,
B = [[0, v^T], [u, M]], and expanding det(xI - B) along its first row gives
det(xI - B) = x det(xI - M) - v^T adj(xI - M) u; `kernel.charpoly_bordered_int`
reduces B once and reads det(xI - B) and det(xI - M) off the same Hessenberg
form.  So v^T (xI - M)^{-1} u = (x phi_M - phi_B) / phi_M, with no second
reduction.  When u = v is an eigenvector of M, M u = mu u, phi_M alone
suffices: the form is then |u|^2 / (x - mu) (the case of Fiedler's lemma),
and `resolvent_form` detects it on the integers it has already cleared.
All-ones is such a vector for every block of a join of regular graphs and
for every Laplacian-type block (alpha + delta = 0).

A form is kept reduced: numerator and denominator coprime, the denominator
monic, the zero form stored as 0/1, so structural equality coincides with
mathematical equality.  For a symmetric matrix with u = v the reduced
denominator is the product of (x - mu) over exactly the eigenvalues mu whose
eigenspace is not orthogonal to u -- the "main" eigenvalues seen from u --
each appearing once, so `main_poles` reads those eigenvalues off it without
ever leaving the rationals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError, ShapeError
from .kernel import charpoly_bordered_int
from .matrices import RationalMatrix, as_vector, charpoly, descale
from .polynomials import Polynomial, clear_denominators, poly_gcd
from .roots import real_roots


@dataclass(frozen=True)
class ResolventForm:
    """v^T (xI - M)^{-1} u = num / den, reduced (see the module docstring),
    and charpoly = det(xI - M), the denominator before reduction."""

    num: Polynomial
    den: Polynomial
    charpoly: Polynomial


def _int_eigenvalue(a: list[int], n: int, u: list[int]) -> Fraction | None:
    """The mu with A u = mu u, for an n x n integer matrix A (row-major) and
    an integer vector u, or None: u is zero, or a row disagrees.  The rows are
    checked one dot product at a time, and the first disagreeing row stops it.
    """
    pivot = next((i for i, x in enumerate(u) if x), None)
    if pivot is None:
        return None
    up = u[pivot]
    top = sum(map(operator.mul, a[pivot * n : (pivot + 1) * n], u))
    for i in range(n):
        if sum(map(operator.mul, a[i * n : (i + 1) * n], u)) * up != top * u[i]:
            return None
    return Fraction(top, up)


def resolvent_form(m: RationalMatrix, u: Sequence, v: Sequence | None = None) -> ResolventForm:
    """Exact v^T (xI - M)^{-1} u, reduced; v defaults to u.

    Computed as v^T adj(xI - M) u / phi_M from one bordered kernel pass and
    reduced by one gcd, or as |u|^2 / (x - mu), already reduced, from phi_M
    alone when u = v is an eigenvector of M (see the module docstring).  Both
    run on integers: with d clearing the denominators of M, du those of u and
    dv those of v, the eigenvector test runs on d * M and du * u, and the pass
    on D * M, du * u and (D / du) * v, D the lcm of d and du * dv, whose outer
    product is D u v^T.
    """
    uu = as_vector(u)
    vv = uu if v is None else as_vector(v)
    if not m.is_square:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    n = m.rows
    if len(uu) != n or len(vv) != n:
        raise ShapeError(f"vector length must be {n}")
    ints, d = m.nums, m.den
    u_ints, du = clear_denominators(uu)
    if vv == uu:
        mu = _int_eigenvalue(ints, n, u_ints)
        if mu is not None:
            norm_sq = Fraction(sum(x * x for x in u_ints), du * du)
            return ResolventForm(Polynomial((norm_sq,)), Polynomial((-mu / d, 1)), charpoly(m))
    common = math.lcm(d, du * math.lcm(*[x.denominator for x in vv]))
    if common != d:
        ints = [x * (common // d) for x in ints]
    v_ints = [x.numerator * (common // (du * x.denominator)) for x in vv]
    phi, num = charpoly_bordered_int(ints, n, u_ints, v_ints)
    phi = descale(phi, common)
    num = descale(num, common, n)
    # phi and the gcd are monic, so the reduced denominator is too; a zero
    # numerator has gcd phi and reduces to 0/1
    g = poly_gcd(num, phi)
    return ResolventForm(num.exact_div(g), phi.exact_div(g), phi)


def main_poles(m: RationalMatrix, u: Sequence) -> list[float]:
    """Numeric poles of u^T (xI - M)^{-1} u for a symmetric M: the
    eigenvalues whose eigenspaces see u, each once."""
    if not m.is_symmetric():
        raise PreconditionError("poles classify eigenvalues only for symmetric matrices")
    return real_roots(resolvent_form(m, u).den)
