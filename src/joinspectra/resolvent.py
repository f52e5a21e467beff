"""Resolvent forms v^T (xI - M)^{-1} u as exact rational functions.

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

For a symmetric matrix with u = v the reduced denominator is the product of
(x - mu) over exactly the eigenvalues mu whose eigenspace is not orthogonal
to u -- the "main" eigenvalues seen from u -- each appearing once.  Poles of
the form therefore detect those eigenvalues without ever leaving the
rationals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError, PreconditionError, ShapeError
from .kernel import charpoly_bordered_int
from .matrices import RationalMatrix, as_vector, charpoly, descale
from .polynomials import Polynomial, RationalFunction, as_fraction, clear_denominators, is_square_free
from .roots import real_roots


@dataclass(frozen=True)
class ResolventForm:
    """A reduced resolvent quotient plus provenance needed for pole claims.

    charpoly is the unreduced denominator det(xI - M) of a form that
    `resolvent_form` computed, and None on a form built any other way.
    """

    func: RationalFunction
    dim: Optional[int]
    hermitian: bool
    charpoly: Optional[Polynomial] = None

    @property
    def num(self) -> Polynomial:
        """Numerator of the reduced form."""
        return self.func.num

    @property
    def den(self) -> Polynomial:
        """Denominator of the reduced form (monic)."""
        return self.func.den

    def __call__(self, x):
        return self.func(x)


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

    Computed as v^T adj(xI - M) u / phi_M from one bordered kernel pass, or
    as `eigenvector_resolvent` from phi_M alone when u = v is an eigenvector
    of M (see the module docstring).  Both run on integers: with d clearing
    the denominators of M, du those of u and dv those of v, the eigenvector
    test runs on d * M and du * u, and the pass on D * M, du * u and
    (D / du) * v, D the lcm of d and du * dv, whose outer product is D u v^T.
    """
    uu = as_vector(u)
    vv = uu if v is None else as_vector(v)
    if not m.is_square:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    n = m.rows
    if len(uu) != n or len(vv) != n:
        raise ShapeError(f"vector length must be {n}")
    hermitian = vv == uu and m.is_symmetric()
    ints, d = m.nums, m.den
    u_ints, du = clear_denominators(uu)
    if vv == uu:
        mu = _int_eigenvalue(ints, n, u_ints)
        if mu is not None:
            form = eigenvector_resolvent(mu / d, Fraction(sum(x * x for x in u_ints), du * du), n)
            return replace(form, hermitian=hermitian, charpoly=charpoly(m))
    common = math.lcm(d, du * math.lcm(*[x.denominator for x in vv]))
    if common != d:
        ints = [x * (common // d) for x in ints]
    v_ints = [x.numerator * (common // (du * x.denominator)) for x in vv]
    phi, num = charpoly_bordered_int(ints, n, u_ints, v_ints)
    phi = descale(phi, common)
    return ResolventForm(
        func=RationalFunction(descale(num, common, n), phi),
        dim=n,
        hermitian=hermitian,
        charpoly=phi,
    )


def eigenvector_resolvent(mu, norm_sq, dim: Optional[int] = None) -> ResolventForm:
    """Shortcut when u is an eigenvector for eigenvalue mu: |u|^2 / (x - mu)."""
    mu = as_fraction(mu)
    norm_sq = as_fraction(norm_sq)
    if norm_sq <= 0:
        raise DomainError(f"squared norm must be positive, got {norm_sq}")
    return ResolventForm(
        func=RationalFunction(Polynomial.constant(norm_sq), Polynomial((-mu, 1))),
        dim=dim,
        hermitian=True,
    )


def main_poles(form: ResolventForm) -> list[float]:
    """Numeric poles: the eigenvalues whose eigenspaces see u.

    Only meaningful for the symmetric u = v case, where every pole is simple;
    asymmetric forms are rejected.
    """
    if not form.hermitian:
        raise PreconditionError("poles classify eigenvalues only for symmetric matrices with u = v")
    g = form.den
    if g.degree <= 0:
        return []
    if not is_square_free(g):
        raise ArithmeticError("denominator unexpectedly has a repeated root")
    return real_roots(g)


def shifted(form: ResolventForm, c) -> ResolventForm:
    """Substitute x -> x - c; equals the resolvent of M + c*I with the same vectors."""
    func = RationalFunction(form.num.shift(c), form.den.shift(c))
    return ResolventForm(func=func, dim=form.dim, hermitian=form.hermitian)
