"""Resolvent forms v^T (xI - M)^{-1} u as exact rational functions.

A form needs only two characteristic polynomials.  By the matrix
determinant lemma, det(xI - M - u v^T) = det(xI - M) (1 - v^T (xI - M)^{-1} u),
so v^T (xI - M)^{-1} u = (phi_M - phi_{M + u v^T}) / phi_M, and the
numerator is exactly v^T adj(xI - M) u.  One suffices when u = v is an
eigenvector of M, M u = mu u: the form is then |u|^2 / (x - mu) (the case of
Fiedler's lemma), and `charpoly_and_update` detects it on the integers it
has already cleared.  All-ones is such a vector for every block of a join of
regular graphs and for every Laplacian-type block (alpha + delta = 0).

For a symmetric matrix with u = v the reduced denominator is the product of
(x - mu) over exactly the eigenvalues mu whose eigenspace is not orthogonal
to u -- the "main" eigenvalues seen from u -- each appearing once.  Poles of
the form therefore detect those eigenvalues without ever leaving the
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .errors import DomainError, PreconditionError
from .matrices import RationalMatrix, as_vector, charpoly_and_update, dot
from .polynomials import (
    Polynomial,
    RationalFunction,
    as_fraction,
    is_square_free,
)
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


def resolvent_form(m: RationalMatrix, u: Sequence, v: Sequence | None = None) -> ResolventForm:
    """Exact v^T (xI - M)^{-1} u, reduced; v defaults to u.

    Computed as (phi_M - phi_{M + u v^T}) / phi_M from two
    characteristic polynomials, or as `eigenvector_resolvent` from phi_M
    alone when u = v is an eigenvector of M (see the module docstring).
    """
    uu = as_vector(u)
    vv = uu if v is None else as_vector(v)
    phi, updated, mu = charpoly_and_update(m, uu, vv)
    hermitian = vv == uu and m.is_symmetric()
    if mu is not None:
        return replace(eigenvector_resolvent(mu, dot(uu, uu), m.rows), hermitian=hermitian, charpoly=phi)
    return ResolventForm(
        func=RationalFunction(phi - updated, phi),
        dim=m.rows,
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
    return ResolventForm(func=form.func.shift(c), dim=form.dim, hermitian=form.hermitian)
