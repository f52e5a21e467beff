"""Resolvent forms v^T (xI - M)^{-1} u as exact reduced quotients.

Unreduced, a form is v^T adj(xI - M) u / det(xI - M), and one kernel pass
gives both.  Bordering M by the two vectors, B = [[0, v^T], [u, M]], and
expanding det(xI - B) along its first row gives det(xI - B) =
x det(xI - M) - v^T adj(xI - M) u; `kernel.charpoly_bordered_int` reads
det(xI - B) and det(xI - M) off one pass: a reduction of B (Hessenberg, or
Lanczos's tridiagonal form for a symmetric M of 15 or more rows with v a
multiple of u), or, for a smaller such M, one fraction-free elimination at
x = 2^w whose last two pivots hold both polynomials.  So
v^T (xI - M)^{-1} u = (x phi_M - phi_B) / phi_M, with no second pass.
The pass returns both polynomials as integers for D * M, and one gcd of those
integers (`polynomials._int_gcd`) gives the gcd and both quotients, so each
of the three reduced polynomials is descaled once and nothing is divided.
That one path serves every form.  When u = v is an eigenvector of M,
M u = mu u, the numerator is |u|^2 phi_M / (x - mu), the gcd is
phi_M / (x - mu), and the form reduces to |u|^2 / (x - mu) with that gcd as
its cofactor: the case of Fiedler's lemma, a main function with one pole.
That case needs no gcd search: one division of phi_M by x - mu, checked
coefficient by coefficient against the numerator (`_eigenvector_split`),
finds it in O(n) steps and turns any other block away after one or two.
All-ones is such a vector for every block of a join of regular graphs and for
every Laplacian-type block (alpha + delta = 0).

A form is kept reduced: numerator and denominator coprime, the denominator
monic, the zero form stored as 0/1, so structural equality coincides with
mathematical equality.  For a symmetric matrix with u = v the reduced
denominator is the product of (x - mu) over exactly the eigenvalues mu whose
eigenspace is not orthogonal to u -- the "main" eigenvalues seen from u --
each appearing once, so `main_poles` reads those eigenvalues off it without
ever leaving the rationals.

A form is all that the coupled-block path keeps of a block, so it also holds
the cofactor phi_M / g that the reduction cancels: a glued charpoly is Phi
times the blocks' cofactors (`spectra`).  `resolvent_form` is the one producer
of a form from a dense (M, u, v), and it records whether M is symmetric with
u = v, the per-block half of the precondition of a real spectrum.  A form
of M gives those of M + sI, cM and M + gamma u v^T without a kernel pass,
each reduced and canonical: every polynomial p becomes p(x - s)
(`ResolventForm.translated`); the numerator, denominator and cofactor become
c^(d-1) f(x/c), c^d g(x/c) and c^m q(x/c) (`scaled`); the denominator
becomes g - gamma f (`rank_one_updated`).  A universal block is its sparse
integer part under these three maps (`spectra.universal_blocks`).
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import PreconditionError, ShapeError
from .kernel import charpoly_bordered_int
from .matrices import RationalMatrix, as_vector, descale
from .polynomials import Polynomial, _int_gcd, clear_denominators
from .records import Record
from .roots import real_roots


class ResolventForm(Record):
    """v^T (xI - M)^{-1} u = num / den, reduced (see the module docstring),
    cofactor = det(xI - M) / den, what the reduction cancelled, and hermitian:
    whether M is symmetric and v = u, so that the block has a real spectrum."""

    __slots__ = ("num", "den", "cofactor", "hermitian")

    num: Polynomial
    den: Polynomial
    cofactor: Polynomial
    hermitian: bool

    def translated(self, s) -> "ResolventForm":
        """The form of M + sI with the same vectors: (xI - M - sI)^(-1) is
        ((x - s)I - M)^(-1), so every polynomial p becomes p(x - s), which
        keeps the form reduced and its denominator and cofactor monic."""
        if not s:
            return self
        return ResolventForm(self.num.translated(s), self.den.translated(s), self.cofactor.translated(s), self.hermitian)

    def scaled(self, c) -> "ResolventForm":
        """The form of cM, c nonzero, with the same vectors: (xI - cM)^(-1) is
        (x/c I - M)^(-1) / c, so with d = deg den the form is
        c^(d-1) num(x/c) / c^d den(x/c), still reduced with a monic
        denominator, and the cofactor c^m cofactor(x/c), m = n - d its degree
        (`Polynomial.dilated`)."""
        if c == 1:
            return self
        return ResolventForm(self.num.dilated(c, self.den.degree - 1), self.den.dilated(c), self.cofactor.dilated(c), self.hermitian)

    def rank_one_updated(self, gamma) -> "ResolventForm":
        """The form of M + gamma u v^T with the same vectors (Sherman-Morrison):
        with r = f / g, v^T (xI - M - gamma u v^T)^(-1) u = r / (1 - gamma r) =
        f / (g - gamma f), whose denominator stays monic as deg f < deg g and
        coprime to f, and det(xI - M - gamma u v^T) = det(xI - M) (1 - gamma r)
        = cofactor (g - gamma f), so the cofactor does not change."""
        if not gamma:
            return self
        return ResolventForm(self.num, self.den - self.num * gamma, self.cofactor, self.hermitian)


def resolvent_form(m: RationalMatrix, u: Sequence, v: Sequence | None = None) -> ResolventForm:
    """Exact v^T (xI - M)^{-1} u, reduced; v defaults to u.

    Computed as v^T adj(xI - M) u / phi_M from one bordered kernel pass and
    reduced by one gcd of its integers (see the module docstring).  The pass
    runs on integers: with d clearing the denominators of M, du those of u
    and dv those of v, it takes D * M, du * u and (D / du) * v, D the lcm of
    d and du * dv, whose outer product is D u v^T.
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
    hermitian = vv == uu and m.is_symmetric()
    common = math.lcm(d, du * math.lcm(*[x.denominator for x in vv]))
    if common != d:
        ints = [x * (common // d) for x in ints]
    v_ints = [x.numerator * (common // (du * x.denominator)) for x in vv]
    phi, num = charpoly_bordered_int(ints, n, u_ints, v_ints)
    while num and not num[-1]:
        num.pop()
    # the kernel's phi is D^n phi_M(x / D), monic, so its gcd g with num and
    # its quotient by g are monic too: descaled, they are the cofactor and the
    # reduced denominator, and num / g the reduced numerator.  A zero
    # numerator has gcd phi and reduces to 0/1
    g, num, den = _eigenvector_split(num, phi) or _int_gcd(num, phi)
    return ResolventForm(descale(num, common, n + 1 - len(g)), descale(den, common), descale(g, common), hermitian)


def _eigenvector_split(num: list[int], phi: list[int]) -> tuple[list[int], list[int], list[int]] | None:
    """`_int_gcd(num, phi)` when phi = (x - mu) q and num = c q for a monic q
    of degree n - 1 >= 1, as for an eigenvector u: the gcd is q, and the
    form reduces to c / (x - mu).  Else None.

    q[n - 2] = num[n - 2] / c fixes mu = q[n - 2] - phi[n - 1]; phi is then
    divided by x - mu from the top, q[k - 1] = phi[k] + mu q[k], each
    coefficient checked against num's at once and the remainder -mu q[0]
    against phi[0].  So a block whose u is no eigenvector is usually turned
    away by the first or second coefficient.
    """
    n = len(num)
    if n < 2 or len(phi) != n + 1:
        return None
    c = num[-1]
    top, rem = divmod(num[-2], c)
    if rem:
        return None
    mu = top - phi[-2]
    q = [1, top]
    for k in range(n - 2, 0, -1):
        q.append(phi[k] + mu * q[-1])
        if num[k - 1] != c * q[-1]:
            return None
    if phi[0] != -mu * q[-1]:
        return None
    return q[::-1], [c], [-mu, 1]


def main_poles(m: RationalMatrix, u: Sequence) -> list[float]:
    """Numeric poles of u^T (xI - M)^{-1} u for a symmetric M: the
    eigenvalues whose eigenspaces see u, each once."""
    if not m.is_symmetric():
        raise PreconditionError("poles classify eigenvalues only for symmetric matrices")
    return real_roots(resolvent_form(m, u).den)
