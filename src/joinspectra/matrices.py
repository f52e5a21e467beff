"""Exact dense rational matrices and determinant/characteristic-polynomial ops.

A characteristic polynomial clears the matrix's denominators and hands the
integer matrix to `kernel.charpoly_int`, the multimodular Hessenberg kernel
that every route uses, so it is exact.  Two forms of the coupling
determinant Phi of `spectra.coupling_poly` live here.  `realization_charpoly`
is the charpoly of the glued companion realization, one kernel call of dimension
D = sum deg g_i.  `poly_det`, the determinant of a polynomial matrix, clears
each row's denominators, evaluates the integer determinant (fraction-free
Bareiss) at B + 1 integer points, B the sum of the row degrees, and
interpolates exactly in the integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .errors import ShapeError
from .kernel import charpoly_int
from .polynomials import Polynomial, _cleared, _horner, as_fraction

Vector = tuple[Fraction, ...]


def as_vector(items: Iterable) -> Vector:
    return tuple(as_fraction(x) for x in items)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ShapeError(f"dot of length {len(u)} with length {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


class RationalMatrix:
    """Immutable row-major matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __init__(self, rows: int, cols: int, entries: Iterable):
        es = tuple(as_fraction(x) for x in entries)
        if rows < 0 or cols < 0 or len(es) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(es)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", es)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ShapeError("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition shape mismatch")
        return RationalMatrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix subtraction shape mismatch")
        return RationalMatrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __mul__(self, scalar) -> "RationalMatrix":
        s = as_fraction(scalar)
        return RationalMatrix(self.rows, self.cols, [s * x for x in self.entries])

    __rmul__ = __mul__

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, [-x for x in self.entries])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeError("matrix product shape mismatch")
        n, m, p = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [Fraction(0)] * (n * p)
        for i in range(n):
            for l in range(m):
                ail = a[i * m + l]
                if ail:
                    for j in range(p):
                        out[i * p + j] += ail * b[l * p + j]
        return RationalMatrix(n, p, out)

    def mat_vec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise ShapeError("matrix-vector shape mismatch")
        return tuple(dot(self.row(i), v) for i in range(self.rows))

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows, [self[j, i] for i in range(self.cols) for j in range(self.rows)])

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ShapeError("trace of a non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), Fraction(0))

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        # row i right of the diagonal against column i below it, slice against slice
        e, n = self.entries, self.rows
        return all(e[i * n + i + 1 : (i + 1) * n] == e[(i + 1) * n + i :: n] for i in range(n))

    def to_floats(self) -> list[list[float]]:
        return [[float(x) for x in self.row(i)] for i in range(self.rows)]

    def __repr__(self):
        return f"RationalMatrix.from_rows({[[str(x) for x in self.row(i)] for i in range(self.rows)]})"


def cleared_int_entries(m: RationalMatrix) -> tuple[list[int], int]:
    """(d * M as row-major ints, d), d the lcm of the entries' denominators."""
    d = math.lcm(*[e.denominator for e in m.entries])
    return [e.numerator * (d // e.denominator) for e in m.entries], d


def descale(coeffs: list[int], d: int, n: int | None = None) -> Polynomial:
    """The polynomial whose coefficient of x^j is coeffs[j] / d^(n - j), n
    defaulting to the degree: det(xI - dM) = d^n det(x/d I - M), and a form
    v^T adj(xI - dM) (d u) has d^n times the coefficients of v^T adj(x/d I - M) u."""
    if n is None:
        n = len(coeffs) - 1
    return Polynomial(Fraction(c, d ** (n - j)) for j, c in enumerate(coeffs))


def charpoly_with(kernel: Callable[[list[int], int], list[int]], m: RationalMatrix) -> Polynomial:
    """Exact det(xI - M) from an integer charpoly kernel run on d * M."""
    if not m.is_square:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    ints, d = cleared_int_entries(m)
    return descale(kernel(ints, m.rows), d)


def charpoly(m: RationalMatrix) -> Polynomial:
    """Exact det(xI - M) by the multimodular Hessenberg kernel."""
    return charpoly_with(charpoly_int, m)


def cleared_charpoly(ints: list[int], n: int, d: int) -> Polynomial:
    """`charpoly` of the n x n M whose `cleared_int_entries` are (ints, d)."""
    return descale(charpoly_int(ints, n), d)


def determinant(m: RationalMatrix) -> Fraction:
    """det(M), read off the constant coefficient of det(xI - M)."""
    phi = charpoly(m)
    return phi[0] if m.rows % 2 == 0 else -phi[0]


def _int_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss."""
    k = len(m)
    m = [list(r) for r in m]
    sign = 1
    prev = 1
    for col in range(k - 1):
        piv = next((r for r in range(col, k) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[piv], m[col] = m[col], m[piv]
            sign = -sign
        top = m[col]
        p = top[col]
        for i in range(col + 1, k):
            row = m[i]
            a = row[col]
            m[i] = [0] * (col + 1) + [(p * row[j] - a * top[j]) // prev for j in range(col + 1, k)]
        prev = p
    return sign * m[k - 1][k - 1]


def poly_det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix by evaluation-interpolation.

    Each row is scaled to integer coefficients by the lcm of its
    denominators.  The determinant then has integer coefficients and degree
    at most B, the sum of the row degrees, so its integer values at
    x = 0, 1, ..., B fix it.  The Newton forward-difference form rebuilds it
    exactly in the integers: Delta^j y_0 / j! is the coefficient of the
    falling factorial x(x-1)...(x-j+1), an integer for an integer
    polynomial.  A non-integer quotient can only mean a wrong value, so it
    raises ArithmeticError.  The product of the row scales divides back out.
    """
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ShapeError("polynomial matrix must be square")
    if k == 0:
        return Polynomial.one()
    int_rows: list[list[tuple[int, ...]]] = []
    scale = 1
    bound = 0
    for r in rows:
        den = math.lcm(*[c.denominator for entry in r for c in entry.coeffs])
        degree = max(len(entry.coeffs) for entry in r) - 1
        if degree < 0:
            return Polynomial()
        int_rows.append([tuple(c.numerator * (den // c.denominator) for c in entry.coeffs) for entry in r])
        scale *= den
        bound += degree

    diffs = [_int_det([[_horner(e, x) for e in r] for r in int_rows]) for x in range(bound + 1)]
    # Turn diffs into the falling-factorial coefficients a_j = Delta^j y_0 / j!.
    newton = []
    fact = 1
    for j in range(bound + 1):
        if j:
            fact *= j
        a, rem = divmod(diffs[0], fact)
        if rem:
            raise ArithmeticError(f"interpolated determinant is not integral at difference order {j}")
        newton.append(a)
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
    # Horner in the Newton basis: p = a_0 + x(a_1 + (x - 1)(a_2 + ...)).
    coeffs = [newton[bound]]
    for j in range(bound - 1, -1, -1):
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= j * c
        shifted[0] += newton[j]
        coeffs = shifted
    return Polynomial(Fraction(c, scale) for c in coeffs)


def realization_charpoly(fs: Sequence[Polynomial], gs: Sequence[Polynomial], rho: Sequence[Sequence]) -> Polynomial:
    """det(G - F rho) for G = diag(g_i) monic and F = diag(f_i), deg f_i < deg g_i,
    as det(xI - A) of the glued companion realization (Kalman, 1963).

    Block i of A is the controllable companion of g_i (ones on the
    superdiagonal, -g_0, ..., -g_{d-1} in its last row), and that row also
    holds rho_ji * f_j in block j's columns.  So A = diag(A_i) + B rho^T C
    with C_j (xI - A_j)^{-1} B_j = f_j / g_j, and det(xI - A) =
    prod g_i det(I - rho^T F G^{-1}) = det(G - F rho), for an asymmetric rho
    too.  A block with deg g_i = 0 (so f_i = 0) has no rows, as its row of
    G - F rho is e_i.  The entries are cleared to one denominator L, and the
    kernel runs on L * A.
    """
    k = len(gs)
    *starts, dim = accumulate((g.degree for g in gs), initial=0)
    g_ints, f_ints = [_cleared(g.coeffs[:-1]) for g in gs], [_cleared(f.coeffs) for f in fs]
    pairs = ((i, j) for i in range(k) if gs[i].degree for j in range(k) if j != i and rho[j][i] and fs[j])
    terms = [(i, j, Fraction(rho[j][i], f_ints[j][1])) for i, j in pairs]
    lcd = math.lcm(*[e for _, e in g_ints], *[t.denominator for _, _, t in terms])
    a = [0] * (dim * dim)
    for s, (ints, e) in zip(starts, g_ints):
        for r in range(s, s + len(ints) - 1):
            a[r * dim + r + 1] = lcd
        last = (s + len(ints) - 1) * dim + s
        a[last : last + len(ints)] = [-x * (lcd // e) for x in ints]
    for i, j, t in terms:
        last, ints = (starts[i] + gs[i].degree - 1) * dim + starts[j], f_ints[j][0]
        a[last : last + len(ints)] = [x * t.numerator * (lcd // t.denominator) for x in ints]
    return descale(charpoly_int(a, dim), lcd)
