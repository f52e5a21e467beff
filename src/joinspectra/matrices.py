"""Exact dense rational matrices and determinant/characteristic-polynomial ops.

A matrix is stored as d * M in row-major Python ints (`nums`) over d (`den`),
the least common denominator of M's entries.  That form is canonical, so
equality and hashing compare the fields, and the kernels take `nums` as it
is; `entries`, the row-major tuple of Fraction entries, is a read-only view
built on first use.  A characteristic polynomial hands `nums` to
`kernel.charpoly_int`, the multimodular Hessenberg kernel that every route
uses, and scales by d back, so it is exact.  Three forms of the coupling
determinant Phi of `spectra.coupling_poly` live here.  `realization_charpoly`
is the charpoly of the glued companion realization, one kernel call of dimension
D = sum deg g_i.  `poly_det`, the determinant of a polynomial matrix, clears
each row's denominators, evaluates the integer determinant (fraction-free
Bareiss) at B + 1 integer points, B the sum of the row degrees, and
interpolates exactly in the integers.  `packed_det` builds the same cleared
rows straight from the f_i, g_i and rho (`packed_rows`) and evaluates them
once, at x = 2^w with w from a proven coefficient bound, so one k x k integer
determinant holds every coefficient in its base-2^w digits (Kronecker
substitution); a second determinant at x = 1 checks it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import ShapeError
from .kernel import charpoly_int
from .polynomials import Polynomial, _from_ints, _horner, as_fraction, clear_denominators
from .records import Record

Vector = tuple[Fraction, ...]
# `packed_rows`: (row scales s_ij, L, degree bound B, slot width w)
PackedRows = tuple[list[list[int]], int, int, int]


def as_vector(items: Iterable) -> Vector:
    """A tuple of Fractions."""
    return tuple(as_fraction(x) for x in items)


class RationalMatrix(Record):
    """Immutable row-major rational matrix: d * M as ints (`nums`) over the
    least common denominator d (`den`) of its entries."""

    __slots__ = ("rows", "cols", "nums", "den", "_entries")

    rows: int
    cols: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ints, den = clear_denominators(entries)
        if rows < 0 or cols < 0 or len(ints) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(ints)}")
        _store(self, rows, cols, ints, den)

    @classmethod
    def from_ints(cls, rows: int, cols: int, ints: Sequence[int], den: int = 1) -> "RationalMatrix":
        """The rows x cols matrix with row-major entries ints[k] / den (den nonzero)."""
        m = object.__new__(cls)
        _store(m, rows, cols, ints, den)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ShapeError("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """Row-major Fraction entries: a read-only view, built on first use."""
        try:
            return self._entries
        except AttributeError:
            den = self.den
            es = tuple(map(Fraction, self.nums)) if den == 1 else tuple(Fraction(x, den) for x in self.nums)
            object.__setattr__(self, "_entries", es)
            return es

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return Fraction(self.nums[i * self.cols + j], self.den)

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.nums) == (other.rows, other.cols, other.den, other.nums)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.nums))

    def _common(self, other: "RationalMatrix", op: str) -> tuple[list[int], list[int], int]:
        """Both matrices' ints over one denominator, the lcm of theirs."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"matrix {op} shape mismatch")
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return [x * sa for x in self.nums], [x * sb for x in other.nums], den

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        a, b, den = self._common(other, "addition")
        return RationalMatrix.from_ints(self.rows, self.cols, [x + y for x, y in zip(a, b)], den)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        a, b, den = self._common(other, "subtraction")
        return RationalMatrix.from_ints(self.rows, self.cols, [x - y for x, y in zip(a, b)], den)

    def __mul__(self, scalar) -> "RationalMatrix":
        s = as_fraction(scalar)
        return RationalMatrix.from_ints(self.rows, self.cols, [s.numerator * x for x in self.nums], self.den * s.denominator)

    __rmul__ = __mul__

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix.from_ints(self.rows, self.cols, [-x for x in self.nums], self.den)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeError("matrix product shape mismatch")
        n, m, p = self.rows, self.cols, other.cols
        a = self.nums
        cols = [other.nums[j::p] for j in range(p)]
        out = [sum(map(mul, a[i * m : (i + 1) * m], col)) for i in range(n) for col in cols]
        return RationalMatrix.from_ints(n, p, out, self.den * other.den)

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        # row i right of the diagonal against column i below it, slice against slice
        e, n = self.nums, self.rows
        return all(e[i * n + i + 1 : (i + 1) * n] == e[(i + 1) * n + i :: n] for i in range(n))

    def to_floats(self) -> list[list[float]]:
        # int true division rounds correctly, as float() of the reduced Fraction does
        e, c, den = self.nums, self.cols, self.den
        return [[x / den for x in e[i * c : (i + 1) * c]] for i in range(self.rows)]

    def __repr__(self):
        return f"RationalMatrix.from_rows({[[str(x) for x in self.row(i)] for i in range(self.rows)]})"


def _store(m: RationalMatrix, rows: int, cols: int, ints: Sequence[int], den: int) -> None:
    """Set m to the row-major ints / den, with den > 0 and gcd(den, *ints) = 1."""
    if den < 0:
        den, ints = -den, [-x for x in ints]
    if den != 1:
        g = math.gcd(den, *ints)
        if g != 1:
            den, ints = den // g, [x // g for x in ints]
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "nums", tuple(ints))
    object.__setattr__(m, "den", den)


def descale(coeffs: list[int], d: int, n: int | None = None) -> Polynomial:
    """The polynomial whose coefficient of x^j is coeffs[j] / d^(n - j), n
    defaulting to the degree: det(xI - dM) = d^n det(x/d I - M), and a form
    v^T adj(xI - dM) (d u) has d^n times the coefficients of v^T adj(x/d I - M) u."""
    if n is None:
        n = len(coeffs) - 1
    if d == 1:
        return _from_ints(coeffs)
    # coeffs[j] / d^(n - j) = coeffs[j] d^j / d^n
    scaled, dj = [], 1
    for c in coeffs:
        scaled.append(c * dj)
        dj *= d
    return _from_ints(scaled, d**n)


def charpoly_with(kernel: Callable[[list[int], int], list[int]], m: RationalMatrix) -> Polynomial:
    """Exact det(xI - M) from an integer charpoly kernel run on d * M."""
    if not m.is_square:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    return descale(kernel(list(m.nums), m.rows), m.den)


def charpoly(m: RationalMatrix) -> Polynomial:
    """Exact det(xI - M) by the multimodular Hessenberg kernel."""
    return charpoly_with(charpoly_int, m)


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
        den = math.lcm(*[entry.den for entry in r])
        degree = max(len(entry.nums) for entry in r) - 1
        if degree < 0:
            return Polynomial()
        int_rows.append([tuple(c * (den // entry.den) for c in entry.nums) for entry in r])
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
    return _from_ints(coeffs, scale)


def packed_rows(fs: Sequence[Polynomial], gs: Sequence[Polynomial], rho: Sequence[Sequence]) -> PackedRows:
    """(s, L, B, w) for `packed_det` of G - F rho, G = diag(g_i), F = diag(f_i).

    Row i of G - F rho times L_i, the lcm of its entries' denominators, is
    e_ii = s_ii g_i.nums and e_ij = s_ij f_i.nums, all integer polynomials.
    L is the product of the L_i, B the sum of the row degrees, and w the
    slot width: 2^(w-1) > H = prod_i (sum_j |e_ij|_1^2)^(1/2).
    """
    k = len(gs)
    scales, den, degree, bound = [], 1, 0, 1
    for i, (f, g) in enumerate(zip(fs, gs)):
        # -rho_ij f_i = -(rn / rd) (f_i.nums / f_i.den) = f_i.nums (-tn / td), in lowest terms
        terms = []
        if f.nums:
            for j, r in enumerate(rho[i]):
                rn, rd = r.as_integer_ratio()
                if rn and j != i:
                    q = math.gcd(rn, f.den)
                    terms.append((j, -rn // q, rd * f.den // q))
        lcm = math.lcm(g.den, *[td for _, _, td in terms])
        row = [0] * k
        for j, tn, td in terms:
            row[j] = tn * (lcm // td)
        off = sum(s * s for s in row) * sum(map(abs, f.nums)) ** 2  # row[i] is still 0 here
        row[i] = lcm // g.den
        bound *= (row[i] * sum(map(abs, g.nums))) ** 2 + off
        scales.append(row)
        den *= lcm
        degree += max(len(g.nums), len(f.nums) if terms else 0) - 1
    # sqrt(bound) < 2^ceil(b / 2) for b the bit length of bound
    return scales, den, degree, (bound.bit_length() + 1) // 2 + 1


def packed_det(fs: Sequence[Polynomial], gs: Sequence[Polynomial], rows: PackedRows) -> Polynomial:
    """det(G - F rho) for G = diag(g_i) and F = diag(f_i), any polynomials, as one
    integer determinant at x = 2^w (Kronecker substitution), for
    rows = `packed_rows(fs, gs, rho)`.

    On |x| = 1 Hadamard's inequality bounds the cleared determinant det E(x)
    by H, so every coefficient of det E is at most H in absolute value
    (Cauchy's estimate on the unit circle).  With 2^(w-1) > H, det E(2^w),
    computed by fraction-free Bareiss on the k x k packed integers, holds
    those coefficients exactly as its signed base-2^w digits.  A second
    determinant at x = 1 must equal their sum, and no more than B + 1 digits
    can occur; either failure means a wrong value, and raises
    ArithmeticError.  L divides back out.
    """
    if not gs:
        return Polynomial.one()
    scales, den, degree, w = rows

    def matrix(value: Callable[[tuple[int, ...]], int]) -> list[list[int]]:
        out = []
        for i, (f, g, row) in enumerate(zip(fs, gs, scales)):
            fx = value(f.nums)
            e = [s * fx for s in row]
            e[i] = row[i] * value(g.nums)
            out.append(e)
        return out

    packed = _int_det(matrix(lambda nums: _horner(nums, 1 << w)))
    coeffs, half, mask = [], 1 << (w - 1), (1 << w) - 1
    while packed:
        digit = packed & mask
        if digit >= half:
            digit -= mask + 1
        coeffs.append(digit)
        packed = (packed - digit) >> w
    if len(coeffs) > degree + 1 or sum(coeffs) != _int_det(matrix(sum)):
        raise ArithmeticError("packed determinant failed its check at x = 1")
    return _from_ints(coeffs, den)


def realization_charpoly(fs: Sequence[Polynomial], gs: Sequence[Polynomial], rho: Sequence[Sequence]) -> Polynomial:
    """det(G - F rho) for G = diag(g_i) monic and F = diag(f_i), deg f_i < deg g_i,
    as det(xI - A) of the glued companion realization (Kalman, 1963).

    Block i of A is the controllable companion of g_i (ones on the
    superdiagonal, -g_0, ..., -g_{d-1} in its last row), and that row also
    holds rho_ji * f_j in block j's columns.  So A = diag(A_i) + B rho^T C
    with C_j (xI - A_j)^{-1} B_j = f_j / g_j, and det(xI - A) =
    prod g_i det(I - rho^T F G^{-1}) = det(G - F rho), for an asymmetric rho
    too.  A block with deg g_i = 0 (so f_i = 0) has no rows, as its row of
    G - F rho is e_i.  The entries are put over one denominator L, and the
    kernel runs on L * A.
    """
    k = len(gs)
    degrees = [len(g.nums) - 1 for g in gs]
    *starts, dim = accumulate(degrees, initial=0)
    # rho_ji f_j = (rn / rd) (f_j.nums / f_j.den) has the term t = rn / (rd f_j.den) before
    # f_j.nums, in lowest terms since gcd(rn, rd) = 1
    terms = []
    for i in range(k):
        if degrees[i]:
            for j in range(k):
                rji = rho[j][i]
                if j != i and rji and fs[j].nums:
                    q = math.gcd(rji.numerator, fs[j].den)
                    terms.append((i, j, rji.numerator // q, rji.denominator * fs[j].den // q))
    lcd = math.lcm(*[g.den for g in gs], *[td for _, _, _, td in terms])
    a = [0] * (dim * dim)
    for s, g in zip(starts, gs):
        ints = g.nums[:-1]
        for r in range(s, s + len(ints) - 1):
            a[r * dim + r + 1] = lcd
        last = (s + len(ints) - 1) * dim + s
        a[last : last + len(ints)] = [-x * (lcd // g.den) for x in ints]
    for i, j, tn, td in terms:
        last, ints = (starts[i] + degrees[i] - 1) * dim + starts[j], fs[j].nums
        a[last : last + len(ints)] = [x * tn * (lcd // td) for x in ints]
    return descale(charpoly_int(a, dim), lcd)
