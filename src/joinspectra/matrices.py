"""Exact dense rational matrices and determinant/characteristic-polynomial ops.

A matrix is stored as d * M in row-major Python ints (`nums`) over d (`den`),
the least common denominator of M's entries.  That form is canonical, so
equality and hashing compare the fields, and the kernels take `nums` as it
is; `entries`, the row-major tuple of Fraction entries, is a read-only view
built on first use.  A characteristic polynomial (Phi's realization, rho's
in Phi's closed form, the fixtures) hands `nums` to `kernel.charpoly_int`,
the kernel's multimodular Hessenberg pass, and scales by d back, so it is
exact; a block's charpoly comes with its resolvent form from the kernel's
bordered pass instead (`resolvent`).

The coupling determinant Phi = det(G - F rho), G = diag(g_i), F = diag(f_i),
of the blocks' main functions f_i / g_i lives here too (`coupling_poly`).
`cleared_rows` clears G - F rho row by row to integer polynomials once, and
that record is the one input of three forms; when every (f_i, g_i) is one
(f, g) there is a fourth, a closed form through the charpoly of rho.
`coupling_poly` takes the cheapest by an operation count that reads only k,
D = sum deg g_i and the packed size S = D w:

- `closed_form_phi`, k^3 + 2 D^2 for rho's charpoly and a Horner loop;
- `realization_charpoly`, the charpoly of the D x D glued companion
  realization, one kernel call, D^3;
- `interpolated_det`, the integer determinant (fraction-free Bareiss) at
  x = 0, ..., B, B the sum of the row degrees, read back by Newton
  differences exactly in the integers, D (k^3 + k D);
- `packed_det`, one integer determinant at x = 2^w, w from a proven
  coefficient bound, read back as its base-2^w digits (Kronecker
  substitution) and checked at x = 1, k^3 (1 + (S / C)^2), whose one
  constant C = 1,000 bits is the operand size at which a big-integer
  product costs as much as an interpreted step.

The last two evaluate the same cleared rows through one evaluator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import ShapeError
from .kernel import charpoly_int, is_symmetric_int
from .polynomials import Polynomial, _from_ints, _horner, _kronecker_digits, as_fraction, clear_denominators
from .records import Record

Vector = tuple[Fraction, ...]


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
        return self.is_square and is_symmetric_int(self.nums, self.rows)

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
    if k == 0:
        return 1
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


class ClearedRows(Record):
    """G - F rho, G = diag(g_i) and F = diag(f_i), cleared row by row to integers.

    Row i times L_i, the lcm of its entries' denominators, is s_ii g_i.nums
    on the diagonal and s_ij f_i.nums off it, for the integer scales
    `scales[i][j]`; `den` is L = prod L_i, so det(G - F rho) = det E / L for
    the cleared integer polynomial matrix E.  `degree` is B, the sum of the
    row degrees, which bounds deg det E; it is -1 when a row is zero, as
    det E is then.
    """

    __slots__ = ("fs", "gs", "scales", "den", "degree")

    fs: tuple[Polynomial, ...]
    gs: tuple[Polynomial, ...]
    scales: tuple[tuple[int, ...], ...]
    den: int
    degree: int


def cleared_rows(fs: Sequence[Polynomial], gs: Sequence[Polynomial], rho: Sequence[Sequence]) -> ClearedRows:
    """The `ClearedRows` of G - F rho, the one input of Phi's forms below."""
    k = len(gs)
    scales, den, degrees = [], 1, []
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
        row[i] = lcm // g.den
        scales.append(tuple(row))
        den *= lcm
        degrees.append(max(len(g.nums), len(f.nums) if terms else 0) - 1)
    return ClearedRows(tuple(fs), tuple(gs), tuple(scales), den, sum(degrees) if min(degrees, default=0) >= 0 else -1)


def _values_at(rows: ClearedRows, x: int) -> list[list[int]]:
    """The integer matrix E(x): f_i and g_i evaluated once per row."""
    out = []
    for i, (f, g, row) in enumerate(zip(rows.fs, rows.gs, rows.scales)):
        fx = _horner(f.nums, x)
        e = [s * fx for s in row]
        e[i] = row[i] * _horner(g.nums, x)
        out.append(e)
    return out


def packed_width(rows: ClearedRows) -> int:
    """The slot width w of `packed_det`: 2^(w-1) > H = prod_i (sum_j |e_ij|_1^2)^(1/2)."""
    bound = 1
    for i, (f, g, row) in enumerate(zip(rows.fs, rows.gs, rows.scales)):
        s = row[i]
        bound *= (s * sum(map(abs, g.nums))) ** 2 + (sum(t * t for t in row) - s * s) * sum(map(abs, f.nums)) ** 2
    # sqrt(bound) < 2^ceil(b / 2) for b the bit length of bound
    return (bound.bit_length() + 1) // 2 + 1


def packed_det(rows: ClearedRows, w: int) -> Polynomial:
    """det(G - F rho), any polynomials, as one integer determinant at x = 2^w
    (Kronecker substitution), for w = `packed_width(rows)`.

    On |x| = 1 Hadamard's inequality bounds det E(x) by H, so every
    coefficient of det E is at most H in absolute value (Cauchy's estimate on
    the unit circle).  With 2^(w-1) > H, det E(2^w), computed by
    fraction-free Bareiss on the k x k packed integers, holds those
    coefficients exactly as its signed base-2^w digits.  A second determinant
    at x = 1 must equal their sum, and no more than B + 1 digits can occur;
    either failure means a wrong value, and raises ArithmeticError.
    """
    coeffs = _kronecker_digits(_int_det(_values_at(rows, 1 << w)), w)
    if len(coeffs) > rows.degree + 1 or sum(coeffs) != _int_det(_values_at(rows, 1)):
        raise ArithmeticError("packed determinant failed its check at x = 1")
    return _from_ints(coeffs, rows.den)


def interpolated_det(rows: ClearedRows) -> Polynomial:
    """det(G - F rho), any polynomials, by evaluation-interpolation.

    det E has integer coefficients and degree at most B, so its integer values
    at x = 0, 1, ..., B fix it.  The Newton forward-difference form rebuilds
    it exactly in the integers: Delta^j y_0 / j! is the coefficient of the
    falling factorial x(x-1)...(x-j+1), an integer for an integer
    polynomial.  A non-integer quotient can only mean a wrong value, so it
    raises ArithmeticError.
    """
    bound = rows.degree
    diffs = [_int_det(_values_at(rows, x)) for x in range(bound + 1)]
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
    coeffs: list[int] = []
    for j in range(bound, -1, -1):
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= j * c
        shifted[0] += newton[j]
        coeffs = shifted
    return _from_ints(coeffs, rows.den)


def realization_charpoly(rows: ClearedRows) -> Polynomial:
    """det(G - F rho) for G = diag(g_i) monic and F = diag(f_i), deg f_i < deg g_i,
    as det(xI - A) of the glued companion realization (Kalman, 1963).

    Block i of A is the controllable companion of g_i (ones on the
    superdiagonal, -g_0, ..., -g_{d-1} in its last row), and that row also
    holds rho_ji f_j in block j's columns.  So A = diag(A_i) + B rho^T C
    with C_j (xI - A_j)^{-1} B_j = f_j / g_j, and det(xI - A) =
    prod g_i det(I - rho^T F G^{-1}) = det(G - F rho), for an asymmetric rho
    too.  A block with deg g_i = 0 (so f_i = 0) has no rows, as its row of
    G - F rho is e_i.  Row j of the cleared rows gives rho_ji f_j =
    -s_ji f_j.nums / L_j, with L_j = s_jj g_j.den, so the entries share the
    denominator lcd = lcm L_j, and the kernel runs on lcd * A.
    """
    fs, gs, scales = rows.fs, rows.gs, rows.scales
    degrees = [len(g.nums) - 1 for g in gs]
    *starts, dim = accumulate(degrees, initial=0)
    dens = [row[j] * g.den for j, (g, row) in enumerate(zip(gs, scales))]
    lcd = math.lcm(*dens)
    a = [0] * (dim * dim)
    for s, g in zip(starts, gs):
        ints = g.nums[:-1]
        for r in range(s, s + len(ints) - 1):
            a[r * dim + r + 1] = lcd
        last = (s + len(ints) - 1) * dim + s
        a[last : last + len(ints)] = [-x * (lcd // g.den) for x in ints]
    for j, (f, row, den) in enumerate(zip(fs, scales, dens)):
        for i, s in enumerate(row):
            if s and i != j and degrees[i]:
                last, t = (starts[i] + degrees[i] - 1) * dim + starts[j], -s * (lcd // den)
                a[last : last + len(f.nums)] = [x * t for x in f.nums]
    return descale(charpoly_int(a, dim), lcd)


# The one constant of `coupling_poly`'s cost model: the operand size C, in
# bits, at which one product or exact quotient of two big integers costs about
# as much as one interpreted step on small ones.  Timed on seeded joins: above
# about 1,100, the adjacency join of 20 blocks of 5 vertices would take the
# slower packed form; below about 950, the adjacency join of 8 blocks of 16
# vertices would miss its faster one.
_PACKED_BITS = 1000


def closed_form_phi(f: Polynomial, g: Polynomial, rho: Sequence[Sequence]) -> Polynomial:
    """det(g I - f rho) = sum_j c_j f^(k-j) g^j, c the charpoly of the k x k
    rho, asymmetric or not: Phi of k blocks that share one (f, g)."""
    k = len(rho)
    cs = charpoly(RationalMatrix(k, k, [x for row in rho for x in row])).coeffs  # ascending, monic
    # homogeneous Horner: acc runs through sum_{i <= m} c_(k-i) f^i g^(m-i)
    acc, f_pow = Polynomial.one(), Polynomial.one()
    for c in reversed(cs[:-1]):
        f_pow = f_pow * f
        acc = acc * g + c * f_pow
    return acc


def coupling_poly(fs: Sequence[Polynomial], gs: Sequence[Polynomial], rho: Sequence[Sequence]) -> Polynomial:
    """Phi = det(G - F rho): determinant of the coupling matrix (g_i diagonal, -rho_ij f_i off).

    The cheapest of four forms, counted in interpreted integer steps for
    D = sum deg g_i: `realization_charpoly`, when every g_i is monic with
    deg f_i < deg g_i (as every resolvent form is), D^3 for its Hessenberg
    reduction; `interpolated_det`, D (k^3 + k D) for about D evaluations of
    k^2 entries of degree about D / k and a k x k Bareiss each;
    `packed_det`, k^3 (1 + (S / C)^2) for one k x k Bareiss on operands of up
    to S = D w bits, w its slot width, whose products and quotients cost
    quadratically in their size, C = `_PACKED_BITS`; and, when k >= 2 and
    every (f_i, g_i) is one (f, g), `closed_form_phi`, k^3 + 2 D^2 for rho's
    charpoly and the k steps of its Horner loop, each two products of degree
    up to D by deg g.  The first three run on the `cleared_rows`.  The packed
    and closed forms cost more than k^3, so they are only weighed when the
    others cost more than that.
    """
    k = len(fs)
    dim = sum(g.degree for g in gs if g)
    realize = all(g.is_monic and f.degree < g.degree for f, g in zip(fs, gs)) and dim**3 < dim * (k**3 + k * dim)
    cost = dim**3 if realize else dim * (k**3 + k * dim)
    rows = cleared_rows(fs, gs, rho)
    if cost > k**3:
        w = packed_width(rows)
        packed = k**3 * (1 + (dim * w / _PACKED_BITS) ** 2)
        identical = k >= 2 and all(f == fs[0] for f in fs) and all(g == gs[0] for g in gs)
        if identical and k**3 + 2 * dim**2 < min(cost, packed):
            return closed_form_phi(fs[0], gs[0], rho)
        if packed < cost:
            return packed_det(rows, w)
    return realization_charpoly(rows) if realize else interpolated_det(rows)
