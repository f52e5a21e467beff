"""Shared random generators and small independent oracles for the tests."""

import math
import random
from fractions import Fraction
from itertools import zip_longest
from operator import mul

from joinspectra import Graph, Polynomial, RationalMatrix
from joinspectra.kernel import charpoly_int
from joinspectra.verification import random_fraction


def rand_int_matrix(rng: random.Random, n: int, lo: int = -4, hi: int = 4) -> RationalMatrix:
    return RationalMatrix(n, n, [rng.randint(lo, hi) for _ in range(n * n)])


def rand_rational_matrix(rng: random.Random, n: int) -> RationalMatrix:
    return RationalMatrix(n, n, [random_fraction(rng) for _ in range(n * n)])


def rand_symmetric_matrix(rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> RationalMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = Fraction(rng.randint(lo, hi))
            rows[i][j] = x
            rows[j][i] = x
    return RationalMatrix.from_rows(rows)


def rand_vector(rng: random.Random, n: int, integer: bool = False):
    if integer:
        return tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
    return tuple(random_fraction(rng) for _ in range(n))


def outer(u, v) -> RationalMatrix:
    n, m = len(u), len(v)
    return RationalMatrix(n, m, [u[i] * v[j] for i in range(n) for j in range(m)])


def cofactor_det(rows):
    """Independent determinant oracle: Laplace expansion along the first row.

    Works over any commutative ring whose elements support + - *.
    """
    n = len(rows)
    assert n >= 1 and all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def adjugate_form(rows, u, v):
    """Independent v^T adj(A) u by Cramer's rule: (adj(A) u)_j is det(A with
    column j replaced by u), each determinant by `cofactor_det`.

    Works over the same rings as `cofactor_det`; v^T A^-1 u is this over det(A).
    """
    total = 0
    for j, vj in enumerate(v):
        if vj:
            replaced = [r[:j] + [ui] + r[j + 1 :] for r, ui in zip(rows, u)]
            total = total + vj * cofactor_det(replaced)
    return total


def two_charpoly_numerator(a: list[int], n: int, u: list[int], v: list[int]) -> tuple[list[int], list[int]]:
    """(det(xI - A), v^T adj(xI - A) u) for an integer A, row-major n x n, and
    integer vectors, from two route-kernel charpolys: by the matrix
    determinant lemma the numerator is det(xI - A) - det(xI - A - u v^T),
    whose degree is below n.  The reference for `charpoly_bordered_int`.
    """
    phi = charpoly_int(a, n)
    updated = charpoly_int([a[i * n + j] + ui * vj for i, ui in enumerate(u) for j, vj in enumerate(v)], n)
    return phi, [p - q for p, q in zip(phi, updated)][:n]


def faddeev_leverrier(a: list[int], n: int) -> list[int]:
    """Independent charpoly oracle: ascending coefficients of det(xI - A) for
    an integer matrix A by textbook Faddeev-LeVerrier, in O(n^4).

    With B0 = I and, for k = 1..n,

        Mk = A @ B(k-1),   c[n-k] = -trace(Mk) / k,   Bk = Mk + c[n-k] * I,

    c collects the coefficients of det(xI - A); every division is exact.
    """
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    b = [0] * (n * n)
    for i in range(n):
        b[i * n + i] = 1
    for k in range(1, n + 1):
        m = [0] * (n * n)
        for i in range(n):
            bi = i * n
            for j in range(n):
                s = 0
                for l in range(n):
                    s += a[bi + l] * b[l * n + j]
                m[bi + j] = s
        tr = 0
        for i in range(n):
            tr += m[i * n + i]
        c, rem = divmod(-tr, k)
        assert rem == 0, f"Faddeev-LeVerrier division by {k} is not exact"
        coeffs[n - k] = c
        b = m
        for i in range(n):
            b[i * n + i] += c
    return coeffs


def exact_power_traces(a: list[int], n: int) -> list[int]:
    """Reference power traces: [tr(A^0), ..., tr(A^n)] for an integer matrix A
    in Python ints, with no primes and no bound.

    With s = ceil(sqrt(n)) and G = A^s, every k in 1..n is i + j*s with
    1 <= i <= s, and tr(A^k) = tr(A^i G^j) is one dot product of the
    flattened A^i with the flattened transpose of G^j (Paterson and
    Stockmeyer's baby and giant steps).
    """
    traces = [n] + [0] * n
    if n == 0:
        return traces
    s = math.isqrt(n - 1) + 1

    def times(m: list[int], cols: list[list[int]]) -> list[int]:
        return [sum(map(mul, m[r : r + n], col)) for r in range(0, n * n, n) for col in cols]

    cols_a = [a[c::n] for c in range(n)]
    baby = [a]
    for _ in range(s - 1):
        baby.append(times(baby[-1], cols_a))
    for i in range(1, s + 1):
        traces[i] = sum(baby[i - 1][:: n + 1])
    giant = baby[-1]
    cols_g = [giant[c::n] for c in range(n)]
    for j in range(1, (n - 1) // s + 1):
        if j > 1:
            giant = times(giant, cols_g)
        giant_t = [x for c in range(n) for x in giant[c::n]]
        for i in range(1, min(s, n - j * s) + 1):
            traces[i + j * s] = sum(map(mul, baby[i - 1], giant_t))
    return traces


class FracPoly:
    """Reference polynomial over Q: a tuple `cs` of Fraction coefficients,
    ascending and without trailing zeros, every operation done coefficient by
    coefficient in textbook Fraction arithmetic.  It shares no code with
    `joinspectra.polynomials`; `ref` reads a Polynomial's `coeffs` into it."""

    __slots__ = ("cs",)
    __hash__ = None

    def __init__(self, cs=()):
        cs = [Fraction(c) for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        self.cs = tuple(cs)

    def __eq__(self, other):
        return isinstance(other, FracPoly) and self.cs == other.cs

    def __repr__(self):
        return f"FracPoly({[str(c) for c in self.cs]})"

    @property
    def degree(self) -> int:
        return len(self.cs) - 1

    def __add__(self, other):
        other = _as_frac_poly(other)
        return FracPoly(x + y for x, y in zip_longest(self.cs, other.cs, fillvalue=Fraction(0)))

    __radd__ = __add__

    def __neg__(self):
        return FracPoly(-c for c in self.cs)

    def __sub__(self, other):
        return self + (-_as_frac_poly(other))

    def __rsub__(self, other):
        return _as_frac_poly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FracPoly(c * other for c in self.cs)
        out = [Fraction(0)] * max(len(self.cs) + len(other.cs) - 1, 0)
        for i, a in enumerate(self.cs):
            for j, b in enumerate(other.cs):
                out[i + j] += a * b
        return FracPoly(out)

    __rmul__ = __mul__

    def divmod(self, other):
        """Long division by a nonzero divisor: (quotient, remainder)."""
        rem = list(self.cs)
        db, lb = other.degree, other.cs[-1]
        if len(rem) - 1 < db:
            return FracPoly(), self
        quot = [Fraction(0)] * (len(rem) - db)
        for shift in range(len(rem) - 1 - db, -1, -1):
            q = rem[shift + db] / lb
            quot[shift] = q
            for j, c in enumerate(other.cs):
                rem[shift + j] -= q * c
        return FracPoly(quot), FracPoly(rem)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if r.cs:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self):
        return self * (1 / self.cs[-1]) if self.cs else self

    def derivative(self):
        return FracPoly(i * c for i, c in enumerate(self.cs) if i)

    def shift(self, c):
        """p(x - c): the coefficient of x^j is sum_i a_i C(i, j) (-c)^(i - j)."""
        c = Fraction(c)
        return FracPoly(
            sum((a * math.comb(i, j) * (-c) ** (i - j) for i, a in enumerate(self.cs) if i >= j), Fraction(0))
            for j in range(len(self.cs))
        )

    def __call__(self, x):
        v = Fraction(0)
        for c in reversed(self.cs):
            v = v * x + c
        return v

    def gcd(self, other):
        """Monic gcd by Euclid's algorithm."""
        a, b = self, other
        while b.cs:
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def yun(self) -> list:
        """Square-free decomposition [(monic factor, multiplicity), ...] by Yun's algorithm."""
        p = self.monic()
        if p.degree <= 0:
            return []
        dp = p.derivative()
        a = p.gcd(dp)
        b = p.exact_div(a)
        d = dp.exact_div(a) - b.derivative()
        out = []
        i = 1
        while b.degree > 0:
            f = b.gcd(d)
            if f.degree > 0:
                out.append((f, i))
            b = b.exact_div(f)
            d = d.exact_div(f) - b.derivative()
            i += 1
        return out


def _as_frac_poly(x) -> FracPoly:
    return x if isinstance(x, FracPoly) else FracPoly([x])


def ref(p: Polynomial) -> FracPoly:
    """The reference polynomial with p's coefficients."""
    return FracPoly(p.coeffs)


def reduced(num, den) -> tuple[Polynomial, Polynomial]:
    """num / den (den nonzero) in the canonical form of a resolvent form:
    coprime, the denominator monic, the zero quotient as 0/1; reduced by
    Euclid's gcd on the reference polynomials."""
    n, d = ref(num if isinstance(num, Polynomial) else Polynomial.constant(num)), ref(den)
    g = n.gcd(d)
    n, d = n.exact_div(g), d.exact_div(g)
    lead = d.cs[-1]
    return Polynomial((n * (1 / lead)).cs), Polynomial((d * (1 / lead)).cs)


class FracMatrix:
    """Reference matrix over Q: row-major Fraction entries `es`, every
    operation entry by entry in Fraction arithmetic."""

    __hash__ = None

    def __init__(self, rows: int, cols: int, es):
        self.rows, self.cols, self.es = rows, cols, [Fraction(x) for x in es]

    def __eq__(self, other):
        return isinstance(other, FracMatrix) and (self.rows, self.cols, self.es) == (other.rows, other.cols, other.es)

    def at(self, i: int, j: int) -> Fraction:
        return self.es[i * self.cols + j]

    def __add__(self, other):
        return FracMatrix(self.rows, self.cols, [x + y for x, y in zip(self.es, other.es)])

    def __sub__(self, other):
        return FracMatrix(self.rows, self.cols, [x - y for x, y in zip(self.es, other.es)])

    def __neg__(self):
        return FracMatrix(self.rows, self.cols, [-x for x in self.es])

    def scaled(self, s):
        return FracMatrix(self.rows, self.cols, [x * s for x in self.es])

    def __matmul__(self, other):
        n, m, p = self.rows, self.cols, other.cols
        es = [sum((self.at(i, l) * other.at(l, j) for l in range(m)), Fraction(0)) for i in range(n) for j in range(p)]
        return FracMatrix(n, p, es)

    def transpose(self):
        return FracMatrix(self.cols, self.rows, [self.at(j, i) for i in range(self.cols) for j in range(self.rows)])

    def trace(self) -> Fraction:
        return sum((self.at(i, i) for i in range(self.rows)), Fraction(0))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def to_floats(self) -> list:
        return [[float(self.at(i, j)) for j in range(self.cols)] for i in range(self.rows)]

    def charpoly(self) -> FracPoly:
        """det(xI - M) by cofactor expansion over FracPoly entries."""
        if self.rows == 0:
            return FracPoly([1])
        rows = [
            [FracPoly([-self.at(i, j), 1] if i == j else [-self.at(i, j)]) for j in range(self.cols)]
            for i in range(self.rows)
        ]
        return cofactor_det(rows)


def ref_matrix(m: RationalMatrix) -> FracMatrix:
    """The reference matrix with m's entries."""
    return FracMatrix(m.rows, m.cols, m.entries)


# (alpha, beta, gamma, delta) of the benchmark's parameter presets:
# adjacency, Laplacian, signless Laplacian, Seidel and a rational one
PRESET_VALUES = ((1, 0, 0, 0), (-1, 0, 0, 1), (1, 0, 0, 1), (-2, -1, 1, 0), ("1/2", "-1/3", "2/3", "-1/2"))


def literal_universal_matrix(g: Graph, params) -> RationalMatrix:
    """alpha*A + beta*I + gamma*J + delta*D spelled out in RationalMatrix operations."""
    n = g.n
    ones = RationalMatrix(n, n, [1] * (n * n))
    return (
        params.alpha * g.adjacency()
        + params.beta * RationalMatrix.identity(n)
        + params.gamma * ones
        + params.delta * g.degree_matrix()
    )


def char_matrix(m: RationalMatrix) -> list:
    """xI - M as rows of Polynomials."""
    x = Polynomial.x()
    return [
        [(x if i == j else Polynomial()) - Polynomial.constant(m[i, j]) for j in range(m.cols)]
        for i in range(m.rows)
    ]


def multisets_close(a, b, tol: float) -> bool:
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= tol * max(1.0, abs(x)) for x, y in zip(sorted(a), sorted(b)))


def regular_graph_menu(rng: random.Random) -> Graph:
    """A random regular graph drawn from a small exactly-known family."""
    kind = rng.randrange(4)
    if kind == 0:
        return Graph.cycle(rng.randint(3, 6))
    if kind == 1:
        return Graph.complete(rng.randint(1, 5))
    if kind == 2:
        return Graph.empty(rng.randint(1, 5))
    m = rng.randint(1, 3)
    return Graph.complete_bipartite(m, m)
