"""Shared random generators and small independent oracles for the tests."""

import math
import random
from fractions import Fraction
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


def fraction_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Reference product: one Fraction multiply-add per coefficient pair."""
    if a.is_zero or b.is_zero:
        return Polynomial()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca:
            for j, cb in enumerate(b.coeffs):
                out[i + j] += ca * cb
    return Polynomial(out)


def fraction_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Reference long division over the rationals (b nonzero)."""
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    lb = b.coeffs[-1]
    if len(rem) - 1 < db:
        return Polynomial(), a
    quot = [Fraction(0)] * (len(rem) - db)
    for shift in range(len(rem) - 1 - db, -1, -1):
        q = rem[shift + db] / lb
        if q:
            quot[shift] = q
            for j, c in enumerate(b.coeffs):
                rem[shift + j] -= q * c
    return Polynomial(quot), Polynomial(rem)


def fraction_exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """Reference exact division: Fraction long division, raising on a remainder."""
    q, r = fraction_divmod(a, b)
    if not r.is_zero:
        raise ArithmeticError("inexact polynomial division")
    return q


def euclid_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Reference gcd: Euclid over the rationals, made monic."""
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    return a.monic()


def fraction_yun(p: Polynomial) -> list:
    """Reference square-free decomposition: Yun's algorithm in Fraction arithmetic."""
    p = p.monic()
    if p.degree <= 0:
        return []
    dp = p.derivative()
    a = euclid_gcd(p, dp)
    b = fraction_exact_div(p, a)
    d = fraction_exact_div(dp, a) - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        f = euclid_gcd(b, d)
        if f.degree > 0:
            out.append((f, i))
        b = fraction_exact_div(b, f)
        d = fraction_exact_div(d, f) - b.derivative()
        i += 1
    return out


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
