"""Exact characteristic polynomials of integer matrices, by Hessenberg reduction,
or Lanczos tridiagonalization for a bordered symmetric block, modulo a
product of word primes; and a small bordered symmetric block by one
fraction-free elimination at x = 2^w.

det(xI - A) is computed modulo P: A is reduced to upper Hessenberg form by a
similarity mod P (Gaussian elimination below the subdiagonal, swapping a row
and the matching column whenever a pivot vanishes mod P, arranged so that
every entry is one dot product), and the Hessenberg recurrence then gives
the charpoly mod P (Cohen, *A Course in Computational Algebraic Number
Theory*, Alg. 2.2.9).  Both steps take O(n^3) operations on numbers below P.

P multiplies the largest primes below 2**62, in turn, until it exceeds 2B,
and the coefficients are read as symmetric residues mod P (Dumas, Pernet
and Wan, ISSAC 2005).  B bounds every coefficient: the coefficient of x^(n-k)
is, up to sign, the sum of the C(n, k) principal k x k minors, and by
Hadamard's inequality each minor is at most the product of the k largest
row 2-norms of A.  The bound is proven, so the number of primes never
depends on residues happening to agree.

One pass mod the composite P is exact.  The reduction is a similarity over
any commutative ring as long as every pivot it inverts is a unit, and the
recurrence divides by nothing, so the result is det(xI - A) mod P.  A pivot
that is nonzero mod P but shares a prime with it is no unit: inverting it
raises, and the primes are then split into two halves, each run on its own
(splitting again as needed) and joined by one Chinese remainder step.  A
single prime never needs a split, since every nonzero residue mod a prime is
a unit.

`charpoly_bordered_int` gives det(xI - A) and v^T adj(xI - A) u, the two
polynomials of a resolvent form, from one such pass over the bordered
(n+1) x (n+1) matrix B = [[0, v^T], [u, A]].  Wilkinson's reduction keeps
index 0 fixed (N e_0 = e_0, so N = diag(1, N')), and the pivot swaps only
touch later indices, so H[1:, 1:] is similar to A.  The Hessenberg
recurrence run over the trailing blocks of H (the leading blocks of
J H^T J, J the reversal) ends with chi_1 = det(xI - H[1:, 1:]) = det(xI - A)
and chi_0 = det(xI - B) = x det(xI - A) - v^T adj(xI - A) u, so the
numerator is x chi_1 - chi_0.  A zero u_0 needs nothing special: the first
column's pivot swap handles it.  Every principal minor of A is one of B, so
B's bound covers both polynomials, and one modulus, with the same split on
a non-unit pivot, serves both.

A bordered matrix whose A is symmetric and whose v = c u for an integer c
(every Hermitian block a route builds: `resolvent_form` clears v to a
multiple of u) takes one of two other passes, split at `_LANCZOS_DIM` rows
of A, where the two passes measured level (see its comment).

Below it, no modular pass runs.  S = [[A, u], [u^T, 0]], the border last,
is symmetric, det(xI - S) = x det(xI - A) - u^T adj(xI - A) u, and the
numerator is v^T adj(xI - A) u = c (x det(xI - A) - det(xI - S)).  Both
polynomials are read off one fraction-free (Bareiss, *Math. Comp.* 22,
1968) elimination of the integer matrix M = 2^w I - S, with w chosen so
that 2^(w-1) > `coeff_bound` of S, the Kronecker substitution by which
`matrices.packed_det` computes Phi.  It needs no pivot search: a row's
1-norm is at most n + 1 times its 2-norm, so at most the bound, and M is
strictly diagonally dominant with a positive diagonal; its leading
principal minors, Bareiss's pivots, are then all positive, and no swap
moves the border from last place.  Its pivots of order n and n + 1 are
det(2^w I - A) and det(2^w I - S).  Every coefficient of either polynomial
is a sum of principal minors of S, so at most the bound in absolute value
and below 2^(w-1), and the signed base-2^w digits of the two pivots
(`polynomials._kronecker_digits`) are the two charpolys exactly: no prime,
no residue, no lift.  A Bareiss step keeps M symmetric, so each row is kept
from its diagonal on.  The integers grow to about (n + 1) w bits, so the
cost rises faster with n than a modular pass's, whose fixed cost per step
it saves on small blocks.

From `_LANCZOS_DIM` on, the block takes a second reduction mod the same P:
Lanczos tridiagonalization of A from u (Lanczos, *J. Res. NBS* 45, 1950).
The basis r_0 = u, r_1, ... of u's Krylov space is built by the
three-term recurrence, fraction-free, so that it is orthogonal under x^T y;
when the space closes it restarts at the next e_i projected off the basis.
Every norm |r_j|^2 is a unit mod P, so Q^T Q is invertible, hence Q is, and
Q^-1 A Q = T is tridiagonal (it splits at restarts): det(xI - A) =
det(xI - T), read off T's three-term recurrence.  The product of A and a
vector runs over each row's nonzero entries, grouped by value, which a
graph's sparse rows of one or two values make cheap.  As the basis starts
at u, Q^-1 u = e_0, and, v being a multiple of u and the basis orthogonal,
v^T Q = v^T u e_0^T; thus v^T adj(xI - A) u = v^T u det(xI - T[1:, 1:]),
and the one recurrence run over T's trailing blocks gives both polynomials,
as the Hessenberg pass does.  When u is an eigenvector of A the space
closes at the first step, T splits after its first entry mu, and the
numerator is v^T u det(xI - A) / (x - mu).  The bound, the primes, the
split and the lift are shared, so the integers are the same.  Over a finite
field the recurrence can meet a nonzero vector of norm 0 (Eberly and
Kaltofen, ISSAC 1997), which never happens over Q: a norm that shares a
prime with P makes `pow` raise and P is split as above, and a nonzero
vector of norm 0 mod P, or no restart vector left, runs the Hessenberg pass
for that modulus.  A u that is 0 mod P needs no fallback: the numerator is
then 0 mod P, and the basis starts at e_0.  A plain charpoly
(`charpoly_int`) takes the Hessenberg pass alone.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul
from typing import Callable, Sequence

from .polynomials import _kronecker_digits

# The one kernel implementation, pure Python; exported as
# joinspectra.KERNEL_BACKEND and printed by `joinspectra verify`.
BACKEND = "python"

# Deterministic Miller-Rabin bases: exact for every n below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_primes: tuple[int, ...] = ()

# The block dimension from which a bordered pass over a symmetric block with
# v = c u takes Lanczos; below it the fraction-free pass runs, whose integers
# grow with n where Lanczos pays a fixed cost per step.  Per call, fraction-free
# against Lanczos (and the Hessenberg pass), on seeded G(n, 0.4) adjacency
# matrices A with u = v = 1 (Python 3.11, 2-vCPU host): at n = 4, 8, 12, 14,
# 15, 16, 20, 28 they took 24/57 (49), 65/183 (178), 169/303 (385), 326/398
# (577), 386/440 (711), 532/540 (809), 1409/765 (1316) and 7772/1715 (3733)
# us; on the rational-parameter blocks 3A + 2D of the same graphs 25/76,
# 72/237, 254/342, 487/476, 620/621, 913/664, 2738/1005 and 26480/2482 us.
_LANCZOS_DIM = 15

# a pass mod P: (matrix, dimension, P) -> ascending coefficients mod P
_Mod = Callable[[list[int], int, int], list[int]]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime(i: int) -> int:
    """The (i+1)-th largest prime below 2**62.

    The tuple of primes found so far only ever grows by replacement, and
    every thread computes the same sequence, so a race costs recomputation,
    never a wrong prime.
    """
    global _primes
    found = _primes
    if len(found) <= i:
        more = list(found)
        c = more[-1] - 2 if more else (1 << 62) - 1
        while len(more) <= i:
            if _is_prime(c):
                more.append(c)
            c -= 2
        found = _primes = tuple(more)
    return found[i]


def _ceil_sqrt(s: int) -> int:
    r = math.isqrt(s)
    return r if r * r == s else r + 1


def coeff_bound(a: list[int], n: int) -> int:
    """max_k C(n, k) * (product of the k largest row 2-norms, rounded up)."""
    return _norm_bound([sum(x * x for x in a[i * n : (i + 1) * n]) for i in range(n)])


def _norm_bound(squares: list[int]) -> int:
    """`coeff_bound` of a matrix whose rows have these squared 2-norms."""
    n = len(squares)
    best = prod = 1
    for k, r in enumerate(sorted(map(_ceil_sqrt, squares), reverse=True), 1):
        prod *= r
        best = max(best, math.comb(n, k) * prod)
    return best


def _recurrence(h: list[list[int]], p: int) -> list[list[int]]:
    """Charpolys of the leading blocks of an upper Hessenberg H mod p, from
    its columns h (h[j][i] = H[i][j]): entry k of the returned list holds
    coefficient k of P_k, P_{k+1}, ..., P_n, with P_m = det(xI - H[:m, :m])
    and every coefficient in [0, p).

    Hessenberg recurrence: P_0 = 1 and P_{m+1} = x P_m - sum_{i<=m} c_i P_i
    with c_i = H[i][m] H[i+1][i] ... H[m][m-1], so each new coefficient is
    one dot product.
    """
    q = [[1]]
    for m, col in enumerate(h):
        c = [col[m]]  # c_m, c_{m-1}, ..., down to the first zero product
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i][i + 1] % p
            if not t:
                break
            c.append(t * col[i] % p)
        below = 0
        for qk in q:
            v = (below - sum(map(mul, c, reversed(qk)))) % p
            below = qk[-1]
            qk.append(v)
        q.append([1])
    return q


def _charpoly_mod(a: list[int], n: int, p: int) -> list[int]:
    """Ascending coefficients of det(xI - A) mod p, each in [0, p)."""
    return [qk[-1] for qk in _recurrence(_hessenberg_mod(a, n, p), p)]


def _bordered_mod(b: list[int], n: int, p: int) -> list[int]:
    """det(xI - B) and det(xI - B[1:, 1:]) mod p, ascending and concatenated,
    for an n x n matrix B (n >= 1).

    The reduction fixes index 0, so H[1:, 1:] is similar to B[1:, 1:].  The
    leading blocks of J H^T J (J the reversal) are H's trailing blocks,
    transposed and reversed, and J H^T J is upper Hessenberg too; so the
    recurrence run on it ends with the charpolys of H[1:, 1:] and of H.
    Column m of J H^T J is row r = n - 1 - m of H, read from its last
    entry down to its subdiagonal one.
    """
    h = _hessenberg_mod(b, n, p)
    flipped = [[h[j][r] for j in range(n - 1, max(r - 1, 0) - 1, -1)] for r in range(n - 1, -1, -1)]
    q = _recurrence(flipped, p)
    return [qk[-1] for qk in q] + [qk[-2] for qk in q[:-1]]


def _hessenberg_mod(a: list[int], n: int, p: int) -> list[list[int]]:
    """Columns of an upper Hessenberg matrix similar to A mod p.

    Wilkinson's direct reduction (*The Algebraic Eigenvalue Problem*, 1965,
    ch. 6): A N = N H with N unit lower triangular and N e_0 = e_0.  Column
    r of that equation gives column r of H and column r + 1 of N by forward
    substitution, every entry as one dot product reduced once mod p.  When
    the subdiagonal entry vanishes mod p, index r + 1 is swapped with a later
    index whose entry does not (a row and column swap of A).  Column r of the
    result holds H[0..r+1][r] (H[0..r][r] for the last column).
    """
    # rows of A reversed, so that a row's tail A[i][r:] is a prefix and
    # map() truncates a dot product to it without slicing
    arev = [a[i * n : (i + 1) * n][::-1] for i in range(n)]
    nrows: list[list[int]] = [[] for _ in range(n)]  # N[i][1..], columns found so far
    ncol = [0] * (n - 1) + [1]  # N[n-1][r], ..., N[r][r], for r = 0
    cols = []
    for r in range(n):
        w = [sum(map(mul, row, ncol)) for row in arev]  # A N[:, r]
        h: list[int] = []  # H[1..r][r]
        for i in range(1, r + 1):
            h.append((w[i] - sum(map(mul, nrows[i], h))) % p)
        z = [(w[i] - sum(map(mul, nrows[i], h))) % p for i in range(r + 1, n)]
        h.insert(0, w[0] % p)
        if z:
            if not z[0]:
                piv = next((j for j, v in enumerate(z) if v), 0)
                if piv:
                    s, t = r + 1, r + 1 + piv
                    z[0], z[piv] = z[piv], z[0]
                    nrows[s], nrows[t] = nrows[t], nrows[s]
                    arev[s], arev[t] = arev[t], arev[s]
                    for row in arev:
                        row[n - 1 - s], row[n - 1 - t] = row[n - 1 - t], row[n - 1 - s]
            h.append(z[0])
            inv = pow(z[0], -1, p) if z[0] and len(z) > 1 else 0
            ncol = [v * inv % p for v in z[1:]]
            for i, v in enumerate(ncol, r + 2):
                nrows[i].append(v)
            ncol.reverse()
            ncol.append(1)
        cols.append(h)
    return cols


def is_symmetric_int(a: Sequence[int], n: int) -> bool:
    """Whether the row-major n x n A equals its transpose: row i right of the
    diagonal against column i below it, slice against slice."""
    return all(a[i * n + i + 1 : (i + 1) * n] == a[(i + 1) * n + i :: n] for i in range(n))


def _row_groups(a: list[int], n: int, s: int, off: int) -> list[list[tuple[int, list[int]]]]:
    """Each row of the n x n block at (off, off) of a row-major matrix of row
    length s, as its nonzero values, each with the columns that hold it: a
    graph's row has one or two values, so A r costs one product per value."""
    rows = []
    for i in range(off, off + n):
        groups: dict[int, list[int]] = {}
        for j, x in enumerate(a[i * s + off : i * s + off + n]):
            if x:
                groups.setdefault(x, []).append(j)
        rows.append(list(groups.items()))
    return rows


def _inverses(xs: list[int], p: int) -> list[int]:
    """The inverses of xs mod p from one `pow` (Montgomery's trick), which
    raises ValueError when some x is no unit."""
    prefix = list(accumulate(xs, lambda x, y: x * y % p, initial=1))
    inv = pow(prefix.pop(), -1, p)
    out = []
    for x, before in zip(reversed(xs), reversed(prefix)):
        out.append(inv * before % p)
        inv = inv * x % p
    return out[::-1]


def _tridiagonal_mod(rows: list[list[tuple[int, list[int]]]], p: int, u: list[int]) -> tuple[list[int], list[int]] | None:
    """The diagonal alpha and the products beta_j = T[j][j-1] T[j-1][j]
    (beta_0 = 0) of T = Q^-1 A Q mod p, for a symmetric A given by its
    `_row_groups` and Q the Lanczos basis that starts at u, or at e_0 when
    u = 0 mod p.  None when a vector of the basis is nonzero with norm 0 mod
    p, or no restart vector is left.

    The basis is kept fraction-free: with N_j = |r_j|^2, A_j = r_j^T A r_j
    and B_j = r_(j-1)^T A r_j, r_(j+1) = N_j N_(j-1) A r_j - A_j N_(j-1) r_j
    - B_j N_j r_(j-1) is orthogonal to r_j and r_(j-1), hence (A symmetric)
    to every earlier r; then alpha_j = A_j / N_j and beta_j = B_j^2 /
    (N_j N_(j-1)), all the inverses from one `pow`.  When r_(j+1) = 0 the
    Krylov space is invariant, and the basis restarts at the next e_i
    projected off it, with B = 0: T splits there.  A norm that is no unit
    mod a composite p makes `pow` raise ValueError.
    """
    n = len(rows)
    r = [x % p for x in u]
    prev = [0] * n
    nprev = 1
    basis: list[list[int]] = []
    norms: list[int] = []
    diag: list[int] = []
    off: list[int] = []
    nexti = 0
    for _ in range(n):
        if not any(r):
            # the Krylov space closed: restart at the next e_i off the basis
            prev = [0] * n
            invs = _inverses(norms, p)
            while not any(r):
                if nexti == n:
                    return None
                cs = [q[nexti] * inv % p for q, inv in zip(basis, invs)]
                r = [-sum(map(mul, cs, col)) % p for col in zip(*basis)] if basis else [0] * n
                r[nexti] = (r[nexti] + 1) % p
                nexti += 1
        nj = sum(map(mul, r, r)) % p
        if not nj:
            return None
        get = r.__getitem__
        ar = []
        for groups in rows:
            t = 0
            for x, cols in groups:
                t += x * sum(map(get, cols))
            ar.append(t)
        aj = sum(map(mul, r, ar)) % p
        bj = sum(map(mul, prev, ar)) % p
        basis.append(r)
        norms.append(nj)
        diag.append(aj)
        off.append(bj * bj % p)
        c1, c2, c3 = nj * nprev % p, aj * nprev % p, bj * nj % p
        prev, r = r, [(c1 * x - c2 * y - c3 * z) % p for x, y, z in zip(ar, r, prev)]
        nprev = nj
    invs = _inverses(norms, p)
    return [a * inv % p for a, inv in zip(diag, invs)], [b * inv * before % p for b, inv, before in zip(off, invs, [0, *invs])]


def _jacobi_mod(alpha: list[int], beta: list[int], p: int) -> tuple[list[int], list[int]]:
    """det(xI - T) and det(xI - T[1:, 1:]) mod p, ascending, for T m x m
    tridiagonal with diagonal alpha and off-diagonal products beta, from one
    recurrence over T's trailing blocks: q_m = 1 and q_j = (x - alpha_j)
    q_(j+1) - beta_(j+1) q_(j+2) give q_0 and q_1."""
    cur: list[int] = [1]
    prev: list[int] = []
    for a, b in zip(reversed(alpha), [0, *reversed(beta[1:])]):
        cur, prev = [(x - a * c - b * q) % p for x, c, q in zip([0, *cur], cur + [0], prev + [0, 0])], cur
    return cur, prev


def _symmetric_bordered_mod(b: list[int], n: int, p: int) -> list[int]:
    """`_bordered_mod` for B = [[0, v^T], [u, A]] with A symmetric and v = c u
    for an integer c, by `_tridiagonal_mod` from u, or by `_bordered_mod`
    itself when that has no step.

    Q^-1 u = e_0, as the basis starts at u (when u = 0 mod p every term below
    is 0), and v^T Q = v^T u e_0^T, as v is a multiple of u and the basis is
    orthogonal.  So v^T adj(xI - A) u = v^T u adj(xI - T)[0][0] = v^T u
    det(xI - T[1:, 1:]).
    """
    m = n - 1
    found = _tridiagonal_mod(_row_groups(b, m, n, 1), p, b[n::n])
    if found is None:
        return _bordered_mod(b, n, p)
    phi, psi = _jacobi_mod(*found, p)
    vtu = sum(map(mul, b[1:n], b[n::n])) % p
    # det(xI - B) = x phi - v^T u psi, and psi has m coefficients
    return [(x - vtu * c) % p for x, c in zip([0, *phi], psi + [0, 0])] + phi


def _residues(mod: _Mod, a: list[int], n: int, primes: list[int]) -> list[int]:
    """`mod(a, n, P)` for P the product of `primes`, each half of them run
    apart and joined by CRT when `pow` finds a pivot that is no unit
    (ValueError), which a single prime never does."""
    try:
        return mod(a, n, math.prod(primes))
    except ValueError:
        half = len(primes) // 2
        low, high = math.prod(primes[:half]), math.prod(primes[half:])
        inv = pow(low, -1, high)
        pairs = zip(_residues(mod, a, n, primes[:half]), _residues(mod, a, n, primes[half:]))
        return [c + low * ((r - c) * inv % high) for c, r in pairs]


def _lifted(mod: _Mod, a: list[int], n: int) -> list[int]:
    """`mod(a, n, P)` read as symmetric residues, P the first primes whose
    product exceeds 2 `coeff_bound(a, n)`."""
    bound2 = 2 * coeff_bound(a, n)
    primes: list[int] = []
    modulus = 1
    while modulus <= bound2:
        primes.append(prime(len(primes)))
        modulus *= primes[-1]
    half = modulus >> 1
    return [c - modulus if c > half else c for c in _residues(mod, a, n, primes)]


def _multiple(v: list[int], u: list[int]) -> int | None:
    """The integer c with v = c u (0 when both are 0), or None."""
    i = next((i for i, x in enumerate(u) if x), None)
    if i is None:
        return None if any(v) else 0
    c, rem = divmod(v[i], u[i])
    return c if not rem and all(y == c * x for x, y in zip(u, v)) else None


def _fraction_free_bordered(a: list[int], n: int, u: list[int], c: int) -> tuple[list[int], list[int]]:
    """`charpoly_bordered_int` for a symmetric A and v = c u, from one
    fraction-free elimination of M = 2^w I - S, S = [[A, u], [u^T, 0]] (see
    the module docstring).

    Bareiss's step k sets M_ij to (M_kk M_ij - M_ik M_kj) / (the previous
    pivot) for i, j > k, an exact division that leaves M_(k+1)(k+1) the
    leading principal minor of order k + 2, and keeps M symmetric: each row
    is kept from its diagonal on.
    """
    rows = [a[i * n : (i + 1) * n] for i in range(n)]
    squares = [sum(map(mul, row, row)) + ui * ui for row, ui in zip(rows, u)]
    w = _norm_bound([*squares, sum(map(mul, u, u))]).bit_length() + 1
    top = 1 << w
    m = [[top - row[i], *[-x for x in row[i + 1 :]], -ui] for i, (row, ui) in enumerate(zip(rows, u))]
    m.append([top])
    minors = [1]
    while m:
        head, prev = m[0], minors[-1]
        piv = head[0]
        minors.append(piv)
        m = [[(piv * x - head[t] * y) // prev for x, y in zip(row, head[t:])] for t, row in enumerate(m[1:], 1)]
    phi = _kronecker_digits(minors[n], w)
    chi = _kronecker_digits(minors[n + 1], w)
    return phi, [c * (p - q) for p, q in zip([0, *phi], chi[:n])]


def charpoly_int(a: list[int], n: int) -> list[int]:
    """Ascending integer coefficients of det(xI - A), A row-major n x n."""
    if n == 0:
        return [1]
    return _lifted(_charpoly_mod, a, n)


def charpoly_bordered_int(a: list[int], n: int, u: list[int], v: list[int]) -> tuple[list[int], list[int]]:
    """(det(xI - A), v^T adj(xI - A) u), ascending integer coefficients, for
    A row-major n x n and integer vectors u, v: one pass over the bordered
    matrix B = [[0, v^T], [u, A]], or for a small symmetric A with v = c u
    one fraction-free elimination (see the module docstring).

    The second polynomial has degree below n, and its list has n entries.
    """
    c = _multiple(v, u)
    symmetric = c is not None and is_symmetric_int(a, n)
    if symmetric and n < _LANCZOS_DIM:
        return _fraction_free_bordered(a, n, u, c)
    b = [0, *v]
    for i, ui in enumerate(u):
        b.append(ui)
        b += a[i * n : (i + 1) * n]
    coeffs = _lifted(_symmetric_bordered_mod if symmetric else _bordered_mod, b, n + 1)
    chi0, chi1 = coeffs[: n + 2], coeffs[n + 2 :]
    # det(xI - B) = x det(xI - A) - v^T adj(xI - A) u, expanded along row 0
    return chi1, [(chi1[j - 1] if j else 0) - chi0[j] for j in range(n)]
