"""Exact characteristic polynomials of integer matrices, by Hessenberg reduction
modulo a product of primes below 2^62; a bordered symmetric block by Lanczos
tridiagonalization modulo smaller word primes, all at once on one numpy
int64 stack, or, when small, by one fraction-free elimination at x = 2^w.

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

From `_LANCZOS_DIM` on, the block takes Lanczos tridiagonalization of A
from u (Lanczos, *J. Res. NBS* 45, 1950), one step per row, modulo word
primes p rather than P, all of them at once as one int64 numpy stack: an
(m, n) array of vectors, one row per prime, so that a step is a few array
operations (A r, one Gram matrix for the three dot products, one update)
whatever m is.  The primes are the largest with max(n, 3) (p - 1)^2 < 2^63:
every number the pass forms is a sum of at most n products of residues
(a dot product, A r) or of three (an update), so int64 holds it exactly
(Dumas, Gautier and Pernet, ISSAC 2002, the oracle's argument, with
integers in place of floats).  They are taken in turn until their product
exceeds 2B for the same bound B, and the two polynomials det(xI - B) and
det(xI - A) are joined by one Chinese remainder step and read as symmetric
residues, so the integers are the ones the Hessenberg pass gives.  The
kernel's word primes are its own (`_stack_bound`), none of the oracle's.
The basis r_0 = u, r_1, ... of u's Krylov space is built by the
three-term recurrence, fraction-free, so that it is orthogonal under x^T y;
when the space closes it restarts at the next e_i projected off the basis,
the only place, besides one leading coefficient at the end, where the pass
inverts anything, and it inverts each norm once.  Every norm |r_j|^2 is
nonzero mod p, so Q^T Q is invertible, hence Q is, and Q^-1 A Q = T is
tridiagonal (it splits at restarts): det(xI - A) = det(xI - T), read off
T's three-term recurrence.  As the basis starts at u, Q^-1 u = e_0, and, v
being a multiple of u and the basis orthogonal, v^T Q = v^T u e_0^T; thus
v^T adj(xI - A) u = v^T u det(xI - T[1:, 1:]), and the one recurrence run
over T's trailing blocks gives det(xI - B) = x det(xI - A) - v^T u
det(xI - T[1:, 1:]) mod p.  That, not det(xI - T[1:, 1:]) itself, is what
is lifted: the latter is the numerator divided by v^T u, no integer
polynomial under the bound.  When u is an eigenvector of A the space closes
at the first step, T splits after its first entry mu, and the numerator is
v^T u det(xI - A) / (x - mu).  Each p is a field, so every nonzero norm is a
unit and the composite modulus's split has nothing to do here.  But over a
finite field the recurrence can meet a nonzero vector of norm 0 (Eberly and
Kaltofen, ISSAC 1997), which never happens over Q, and the images of one
rational vector can vanish mod some primes alone: a prime whose vector is
nonzero with norm 0, or whose Krylov space closes at another step than the
other primes', leaves the stack and runs the Hessenberg pass alone, as all
would with no restart vector left.  A u that is 0 mod every prime needs no
fallback: the numerator is then 0, and the basis starts at e_0.  numpy is
imported inside the pass, so a run whose blocks all lie below the threshold
never loads it; integer products start no BLAS threads.  A plain charpoly
(`charpoly_int`) and an asymmetric block take the Hessenberg pass.
"""

from __future__ import annotations

import math
from itertools import count
from operator import mul
from typing import Callable, Iterator, Sequence

from .polynomials import _kronecker_digits

# The kernel's name, exported as joinspectra.KERNEL_BACKEND and printed by
# `joinspectra verify`.  It stays "python" though the Lanczos pass runs on
# numpy: `perfbench/compare.py` refuses to compare reports whose backends
# differ, and `verify`'s golden output holds the string.
BACKEND = "python"

# Deterministic Miller-Rabin bases: exact for every n below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_primes: dict[int, tuple[int, ...]] = {}  # by bound

# The block dimension from which a bordered pass over a symmetric block with
# v = c u takes the word-prime Lanczos pass; below it the fraction-free pass
# runs, whose integers grow with n where Lanczos pays a fixed cost of numpy
# calls per step.  Per call through `charpoly_bordered_int`, fraction-free
# against Lanczos, on seeded G(n, 0.4) adjacency matrices A with u = v = 1
# (Python 3.11, numpy 2.4, 2-vCPU host, the faster of 15 interleaved rounds):
# at n = 4, 8, 12, 14, 15, 16, 20, 28 they took 42/330, 71/269, 173/290,
# 309/341, 364/405, 471/435, 1344/554 and 8172/846 us; on the
# rational-parameter blocks 3A + 2D of the same graphs 44/333, 79/292,
# 222/329, 440/374, 553/427, 804/458, 3035/606 and 25297/967 us.  The
# crossover lies between 15 and 16 rows for adjacency blocks and between 13
# and 14 for rational ones; at 15 the two kinds together favour Lanczos.
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


def prime(i: int, below: int = 2**62) -> int:
    """The (i+1)-th largest prime below `below`.

    The tuple of primes found so far for a bound only ever grows by
    replacement, and every thread computes the same sequence, so a race
    costs recomputation, never a wrong prime.
    """
    found = _primes.get(below, ())
    if len(found) <= i:
        more = list(found)
        c = more[-1] - 2 if more else (below - 2) | 1
        while len(more) <= i:
            if _is_prime(c):
                more.append(c)
            c -= 2
        found = _primes[below] = tuple(more)
    return found[i]


def _ceil_sqrt(s: int) -> int:
    r = math.isqrt(s)
    return r if r * r == s else r + 1


def coeff_bound(a: list[int], n: int) -> int:
    """max_k C(n, k) * (product of the k largest row 2-norms, rounded up)."""
    rows = (a[i * n : (i + 1) * n] for i in range(n))
    return _norm_bound([sum(map(mul, row, row)) for row in rows])


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


def _stack_bound(n: int) -> int:
    """The bound below which the primes p of the Lanczos stack for an n x n A
    satisfy max(n, 3) (p - 1)^2 < 2^63.

    Every number the stack forms is a sum of at most max(n, 3) products of
    two factors each below p in absolute value (a dot product of n residues;
    A r, with A's entries kept as they are only when each lies below every
    prime; a three-term update), so it lies strictly between -2^63 and 2^63
    and int64 holds it exactly.
    """
    return math.isqrt((2**63 - 1) // max(n, 3)) + 2


def _stack_residues(xs: list[int], primes: list[int]):
    """xs modulo each of the primes, an int64 array of shape (len(primes),
    len(xs)); past int64, reduced as Python ints."""
    import numpy as np

    if max(map(abs, xs), default=0) < 2**63:
        return np.array(xs, dtype=np.int64) % np.array(primes, dtype=np.int64)[:, None]
    return np.array([[x % q for x in xs] for q in primes], dtype=np.int64).reshape(len(primes), len(xs))


def _inverses(x, primes: list[int]):
    """x^-1 modulo each of the primes, row by row, for an int64 array x of
    nonzero residues with one row per prime."""
    import numpy as np

    return np.array([[pow(y, -1, q) for y in row] for row, q in zip(x.tolist(), primes)], dtype=np.int64).reshape(x.shape)


def _lanczos_residues(b: list[int], size: int, primes: list[int]):
    """`_bordered_mod(b, size, p)` for each of the word primes, as the column
    of an int64 array, for B = [[0, v^T], [u, A]] with A symmetric and v =
    c u: one Lanczos pass from u modulo every prime at once, an int64 stack
    with one row per prime (see the module docstring).

    The basis is kept fraction-free: with N_j = |r_j|^2, A_j = r_j^T A r_j
    and B_j = r_(j-1)^T A r_j, r_(j+1) = N_j N_(j-1) A r_j - A_j N_(j-1) r_j
    - B_j N_j r_(j-1) is orthogonal to r_j and r_(j-1), hence (A symmetric)
    to every earlier r.  The three dot products are entries of one Gram
    matrix of (r_(j-1), r_j, A r_j), and the update is one product with it.
    When r_(j+1) = 0 the Krylov space is invariant, and the basis restarts at
    the next e_i projected off it; as A r_j then lies in the closed space,
    the next B is 0 and T splits there.  With Q_j = N_j ... N_(n-1)
    det(xI - T[j:, j:]), Q_n = 1 and Q_j = (N_j x - A_j) Q_(j+1) -
    B_(j+1)^2 Q_(j+2): no inverse is taken but those of the norms at a
    restart, each once, and of Q_0's leading coefficient at the end.  A
    prime whose vector is nonzero with norm 0, or whose Krylov space closes
    at another step than the others', leaves the stack and runs
    `_bordered_mod` alone, as every prime does when no restart vector is left.
    """
    import numpy as np

    n = size - 1
    u, v = [b[i * size] for i in range(1, size)], b[1:size]
    flat = [x for i in range(1, size) for x in b[i * size + 1 : (i + 1) * size]]
    alive, plist = list(range(len(primes))), list(primes)
    p = np.array(plist, dtype=np.int64)[:, None]
    # A's entries as they are when each lies below every prime, else an
    # (m, n, n) stack of A mod each prime
    signed = max(map(abs, flat), default=0) < min(plist)
    a = np.array(flat, dtype=np.int64).reshape(n, n) if signed else _stack_residues(flat, plist).reshape(-1, n, n)
    # r_j at j + 1, r_(-1) = 0 at 0, and A r_j at j + 2 while step j runs
    basis = np.zeros((len(plist), n + 2, n), dtype=np.int64)
    basis[:, 1] = _stack_residues(u, plist)
    steps = np.zeros((n + 1, len(plist), 3), dtype=np.int64)  # B_j, A_j, N_j; 0 at n
    scale = np.ones((len(plist), 3), dtype=np.int64)  # N_j, N_(j-1), N_(j-1)
    signs = np.array([-1, -1, 1], dtype=np.int64)
    dots = np.array([2, 5, 4])  # (r_(j-1), A r_j), (r_j, A r_j), (r_j, r_j) in the Gram matrix
    invs = np.zeros((len(plist), 0), dtype=np.int64)  # inverses of the first norms
    nexti = 0
    for j in range(n):
        w = basis[:, j : j + 3]
        while True:
            if signed:
                np.matmul(a, w[:, 1].T, out=w[:, 2].T)
            else:
                np.matmul(a, w[:, 1, :, None], out=w[:, 2, :, None])
            np.remainder(w[:, 2], p, out=w[:, 2])
            np.remainder((w @ w.transpose(0, 2, 1)).reshape(-1, 9).take(dots, 1), p, out=steps[j])
            norms = steps[j, :, 2].tolist()
            if 0 not in norms:
                break
            if nexti < n and not w[:, 1].any():
                # every Krylov space closed: restart at the next e_i off the basis
                if invs.shape[1] < j:
                    invs = np.concatenate([invs, _inverses(steps[invs.shape[1] : j, :, 2].T, plist)], 1)
                q = basis[:, 1 : j + 1]
                w[:, 1] = -((q[:, :, nexti] * invs % p)[:, None] @ q)[:, 0] % p
                w[:, 1, nexti] = (w[:, 1, nexti] + 1) % p[:, 0]
                nexti += 1
                continue
            # a prime whose vector is 0 closed its space alone (or found no
            # restart vector); one whose vector is not met an isotropic vector
            keep = np.array(norms) != 0
            alive = [i for i, k in zip(alive, norms) if k]
            plist = [q for q, k in zip(plist, norms) if k]
            p, basis, scale, invs, steps = p[keep], basis[keep], scale[keep], invs[keep], steps[:, keep]
            if not signed:
                a = a[keep]
            w = basis[:, j : j + 3]
            break
        if not alive:
            break
        x = steps[j]
        scale[:, 1:] = scale[:, :1]
        scale[:, 0] = x[:, 2]
        w[:, 2] = ((x * scale % p * signs)[:, None] @ w)[:, 0] % p
    out = np.empty((2 * n + 3, len(primes)), dtype=np.int64)
    if alive:
        p = p[:, 0]
        nrm, neg_a = steps[:, :, 2], -steps[:, :, 1]
        neg_sq = -(steps[:, :, 0] * steps[:, :, 0] % p)
        cur, prev = np.zeros((2, n + 1, len(plist)), dtype=np.int64)
        cur[0] = 1
        for j in range(n - 1, -1, -1):
            new = neg_a[j] * cur
            new += neg_sq[j + 1] * prev
            new[1:] += nrm[j] * cur[:-1]
            cur, prev = np.remainder(new, p, out=new), cur
        # phi = Q_0 / (N_0 ... N_(n-1)) and psi = Q_1 / (N_1 ... N_(n-1)), 0 when n = 0
        inv = _inverses(cur[n:].T, plist)[:, 0]
        phi, psi = cur * inv % p, prev * (nrm[0] * inv % p) % p
        # det(xI - B) = x phi - v^T u psi, and psi has degree n - 1
        chi = np.zeros((n + 2, len(plist)), dtype=np.int64)
        chi[1:] = phi
        chi[:-1] -= _stack_residues([sum(map(mul, v, u))], plist)[:, 0] * psi
        out[:, alive] = np.concatenate([chi % p, phi])
    for i in sorted(set(range(len(primes))) - set(alive)):
        out[:, i] = _bordered_mod(b, size, primes[i])
    return out


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


def _covering(primes: Iterator[int], a: list[int], n: int) -> tuple[list[int], int]:
    """The first of `primes` whose product P exceeds 2 `coeff_bound(a, n)`, and P."""
    bound2 = 2 * coeff_bound(a, n)
    taken: list[int] = []
    modulus = 1
    while modulus <= bound2:
        taken.append(next(primes))
        modulus *= taken[-1]
    return taken, modulus


def _symmetric_residues(coeffs: list[int], modulus: int) -> list[int]:
    """Residues mod P read in (-P/2, P/2]."""
    half = modulus >> 1
    return [c - modulus if c > half else c for c in coeffs]


def _lifted(mod: _Mod, a: list[int], n: int) -> list[int]:
    """`mod(a, n, P)` read as symmetric residues, P the first primes below
    2**62 whose product exceeds 2 `coeff_bound(a, n)`."""
    primes, modulus = _covering(map(prime, count()), a, n)
    return _symmetric_residues(_residues(mod, a, n, primes), modulus)


def _lanczos_lifted(b: list[int], size: int) -> list[int]:
    """`_lifted(_bordered_mod, b, size)` for B = [[0, v^T], [u, A]] with A
    symmetric and v = c u, from `_lanczos_residues` over word primes joined
    by one Chinese remainder step: t_i mod p_i lifts to sum(t_i e_i) mod P
    with e_i = (P / p_i) ((P / p_i)^-1 mod p_i)."""
    below = _stack_bound(size - 1)
    primes, modulus = _covering((prime(i, below) for i in count()), b, size)
    e = [modulus // q * pow(modulus // q, -1, q) for q in primes]
    rows = _lanczos_residues(b, size, primes).tolist()
    return _symmetric_residues([sum(map(mul, row, e)) % modulus for row in rows], modulus)


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
    coeffs = _lanczos_lifted(b, n + 1) if symmetric else _lifted(_bordered_mod, b, n + 1)
    chi0, chi1 = coeffs[: n + 2], coeffs[n + 2 :]
    # det(xI - B) = x det(xI - A) - v^T adj(xI - A) u, expanded along row 0
    return chi1, [(chi1[j - 1] if j else 0) - chi0[j] for j in range(n)]
