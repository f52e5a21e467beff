"""Brute-force ground truth for every formula route, and the one check.

Routes compute; the oracle checks.  `check` is the only comparison of a
route's result with the truth: the formula's characteristic polynomial must
equal the dense matrix's coefficient for coefficient, and, for a spectrum,
each eigenvalue must be within a relative tolerance of a residual-checked
symmetric eigensolver's.  A check is only worth something when its dense
matrix is built without the blocks the route used, so every spec-level check
compares with `join_truth`, the universal matrix of the join graph built
from the host's edges.  Raw coupled blocks have no graph; for them `assemble`
writes the glued matrix out literally.

The oracle's charpoly runs its own exact integer kernel, never the
Hessenberg kernel the routes use, so a fault in either kernel shows up as a
mismatch instead of being reproduced on both sides.  It forms the power
traces tr(A^k), k = 1..n, from sqrt(n) baby steps and sqrt(n) giant steps in
O(n^3.5) work and turns them into coefficients by Newton's identities
(Faddeev-LeVerrier is the same identities in matrix form, at O(n^4)).  The
traces are computed modulo word primes of its own, on numpy float64 matrix
products that stay exact below 2**53, and lifted by the Chinese remainder
theorem under its own bound |tr(A^k)| <= n * ||A||_inf^k; Newton's
identities then run on Python ints.  numpy is imported inside the functions
that use it, so the CLI starts without it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import accumulate
from operator import mul
from typing import Optional, Sequence

from .errors import DomainError, PreconditionError
from .joins import JoinSpec, UniversalParams, join_graph, universal_matrix
from .matrices import RationalMatrix, charpoly_with
from .polynomials import Polynomial, clear_denominators
from .spectra import CoupledBlocks

ORACLE_CAP_ENV = "SPECTRA_ORACLE_CAP"
DEFAULT_ORACLE_CAP = 128
# relative eigenpair residual the numeric oracle accepts, whatever tolerance a check uses
_RESIDUAL_TOL = 1e-8


def oracle_cap() -> int:
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from None


def assemble(cb: CoupledBlocks) -> RationalMatrix:
    """Dense block matrix: M_i diagonal blocks, rho_ij * u_i v_j^T off-diagonal.

    Filled as ints over one common denominator L, as `universal_matrix` is:
    block i is its cleared ints `nums` times L / `den`, and with u_i and v_j
    cleared to ints over du_i and dv_j, the coupled entry rho_ij u_i[r] v_j[c]
    is u_i[r] v_j[c] times the int rho_ij L / (du_i dv_j).
    `RationalMatrix.from_ints` then reduces L to the least denominator.
    """
    blocks = cb.blocks
    offs = [0, *accumulate(m.rows for m, _, _ in blocks)]
    n = offs[-1]
    us = [clear_denominators(u) for _, u, _ in blocks]
    vs = [clear_denominators(v) for _, _, v in blocks]
    coupled = [(i, j, rho) for i, row in enumerate(cb.rho) for j, rho in enumerate(row) if i != j and rho]
    den = math.lcm(
        *[m.den for m, _, _ in blocks],
        *[rho.denominator * us[i][1] * vs[j][1] for i, j, rho in coupled],
    )
    nums = [0] * (n * n)
    for (m, _, _), off in zip(blocks, offs):
        scale, k = den // m.den, m.rows
        for r in range(k):
            start = (off + r) * n + off
            nums[start : start + k] = [x * scale for x in m.nums[r * k : (r + 1) * k]]
    for i, j, rho in coupled:
        (u, du), (v, dv) = us[i], vs[j]
        scaled_v = [x * rho.numerator * (den // (rho.denominator * du * dv)) for x in v]
        for r, ur in enumerate(u):
            if ur:
                start = (offs[i] + r) * n + offs[j]
                nums[start : start + len(v)] = [ur * x for x in scaled_v]
    return RationalMatrix.from_ints(n, n, nums, den)


def join_truth(spec: JoinSpec) -> RationalMatrix:
    """The matrix every spec-level check compares with: the universal matrix
    (adjacency when the spec names none) of the join graph built from the
    host's edges.  A coupling override is dropped, so a formula that follows
    an override the host does not have is reported as a mismatch."""
    params = spec.universal if spec.universal is not None else UniversalParams.adjacency()
    return universal_matrix(join_graph(replace(spec, rho_override=None)), params)


def _is_word_prime(p: int) -> bool:
    # Miller-Rabin with bases 2, 7 and 61 is exact below 4.7e9 (Jaeschke, Math.
    # Comp. 61, 1993); every candidate here is below 2**27
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in (2, 7, 61):
        if p == b:
            return True
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


_word_primes_by_n: dict[int, list[int]] = {}
# float64 powers of A that one batch of primes may hold at once, in bytes
_BATCH_BYTES = 1 << 22


def _word_primes(n: int):
    """The primes p with n * (p - 1)**2 < 2**53, largest first, kept per n.

    Below that size every product and row sum of n residues in [0, p) is an
    integer below 2**53, which float64 holds exactly.
    """
    known = _word_primes_by_n.setdefault(n, [])
    yield from known
    c = known[-1] - 1 if known else math.isqrt((2**53 - 1) // n) + 1
    while True:
        if c % 2 and _is_word_prime(c):
            known.append(c)
            yield c
        c -= 1


def _trace_residues(stack, p):
    """tr(A^k) mod p for k = 1..n as an (m, n) float64 array, from A's residues
    modulo m word primes: an (m, n, n) float64 stack in [0, p), p an (m, 1, 1)
    float64 array.

    With s = ceil(sqrt(n)) and G = A^s, every k in 1..n is i + j*s with
    1 <= i <= s and 0 <= j < s, and tr(A^i G^j) sums A^i[r, c] * G^j[c, r].
    The s - 1 baby-step and at most s - 2 giant-step products run as batched
    float64 matrix products, each reduced mod p before the next.
    """
    import numpy as np

    m, n = stack.shape[:2]
    # 1/p is shaded down by 2**-40: below 2**53 the floor quotient is then
    # never too large and at most one too small, so one subtraction of p
    # completes the reduction
    inv = 1.0 / p * (1.0 - 2.0**-40)

    def reduce(x):
        q = x * inv
        np.floor(q, out=q)
        q *= p
        x -= q
        return np.subtract(x, p, out=x, where=x >= p)

    s = math.isqrt(n - 1) + 1
    g = (n - 1) // s
    baby = np.empty((s, m, n, n))  # A^1, ..., A^s
    baby[0] = stack
    for i in range(1, s):
        reduce(np.matmul(baby[i - 1], stack, out=baby[i]))
    giant = np.empty((g + 1, m, n, n))  # the transposes of G^0, ..., G^g
    giant[0] = np.identity(n)
    if g:
        giant[1] = baby[-1].transpose(0, 2, 1)
    for j in range(2, g + 1):
        reduce(np.matmul(giant[j - 1], giant[1], out=giant[j]))
    # rows[:, r, i - 1, j] = sum_c A^i[r, c] * G^j[c, r] is row r's share of
    # tr(A^(i + j*s)), below n * (p - 1)**2, for every prime and row in one
    # batched product; the rows are reduced before they are added up, since
    # a whole n**2 sum could pass 2**53
    rows = np.matmul(baby.transpose(1, 2, 0, 3), giant.transpose(1, 2, 3, 0))
    reduce(rows.reshape(m, n, -1))
    return reduce(rows.sum(axis=1).transpose(0, 2, 1).reshape(m, 1, -1))[:, 0, :n]


def _power_traces(a: list[int], n: int) -> list[int]:
    """[tr(A^0), tr(A^1), ..., tr(A^n)] for an integer matrix A, in O(n^3.5).

    The traces are computed modulo word primes by `_trace_residues`
    (Paterson and Stockmeyer's baby and giant steps, SIAM J. Comput. 2, 1973)
    on float64 matrix products, exact since every intermediate integer stays
    below 2**53 (Dumas, Gautier and Pernet, ISSAC 2002).  The primes are
    batched so that a batch's powers of A take at most _BATCH_BYTES.

    With r = ||A||_inf, the largest absolute row sum, |tr(A^k)| <= n * r**k.
    The primes multiply past 2 * n * r**n, so the Chinese remainder theorem
    lifts each trace to its symmetric residue.  A lifted trace outside its
    bound can only come from a wrong residue: it raises ArithmeticError.
    """
    traces = [n] + [0] * n
    if n == 0:
        return traces
    import numpy as np

    r = max(sum(map(abs, a[i : i + n])) for i in range(0, n * n, n))
    bound = 2 * n * r**n
    primes, modulus = [], 1
    for p in _word_primes(n):
        primes.append(p)
        modulus *= p
        if modulus > bound:
            break
    ps = np.array(primes, dtype=np.int64)
    res = np.array(a, dtype=np.int64) % ps[:, None] if r < 2**63 else [[x % p for x in a] for p in primes]
    stack = np.array(res, dtype=np.float64).reshape(-1, n, n)
    pf = ps.astype(np.float64)[:, None, None]
    # per prime, `_trace_residues` holds s + g + 1 <= 2s powers of A
    batch = max(1, _BATCH_BYTES // (8 * n * n * 2 * (math.isqrt(n - 1) + 1)))
    residues = np.concatenate(
        [_trace_residues(stack[i : i + batch], pf[i : i + batch]) for i in range(0, len(primes), batch)]
    )
    # Chinese remainder: residues t_i mod p_i lift to sum(t_i * e_i) mod P
    e = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    half = modulus // 2
    for k, column in enumerate(residues.T.astype(np.int64).tolist(), 1):
        t = sum(map(mul, column, e)) % modulus
        traces[k] = t - modulus if t > half else t
        if abs(traces[k]) > n * r**k:
            raise ArithmeticError(f"power trace {k} lifts outside its bound n * ||A||_inf^{k}")
    return traces


def power_trace_charpoly(a: list[int], n: int) -> list[int]:
    """Ascending coefficients of det(xI - A) for an integer matrix A, in O(n^3.5).

    The power traces p_k = tr(A^k) come from `_power_traces`; Newton's
    identities then give the coefficient c_k of x^(n-k) as

        k * c_k = -(c_(k-1) p_1 + c_(k-2) p_2 + ... + c_0 p_k),   c_0 = 1.

    The c_k of an integer matrix are integers, so a remainder can only mean
    a wrong trace: it raises ArithmeticError.
    """
    p = _power_traces(a, n)
    c = [1]
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(c[k - i] * p[i] for i in range(1, k + 1)), k)
        if rem:
            raise ArithmeticError(f"Newton's identity leaves a remainder at power {k}")
        c.append(ck)
    return c[::-1]


def oracle_charpoly(m: RationalMatrix) -> Polynomial:
    """Exact dense characteristic polynomial from power traces (guarded by the dimension cap)."""
    cap = oracle_cap()
    if m.rows > cap:
        raise DomainError(f"oracle dimension {m.rows} exceeds cap {cap} (set {ORACLE_CAP_ENV} to raise it)")
    return charpoly_with(power_trace_charpoly, m)


def oracle_spectrum(m: RationalMatrix) -> list[float]:
    """Numeric eigenvalues of a symmetric matrix; every eigenpair's residual
    must be within _RESIDUAL_TOL * max(1, max|lambda|).

    numpy is imported here, as in `_power_traces`, so the CLI starts without it.
    """
    import numpy as np

    if not m.is_symmetric():
        raise PreconditionError("numeric oracle spectrum needs a symmetric matrix")
    if m.rows == 0:
        return []
    a = np.array(m.to_floats(), dtype=float)
    w, vecs = np.linalg.eigh(a)
    scale = max(1.0, float(np.max(np.abs(w))))
    resid = a @ vecs - vecs * w
    worst = float(np.max(np.linalg.norm(resid, axis=0)))
    if worst > _RESIDUAL_TOL * scale:
        raise ArithmeticError(f"eigenpair residual {worst} exceeds {_RESIDUAL_TOL * scale}")
    return sorted(float(x) for x in w)


@dataclass(frozen=True)
class CompareResult:
    """Outcome of an exact polynomial comparison."""

    equal: bool
    first_mismatch: Optional[int]
    detail: str

    def __bool__(self) -> bool:
        return self.equal


def compare(formula: Polynomial, oracle: Polynomial) -> CompareResult:
    """Coefficient-for-coefficient verdict; reports the first differing power."""
    if formula == oracle:
        return CompareResult(True, None, "exact match")
    top = max(len(formula.nums), len(oracle.nums))
    for j in range(top):
        if formula[j] != oracle[j]:
            return CompareResult(
                False,
                j,
                f"coefficient of x^{j} differs: formula {formula[j]}, oracle {oracle[j]}",
            )
    return CompareResult(False, None, "polynomials differ")  # pragma: no cover


def check(
    formula: Polynomial,
    truth: RationalMatrix | Polynomial,
    eigenvalues: Optional[Sequence[float]] = None,
    tol: float = 1e-8,
) -> CompareResult:
    """The one verdict on a formula route's result.

    truth is the dense matrix the result describes (or a known closed-form
    polynomial); the formula's charpoly must equal its oracle charpoly
    exactly.  On a match, given sorted eigenvalues, the first one more than
    tol * max(1, max|lambda|) from the oracle's eigensolver turns the verdict
    into a mismatch.
    """
    verdict = compare(formula, truth if isinstance(truth, Polynomial) else oracle_charpoly(truth))
    if not verdict or eigenvalues is None:
        return verdict
    expected = oracle_spectrum(truth)
    bound = tol * max([1.0] + [abs(y) for y in expected])
    for i, (x, y) in enumerate(zip(eigenvalues, expected)):
        if abs(x - y) > bound:
            return CompareResult(False, None, f"eigenvalue {i} differs: formula {x}, oracle {y}")
    return verdict
