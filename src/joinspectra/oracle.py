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
O(n^3.5) integer work and turns them into coefficients by Newton's
identities (Faddeev-LeVerrier is the same identities in matrix form, at
O(n^4)).  It uses Python ints throughout: no primes, no CRT, no bound.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import DomainError, PreconditionError
from .joins import JoinSpec, UniversalParams, join_graph, universal_matrix
from .matrices import RationalMatrix, charpoly_with
from .polynomials import Polynomial
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
    """Dense block matrix: M_i diagonal blocks, rho_ij * u_i v_j^T off-diagonal."""
    sizes = [m.rows for m, _, _ in cb.blocks]
    offs = []
    acc = 0
    for s in sizes:
        offs.append(acc)
        acc += s
    n = acc
    out = [[Fraction(0)] * n for _ in range(n)]
    for i, (m, _, _) in enumerate(cb.blocks):
        for r in range(m.rows):
            row = out[offs[i] + r]
            for c in range(m.cols):
                row[offs[i] + c] = m[r, c]
    for i, (_, u_i, _) in enumerate(cb.blocks):
        for j, (_, _, v_j) in enumerate(cb.blocks):
            if i == j or cb.rho[i][j] == 0:
                continue
            rho = cb.rho[i][j]
            for r, ur in enumerate(u_i):
                if ur == 0:
                    continue
                row = out[offs[i] + r]
                for c, vc in enumerate(v_j):
                    if vc != 0:
                        row[offs[j] + c] = rho * ur * vc
    return RationalMatrix(n, n, [x for row in out for x in row])


def join_truth(spec: JoinSpec) -> RationalMatrix:
    """The matrix every spec-level check compares with: the universal matrix
    (adjacency when the spec names none) of the join graph built from the
    host's edges.  A coupling override is dropped, so a formula that follows
    an override the host does not have is reported as a mismatch."""
    params = spec.universal if spec.universal is not None else UniversalParams.adjacency()
    return universal_matrix(join_graph(replace(spec, rho_override=None)), params)


def _power_traces(a: list[int], n: int) -> list[int]:
    """[tr(A^0), tr(A^1), ..., tr(A^n)] for an integer matrix A, in O(n^3.5).

    With s = ceil(sqrt(n)) and G = A^s, every k in 1..n is i + j*s with
    1 <= i <= s, and tr(A^k) = tr(A^i G^j) is one O(n^2) dot product of the
    flattened A^i with the flattened transpose of G^j.  That takes s - 1
    baby-step and at most s - 2 giant-step matrix products (Paterson and
    Stockmeyer, SIAM J. Comput. 2, 1973).
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

    numpy is imported here, the one place in the package that needs it, so
    the CLI starts without it.
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
    top = max(len(formula.coeffs), len(oracle.coeffs))
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
