"""Numeric root extraction for exact polynomials.

Multiplicities are resolved exactly (square-free decomposition over the
rationals) before any floating point enters.  Each square-free factor is fed
to a companion-matrix eigensolver and the resulting simple roots are polished
by Newton iteration, then residual-checked.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .polynomials import Polynomial, square_free_decomposition


def _normalized_floats(p: Polynomial) -> list[float]:
    scale = max(abs(c) for c in p.coeffs)
    return [float(c / scale) for c in p.coeffs]


def _newton_polish(z: complex, coeffs: list[float], dcoeffs: list[float], tol: float) -> complex:
    for _ in range(60):
        pv = 0j
        for c in reversed(coeffs):
            pv = pv * z + c
        dv = 0j
        for c in reversed(dcoeffs):
            dv = dv * z + c
        if dv == 0:
            break
        step = pv / dv
        z = z - step
        if abs(step) <= tol * max(1.0, abs(z)) * 1e-3:
            break
    return z


def _residual_ok(z: complex, coeffs: list[float], tol: float) -> bool:
    pv = 0j
    bound = 0.0
    az = abs(z)
    power = 1.0
    for c in coeffs:
        bound += abs(c) * power
        power *= az
    for c in reversed(coeffs):
        pv = pv * z + c
    return abs(pv) <= tol * max(bound, 1.0)


def _square_free_roots(p: Polynomial, tol: float) -> list[complex]:
    deg = p.degree
    if deg == 0:
        return []
    coeffs = _normalized_floats(p)
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    seeds = np.roots(list(reversed(coeffs)))
    out = []
    for z in seeds:
        z = _newton_polish(complex(z), coeffs, dcoeffs, tol)
        if not _residual_ok(z, coeffs, tol):
            raise ArithmeticError(f"root refinement failed for {p} near {z}")
        out.append(z)
    return out


def numeric_roots(p: Polynomial, tol: float = 1e-10) -> list[complex]:
    """All deg(p) roots, with exact multiplicities, as complex floats."""
    if p.is_zero:
        raise DomainError("roots of the zero polynomial")
    roots: list[complex] = []
    for factor, mult in square_free_decomposition(p):
        for r in _square_free_roots(factor, tol):
            roots.extend([r] * mult)
    return roots


def real_roots(p: Polynomial, tol: float = 1e-10, imag_tol: float = 1e-7) -> list[float]:
    """numeric_roots for polynomials known to split over the reals."""
    out = []
    for r in numeric_roots(p, tol):
        if abs(r.imag) > imag_tol * max(1.0, abs(r)):
            raise ArithmeticError(f"unexpected non-real root {r} of {p}")
        out.append(r.real)
    return sorted(out)
