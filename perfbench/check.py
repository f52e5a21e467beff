"""Independent answer checks for benchmark jobs.

Nothing here imports joinspectra.  Each job's dense matrix is rebuilt from
the spec's definition (the graph it describes, or the block formula for a
coupling override), and a reported characteristic polynomial p is accepted
only if it has degree N, is monic, and p(x0) == det(x0*I - M) exactly at
seeded rational points x0.  The determinant comes from fraction-free
(Bareiss) elimination on the denominator-cleared integer matrix, so it
shares no code or algorithm with the package's Faddeev-LeVerrier kernel.
Numeric spectra are also compared with numpy's symmetric eigensolver.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np

ADJACENCY = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def _params(spec: dict):
    u = spec.get("universal")
    if u is None:
        return ADJACENCY
    return tuple(Fraction(u.get(key, default)) for key, default in zip("alpha beta gamma delta".split(), "1000"))


def _universal(n: int, edges, params) -> list[list[Fraction]]:
    """alpha*A + beta*I + gamma*J + delta*D of the graph (n, edges)."""
    a, b, c, d = params
    adj = [[0] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = 1
    return [
        [a * adj[i][j] + c + ((b + d * sum(adj[i])) if i == j else 0) for j in range(n)]
        for i in range(n)
    ]


def _join_edges(spec: dict, inner=None):
    """Edge list of the join (or of the lexicographic product when inner is given)."""
    comps = [inner] * spec["host"]["n"] if inner is not None else spec["components"]
    offs = [0]
    for g in comps:
        offs.append(offs[-1] + g["n"])
    subsets = spec.get("subsets") or [range(g["n"]) for g in comps]
    edges = [(offs[i] + u, offs[i] + v) for i, g in enumerate(comps) for u, v in g["edges"]]
    for i, j in spec["host"]["edges"]:
        edges += [(offs[i] + u, offs[j] + v) for u in subsets[i] for v in subsets[j]]
    return offs[-1], edges


def _coupled_blocks(spec: dict) -> list[list[Fraction]]:
    """Adjacency blocks on the diagonal, rho_ij times the all-ones block off it."""
    comps = spec["components"]
    offs = [0]
    for g in comps:
        offs.append(offs[-1] + g["n"])
    n = offs[-1]
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, g in enumerate(comps):
        for u, v in g["edges"]:
            m[offs[i] + u][offs[i] + v] = m[offs[i] + v][offs[i] + u] = Fraction(1)
        for j, h in enumerate(comps):
            rho = Fraction(spec["rho"][i][j])
            if i != j and rho:
                for r in range(g["n"]):
                    for c in range(h["n"]):
                        m[offs[i] + r][offs[j] + c] = rho
    return m


def dense_matrix(job: dict) -> list[list[Fraction]]:
    """The matrix whose characteristic polynomial the job must report."""
    spec, verb = job["spec"], job["verb"]
    if verb == "corona":
        host, fam = spec["host"], spec["components"]
        k = host["n"]
        offs = [k]
        for g in fam:
            offs.append(offs[-1] + g["n"])
        edges = [tuple(e) for e in host["edges"]]
        for i, g in enumerate(fam):
            edges += [(offs[i] + u, offs[i] + v) for u, v in g["edges"]]
            edges += [(i, offs[i] + u) for u in range(g["n"])]
        return _universal(offs[-1], edges, ADJACENCY)
    if verb == "lex":
        n, edges = _join_edges(spec, inner=spec["components"][0])
        return _universal(n, edges, _params(spec))
    if spec.get("rho") is not None:
        return _coupled_blocks(spec)
    params = _params(spec)
    if verb == "gcp":
        params = (Fraction(1), Fraction(0), Fraction(0), -Fraction(job["args"][0].partition("=")[2]))
    n, edges = _join_edges(spec)
    return _universal(n, edges, params)


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for col in range(n - 1):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[piv], m[col] = m[col], m[piv]
            sign = -sign
        pc = m[col]
        p = pc[col]
        for i in range(col + 1, n):
            mi = m[i]
            f = mi[col]
            for j in range(col + 1, n):
                mi[j] = (p * mi[j] - f * pc[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1] if n else 1


def char_value(m: list[list[Fraction]], x0: Fraction) -> Fraction:
    """det(x0*I - M), exactly."""
    n = len(m)
    shifted = [[(x0 if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
    den = 1
    for row in shifted:
        for e in row:
            den = den * e.denominator // math.gcd(den, e.denominator)
    ints = [[int(e * den) for e in row] for row in shifted]
    return Fraction(bareiss_det(ints), den**n)


def sample_points(job_key: str) -> list[Fraction]:
    """Two rational points, seeded by the job."""
    rng = random.Random(job_key)
    return [Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(2)]


class Reference:
    """Dense matrix and exact characteristic values for one job's spec, computed once."""

    def __init__(self, job: dict, key: str):
        self.matrix = dense_matrix(job)
        self.points = sample_points(key)
        self.values = [char_value(self.matrix, x0) for x0 in self.points]

    def check_poly(self, coeff_strings) -> str | None:
        coeffs = [Fraction(c) for c in coeff_strings]
        n = len(self.matrix)
        if len(coeffs) != n + 1 or coeffs[-1] != 1:
            return f"expected a monic degree-{n} polynomial, got {len(coeffs) - 1} coefficients of degree"
        for x0, want in zip(self.points, self.values):
            acc = Fraction(0)
            for c in reversed(coeffs):
                acc = acc * x0 + c
            if acc != want:
                return f"charpoly({x0}) = {acc}, but det(x0*I - M) = {want}"
        return None

    def check_eigenvalues(self, values) -> str | None:
        n = len(self.matrix)
        if len(values) != n:
            return f"expected {n} eigenvalues, got {len(values)}"
        truth = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in self.matrix]))
        scale = max(1.0, float(np.max(np.abs(truth)))) if n else 1.0
        worst = max((abs(a - b) for a, b in zip(sorted(values), truth)), default=0.0)
        if worst > 1e-6 * scale:
            return f"eigenvalues off by {worst:.3g} from the dense symmetric eigensolver"
        return None


def check_output(job: dict, ref: Reference | None, text: str) -> tuple[str, str] | None:
    """None when the job's answer is right, else (kind, one-line reason).

    kind is "wrong" when an exact answer is wrong (charpoly, oracle verdict,
    verify verdict); that fails the run.  It is "inaccurate" when the exact
    parts are right but the numeric eigenvalues disagree with the dense
    symmetric eigensolver; the job then counts as failed, like a job that
    raised.
    """
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return "wrong", f"output is not JSON: {exc}"
    verb = job["verb"]
    if verb == "verify":
        if not (isinstance(out, list) and len(out) == 1 and out[0].get("passed") is True):
            return "wrong", f"verify did not report one passing case: {text[:120]!r}"
        return None
    if not isinstance(out, dict) or "charpoly" not in out:
        return "wrong", "output has no charpoly"
    reason = ref.check_poly(out["charpoly"])
    if reason:
        return "wrong", reason
    if "oracle" in out and out["oracle"].get("equal") is not True:
        return "wrong", f"package oracle reports a mismatch: {out['oracle'].get('detail')}"
    if verb in ("spectrum", "corona", "lex") and "oracle" not in out:
        return "wrong", "--verify output carries no oracle verdict"
    if verb == "spectrum":
        reason = ref.check_eigenvalues(out.get("eigenvalues", []))
        if reason:
            return "inaccurate", reason
    return None
