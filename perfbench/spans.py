"""Spans around joinspectra's layers, recorded from outside the package.

`from .x import y` binds y into the importing module when it is imported,
so a layer function is wrapped at every module attribute its callers look
it up through, as listed in WRAPS.  A wrap point the package no longer has
is skipped and reported, so the benchmark keeps working while the package
is refactored; that layer's metrics then read 0.

Each span is (id, parent id, job id, layer, function, start, end, attrs).
Spans stay in memory and are written out once, after the traced passes.
"""

from __future__ import annotations

import functools
import importlib
import time

# (layer, function, modules whose attribute callers look the function up through)
WRAPS = [
    ("kernel", "charpoly_int", ["matrices"]),
    ("kernel", "charpoly_adjugate_int", ["matrices"]),
    ("matrices", "charpoly", ["matrices", "spectra", "oracle", "joins"]),
    ("matrices", "charpoly_and_adjugate", ["matrices"]),
    ("resolvent", "resolvent_form", ["resolvent", "spectra"]),
    ("coupling", "coupling_poly", ["spectra"]),
    ("coupling", "poly_det", ["spectra"]),
    ("spectra", "join_charpoly", ["cli", "verification"]),
    ("spectra", "hgen_join_charpoly", ["cli"]),
    ("spectra", "hjoin_universal_charpoly", ["cli"]),
    ("spectra", "generalized_charpoly", ["cli"]),
    ("spectra", "join_spectrum", ["cli"]),
    ("spectra", "hjoin_universal_spectrum_regular", ["cli"]),
    ("spectra", "hjoin_universal_spectrum_alpha_delta_zero", ["cli"]),
    ("spectra", "corona_charpoly", ["cli"]),
    ("spectra", "lex_universal_charpoly", ["cli"]),
    ("spectra", "coupled_charpoly", ["spectra", "verification"]),
    ("spectra", "coupled_spectrum", ["spectra"]),
    ("polynomials", "square_free_decomposition", ["cli", "spectra"]),
    ("polynomials", "poly_gcd", ["spectra"]),
    ("roots", "real_roots", ["spectra", "resolvent"]),
    ("oracle", "assemble", ["oracle", "verification"]),
    ("oracle", "assemble_universal", ["oracle"]),
    ("oracle", "oracle_charpoly", ["oracle", "cli", "verification"]),
    ("joins", "JoinSpec.from_json_obj", ["joins"]),
    ("joins", "universal_matrix", ["joins", "spectra", "oracle", "cli", "verification"]),
    ("joins", "join_graph", ["joins", "verification"]),
    ("joins", "lexicographic", ["joins", "cli"]),
    ("joins", "generalized_corona", ["joins", "cli"]),
    ("cli", "cmd_charpoly", ["cli"]),
    ("cli", "cmd_spectrum", ["cli"]),
    ("cli", "cmd_gcp", ["cli"]),
    ("cli", "cmd_corona", ["cli"]),
    ("cli", "cmd_lex", ["cli"]),
    ("cli", "cmd_verify", ["cli"]),
    ("cli", "dumps_result", ["cli"]),
    ("verification", "verify_spec", ["verification", "cli"]),
    ("verification", "verify_blocks", ["verification"]),
]


def _coeff_bits(result) -> int:
    coeffs = result[0] if isinstance(result, tuple) else result
    return max((abs(c).bit_length() for c in coeffs), default=0)


def _dim(m) -> int:
    m = getattr(m, "matrix", m)
    return getattr(m, "rows", 0)


# function -> (attrs from the call's arguments, attrs from its result)
ATTRS = {
    "charpoly_int": (lambda a, kw: {"dim": a[1]}, lambda r: {"bits": _coeff_bits(r)}),
    "charpoly_adjugate_int": (lambda a, kw: {"dim": a[1]}, lambda r: {"bits": _coeff_bits(r)}),
    "resolvent_form": (None, lambda r: {"den_degree": max(r.den.degree, 0)}),
    "coupling_poly": (lambda a, kw: {"k": len(a[0])}, None),
    "poly_det": (lambda a, kw: {"k": len(a[0])}, None),
    "square_free_decomposition": (lambda a, kw: {"degree": max(a[0].degree, 0)}, None),
    "real_roots": (lambda a, kw: {"degree": max(a[0].degree, 0)}, None),
    "oracle_charpoly": (lambda a, kw: {"dim": _dim(a[0])}, None),
}


class Recorder:
    """In-memory span list plus the stack of open spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.job = -1

    def wrap(self, layer: str, name: str, fn):
        on_args, on_result = ATTRS.get(name, (None, None))
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            attrs = on_args(args, kwargs) if on_args else {}
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                attrs["failed"] = 1
                raise
            else:
                t1 = clock()
                if on_result:
                    attrs.update(on_result(result))
                return result
            finally:
                stack.pop()
                spans[sid] = (sid, parent, self.job, layer, name, t0, t1, attrs)

        return traced

    def job_span(self, job: int, t0: float, t1: float) -> None:
        """Root span of one CLI call, recorded after the call returns."""
        sid = len(self.spans)
        self.spans.append((sid, -1, job, "job", "cli.main", t0, t1, {}))


class Installed:
    """Wrappers in place on the imported package; `remove()` restores the originals."""

    def __init__(self, recorder: Recorder, package: str = "joinspectra"):
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        for layer, name, modules in WRAPS:
            owner_name, _, attr = name.rpartition(".")
            for modname in modules:
                try:
                    mod = importlib.import_module(f"{package}.{modname}")
                except ImportError:
                    self.missing.append(f"{modname}.{name}")
                    continue
                target = getattr(mod, owner_name) if owner_name else mod
                raw = vars(target).get(attr) if isinstance(target, type) else getattr(target, attr, None)
                if raw is None:
                    self.missing.append(f"{modname}.{name}")
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(recorder.wrap(layer, attr, raw.__func__))
                else:
                    wrapped = recorder.wrap(layer, attr, raw)
                self.saved.append((target, attr, raw))
                setattr(target, attr, wrapped)
                if isinstance(target, type):
                    break  # a class attribute is shared by every module that imports the class

    def remove(self) -> None:
        for target, attr, raw in reversed(self.saved):
            setattr(target, attr, raw)
        self.saved.clear()


# -- aggregation ---------------------------------------------------------------

PER_LAYER = [
    ("kernel.calls", "count"),
    ("kernel.route_s", "s"),
    ("kernel.oracle_s", "s"),
    ("kernel.adjugate_calls", "count"),
    ("kernel.dim_max", "count"),
    ("kernel.dim4_sum", "count"),
    ("kernel.coeff_bits_max", "bits"),
    ("matrices.calls", "count"),
    ("matrices.self_s", "s"),
    ("resolvent.calls", "count"),
    ("resolvent.self_s", "s"),
    ("resolvent.den_degree_sum", "count"),
    ("coupling.calls", "count"),
    ("coupling.self_s", "s"),
    ("coupling.k_max", "count"),
    ("spectra.calls", "count"),
    ("spectra.self_s", "s"),
    ("polynomials.sqfree_s", "s"),
    ("polynomials.sqfree_degree_max", "count"),
    ("polynomials.gcd_s", "s"),
    ("roots.calls", "count"),
    ("roots.self_s", "s"),
    ("roots.degree_sum", "count"),
    ("roots.failed", "count"),
    ("oracle.calls", "count"),
    ("oracle.self_s", "s"),
    ("oracle.dim_max", "count"),
    ("joins.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.emit_s", "s"),
    ("verification.self_s", "s"),
    ("unattributed_s", "s"),
    ("oracle.vs_route", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def aggregate(spans: list[tuple], passes: int, overhead_ratio: float, scale: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics of the traced passes, per pass (counts and maxima are exact).

    Times are multiplied by their job's factor in `scale`, which states them
    at reference speed (speed.py).
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    top_time: dict[int, float] = {}  # per job: time inside its outermost layer spans
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[6] - s[5])
        elif s[3] != "job":
            top_time[s[2]] = top_time.get(s[2], 0.0) + (s[6] - s[5])

    def ancestors(s):
        while s[1] >= 0:
            s = by_id[s[1]]
            yield s

    v = {name: 0.0 for name, _ in PER_LAYER}
    oracle_by_job: dict[int, float] = {}
    route_by_job: dict[int, float] = {}
    for s in spans:
        sid, parent, job, layer, name, t0, t1, attrs = s
        dur = (t1 - t0) * scale[job]
        if layer == "job":
            v["unattributed_s"] += dur - top_time.get(job, 0.0) * scale[job]
            continue
        self_s = dur - child_time.get(sid, 0.0) * scale[job]
        lineage = list(ancestors(s))
        nested = any(a[3] == layer for a in lineage)
        if layer == "kernel":
            under_oracle = any(a[3] == "oracle" for a in lineage)
            v["kernel.oracle_s" if under_oracle else "kernel.route_s"] += self_s
            v["kernel.calls"] += 1
            v["kernel.adjugate_calls"] += name == "charpoly_adjugate_int"
            v["kernel.dim_max"] = max(v["kernel.dim_max"], attrs["dim"])
            v["kernel.dim4_sum"] += attrs["dim"] ** 4
            v["kernel.coeff_bits_max"] = max(v["kernel.coeff_bits_max"], attrs.get("bits", 0))
        elif layer == "polynomials":
            if name == "square_free_decomposition":
                v["polynomials.sqfree_s"] += self_s
                v["polynomials.sqfree_degree_max"] = max(v["polynomials.sqfree_degree_max"], attrs["degree"])
            else:
                v["polynomials.gcd_s"] += self_s
        else:
            if f"{layer}.self_s" in v:
                v[f"{layer}.self_s"] += self_s
            if f"{layer}.calls" in v and not nested:
                v[f"{layer}.calls"] += 1
            if layer == "cli" and name == "dumps_result":
                v["cli.emit_s"] += self_s
            elif layer == "resolvent":
                v["resolvent.den_degree_sum"] += attrs.get("den_degree", 0)
            elif layer == "coupling":
                v["coupling.k_max"] = max(v["coupling.k_max"], attrs["k"])
            elif layer == "roots":
                v["roots.degree_sum"] += attrs["degree"]
                v["roots.failed"] += attrs.get("failed", 0)
            elif layer == "oracle":
                if name == "oracle_charpoly":
                    v["oracle.dim_max"] = max(v["oracle.dim_max"], attrs["dim"])
                if not nested:
                    oracle_by_job[job] = oracle_by_job.get(job, 0.0) + dur
                    if any(a[3] == "spectra" for a in lineage):  # an oracle check inside a route call
                        route_by_job[job] = route_by_job.get(job, 0.0) - dur
            elif layer == "spectra" and not nested:
                route_by_job[job] = route_by_job.get(job, 0.0) + dur
    both = [j for j in oracle_by_job if route_by_job.get(j)]
    route = sum(route_by_job[j] for j in both)
    v["oracle.vs_route"] = sum(oracle_by_job[j] for j in both) / route if route else 0.0
    maxima = {"kernel.dim_max", "kernel.coeff_bits_max", "coupling.k_max", "polynomials.sqfree_degree_max", "oracle.dim_max"}
    for name in v:
        if name not in maxima and name != "oracle.vs_route":
            v[name] /= passes
    v["trace.overhead_ratio"] = overhead_ratio
    return v
