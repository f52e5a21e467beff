"""Seeded job lists for the four benchmark workloads.

A job is one CLI call.  Every workload is a cycle of *rounds*: a round holds
a fixed multiset of job shapes (verb, block count, block sizes, matrix
parameters) in a seeded order, and only the graphs, subsets and rational
values inside each shape are drawn from the seed.  A run always ends on a
round boundary, so every run measures the same mix of shapes and two seeds
differ only in content.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

PRESETS = {
    "adjacency": None,
    "laplacian": {"alpha": "-1", "beta": "0", "gamma": "0", "delta": "1"},
    "signless": {"alpha": "1", "beta": "0", "gamma": "0", "delta": "1"},
    "seidel": {"alpha": "-2", "beta": "-1", "gamma": "1", "delta": "0"},
    # fixed, so that the cost of a rational-parameter job does not swing with the seed's denominators
    "rational": {"alpha": "1/2", "beta": "-1/3", "gamma": "2/3", "delta": "-1/2"},
}


def _frac(rng: random.Random, lo: int = -3, hi: int = 3, max_den: int = 3, nonzero: bool = False) -> Fraction:
    while True:
        x = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if x or not nonzero:
            return x


def _graph(rng: random.Random, n: int, density: float) -> dict:
    """Random graph on n vertices with exactly round(density * C(n, 2)) edges."""
    pairs = [[i, j] for i in range(n) for j in range(i + 1, n)]
    return {"n": n, "edges": sorted(rng.sample(pairs, round(density * len(pairs))))}


def _connected_host(rng: random.Random, k: int, density: float) -> dict:
    """Random spanning tree on k vertices plus round(density * C(k, 2)) - (k - 1) more edges."""
    order = list(range(k))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, k)}
    rest = [(i, j) for i in range(k) for j in range(i + 1, k) if (i, j) not in edges]
    extra = max(0, round(density * k * (k - 1) / 2) - len(edges))
    edges |= set(rng.sample(rest, min(extra, len(rest))))
    return {"n": k, "edges": sorted([list(e) for e in edges])}


def _rational_params(rng: random.Random) -> dict:
    return {
        "alpha": str(_frac(rng, nonzero=True)),
        "beta": str(_frac(rng)),
        "gamma": str(_frac(rng)),
        "delta": str(_frac(rng)),
    }


def _subsets(rng: random.Random, comps: list[dict]) -> list[list[int]]:
    return [sorted(rng.sample(range(g["n"]), (g["n"] + 1) // 2)) for g in comps]


def _sizes(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    """k block sizes spread evenly over lo..hi, in seeded order."""
    sizes = [lo + (i * (hi - lo + 1)) // k for i in range(k)]
    rng.shuffle(sizes)
    return sizes


# -- one generator per workload: (rng, shape) -> job --------------------------


def _many_blocks(rng: random.Random, shape):
    k, variant = shape
    comps = [_graph(rng, n, 0.5) for n in _sizes(rng, k, 2, 4)]
    spec = {"host": _connected_host(rng, k, 0.25), "components": comps}
    if variant == "subset":
        spec["subsets"] = _subsets(rng, comps)
    elif PRESETS[variant] is not None:
        spec["universal"] = PRESETS[variant]
    return {"verb": "charpoly", "spec": spec, "args": []}


def _few_large_blocks(rng: random.Random, shape):
    verb, sizes, variant = shape
    comps = [_graph(rng, n, 0.3) for n in sizes]
    spec = {"host": {"n": 2, "edges": [[0, 1]]}, "components": comps}
    if verb == "gcp":
        return {"verb": "gcp", "spec": spec, "args": [f"--t={variant}"]}
    spec["universal"] = PRESETS[variant]
    return {"verb": "charpoly", "spec": spec, "args": ["--route", "universal"]}


def _mid_blocks_spec(rng: random.Random, shape) -> dict:
    k, variant = shape
    comps = [_graph(rng, n, 0.4) for n in _sizes(rng, k, 4, 12)]
    spec = {"host": _connected_host(rng, k, 0.4), "components": comps}
    if PRESETS[variant] is not None:
        spec["universal"] = PRESETS[variant]
    return spec


def _oracle_verify(rng: random.Random, shape):
    return {"verb": "verify", "spec": _mid_blocks_spec(rng, shape), "args": ["--json"]}


def _verified_spectrum(rng: random.Random, shape):
    return {"verb": "spectrum", "spec": _mid_blocks_spec(rng, shape), "args": ["--verify"]}


def _tiny_mixed(rng: random.Random, shape):
    k = rng.randint(1, 4)
    comps = [_graph(rng, rng.randint(1, 4), 0.5) for _ in range(k)]
    host = _graph(rng, k, 0.6)
    spec = {"host": host, "components": comps}
    if shape == "verify-universal":
        spec["universal"] = _rational_params(rng)
        return {"verb": "verify", "spec": spec, "args": ["--json"]}
    if shape == "verify-subset":
        spec["subsets"] = _subsets(rng, comps)
        return {"verb": "verify", "spec": spec, "args": ["--json"]}
    if shape == "charpoly-rho":
        spec["rho"] = [[str(_frac(rng)) if i != j else "0" for j in range(k)] for i in range(k)]
        return {"verb": "charpoly", "spec": spec, "args": []}
    if shape == "corona":
        return {"verb": "corona", "spec": spec, "args": ["--verify"]}
    if shape == "lex":
        spec = {"host": host, "components": [comps[0]], "universal": _rational_params(rng)}
        spec["universal"]["delta"] = "0"
        return {"verb": "lex", "spec": spec, "args": ["--verify"]}
    variant = rng.choice(["adjacency", "laplacian", "signless"])
    if PRESETS[variant] is not None:
        spec["universal"] = PRESETS[variant]
    return {"verb": "spectrum", "spec": spec, "args": ["--verify"]}


@dataclass(frozen=True)
class Workload:
    generate: Callable  # (rng, shape) -> job
    shapes: list  # the multiset of job shapes in every round
    pool: int  # distinct rounds written per run; a run cycles through them
    limit_ms: float  # latency charged to a failed job; above every successful job at the seed


WORKLOADS = {
    "many-blocks": Workload(
        _many_blocks,
        # k per variant chosen so that every shape costs about the same at the seed
        # commit: the job-time distribution is then unimodal and its median steady
        [
            (12, "adjacency"), (13, "adjacency"),
            (14, "laplacian"), (15, "laplacian"),
            (12, "signless"), (13, "signless"),
            (12, "seidel"), (13, "seidel"),
            (12, "rational"), (13, "rational"),
            (10, "subset"), (11, "subset"),
        ],
        pool=8,
        limit_ms=20000.0,
    ),
    "few-large-blocks": Workload(
        _few_large_blocks,
        # sizes and parameters chosen so that every shape costs about the same
        # at the seed commit, as in many-blocks
        [
            ("charpoly", (28, 22), "laplacian"),
            ("gcp", (24, 26), "1/2"),
            ("charpoly", (26, 24), "rational"),
            ("gcp", (22, 28), "-2/3"),
        ],
        pool=6,
        limit_ms=30000.0,
    ),
    "oracle-verify": Workload(
        _oracle_verify,
        [(k, v) for k in (3, 4, 5) for v in ("adjacency", "laplacian", "signless")],
        pool=24,
        limit_ms=10000.0,
    ),
    # not in BENCHMARK.json: about 45% of its jobs fail in real_roots at the
    # seed commit, and a gated workload must have no failing job; run it by
    # name to see the failures
    "verified-spectrum": Workload(
        _verified_spectrum,
        [(k, v) for k in (3, 4, 5) for v in ("adjacency", "laplacian", "signless")],
        pool=24,
        limit_ms=10000.0,
    ),
    "tiny-mixed": Workload(
        _tiny_mixed,
        ["verify-universal", "verify-subset", "charpoly-rho", "corona", "lex", "spectrum"] * 10,
        pool=40,
        limit_ms=1000.0,
    ),
}


def warmup_jobs() -> list[dict]:
    """One small job per CLI verb, run before timing starts."""
    rng = random.Random("warmup")
    jobs = [_tiny_mixed(rng, shape) for shape in ("verify-universal", "charpoly-rho", "corona", "lex", "spectrum")]
    jobs.append(_few_large_blocks(rng, ("gcp", (3, 4), "-1/2")))
    return jobs


def make_rounds(workload: str, seed: int, rounds: int) -> list[list[dict]]:
    """`rounds` rounds of jobs; each job carries its verb, spec object and extra args."""
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for _ in range(rounds):
        order = list(wl.shapes)
        rng.shuffle(order)
        out.append([wl.generate(rng, shape) for shape in order])
    return out


def write_specs(jobs: list[dict], directory: str, prefix: str) -> None:
    """Write each job's spec file and attach the job's argv (without -o)."""
    os.makedirs(directory, exist_ok=True)
    for j, job in enumerate(jobs):
        path = os.path.join(directory, f"{prefix}-j{j:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job["spec"], fh)
        job["argv"] = [job["verb"], path, *job["args"]]
