#!/usr/bin/env python3
"""Compare benchmark reports of two commits.

    python3 perfbench/compare.py --base BASE1.json ... --head HEAD1.json ...

Run from the repository root.  Each file is a report written by
`run.py --out`.  Reports are grouped by workload and trace mode; for every
metric the table gives each side's median and quartiles and the head's
change relative to the base median.  For end-to-end metrics it also says
whether the head is worse than the base by more than the bound in
BENCHMARK.json.

Reports whose kernel backends differ are refused (exit 2): a compiled
kernel against the pure-Python one must never pass as a code change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(paths: list[str]) -> list[dict]:
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare perfbench reports of two commits.")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)

    base, head = load(args.base), load(args.head)
    backends = {r["record"]["kernel_backend"] for r in base + head}
    if len(backends) != 1:
        print(f"refused: reports use different kernel backends {sorted(backends)}", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    regressions = 0
    groups = sorted({(r["workload"], r["trace"]) for r in base + head})
    for workload, trace in groups:
        b = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        h = [r for r in head if (r["workload"], r["trace"]) == (workload, trace)]
        if not b or not h:
            print(f"{workload} trace={trace}: only one side has reports; skipped")
            continue
        print(f"{workload} trace={trace} ({len(b)} base, {len(h)} head reports)")
        for name, m in b[0]["metrics"].items():
            bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            hv = [r["metrics"][name]["value"] for r in h if name in r["metrics"]]
            if not hv:
                continue
            bq, hq = quartiles(bv), quartiles(hv)
            change = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse = change if better.get(name) == "lower" else -change
            verdict = ""
            if name in bounds:
                if worse > bounds[name]:
                    verdict = f"  WORSE beyond bound {bounds[name]}"
                    regressions += 1
                else:
                    verdict = "  within bound"
            print(f"  {name:30s} base {bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  head {hq[1]:.5g} [{hq[0]:.5g}, {hq[2]:.5g}]"
                  f"  {change:+.1%} {m['unit']}{verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
