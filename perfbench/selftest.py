#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny job counts.

    python3 perfbench/selftest.py

Run from the repository root.  It checks that

- every workload runs untraced (one round) and traced (one untraced and one
  traced pass) and reports a correct result, with no failed job on the
  workloads BENCHMARK.json lists;
- each run reports exactly the metric names and units BENCHMARK.json lists
  for its mode, and the text lines carry `fail_ratio`, and a `job_ms_p90`
  value once a run holds 100 jobs;
- the correctness gate trips when one answer is deliberately corrupted.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr[-600:]}")
    return lines, json.loads(lines[-1])


def check_runs(spec: dict) -> None:
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    gated = {w["name"] for w in spec["workloads"]}
    for name in sorted(workloads.WORKLOADS):
        for trace in (0, 1):
            # --seconds 0: one round untraced, one untraced and one traced pass traced
            lines, result = bench("--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["attempted"] >= 1, result
            assert name not in gated or result["failed"] == 0, f"{name}: a gated workload has failing jobs"
            want = {m["name"]: m["unit"] for m in expected[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{name} trace={trace}: metrics {sorted(got)} != {sorted(want)}"
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            assert any("fail_ratio" in line for line in lines), f"{name}: no fail_ratio line"
            print(f"ok  {name} trace={trace}: {result['attempted']} jobs, {len(got)} metrics")
    # a tiny-mixed round is 60 jobs of a few ms, so two seconds hold several rounds
    lines, result = bench("--workload", "tiny-mixed", "--seed", "1", "--seconds", "2", "--trace", "0")
    assert result["attempted"] >= 100, f"a 2-second tiny-mixed run held only {result['attempted']} jobs"
    assert any(re.search(r"job_ms_p90 \d+\.\d+ ms", line) for line in lines[:-1]), "no job_ms_p90 value"
    print(f"ok  job_ms_p90 reported for a {result['attempted']}-job run")


def check_gate(root: str) -> None:
    """Corrupt one charpoly answer and require evaluate() to call it wrong."""
    workdir = os.path.join(root, ".perfbench-work", f"selftest-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "out"))
    try:
        rounds = workloads.make_rounds("tiny-mixed", 1, 1)
        rounds[0] = [job for job in rounds[0] if job["verb"] == "charpoly"][:2]
        workloads.write_specs(rounds[0], os.path.join(workdir, "specs"), "r000")
        plan = {
            "root": root,
            "outdir": os.path.join(workdir, "out"),
            "rounds": [[{"argv": job["argv"]} for job in rounds[0]]],
            "warmup": [],
            "seconds": 0,
            "trace": 0,
        }
        result = run.run_worker(plan, workdir, time.monotonic() + 120)
        records, answers = run.load_records(result["records"])
        clean = run.evaluate("tiny-mixed", 1, rounds, records, answers)
        assert not any(clean.values()), clean
        key = next(iter(answers))
        answer = json.loads(answers[key])
        answer["charpoly"][0] = str(int(answer["charpoly"][0].split("/")[0]) + 1)
        answers[key] = json.dumps(answer)
        tripped = run.evaluate("tiny-mixed", 1, rounds, records, answers)
        assert len(tripped["wrong"]) == 1 and not tripped["error"], tripped
        print(f"ok  corrupted answer caught: {tripped['wrong'][0]['reason'][:80]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_gate(root)
    check_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
