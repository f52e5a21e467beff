#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the joinspectra CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out REPORT.json]

Run from the repository root.  The package is imported from ./src, never
from an installed copy.  One run:

1. times `setup_s`: fresh interpreters that import joinspectra.cli and
   build its parser, half before and half after the workload process, each
   followed by a reference import (speed.py);
2. writes the workload's seeded spec files (workloads.py);
3. starts one workload process (worker.py) that warms up and then runs the
   jobs through joinspectra.cli.main in-process for about S seconds,
   timing a reference kernel between jobs (speed.py); with --trace 1 it
   alternates untraced and traced passes (spans.py);
4. checks every distinct answer with check.py, after timing has ended;
5. states set-up and job times at reference speed, which takes out the
   drift of a shared machine's speed, and prints the run record, the metrics with
   units, the wall-clock figures and every failed job, and as its last line
   one JSON object: correct, attempted, failed, metrics.

A wrong exact answer makes `correct` false and the exit code 1.  Jobs that
raise, exit non-zero or report inaccurate eigenvalues are counted in
`failed` and listed, never filtered.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
RUN_LIMIT_S = 170.0
SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter(); import sys; sys.path.insert(0, sys.argv[1]); "
    "from joinspectra import cli; cli.build_parser(); print(time.perf_counter() - t0)"
)
END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def timed_interpreter(root: str, deadline: float, *args: str) -> float:
    """Seconds a fresh `python -I -c CODE ARGS` reports for itself."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {proc.stderr.strip().splitlines()[-1:]}")
    return float(proc.stdout.strip())


def measure_setup(root: str, deadline: float, repeats: int) -> list[tuple[float, float]]:
    """(seconds at reference speed, wall seconds) for fresh interpreters to
    import the CLI and build its parser, each followed by the reference import."""
    src = os.path.join(root, "src")
    samples = []
    for _ in range(repeats):
        wall = timed_interpreter(root, deadline, SETUP_SNIPPET, src)
        ref = timed_interpreter(root, deadline, speed.IMPORT_REFERENCE)
        samples.append((wall * speed.REF_IMPORT_S / ref, wall))
    return samples


def run_worker(plan: dict, workdir: str, deadline: float) -> dict:
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    proc = subprocess.Popen(
        [sys.executable, "-I", os.path.join(HERE, "worker.py"), plan_path, result_path],
        cwd=plan["root"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {err.strip()[-400:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def load_records(path: str) -> tuple[list[dict], dict[tuple[int, int, str], str]]:
    """The workload process's job records, and their distinct answers by
    (round, index, digest).  A record that has an answer carries its digest."""
    records, answers = [], {}
    with open(path, encoding="utf-8") as fh:
        for rec in map(json.loads, fh):
            text = rec.pop("text")
            if text:
                rec["digest"] = hashlib.sha1(text.encode()).hexdigest()
                answers.setdefault((rec["round"], rec["index"], rec["digest"]), text)
            records.append(rec)
    return records, answers


def evaluate(workload: str, seed: int, rounds: list[list[dict]], records: list[dict], answers: dict) -> dict[str, list]:
    """Check every distinct answer.

    Returns the failed jobs by kind: "error" (raised or exited non-zero with
    a message), "inaccurate" (exact parts right, numeric eigenvalues off) and
    "wrong" (an exact answer is wrong, which fails the run).
    """
    refs: dict[tuple[int, int], check.Reference] = {}
    verdicts: dict[tuple[int, int, str], tuple[str, str] | None] = {}
    failures: dict[str, list] = {"error": [], "inaccurate": [], "wrong": []}
    for n, rec in enumerate(records):
        r, j = rec["round"], rec["index"]
        job = rounds[r][j]
        where = {"job": n, "round": r, "index": j, "verb": job["verb"]}
        if rec["rc"] != 0 and rec["error"]:
            failures["error"].append(dict(where, reason=rec["error"]))
            continue
        if "digest" not in rec:
            failures["wrong"].append(dict(where, reason=f"exit {rec['rc']} without an answer"))
            continue
        key = (r, j, rec["digest"])
        if key not in verdicts:
            if (r, j) not in refs and job["verb"] != "verify":
                refs[(r, j)] = check.Reference(job, f"{workload}/{seed}/{r}/{j}")
            verdicts[key] = check.check_output(job, refs.get((r, j)), answers[key])
        verdict = verdicts[key]
        if verdict is None and rec["rc"] != 0:
            verdict = ("wrong", f"exit {rec['rc']} for an answer that checks correct")
        if verdict is not None:
            failures[verdict[0]].append(dict(where, reason=verdict[1]))
    return failures


def end_to_end(seconds: list[float], bad: set[int], limit_ms: float) -> dict:
    """Goodput and median latency of one run; failed jobs take the latency limit."""
    ms = [limit_ms if n in bad else t * 1000.0 for n, t in enumerate(seconds)]
    return {
        "jobs_per_s": (len(seconds) - len(bad)) / sum(seconds),
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": statistics.quantiles(ms, n=10)[-1] if len(ms) >= 100 else None,
    }


def git_commit(root: str) -> str:
    """Commit of a git checkout at root, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(root: str, result: dict) -> dict:
    return {
        "python": result["python"],
        "numpy": result["numpy"],
        "kernel_backend": result["kernel_backend"],
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("JOINSPECTRA_") or k == "SPECTRA_ORACLE_CAP"},
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report (record, metrics, failures) to this JSON file")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "joinspectra", "cli.py")):
        print(f"perfbench: no src/joinspectra/cli.py under {root}; run from the repository root", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench-work", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    try:
        os.makedirs(os.path.join(workdir, "out"))
        measure_setup(root, deadline, 1)  # compiles bytecode, fills the page cache; not used
        setup_samples = measure_setup(root, deadline, SETUP_REPEATS // 2)
        wl = workloads.WORKLOADS[args.workload]
        rounds = workloads.make_rounds(args.workload, args.seed, wl.pool)
        for r, jobs in enumerate(rounds):
            workloads.write_specs(jobs, os.path.join(workdir, "specs"), f"r{r:03d}")
        warmup = workloads.warmup_jobs()
        workloads.write_specs(warmup, os.path.join(workdir, "specs"), "warmup")
        plan = {
            "root": root,
            "outdir": os.path.join(workdir, "out"),
            "rounds": [[{"argv": job["argv"]} for job in jobs] for jobs in rounds],
            "warmup": [{"argv": job["argv"]} for job in warmup],
            "seconds": args.seconds,
            "trace": args.trace,
        }
        result = run_worker(plan, workdir, deadline)
        setup_samples += measure_setup(root, deadline, SETUP_REPEATS - SETUP_REPEATS // 2)
        setup_s = statistics.median(scaled for scaled, _ in setup_samples)
        setup_wall_s = statistics.median(wall for _, wall in setup_samples)
        records, answers = load_records(result["records"])
        failures = evaluate(args.workload, args.seed, rounds, records, answers)
        bad = {f["job"] for kind in failures.values() for f in kind}
        scaled = speed.at_reference_speed([(rec["end"], rec["s"]) for rec in records], result["ref_samples"])
        if args.trace:
            import spans

            with open(result["spans"], encoding="utf-8") as fh:
                spans_list = json.load(fh)
            by_mode: dict[tuple[str, int], list[float]] = {}
            for t, rec in zip(scaled, records):
                by_mode.setdefault((rec["mode"], rec["index"]), []).append(t)
            # each job's traced time over its untraced time in the same pass
            ratios = [t / p for (mode, j), ts in by_mode.items() if mode == "traced" for t, p in zip(ts, by_mode[("plain", j)])]
            scale = {n: t / rec["s"] for n, (t, rec) in enumerate(zip(scaled, records))}
            layer = spans.aggregate(spans_list, result["passes"], statistics.median(ratios), scale)
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit in spans.PER_LAYER}
        else:
            wall = end_to_end([rec["s"] for rec in records], bad, wl.limit_ms)
            values = end_to_end(scaled, bad, wl.limit_ms)
            values.update(
                setup_s=setup_s,
                peak_rss_mb=result["peak_rss_mb"],
            )
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    record = run_record(root, result)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "record": record,
        "attempted": len(records),
        "fail_ratio": len(bad) / len(records),
        "setup_s": setup_s,
        "failures": failures,
        "metrics": metrics,
    }
    if not args.trace:
        summary["wall"] = dict(wall, setup_s=setup_wall_s)
        summary["job_ms_p90"] = values["job_ms_p90"]
        summary["reference_ms"] = 1000 * statistics.median(ref for _, ref in result["ref_samples"])
    if args.trace:
        summary["traced"] = {"passes": result["passes"], "jobs_per_pass": len(records) // (2 * result["passes"]),
                            "missing_wrap_points": result["missing"]}
    _print_summary(summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
    correct = not failures["wrong"]
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(bad), "metrics": metrics}))
    return 0 if correct else 1


def _print_summary(s: dict) -> None:
    rec = s["record"]
    print(f"# perfbench {s['workload']} seed={s['seed']} trace={s['trace']}")
    print(f"# python {rec['python']}  numpy {rec['numpy']}  kernel {rec['kernel_backend']}  nproc {rec['nproc']}"
          f"  commit {rec['commit']}  env {rec['env']}")
    print(f"# jobs attempted {s['attempted']}  fail_ratio {s['fail_ratio']:.4f}  setup_s {s['setup_s']:.4f}")
    if "wall" in s:
        w = s["wall"]
        print(f"# at reference speed (reference kernel {speed.REF_S * 1000:.1f} ms; measured median {s['reference_ms']:.3f} ms):"
              + (f" job_ms_p90 {s['job_ms_p90']:.3f} ms" if s["job_ms_p90"] is not None else " job_ms_p90 needs 100 jobs"))
        print(f"# wall clock: setup_s {w['setup_s']:.4f} s  jobs_per_s {w['jobs_per_s']:.4f} 1/s  job_ms_p50 {w['job_ms_p50']:.3f} ms"
              + (f"  job_ms_p90 {w['job_ms_p90']:.3f} ms" if w["job_ms_p90"] is not None else ""))
    if "traced" in s:
        t = s["traced"]
        print(f"# traced passes {t['passes']} x {t['jobs_per_pass']} jobs; missing wrap points: {t['missing_wrap_points'] or 'none'}")
    for name, m in s["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for kind, failed in s["failures"].items():
        groups: dict[tuple, int] = {}
        for f in failed:
            key = (f["round"], f["index"], f["verb"], f["reason"][:160])
            groups[key] = groups.get(key, 0) + 1
        for (r, j, verb, reason), count in sorted(groups.items()):
            print(f"# {kind}: {s['workload']} job r{r}-j{j} ({verb}) x{count}: {reason}")


if __name__ == "__main__":
    sys.exit(main())
