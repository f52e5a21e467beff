"""Workload process: runs one plan's jobs through joinspectra.cli.main in-process.

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan (written by run.py) holds the warm-up jobs, the rounds of jobs,
the run length and the trace flag.  One client, one job at a time, no
threads.  Every job writes its answer with -o to one file, emptied before
each call.  Each job's record (time, exit code, first line of stderr, the
answer's text) is appended to records.jsonl as it is made, for run.py to
check after timing ends.  No job's record or answer stays in memory, so
the process's peak RSS does not depend on how many jobs ran.

Untraced mode cycles through the rounds until the run length is reached,
ending on a round boundary.  Traced mode alternates an untraced and a
traced pass over the first round until the run length is reached; the
wrappers exist only during traced passes.  In both, the reference kernel
is timed between jobs (speed.py).
"""

from __future__ import annotations

import io
import itertools
import json
import os
import resource
import sys
import time


def _import_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from joinspectra import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"joinspectra was imported from {cli.__file__}, not from {src}")
    return cli


class Runner:
    """Runs jobs one at a time and keeps a record of each call."""

    def __init__(self, cli, outdir: str):
        self.cli = cli
        self.answer_path = os.path.join(outdir, "answer.json")
        self.log = open(os.path.join(outdir, "records.jsonl"), "w", encoding="utf-8")
        self.jobs = 0
        self.errbuf = io.StringIO()
        self.recorder = None  # set during traced passes
        self.probe = None  # a speed.SpeedProbe once timing starts

    def call(self, argv: list[str], out_path: str) -> tuple[float, int, str]:
        """One timed CLI call: (seconds, exit code, first line of stderr)."""
        err = self.errbuf
        err.seek(0)
        err.truncate()
        saved, sys.stderr = sys.stderr, err
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv + ["-o", out_path])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - a raising job is counted, not fatal
            rc = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
        t1 = time.perf_counter()
        sys.stderr = saved
        if self.recorder is not None:
            self.recorder.job_span(self.jobs, t0, t1)
        lines = err.getvalue().strip().splitlines()
        return t1 - t0, rc, lines[0] if lines else ""

    def job(self, r: int, j: int, job: dict, mode: str) -> float:
        # emptied, not removed: the call then rewrites a file that exists
        open(self.answer_path, "w").close()
        if self.recorder is not None:
            self.recorder.job = self.jobs
        dt, rc, error = self.call(job["argv"], self.answer_path)
        end = time.perf_counter()
        with open(self.answer_path, encoding="utf-8") as fh:
            text = fh.read()
        rec = {"round": r, "index": j, "mode": mode, "s": dt, "end": end, "rc": rc, "error": error, "text": text}
        self.log.write(json.dumps(rec) + "\n")
        self.jobs += 1
        if self.probe is not None:
            self.probe.tick()
        return dt


def main(plan_path: str, result_path: str) -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from speed import SpeedProbe

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    cli = _import_cli(plan["root"])
    runner = Runner(cli, plan["outdir"])
    for job in plan["warmup"]:
        runner.call(job["argv"], runner.answer_path)

    rounds, seconds = plan["rounds"], plan["seconds"]
    result: dict = {}
    runner.probe = SpeedProbe()
    if not plan["trace"]:
        start = time.perf_counter()
        for cycle in itertools.count():
            r = cycle % len(rounds)
            for j, job in enumerate(rounds[r]):
                runner.job(r, j, job, "plain")
            if time.perf_counter() - start >= seconds:
                break
    else:
        from spans import Installed, Recorder

        sample = rounds[0]
        recorder = Recorder()
        passes = 0
        missing: list[str] = []
        start = time.perf_counter()
        while True:
            for j, job in enumerate(sample):
                runner.job(0, j, job, "plain")
            installed = Installed(recorder)
            missing = installed.missing
            runner.recorder = recorder
            try:
                for j, job in enumerate(sample):
                    runner.job(0, j, job, "traced")
            finally:
                runner.recorder = None
                installed.remove()
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / passes > seconds:
                break
        spans_path = os.path.join(plan["outdir"], "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
        result.update(passes=passes, spans=spans_path, missing=missing)

    runner.probe.sample()
    result["ref_samples"] = runner.probe.samples
    import joinspectra
    import numpy

    runner.log.close()
    result["records"] = runner.log.name
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["kernel_backend"] = getattr(joinspectra, "KERNEL_BACKEND", "absent")
    result["numpy"] = numpy.__version__
    result["python"] = sys.version.split()[0]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
