"""Closed-loop client: one process calls ``dodiff.cli.main`` job after job.

Run by ``run.py`` in a fresh interpreter whose environment already pins the
BLAS thread count, so numpy picks it up on import.  Two modes:

* ``timed``: an untimed warm-up pass runs every pool job once; then whole
  passes over the pool run until the time spent inside ``cli.main`` reaches
  ``--seconds`` (the last pass starts only if it is expected to end less
  than half a pass past it).  Before each job the reference loop is timed,
  which gives the machine's speed at that moment.  Checking outputs happens
  between jobs, outside both times.
* ``trace``: after the warm-up pass, ``--seconds``/3 of passes run
  untraced, then the same jobs run under the tracer, then untraced again.
  All three must write byte-identical files; the last two give the tracing
  overhead.

A job fails on a nonzero exit, an exception, a missing output, a missing or
non-finite CSV value, a verify suite that reports FAIL, or output that
differs from an earlier run of the same job.  The first output directory of
each distinct job is kept for the accuracy step; the others are deleted.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads

EXPECTED = {
    "solve": ("provenance.txt", "solve_field.csv", "solve_norms.csv"),
    "oracle": ("provenance.txt", "oracle_field.csv"),
    "kernel": ("provenance.txt", "kernels.csv"),
}
TEXT_COLUMNS = ("case", "tolerance", "note")
# Iterations of the reference loop, a few milliseconds of pure interpreter
# work that shares no code with dodiff.
REFERENCE_ITERATIONS = 40_000


def reference_seconds() -> float:
    """Wall time of the fixed reference loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def job_key(job: workloads.Job) -> str:
    """Identity of a job's inputs: same key, same expected bytes."""
    return job.doc if job.doc else "verify-" + "-".join(job.extra[1::2])


def expected_files(job: workloads.Job) -> tuple:
    if job.subcommand == "verify":
        suite = job.extra[1]
        return ("provenance.txt", f"{suite}_metrics.csv", f"{suite}_summary.txt")
    return EXPECTED[job.subcommand]


def check_csv(path: Path) -> str | None:
    """None if every row is complete and every numeric cell finite."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    if len(lines) < 2:
        return f"{path.name}: no data rows"
    header = lines[0].split(",")
    numeric = [h not in TEXT_COLUMNS for h in header]
    for ln in lines[1:]:
        # only the trailing note column of verify reports may hold commas
        cells = ln.split(",", len(header) - 1)
        if len(cells) != len(header) or any(c == "" for c, n in zip(cells, numeric) if n):
            return f"{path.name}: missing value in {ln!r}"
        for cell, is_num in zip(cells, numeric):
            if is_num:
                try:
                    value = float(cell)
                except ValueError:
                    return f"{path.name}: non-numeric value {cell!r}"
                if not math.isfinite(value):
                    return f"{path.name}: non-finite value {cell!r}"
        if "passed" in header and cells[header.index("passed")] != "1":
            return f"{path.name}: suite reports FAIL on {cells[0]!r}"
    return None


def digest_outputs(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def check_outputs(job: workloads.Job, out: Path) -> str | None:
    """The first problem found in a job's outputs, or None."""
    for name in expected_files(job):
        path = out / name
        if not path.is_file():
            return f"missing output {name}"
        if name.endswith(".csv"):
            problem = check_csv(path)
            if problem:
                return problem
        elif name.endswith("_summary.txt") and "overall: PASS" not in path.read_text():
            return f"{name}: suite reports FAIL"
    return None


class Client:
    """Runs jobs, checks their outputs, and keeps one output set per job key."""

    def __init__(self, wl: workloads.Workload, work: Path):
        import dodiff.cli
        self.cli = dodiff.cli
        self.work = work
        self.docs = work / "docs"
        self.keep = work / "keep"
        for d in (self.docs, self.keep, work / "out"):
            d.mkdir(parents=True, exist_ok=True)
        for doc_id, text in wl.docs.items():
            (self.docs / f"{doc_id}.ini").write_text(text)
        self.known = {}  # job key -> digests of its first run
        self.count = 0

    def argv(self, job: workloads.Job, out: Path) -> list[str]:
        args = [job.subcommand]
        if job.doc:
            args += ["--config", str(self.docs / f"{job.doc}.ini")]
        return args + ["--out", str(out)] + list(job.extra)

    def run(self, job: workloads.Job) -> dict:
        """One timed call; the output check runs after the clock stops."""
        self.count += 1
        out = self.work / "out" / str(self.count)
        argv = self.argv(job, out)
        error = None
        # the CLI reports errors on stderr; a failure is recorded from its
        # exit status, so its chatter stays out of the benchmark's output
        with contextlib.redirect_stderr(io.StringIO()) as err:
            start = time.perf_counter()
            try:
                status = self.cli.main(argv)
            except Exception as exc:  # a job boundary: record and go on
                status = None
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        if error is None and status != 0:
            error = f"exit status {status}: {err.getvalue().strip()[:200]}"
        key = job_key(job)
        digests = digest_outputs(out) if error is None else {}
        if error is None and key in self.known:
            # same inputs as an earlier, checked run: the bytes must match
            if self.known[key] != digests:
                error = "output differs from an earlier run of the same job"
        elif error is None:
            error = check_outputs(job, out)
        if error is None and key not in self.known:
            self.known[key] = digests
            out.rename(self.keep / key)
        else:
            shutil.rmtree(out, ignore_errors=True)
        return {"key": key, "kind": job.subcommand, "times": job.times,
                "seconds": seconds, "error": error, "digests": digests}


def timed_passes(client: Client, wl: workloads.Workload, budget: float):
    """Whole passes over the pool for about ``budget`` seconds of job time.
    Returns the records, each tagged with its pass number and the reference
    loop time measured just before it, and the jobs in the order they ran."""
    records, jobs, busy = [], [], 0.0
    for number, order in enumerate(wl.passes()):
        if number and busy + busy / number / 2 >= budget:
            break
        for job in order:
            ref = reference_seconds()
            rec = client.run(job)
            rec["pass"], rec["ref_seconds"] = number, ref
            busy += rec["seconds"]
            records.append(rec)
            jobs.append(job)
    return records, jobs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("timed", "trace"), required=True)
    p.add_argument("--work", required=True, help="scratch directory for this run")
    p.add_argument("--result", required=True, help="JSON file to write")
    p.add_argument("--trace-dir", help="where trace mode writes spans and layer tables")
    args = p.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    client = Client(wl, Path(args.work))
    # lazy set-up inside the program (first-call caches, deferred imports)
    # finishes before timing: one untimed run of every pool job, which also
    # checks its outputs and keeps them for the accuracy step
    warmup = [dict(client.run(job), **{"pass": -1}) for job in wl.pool]
    result = {}
    if args.mode == "timed":
        records, _ = timed_passes(client, wl, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracer as tracing
        # the same jobs three times, a third of the budget each; the first
        # time also warms the allocator and file cache, so the traced and
        # the second untraced replay compare like with like
        records, replay = timed_passes(client, wl, args.seconds / 3.0)
        tr = tracing.Tracer()
        traced = []
        tr.install()
        try:
            for i, job in enumerate(replay):
                tr.job = i
                traced.append(client.run(job))
        finally:
            tr.uninstall()
        untraced = [client.run(job) for job in replay]
        mismatch = [i for i, (a, b, c) in enumerate(zip(records, traced, untraced))
                    if not a["digests"] == b["digests"] == c["digests"]]
        stem = f"{args.workload}-seed{args.seed}"
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        tr.write_spans(str(trace_dir / f"{stem}.spans.jsonl"))
        result["trace"] = {
            "jobs": len(traced),
            "untraced_s": sum(r["seconds"] for r in untraced),
            "traced_s": sum(r["seconds"] for r in traced),
            "replay_failed": sum(1 for r in traced + untraced if r["error"]),
            "mismatched_jobs": mismatch,
            "table": tr.layer_table(),
            "errors": dict(tr.errors),
            "solve_norm_cells": sum(r["times"] * workloads.KAPPAS
                                    for r in traced if r["kind"] == "solve"),
            "solve_norm_calls": tr.calls_in_jobs(
                "spectral.fractional_norm",
                [i for i, r in enumerate(traced) if r["kind"] == "solve"]),
        }
    records = warmup + records
    for rec in records:
        del rec["digests"]
    result["records"] = records
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
