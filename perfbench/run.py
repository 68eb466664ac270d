"""dodiff benchmark: one client driving the CLI in a closed loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload solve|oracle|crosscheck --seed N \
        --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics: import time of ``dodiff.cli``
in fresh interpreters (``setup_s``), then, in a worker process, an untimed
warm-up pass over the workload's job pool and whole timed passes for about
S seconds of program time, then the accuracy metrics in a third process.
Job times are reported in reference units (``ref``): multiples of the time
of a fixed pure-Python loop timed before every job (``worker.py``), which
cancels the shared host's changes of speed; wall times are printed too.
``--trace 1`` prints the per-layer metrics instead: after the warm-up, S/3
seconds of passes are run untraced, replayed under the tracer and replayed
untraced again; the three must write the same bytes.  It adds the import
time of ``scipy.optimize`` and the tracing overhead.

Every metric is printed as ``name value unit``; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results, with an environment record, go to ``.perfbench/results``; trace
mode writes span files and layer tables to ``.perfbench/trace``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
IMPORTS_PER_RUN = 5
# BLAS pools are pinned to one thread, at most nproc: one client, one core
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_TIMEOUT = 170.0

# name -> unit; the end-to-end set (--trace 0)
END_TO_END = {
    "setup_s": "s", "jobs_per_kref": "1/kref", "job_ref.p50": "ref", "job_ref.p90": "ref",
    "ok_frac": "1", "peak_rss_mb": "MB", "source_rel_err.max": "1",
    "kernel_rel_err.max": "1", "oracle_gap.max": "1",
}

# per-layer set (--trace 1): metric -> (span name, field); values per traced job
SPAN_METRICS = {
    "weight.power_moments.self_s": ("weight.power_moments", "self_s"),
    "weight.power_moments.points": ("weight.power_moments", "points"),
    "weight.eval_sw.calls": ("weight.eval_sw", "calls"),
    "weight.check_symbol_bounds.self_s": ("weight.check_symbol_bounds", "self_s"),
    "spectral.build_exact_dirichlet.self_s": ("spectral.build_exact_dirichlet", "self_s"),
    "spectral.build_fd.self_s": ("spectral.build_fd", "self_s"),
    "spectral.synthesize.calls": ("spectral.synthesize", "calls"),
    "spectral.fractional_norm.calls": ("spectral.fractional_norm", "calls"),
    "kernel.eval_kernel_block.self_s": ("kernel.eval_kernel_block", "self_s"),
    "kernel.block_cells": ("kernel.eval_kernel_block", "cells"),
    "kernel.contour_bands": (("kernel.shared_contour", "kernel.choose_contour"), "bands"),
    "kernel.contour_nodes": (("kernel.shared_contour", "kernel.choose_contour"), "nodes"),
    "kernel.eval_kernel_row.calls": ("kernel.eval_kernel_row", "calls"),
    "kernel.eval_kernel_row.self_s": ("kernel.eval_kernel_row", "self_s"),
    "kernel.eval_Gn_spectral.calls": ("kernel.eval_Gn_spectral", "calls"),
    "kernel.eval_Gn_spectral.self_s": ("kernel.eval_Gn_spectral", "self_s"),
    "kernel.check_g0c.self_s": ("kernel.check_g0c", "self_s"),
    "kernel.an_threshold.self_s": ("kernel.an_threshold", "self_s"),
    "solver.duhamel.calls": ("solver.duhamel", "calls"),
    "solver.duhamel.self_s": ("solver.duhamel", "self_s"),
    "solver.duhamel.nodes": ("solver.duhamel_mesh", "nodes"),
    "solver.solve.self_s": ("solver.solve", "self_s"),
    "oracle.solve_oracle.self_s": ("oracle.solve_oracle", "self_s"),
    "oracle.effective_history_weights.self_s": ("oracle.effective_history_weights", "self_s"),
    "oracle.steps": ("oracle.solve_oracle", "steps"),
    "oracle.history_terms": ("oracle.solve_oracle", "history_terms"),
    "verify.decay.self_s": ("verify.decay", "self_s"),
    "verify.h2.self_s": ("verify.h2", "self_s"),
    "verify.stability.self_s": ("verify.stability", "self_s"),
    "verify.bounds.self_s": ("verify.bounds", "self_s"),
    "verify.smoothness.self_s": ("verify.smoothness", "self_s"),
    "cli.parse_config.self_s": ("cli.parse_config", "self_s"),
    "textio.write_csv.self_s": ("textio.write_csv", "self_s"),
    "textio.csv_rows": ("textio.write_csv", "rows"),
    "textio.csv_bytes": ("textio.write_csv", "bytes"),
}
LAYERS = ("weight", "spectral", "kernel", "solver", "oracle", "verify", "cli", "textio")


def per_layer_units() -> dict:
    units = {}
    for name, (_, field) in SPAN_METRICS.items():
        units[name] = {"self_s": "s/job", "calls": "calls/job", "points": "points/job",
                       "cells": "cells/job", "bands": "bands/job", "nodes": "nodes/job",
                       "steps": "steps/job", "history_terms": "terms/job",
                       "rows": "rows/job", "bytes": "bytes/job"}[field]
    units["spectral.fractional_norm.useful_ratio"] = "1"
    units.update({f"{layer}.errors": "errors/job" for layer in LAYERS})
    units["setup.import.scipy_optimize_s"] = "s"
    units.update({"trace.jobs": "count", "trace.jobs_per_s_untraced": "1/s",
                  "trace.jobs_per_s_traced": "1/s", "trace.overhead_jobs_per_s": "1/s"})
    return units


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def python(args, env, timeout, **kwargs):
    return subprocess.run([sys.executable, *args], env=env, timeout=timeout,
                          check=True, text=True, **kwargs)


def import_seconds(env: dict, root: Path) -> list[float]:
    """Import time of dodiff.cli, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import dodiff.cli; "
            "print(time.perf_counter() - t)")
    # the first import may compile bytecode; users pay that once, not per call
    python(["-c", code], env, 60, cwd=root, capture_output=True)
    return [float(python(["-c", code], env, 60, cwd=root, capture_output=True).stdout)
            for _ in range(IMPORTS_PER_RUN)]


def scipy_optimize_seconds(env: dict, root: Path) -> float:
    """Cumulative import time of scipy.optimize under -X importtime (median of 3)."""
    values = []
    for _ in range(3):
        err = python(["-X", "importtime", "-c", "import dodiff.cli"], env, 60,
                     cwd=root, capture_output=True).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
                values.append(int(parts[1]) / 1e6)
    return statistics.median(values) if values else 0.0


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of the sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "git_commit": commit, "src_lines": src_lines,
            "blas_threads": int(BLAS_THREADS)}


def job_costs(timed: list[dict]) -> dict:
    """Each distinct job's times in reference units, one per timed pass.

    A job's time is divided by the mean reference loop time of its pass.
    The other tenants of a shared host change the speed of its cores by up
    to half for minutes at a time; over a pass the reference loop and the
    jobs slow together (their pass sums correlate at 0.96-0.98 on a 2-vCPU
    Xeon VM), so the ratio keeps the program's cost and drops the machine's.
    """
    refs = {}
    for r in timed:
        refs.setdefault(r["pass"], []).append(r["ref_seconds"])
    unit = {number: statistics.fmean(v) for number, v in refs.items()}
    costs = {}
    for r in timed:
        costs.setdefault(r["key"], []).append(r["seconds"] / unit[r["pass"]])
    return costs


def wall_times(timed: list[dict]) -> dict:
    """Wall-time rate and quantiles over every timed job as it ran."""
    seconds = [r["seconds"] for r in timed]
    return {"jobs": len(seconds),
            "jobs_per_s": sum(1 for r in timed if not r["error"]) / sum(seconds),
            "job_s.p50": quantile(seconds, 0.5), "job_s.p90": quantile(seconds, 0.9),
            "ref_s.p50": quantile([r["ref_seconds"] for r in timed], 0.5)}


def end_to_end(records: list[dict], worker: dict, accuracy: dict, imports) -> dict:
    timed = [r for r in records if r["pass"] >= 0]
    costs = job_costs(timed)
    # every pass runs the same jobs, so quantiles over the per-job medians
    # describe one fixed job mix whatever the number of passes
    medians = [statistics.median(v) for v in costs.values()]
    passed = sum(1 for r in timed if not r["error"])
    ok = sum(1 for r in records if not r["error"])
    return {
        "setup_s": statistics.median(imports),
        "jobs_per_kref": 1000.0 * passed / sum(c for v in costs.values() for c in v),
        "job_ref.p50": quantile(medians, 0.5),
        "job_ref.p90": quantile(medians, 0.9),
        "ok_frac": ok / len(records),
        "peak_rss_mb": worker["peak_rss_mb"],
        **accuracy,
    }


def per_layer(trace: dict, scipy_s: float) -> dict:
    table, jobs = trace["table"], trace["jobs"]
    out = {}
    for name, (spans, field) in SPAN_METRICS.items():
        spans = spans if isinstance(spans, tuple) else (spans,)
        out[name] = sum(table.get(s, {}).get(field, 0) for s in spans) / jobs
    calls = trace["solve_norm_calls"]
    out["spectral.fractional_norm.useful_ratio"] = (
        trace["solve_norm_cells"] / calls if calls else 0.0)
    for layer in LAYERS:
        out[f"{layer}.errors"] = trace["errors"].get(layer, 0) / jobs
    out["setup.import.scipy_optimize_s"] = scipy_s
    untraced = jobs / trace["untraced_s"]
    traced = jobs / trace["traced_s"]
    out.update({"trace.jobs": jobs, "trace.jobs_per_s_untraced": untraced,
                "trace.jobs_per_s_traced": traced,
                "trace.overhead_jobs_per_s": untraced - traced})
    return out


def layer_table_text(trace: dict) -> str:
    jobs = trace["jobs"]
    lines = [f"# per-layer self time over {jobs} traced jobs, slowest first",
             f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'self/job':>10s}"]
    rows = sorted(trace["table"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        lines.append(f"{name:40s} {row['calls']:8d} {row['total_s']:10.4f} "
                     f"{row['self_s']:10.4f} {row['self_s'] / jobs:10.5f}")
    lines.append(f"# tracing overhead: {trace['untraced_s']:.3f} s untraced, "
                 f"{trace['traced_s']:.3f} s traced for the same jobs")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dodiff CLI benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dodiff" / "cli.py").is_file():
        return fail(f"no dodiff sources under {root / 'src'}; run from a source checkout")
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    started = time.monotonic()
    env = child_env(root)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = root / ".perfbench"
    work = out_dir / "work" / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            scipy_s = scipy_optimize_seconds(env, root)
        else:
            imports = import_seconds(env, root)
        worker_json = work / "worker.json"
        log = work / "worker.log"
        with open(log, "w") as fh:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--mode", "trace" if args.trace else "timed", "--work", str(work),
                 "--result", str(worker_json), "--trace-dir", str(out_dir / "trace")],
                env=env, cwd=root, stdout=fh, stderr=subprocess.STDOUT,
                timeout=max(10.0, RUN_TIMEOUT - (time.monotonic() - started) - 15.0))
        if proc.returncode != 0:
            sys.stderr.write(log.read_text()[-4000:])
            return fail(f"worker exited with status {proc.returncode}")
        worker = json.loads(worker_json.read_text())
        records = worker["records"]
        if not records:
            return fail("no job ran")
        failed = sum(1 for r in records if r["error"])
        for r in records:
            if r["error"]:
                print(f"# failed job {r['key']}: {r['error']}")
        if args.trace:
            trace = worker["trace"]
            metrics = per_layer(trace, scipy_s)
            units = per_layer_units()
            failed += trace["replay_failed"]
            correct = not trace["mismatched_jobs"] and failed == 0
            (out_dir / "trace" / f"{args.workload}-seed{args.seed}.layers.txt").write_text(
                layer_table_text(trace))
        else:
            acc_json = work / "accuracy.json"
            python([str(HERE / "accuracy.py"), "--workload", args.workload, "--seed",
                    str(args.seed), "--work", str(work), "--result", str(acc_json)],
                   env, max(10.0, RUN_TIMEOUT - (time.monotonic() - started)), cwd=root,
                   capture_output=True)
            accuracy = json.loads(acc_json.read_text())
            metrics = end_to_end(records, worker, accuracy, imports)
            units = END_TO_END
            correct = failed == 0
        timed = [r for r in records if r["pass"] >= 0]
        passes = len({r["pass"] for r in timed})
        seen = wall_times(timed)
        env_record = environment(root)
        result = {"correct": correct, "attempted": len(records), "failed": failed,
                  "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
        (out_dir / "results").mkdir(parents=True, exist_ok=True)
        (out_dir / "results" / f"{stem}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "environment": env_record, "wall_time": seen,
             **result}, indent=1))
        print(f"# environment {json.dumps(env_record)}")
        print(f"# workload {args.workload}, seed {args.seed}, {len(records)} jobs: "
              f"a warm-up pass and {passes} timed passes over "
              f"{len({r['key'] for r in timed})} distinct jobs, {failed} failed")
        print(f"# wall time over all {seen['jobs']} timed jobs: "
              f"jobs_per_s {seen['jobs_per_s']:.6g} 1/s, job_s.p50 {seen['job_s.p50']:.6g} s, "
              f"job_s.p90 {seen['job_s.p90']:.6g} s; reference loop p50 "
              f"{seen['ref_s.p50']:.6g} s")
        for name, m in result["metrics"].items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
        return 0
    except subprocess.CalledProcessError as exc:
        sys.stderr.write((exc.stderr or "")[-4000:])
        return fail(f"{exc.cmd[1:3]} exited with status {exc.returncode}")
    except subprocess.TimeoutExpired as exc:
        return fail(f"timed out: {exc.cmd[1:3]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
