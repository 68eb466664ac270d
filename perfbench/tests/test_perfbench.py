"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
for p in (ROOT / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import dodiff.kernel  # noqa: E402
import dodiff.solver  # noqa: E402
import dodiff.verify  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.docs == b.docs
    assert a.pool == b.pool
    first_a, first_b = a.passes(), b.passes()
    assert [next(first_a) for _ in range(3)] == [next(first_b) for _ in range(3)]
    other = workloads.build(name, 8)
    assert next(other.passes()) != next(a.passes())
    if name != "crosscheck":  # crosscheck's documents are fixed
        assert other.docs != a.docs
    assert all(j.doc is None or j.doc in a.docs for j in a.pool)
    # a pool holds distinct jobs, and every pass runs each of them once
    assert len(set(map(worker.job_key, a.pool))) == len(a.pool)
    for order in itertools.islice(a.passes(), 3):
        assert sorted(map(worker.job_key, order)) == sorted(map(worker.job_key, a.pool))


def test_crosscheck_passes_alternate_kinds():
    order = next(workloads.build("crosscheck", 4).passes())
    assert [j.subcommand for j in order] == ["kernel", "verify"] * (len(order) // 2)


def test_generator_respects_cli_ranges():
    wl = workloads.build("solve", 3)
    for text in wl.docs.values():
        n = int(next(ln.split("=")[1] for ln in text.splitlines()
                     if ln.startswith(("N =", "n ="))))
        assert 8 <= n <= 1000
    assert sum(m["sourced"] for m in wl.meta.values()) == len(wl.docs) // 2


def _cheap_jobs():
    solve = workloads.build("solve", 5)
    cheap = sorted(solve.pool, key=lambda j: (solve.docs[j.doc].count(" "), j.doc))
    sourced = next(j for j in cheap if solve.meta[j.doc]["sourced"])
    cross = workloads.build("crosscheck", 5)
    kernel = next(j for j in cross.pool if j.subcommand == "kernel")
    smooth = next(j for j in cross.pool if "smoothness" in j.extra)
    orc = workloads.build("oracle", 5)
    small = next(j for j in orc.pool if j.doc.endswith("m101-k500"))
    docs = {**solve.docs, **cross.docs, **orc.docs}
    return [cheap[0], sourced, kernel, smooth, small], docs


def test_traced_outputs_match_untraced(tmp_path):
    jobs, docs = _cheap_jobs()
    wl = workloads.Workload("mixed", docs=docs)
    client = worker.Client(wl, tmp_path)
    plain = [client.run(j) for j in jobs]
    tr = tracer.Tracer()
    tr.install()
    try:
        # patched on the importing module and the SUITES table, not only
        # where the function is defined
        assert hasattr(dodiff.solver.eval_kernel_block, "__wrapped__")
        assert hasattr(dodiff.verify.SUITES["smoothness"], "__wrapped__")
        traced = [client.run(j) for j in jobs]
    finally:
        tr.uninstall()
    assert [r["error"] for r in plain + traced] == [None] * (2 * len(jobs))
    assert [r["digests"] for r in plain] == [r["digests"] for r in traced]
    names = {s[1] for s in tr.spans}
    assert {"cli.main", "kernel.eval_kernel_block", "solver.duhamel",
            "oracle.solve_oracle", "verify.smoothness", "textio.write_csv"} <= names
    # every binding is restored
    assert dodiff.solver.eval_kernel_block is dodiff.kernel.eval_kernel_block
    assert not hasattr(dodiff.kernel.eval_kernel_block, "__wrapped__")
    assert not hasattr(dodiff.verify.SUITES["smoothness"], "__wrapped__")


def test_job_costs_divide_by_the_mean_reference_of_the_pass():
    timed = [{"pass": 0, "key": "a", "seconds": 0.2, "ref_seconds": 0.01},
             {"pass": 0, "key": "b", "seconds": 0.1, "ref_seconds": 0.03},
             {"pass": 1, "key": "a", "seconds": 0.4, "ref_seconds": 0.04}]
    costs = run.job_costs(timed)
    assert costs.keys() == {"a", "b"}
    assert costs["a"] == pytest.approx([10.0, 10.0])
    assert costs["b"] == pytest.approx([5.0])


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.spans = [(0, "cli.main", 0.0, 10.0, None, 0),
                (1, "kernel.eval_kernel_block", 1.0, 5.0, 0, 0),
                (2, "kernel.eval_kernel_block", 2.0, 4.0, 1, 0)]
    tr.counts = {1: {"cells": 8}, 2: {"cells": 8}}
    table = tr.layer_table()
    assert table["cli.main"]["self_s"] == pytest.approx(6.0)
    assert table["kernel.eval_kernel_block"]["self_s"] == pytest.approx(2.0 + 2.0)
    assert table["kernel.eval_kernel_block"]["cells"] == 8  # leaves only


def _run(cwd, trace):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {ln.split()[0]: ln.split()[2] for ln in lines[:-1] if not ln.startswith("#")}
    assert printed == declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
