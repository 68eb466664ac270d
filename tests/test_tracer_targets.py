"""The benchmark (perfbench/) uses the package as a library: its tracer
wraps package functions by name, and its accuracy metrics read
``cli.parse_config``, ``cli._kernel_config`` and the ``[numerics]`` dict.  A
rename or a dropped setting in the package must fail here, not first in a
benchmark run."""

import contextlib
import importlib.util
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from dodiff import cli
from dodiff.kernel import choose_contour
from dodiff.oracle import GridField

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_module(name, path, monkeypatch=None):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        # dataclasses resolve their annotations through sys.modules
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_module("perfbench_tracer", TRACER)


def test_targets_resolve():
    tracer = load_tracer()
    missing = [f"{name} ({attr})" for name, owner, attr, _ in tracer.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_contour_counter_reads_spec():
    tracer = load_tracer()
    spec = choose_contour(1.0)
    counts = tracer._count_contour((), {}, spec)
    assert counts == {"bands": 1, "nodes": spec.ray_count + spec.arc_count}
    assert spec.ray_count == 16 * spec.n_panels and spec.arc_count == 24


def test_csv_counter_reads_rows_and_bytes(tmp_path):
    # csv_rows must stay one per (time, grid point) row of a field CSV, and
    # csv_bytes the size of the file
    tracer = load_tracer()
    grid = np.linspace(0.0, 1.0, 7)
    times = np.array([0.25, 0.5, 1.0])
    field = GridField(times=times, grid=grid, values=np.outer(times, grid))
    path = tmp_path / "field.csv"
    tr = tracer.Tracer()
    tr.install()
    try:
        cli._field_csv(path, field, times, ["provenance"])
    finally:
        tr.uninstall()
    counts = [c for c in tr.counts.values() if "rows" in c]
    assert counts == [{"rows": 3 * 7, "bytes": path.stat().st_size}]


def test_point_counter_reads_logs(const_weight):
    # weight.power_moments.points must count the points of every symbol call
    tracer = load_tracer()
    logs = np.log(np.linspace(0.5, 4.0, 37)) + 0.5j
    tr = tracer.Tracer()
    tr.install()
    try:
        const_weight.power_moments(logs)
    finally:
        tr.uninstall()
    assert list(tr.counts.values()) == [{"points": logs.size}]


def test_source_response_spans(tmp_path):
    # a sourced solve books its source response to solver.duhamel, inside
    # solver.solve, and its homogeneous part to the kernel block
    tracer = load_tracer()
    doc = tmp_path / "sourced.ini"
    doc.write_text("[weight]\ntype = constant\n\n[operator]\nN = 8\n\n[problem]\n"
                   "u0 = modes: 1\nsource = modes: 0.5\nT = 1.0\ntimes = 0.5 1.0\n")
    tr = tracer.Tracer()
    tr.install()
    try:
        status = cli.main(["solve", "--config", str(doc), "--out", str(tmp_path / "out")])
    finally:
        tr.uninstall()
    assert status == 0
    names = {sid: name for sid, name, *_ in tr.spans}
    parents = [parent for _, name, _, _, parent, _ in tr.spans if name == "solver.duhamel"]
    assert parents and all(names[p] == "solver.solve" for p in parents)
    assert "kernel.eval_kernel_block" in names.values()


PROBLEM = "[operator]\nN = 8\n\n[problem]\nu0 = modes: 1\nT = 1.0\n"
# (arguments besides --config and --out, the document or None)
SUBCOMMANDS = {
    "kernel": (["kernel"], PROBLEM),
    "solve": (["solve"], PROBLEM),
    "solve-sourced": (["solve"], PROBLEM + "source = modes: 0.5\n"),
    "oracle": (["oracle"], PROBLEM + "times = 0.5 1.0\n\n[numerics]\ndt = 0.05\n"),
    "oracle-sourced": (["oracle"], PROBLEM + "source = modes: 0.5\ntimes = 0.5 1.0\n\n"
                       "[numerics]\ndt = 0.05\n"),
    "verify-decay": (["verify", "--suite", "decay"], None),
    "verify-h2": (["verify", "--suite", "h2"], None),
    "verify-bounds": (["verify", "--suite", "bounds"], None),
}


@pytest.mark.parametrize("case", list(SUBCOMMANDS))
def test_subcommand_runs_traced(case, tmp_path):
    # every traced layer and its counter hook (such as the (E, G) pair that
    # kernel.block_cells unpacks) must run clean under the tracer; the
    # contour radius and the tail-bound grid take no root
    args, doc = SUBCOMMANDS[case]
    args = [*args, "--out", str(tmp_path / "out")]
    if doc is not None:
        (tmp_path / "doc.ini").write_text(doc)
        args += ["--config", str(tmp_path / "doc.ini")]
    tr = load_tracer().Tracer()
    tr.install()
    try:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            status = cli.main(args)
    finally:
        tr.uninstall()
    assert status == 0, err.getvalue()
    assert tr.spans
    assert {name for _, name, *_ in tr.spans} & {"weight.zeta_inv",
                                                  "kernel.an_threshold"} == set()


# loose ceilings: far above the values the probes give, far below a break
PROBE_CEILINGS = {"source": 1e-6, "kernel": 1e-6, "oracle": 0.02}


@pytest.mark.parametrize("check", sorted(PROBE_CEILINGS))
def test_accuracy_probe(check, tmp_path, monkeypatch):
    # accuracy.py imports its sibling as the top-level module ``workloads``
    load_module("workloads", PERFBENCH / "workloads.py", monkeypatch)
    accuracy = load_module("perfbench_accuracy", PERFBENCH / "accuracy.py")
    assert set(accuracy.PROBES) == set(accuracy.CHECKS) == set(PROBE_CEILINGS)
    subcommand, text = accuracy.PROBES[check]
    (tmp_path / "probe.ini").write_text(text)
    with contextlib.redirect_stderr(io.StringIO()):
        status = cli.main([subcommand, "--config", str(tmp_path / "probe.ini"),
                           "--out", str(tmp_path)])
    assert status == 0
    value = accuracy.CHECKS[check](text, tmp_path)
    assert math.isfinite(value) and value < PROBE_CEILINGS[check]
