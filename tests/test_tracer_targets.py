"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name; a rename in the package must fail here, not first in a traced run."""

import importlib.util
from pathlib import Path

import numpy as np

from dodiff import cli
from dodiff.kernel import choose_contour
from dodiff.oracle import GridField

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_resolve():
    tracer = load_tracer()
    missing = [f"{name} ({attr})" for name, owner, attr, _ in tracer.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_contour_counter_reads_spec(const_weight):
    tracer = load_tracer()
    spec = choose_contour(1.0, 1.0, const_weight)
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
