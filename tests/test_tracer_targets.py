"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name; a rename in the package must fail here, not first in a traced run."""

import importlib.util
from pathlib import Path

from dodiff.kernel import choose_contour

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
