"""Spans around the calls into each dodiff layer, installed from outside.

``Tracer.install()`` replaces each traced function by a wrapper on every
namespace that binds it (the defining module, modules that imported the
name, the package root, the ``verify.SUITES`` table, the ``WeightFunction``
class), and ``uninstall()`` puts the originals back.  A span is a tuple
(id, name, start, end, parent, job) kept in memory; counters hang off the
span that did the work, so ratios are measured where the work happens.

Self time is a span's duration minus its direct children's durations: the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import dodiff.cli
from dodiff import kernel, oracle, solver, spectral, textio, verify, weight
from dodiff.errors import DomainError, NumericError, PreconditionError

TYPED_ERRORS = (DomainError, PreconditionError, NumericError)


def _count_points(args, kwargs, result):
    logs = args[1] if len(args) > 1 else kwargs["logs"]
    return {"points": int(getattr(logs, "size", 1))}


def _count_cells(args, kwargs, result):
    E, _ = result
    return {"cells": int(E.size)}


def _count_contour(args, kwargs, result):
    return {"bands": 1, "nodes": int(result.ray_count + result.arc_count)}


def _count_mesh(args, kwargs, result):
    return {"nodes": int(len(result[0]))}


def _count_oracle(args, kwargs, result):
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    k, m = cfg.steps, cfg.grid_points
    # the step-k solve sums k-1 history terms over the M-2 interior nodes
    return {"steps": k, "history_terms": (m - 2) * k * (k - 1) // 2}


def _count_csv(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


# (span name, owner, attribute, counter hook).  The owner is the module or
# class that defines the function; other bindings are found by identity.
TARGETS = [
    ("weight.power_moments", weight.WeightFunction, "power_moments", _count_points),
    ("weight.eval_sw", weight, "eval_sw", None),
    ("weight.eval_w", weight, "eval_w", None),
    ("weight.check_symbol_bounds", weight, "check_symbol_bounds", None),
    ("weight.zeta_inv", weight, "zeta_inv", None),
    ("weight.weight_from_mapping", weight, "weight_from_mapping", None),
    ("spectral.build_exact_dirichlet", spectral, "build_exact_dirichlet", None),
    ("spectral.build_fd", spectral, "build_fd", None),
    ("spectral.project", spectral, "project", None),
    ("spectral.synthesize", spectral, "synthesize", None),
    ("spectral.fractional_norm", spectral, "fractional_norm", None),
    ("kernel.build_kernel_table", kernel, "build_kernel_table", None),
    ("kernel.eval_kernel_block", kernel, "eval_kernel_block", _count_cells),
    ("kernel.shared_contour", kernel, "shared_contour", _count_contour),
    ("kernel.choose_contour", kernel, "choose_contour", _count_contour),
    ("kernel.eval_kernel_row", kernel, "eval_kernel_row", None),
    ("kernel.eval_Gn_spectral", kernel, "eval_Gn_spectral", None),
    ("kernel.check_g0c", kernel, "check_g0c", None),
    ("kernel.an_threshold", kernel, "an_threshold", None),
    ("solver.solve", solver, "solve", None),
    ("solver.duhamel", solver, "duhamel", None),
    ("solver.duhamel_mesh", solver, "duhamel_mesh", _count_mesh),
    ("oracle.solve_oracle", oracle, "solve_oracle", _count_oracle),
    ("oracle.effective_history_weights", oracle, "effective_history_weights", None),
    ("verify.decay", verify, "run_decay_suite", None),
    ("verify.h2", verify, "run_h2_suite", None),
    ("verify.stability", verify, "run_stability_suite", None),
    ("verify.bounds", verify, "run_bound_suite", None),
    ("verify.smoothness", verify, "run_smoothness_probe", None),
    ("cli.main", dodiff.cli, "main", None),
    ("cli.parse_config", dodiff.cli, "parse_config", None),
    ("textio.parse_document", textio, "parse_document", None),
    ("textio.write_csv", textio, "write_csv", _count_csv),
]


class Tracer:
    def __init__(self):
        self.spans = []   # (id, name, start, end, parent, job)
        self.counts = {}  # span id -> {counter: value}
        self.errors = defaultdict(int)  # layer -> typed exceptions leaving it
        self.job = None
        self._next_id = 0
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, hook):
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append((sid, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except TYPED_ERRORS:
                if parent is None or parent[1] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((sid, name, start, end,
                                   parent[0] if parent else None, self.job))
            if hook is not None:
                self.counts[sid] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every target on every namespace that binds it."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "dodiff" or n.startswith("dodiff.")]
        for name, owner, attr, hook in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, hook)
            for ns in [owner] + namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapper)
            for key, value in verify.SUITES.items():
                if value is original:
                    self._restore.append((verify.SUITES, key, original))
                    verify.SUITES[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._restore):
            if isinstance(ns, dict):
                ns[key] = original
            else:
                setattr(ns, key, original)
        self._restore.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job in sorted(self.spans):
                row = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "job": job}
                if sid in self.counts:
                    row["counts"] = self.counts[sid]
                fh.write(json.dumps(row) + "\n")

    def layer_table(self) -> dict:
        """Per span name: calls, total and self seconds, summed counters."""
        child_time = defaultdict(float)
        has_same_child = set()
        names = {sid: name for sid, name, *_ in self.spans}
        for sid, name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
                if names[parent] == name:
                    has_same_child.add(parent)
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, name, start, end, parent, _ in self.spans:
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
            counts = self.counts.get(sid, {})
            if name == "kernel.eval_kernel_block" and sid in has_same_child:
                counts = {}  # banded call: its leaves count the cells
            for key, value in counts.items():
                row[key] = row.get(key, 0) + value
        return dict(table)

    def calls_in_jobs(self, name: str, jobs) -> int:
        jobs = set(jobs)
        return sum(1 for s in self.spans if s[1] == name and s[5] in jobs)
