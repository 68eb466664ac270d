"""Accuracy metrics, computed apart from the timed worker and the tracer.

Run by ``run.py`` in its own interpreter after the timed loop, so it moves
neither the worker's peak memory nor any layer counter.  Each metric is the
worst case over the kept outputs of the workload that produces it:

* ``source_rel_err.max`` (solve): per mode and output time, the relative
  error of the source response against the identity
  R_n(t) = (1 - E_n(t)) / lambda_n * g_n.  The response is read back from
  ``solve_field.csv`` by projecting onto the document's basis and removing
  the homogeneous part E_n(t) c_n(0).
* ``kernel_rel_err.max`` (crosscheck): the largest ``rel_diff`` in
  ``kernels.csv``.
* ``oracle_gap.max`` (oracle): the largest relative L2 gap, from
  ``dodiff.compare``, between ``oracle_field.csv`` and a library ``solve`` of
  the same document.

Every workload must report all three, so on the two workloads that do not
produce a quantity, it is measured on one fixed probe document run through
the CLI here (``PROBES``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import workloads
from dodiff import cli, kernel, oracle, solver, spectral

PROBES = {
    # ROADMAP item 1's case: box(0.5, 0.02), N = 32, F = 1 in every mode, t = 1
    "source": ("solve", workloads.document(
        "box", "kind = dirichlet\nN = 32\n",
        {"u0": "modes: 1", "source": "modes: " + " ".join(["1"] * 32),
         "T": "1.0", "times": "1.0"}, {})),
    "kernel": ("kernel", workloads.document(
        "constant", "kind = dirichlet\nN = 64\n",
        {"u0": "modes: 1", "source": "none", "T": "10000.0",
         "times": "0.001 0.1 10.0 10000.0"}, {})),
    # configs/tapered_fd.ini on the coarsest oracle grid
    "oracle": ("oracle", workloads.document(
        "tapered", workloads.FD_OPERATOR + "m = 101\nn = 16\n",
        {"u0": "profile: parabola", "source": "modes: 0.5 0.25", "T": "1.0",
         "times": "0.2 0.6 1.0"}, {"dt": "0.002", "steps": "500"})),
}
OWNER = {"source": "solve", "kernel": "crosscheck", "oracle": "oracle"}


def _field_rows(path: Path, times: np.ndarray):
    """(grid, values per output time) from a ``t,x,u`` CSV in time-major order."""
    data = _read_numeric(path)
    values = data[:, 2].reshape(len(times), -1)
    return data[: values.shape[1], 1], values


def _read_numeric(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])


def source_error(text: str, out: Path) -> float:
    bundle = cli.parse_config(text)
    basis = bundle.basis
    _, values = _field_rows(out / "solve_field.csv", bundle.times)
    coeffs = np.array([spectral.project(basis, u) for u in values])
    lam = basis.eigenvalues
    E, _ = kernel.eval_kernel_block(bundle.times, lam, bundle.weight,
                                    cfg=cli._kernel_config(bundle))
    response = coeffs - E * bundle.initial_coeffs[None, :]
    g = bundle.source_coeffs(0.0)
    exact = (1.0 - E) / lam[None, :] * g[None, :]
    return float(np.max(np.abs(response - exact) / np.abs(exact)))


def kernel_error(text: str, out: Path) -> float:
    return float(np.max(_read_numeric(out / "kernels.csv")[:, 5]))


def oracle_gap(text: str, out: Path) -> float:
    bundle = cli.parse_config(text)
    grid, values = _field_rows(out / "oracle_field.csv", bundle.times)
    reference = oracle.GridField(times=bundle.times, grid=grid, values=values)
    problem = solver.ProblemSpec(bundle.weight, bundle.basis, bundle.initial_coeffs,
                                 bundle.source_coeffs, bundle.horizon)
    field = solver.solve(problem, bundle.times, n_nodes=bundle.numerics["duhamel_nodes"],
                         cfg=cli._kernel_config(bundle))
    return float(np.max(oracle.compare(reference, field, bundle.times)))


CHECKS = {"source": source_error, "kernel": kernel_error, "oracle": oracle_gap}
METRICS = {"source": "source_rel_err.max", "kernel": "kernel_rel_err.max",
           "oracle": "oracle_gap.max"}


def measure(wl: workloads.Workload, keep: Path, probe_dir: Path) -> dict:
    out = {}
    for check, fn in CHECKS.items():
        if OWNER[check] == wl.name:
            # the source identity needs a source; solve pools are half sourced
            cases = [(wl.docs[d], keep / d) for d in wl.docs if (keep / d).is_dir()
                     and (check != "source" or wl.meta[d]["sourced"])]
        else:
            subcommand, text = PROBES[check]
            target = probe_dir / check
            target.mkdir(parents=True, exist_ok=True)
            (target / "probe.ini").write_text(text)
            with contextlib.redirect_stderr(io.StringIO()):
                status = cli.main([subcommand, "--config", str(target / "probe.ini"),
                                   "--out", str(target)])
            if status != 0:
                raise RuntimeError(f"accuracy probe {check} exited with {status}")
            cases = [(text, target)]
        if not cases:
            raise RuntimeError(f"no outputs to measure {METRICS[check]} on")
        out[METRICS[check]] = max(fn(text, path) for text, path in cases)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    wl = workloads.build(args.workload, args.seed)
    work = Path(args.work)
    metrics = measure(wl, work / "keep", work / "probe")
    Path(args.result).write_text(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
