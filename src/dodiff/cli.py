"""Command-line entry point: config ingestion, dispatch, CSV emission.

Subcommands ``kernel``, ``solve``, ``oracle`` and ``verify`` read one
INI-style config document (sections [weight], [operator], [problem],
[numerics]) and write CSV payloads plus a provenance record into the output
directory.  Identical config and seed produce byte-identical outputs: no
timestamps or machine state enter the files, and the provenance carries the
canonical config hash.
"""

from __future__ import annotations

import argparse
import ast
import functools
import math
import operator
import sys
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__, textio
from . import kernel as kn
from . import oracle as oc
from . import solver as sv
from . import spectral as sp
from . import verify as vf
from . import weight as wt
from .errors import DomainError, NumericError, PreconditionError

_POSITIVE = textio.Interval(0.0, math.inf, "()")

# Every key of [operator], [problem] and [numerics]: its type (str for text),
# its default and, for a number, the interval it must lie in (None: any).  A
# default of None is worked out from other keys: operator.c_a is the least
# a(x) on the points EllipticCoefficients checks, problem.times eight times
# evenly spaced on (0, T] and numerics.steps T/dt, by the oracle, which alone
# reads it.
_SCHEMA = {
    "operator.kind": (str, "dirichlet", None),
    "operator.l": (float, math.pi, _POSITIVE),
    "operator.n": (int, 64, textio.Interval(1, 4096)),
    "operator.m": (int, 201, textio.Interval(3, 100001)),
    "operator.a": (str, "1.0", None),
    "operator.q": (str, "0.0", None),
    "operator.c_a": (float, None, _POSITIVE),
    "problem.u0": (str, "modes: 1", None),
    "problem.source": (str, "none", None),
    "problem.t": (float, 1.0, _POSITIVE),
    "problem.times": (str, None, None),
    "problem.kappas": (str, "0.5 1.0", None),
    "numerics.duhamel_nodes": (int, sv.DUHAMEL_NODES, textio.Interval(16, 65536)),
    "numerics.seed": (int, vf.DEFAULT_SEED, textio.Interval(0, math.inf, "[)")),
    "numerics.theta": (float, kn.KernelConfig.theta,
                       textio.Interval(*kn.THETA_RANGE, "[)")),
    "numerics.dt": (float, 1e-3, _POSITIVE),
    "numerics.steps": (int, None, textio.Interval(1, 10_000_000)),
    "numerics.alpha_nodes": (int, oc.OracleConfig.alpha_nodes, textio.Interval(2, 512)),
}


@dataclass
class RunConfig:
    subcommand: str
    config_path: str
    out_dir: str
    overrides: dict = field(default_factory=dict)
    seed: int | None = None  # falls back to [numerics] seed, then the default
    suite: str = "all"


@dataclass
class ProblemBundle:
    """Everything a subcommand needs, parsed and validated."""

    weight: wt.WeightFunction
    elliptic: sp.EllipticCoefficients
    basis: sp.SpectralBasis
    initial_coeffs: np.ndarray
    initial_profile: object  # callable x -> u0(x)
    source_coeffs: sv.Source | None
    source_profile: tuple | None  # the oracle's (phi, x -> values) pair
    horizon: float
    times: np.ndarray
    kappas: tuple
    grid_points: int  # of the oracle's grid
    numerics: dict


def _value(sections: dict, name: str):
    """Key ``name`` (``section.key``) of ``_SCHEMA``: its text, a number read
    from it and checked against its interval, or its default."""
    cast, default, interval = _SCHEMA[name]
    section, key = name.split(".")
    text = sections.get(section, {}).get(key)
    if text is None:
        return default
    return text if cast is str else textio.parse_number(text, name, cast, interval)


_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
              "abs": np.abs}
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv,
              ast.Pow: operator.pow}


def _expression(expr: str):
    """Coefficient profile from a config value: a constant or an expression
    in x (e.g. ``1 + x/2`` or ``1 + 0.3*sin(x)``).

    The expression is walked as a syntax tree, never executed: numbers, ``x``,
    ``pi``, ``+ - * / **``, unary minus and calls to sin, cos, exp, sqrt and
    abs are allowed; anything else raises ``PreconditionError``.
    """
    expr = expr.strip()
    try:
        tree = ast.parse(expr, mode="eval").body
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # NUL bytes and deep nesting fail in the parser itself on some
        # Python versions
        raise PreconditionError(f"cannot parse expression {expr!r}: {exc}")

    def walk(node, x):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return np.float64(node.value)
        if isinstance(node, ast.Name) and node.id in ("x", "pi"):
            return x if node.id == "x" else np.float64(np.pi)
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return _OPERATORS[type(node.op)](walk(node.left, x), walk(node.right, x))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand, x)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and len(node.args) == 1
                and not node.keywords):
            return _FUNCTIONS[node.func.id](walk(node.args[0], x))
        raise PreconditionError(
            f"expression {expr!r}: {ast.unparse(node)!r} is not allowed")

    def fn(x):
        x = np.asarray(x, dtype=float)
        # numpy scalars under raised float errors: a complex power, a root of
        # a negative, a division by zero and an overflow fail here, as does
        # an infinite literal such as 1e999, not later in the eigensolver
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                out = walk(tree, x)
            if not np.all(np.isfinite(out)):
                raise FloatingPointError("value is not finite")
        except (ArithmeticError, RecursionError) as exc:
            raise PreconditionError(f"cannot evaluate expression {expr!r}: {exc}")
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()

    # validate now so config errors surface at parse time
    fn(np.linspace(0.0, 1.0, 5))
    return fn


def parse_config(text: str, overrides: dict | None = None) -> ProblemBundle:
    """Parse and validate one config document into live objects.

    [weight] is read by ``weight.weight_from_mapping``, the other sections
    by ``_SCHEMA``.  Keys are case-insensitive; any other section or key is
    rejected.
    """
    sections = textio.parse_document(text, overrides)
    for name, body in sections.items():
        if name == "weight":
            continue
        if not any(k.startswith(f"{name}.") for k in _SCHEMA):
            raise PreconditionError(f"unknown config section [{name}]")
        for key in body:
            if f"{name}.{key}" not in _SCHEMA:
                raise PreconditionError(f"unknown config key {name}.{key}")

    weight = wt.weight_from_mapping(sections.get("weight", {}))

    op = sections.get("operator", {})
    kind = _value(sections, "operator.kind").strip().lower()
    length = _value(sections, "operator.l")
    n_modes = _value(sections, "operator.n")
    a_fn = _expression(_value(sections, "operator.a"))
    q_fn = _expression(_value(sections, "operator.q"))
    elliptic = sp.EllipticCoefficients(a=a_fn, q=q_fn, length=length,
                                       c_a=_value(sections, "operator.c_a"))
    M = _value(sections, "operator.m")
    # the oracle's grid: M points, or N + 2 for more modes (fd rejects those)
    grid_points = max(M, n_modes + 2)
    if kind == "dirichlet":
        # the closed-form sine basis is that of -u'': it would silently drop
        # a and q, which the oracle does step with
        for key in ("a", "q"):
            if key in op:
                raise PreconditionError(
                    f"operator.{key} is not read by kind = dirichlet (the sine "
                    f"basis of -u''); use kind = fd for a variable operator")
        basis = sp.build_exact_dirichlet(length, n_modes,
                                         grid_points=max(1025, n_modes + 2))
    elif kind == "fd":
        basis = sp.build_fd(elliptic, M, n_modes)
    else:
        raise PreconditionError(
            f"operator.kind = {op['kind'].strip()!r} is not dirichlet or fd")

    horizon = _value(sections, "problem.t")
    times_text = _value(sections, "problem.times")
    if times_text:
        # times within T to rounding still lie in (0, T]
        times = textio.parse_array(times_text, "problem.times",
                                   textio.Interval(0.0, horizon * (1 + 1e-12), "(]"))
    else:
        times = np.linspace(horizon / 8.0, horizon, 8)
    if times.size == 0:
        raise PreconditionError(f"problem.times = {times_text!r} lists no time")
    kappas = tuple(textio.parse_array(_value(sections, "problem.kappas"),
                                      "problem.kappas", textio.Interval(0.0, 1.0)))

    # built at the first call, so that modes: data reach the oracle as the
    # series at its own nodes; an fd basis is on them already
    oracle_basis = functools.cache(lambda: basis if kind == "fd" else
                                   sp.build_exact_dirichlet(length, n_modes, grid_points))

    def modes(spec, name):
        """The coefficients of a ``modes: c1 c2 ...`` value, zero-padded to N,
        and x -> their field interpolated at x, synthesized on the oracle's
        grid at the first call."""
        c = textio.parse_array(spec.split(":", 1)[1], name)
        if c.size > n_modes:
            raise PreconditionError(f"{name} = {spec!r} lists {c.size} coefficients "
                                    f"for N = {n_modes} modes")
        c = np.pad(c, (0, n_modes - c.size))
        values = functools.cache(lambda: sp.synthesize(oracle_basis(), c))
        return c, lambda x: np.interp(np.asarray(x, dtype=float), oracle_basis().grid,
                                      values())

    u0_spec = _value(sections, "problem.u0").strip()
    profile_fns = {"sine": lambda x: np.sin(np.pi * x / length),
                   "parabola": lambda x: x * (length - x)}
    if u0_spec.startswith("modes:"):
        c0, u0_fn = modes(u0_spec, "problem.u0")
    elif u0_spec.startswith("profile:"):
        name = u0_spec.split(":", 1)[1].strip()
        if name not in profile_fns:
            raise PreconditionError(
                f"problem.u0 = {u0_spec!r}: the profile is not sine or parabola")
        u0_fn = profile_fns[name]
        c0 = sp.project(basis, u0_fn(basis.grid))
    else:
        raise PreconditionError(f"problem.u0 descriptor {u0_spec!r} not recognized")

    src_spec = _value(sections, "problem.source").strip()
    if src_spec == "none":
        src_coeffs = src_profile = None
    elif src_spec.startswith("modes:"):
        g, g_on = modes(src_spec, "problem.source")
        src_coeffs = sv.Source(g)
        src_profile = (src_coeffs.phi, g_on)
    else:
        raise PreconditionError(f"problem.source descriptor {src_spec!r} not recognized")

    numerics = {name.split(".")[1]: _value(sections, name)
                for name in _SCHEMA if name.startswith("numerics.")}

    return ProblemBundle(weight=weight, elliptic=elliptic, basis=basis,
                         initial_coeffs=c0, initial_profile=u0_fn,
                         source_coeffs=src_coeffs, source_profile=src_profile,
                         horizon=horizon, times=np.asarray(times, dtype=float),
                         kappas=kappas, grid_points=grid_points, numerics=numerics)


def provenance_lines(run: RunConfig, config_text: str) -> list[str]:
    # the hash is that of the document as parsed, after the overrides (which
    # apply only where a config is read)
    overrides = run.overrides if run.config_path else None
    return [
        f"dodiff {__version__}",
        f"subcommand = {run.subcommand}",
        f"config_sha256 = {textio.document_hash(config_text, overrides)}",
        f"seed = {run.seed}",
        f"tolerance_version = {vf.TOLERANCE_VERSION}",
    ]


def _kernel_config(bundle: ProblemBundle) -> kn.KernelConfig:
    return kn.KernelConfig(theta=bundle.numerics["theta"])


def _cmd_kernel(run: RunConfig, bundle: ProblemBundle, prov: list[str]) -> int:
    out = Path(run.out_dir)
    cfg = _kernel_config(bundle)
    modes = [n for n in (1, 2, 4, 8, 16, 32, 64) if n <= bundle.basis.n_modes]
    contour = kn.build_kernel_table(bundle.basis, bundle.weight, bundle.times,
                                    modes=modes, cfg=cfg)
    lams = bundle.basis.eigenvalues[np.asarray(modes) - 1]
    spectral = kn.eval_spectral_block(bundle.times, lams, bundle.weight)
    rows = []
    for i, n in enumerate(modes):
        for j, t in enumerate(bundle.times):
            gc, gs = contour.G[i, j], spectral[j, i]
            rows.append([n, float(t), contour.E[i, j], gc, gs,
                         abs(gc - gs) / abs(gc)])
    textio.write_csv(out / "kernels.csv",
                     ["n", "t", "E_n", "G_n_contour", "G_n_spectral", "rel_diff"],
                     rows, comments=prov)
    return 0


def _field_csv(path: Path, field, times, prov: list[str]) -> None:
    """(t, x, u) rows of a solver or oracle field at the output times.  The
    field has one grid for every time: it is formatted once, each t once per
    time and u in one sweep per time."""
    rows, xs = [], None
    for t in times:
        x, u = field.sample(float(t))
        if xs is None:
            xs = list(map(repr, x.tolist()))
        rows.extend(zip(repeat(repr(float(t))), xs, map(repr, u.tolist())))
    textio.write_csv(path, ["t", "x", "u"], rows, comments=prov)


def _cmd_solve(run: RunConfig, bundle: ProblemBundle, prov: list[str]) -> int:
    out = Path(run.out_dir)
    prob = sv.ProblemSpec(bundle.weight, bundle.basis, bundle.initial_coeffs,
                          bundle.source_coeffs, bundle.horizon)
    field = sv.solve(prob, bundle.times, n_nodes=bundle.numerics["duhamel_nodes"],
                     cfg=_kernel_config(bundle))
    _field_csv(out / "solve_field.csv", field, field.times, prov)
    norms = [field.l2_norms()] + [field.frac_norms(k) for k in bundle.kappas]
    norm_rows = [[float(t)] + [float(col[j]) for col in norms]
                 for j, t in enumerate(field.times)]
    textio.write_csv(out / "solve_norms.csv",
                     ["t", "l2"] + [f"graph_{k}" for k in bundle.kappas],
                     norm_rows, comments=prov)
    return 0


def _cmd_oracle(run: RunConfig, bundle: ProblemBundle, prov: list[str]) -> int:
    nm = bundle.numerics
    # T/dt unless set (a set value is checked already), capped so that a
    # tiny dt lands in the range check, not in an overflow
    steps = nm["steps"] or max(1, int(round(min(bundle.horizon / nm["dt"], 1e9))))
    if steps not in _SCHEMA["numerics.steps"][2]:
        raise PreconditionError(
            f"numerics.steps = problem.T / numerics.dt = {bundle.horizon!r} / "
            f"{nm['dt']!r} = {steps} outside {_SCHEMA['numerics.steps'][2]}")
    cfg = oc.OracleConfig(dt=nm["dt"], steps=steps, grid_points=bundle.grid_points,
                          alpha_nodes=nm["alpha_nodes"])
    # checked before stepping: the history sum is O(K^2 M)
    for j, t in enumerate(bundle.times):
        if oc.time_index(cfg.step_times, t) is None:
            raise PreconditionError(
                f"problem.times[{j}] = {float(t)!r} is not a step k*dt of "
                f"numerics.dt = {cfg.dt!r} with k <= numerics.steps = {cfg.steps}")
    field = oc.solve_oracle(bundle.elliptic, bundle.weight,
                            bundle.initial_profile, bundle.source_profile, cfg)
    _field_csv(Path(run.out_dir) / "oracle_field.csv", field, bundle.times, prov)
    return 0


def _cmd_verify(run: RunConfig, prov: list[str]) -> int:
    out = Path(run.out_dir)
    names = list(vf.SUITES) if run.suite == "all" else [run.suite]
    status = 0
    for name in names:
        report = vf.SUITES[name](run.seed)
        textio.write_csv(out / f"{name}_metrics.csv", report.csv_header(),
                         report.csv_rows(), comments=prov)
        (out / f"{name}_summary.txt").write_text(report.summary_text())
        if not report.passed:
            print(f"verify[{name}]: FAIL", file=sys.stderr)
            status = 1
    return status


def dispatch(run: RunConfig) -> int:
    """Run one subcommand; returns the process exit status."""
    overridden = [f"{section}.{key}" for section, body in run.overrides.items()
                  for key in body]
    if overridden and not run.config_path:
        raise PreconditionError(
            f"--set {overridden[0]} needs --config: overrides apply to a config "
            f"document (use --seed to seed verify)")
    if run.seed is not None:  # checked as [numerics] seed is
        textio.parse_number(str(run.seed), "--seed", int, _SCHEMA["numerics.seed"][2])
    config_text = ""
    bundle = None
    if run.subcommand != "verify" or run.config_path:
        config_text = Path(run.config_path).read_text()
        bundle = parse_config(config_text, run.overrides)
    if run.seed is None:
        run.seed = bundle.numerics["seed"] if bundle else vf.DEFAULT_SEED
    # created only once the document parsed, so a rejected one writes nothing
    out = Path(run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prov = provenance_lines(run, config_text)
    (out / "provenance.txt").write_text("\n".join(prov) + "\n")
    # an error of the run ends in main, as one of the document does
    if run.subcommand == "verify":
        return _cmd_verify(run, prov)
    commands = {"kernel": _cmd_kernel, "solve": _cmd_solve, "oracle": _cmd_oracle}
    return commands[run.subcommand](run, bundle, prov)


def _parse_overrides(pairs) -> dict:
    overrides: dict = {}
    for pair in pairs or []:
        try:
            key, value = pair.split("=", 1)
            section, name = key.strip().split(".", 1)
        except ValueError:
            raise PreconditionError(
                f"override {pair!r} must look like section.key=value")
        # keys are case-insensitive, as in the document parser
        overrides.setdefault(section, {})[name.lower()] = value.strip()
    return overrides


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dodiff",
        description="Distributed-order fractional diffusion solver and checks")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, needs_config in (("kernel", True), ("solve", True),
                               ("oracle", True), ("verify", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, default="",
                       help="path to the INI-style problem document")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", dest="overrides",
                       metavar="SECTION.KEY=VALUE",
                       help="override a config value")
        p.add_argument("--seed", type=int, default=None,
                       help="randomization seed (default: [numerics] seed)")
        if name == "verify":
            p.add_argument("--suite", default="all",
                           choices=["all"] + list(vf.SUITES))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = RunConfig(subcommand=args.subcommand, config_path=args.config,
                        out_dir=args.out,
                        overrides=_parse_overrides(args.overrides),
                        seed=args.seed, suite=getattr(args, "suite", "all"))
        return dispatch(run)
    except (DomainError, PreconditionError, NumericError) as exc:
        print(f"error[{args.subcommand}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
