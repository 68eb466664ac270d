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

# the keys of each section; those of [weight] depend on its type and are
# checked by the weight parser
_KEYS = {
    "operator": {"kind", "a", "q", "l", "c_a", "m", "n"},
    "problem": {"u0", "source", "t", "times", "kappas"},
    "numerics": {"duhamel_nodes", "seed", "theta", "dt", "steps", "alpha_nodes"},
}
_RANGES = {
    "operator.n": (1, 4096),
    "operator.m": (3, 100001),
    "numerics.duhamel_nodes": (16, 65536),
    "numerics.alpha_nodes": (2, 512),
    "numerics.steps": (1, 10_000_000),
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
    source_coeffs: object | None  # callable t -> mode coefficients
    source_profile: object | None  # callable (t, x) -> values
    horizon: float
    times: np.ndarray
    kappas: tuple
    grid_points: int
    numerics: dict


def _number(body: dict, name: str, default: str, cast=float):
    """The scalar ``name`` (``section.key``) from its section's body, or the
    default, checked against its range in ``_RANGES`` if it has one."""
    value = textio.parse_number(body.get(name.split(".", 1)[1], default), name, cast)
    if name in _RANGES:
        lo, hi = _RANGES[name]
        if not lo <= value <= hi:
            raise PreconditionError(f"{name} = {value} outside [{lo}, {hi}]")
    return value


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
    except SyntaxError as exc:
        raise PreconditionError(f"cannot parse expression {expr!r}: {exc.msg}")
    except (ValueError, RecursionError, MemoryError) as exc:
        # NUL bytes and deep nesting fail in the parser itself on some
        # Python versions
        raise PreconditionError(f"cannot parse expression {expr!r}: {exc}")

    def walk(node, x):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in ("x", "pi"):
            return x if node.id == "x" else np.pi
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
        try:
            out = walk(tree, x)
        except (ArithmeticError, RecursionError) as exc:
            raise PreconditionError(f"cannot evaluate expression {expr!r}: {exc}")
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()

    # validate now so config errors surface at parse time
    fn(np.linspace(0.0, 1.0, 5))
    return fn


def parse_config(text: str, overrides: dict | None = None) -> ProblemBundle:
    """Parse and validate one config document into live objects.

    Schema: [weight] as read by ``weight.weight_from_mapping``; [operator]
    keys kind (dirichlet|fd), a, q, L, c_a, M, N; [problem] keys u0
    (``modes: c1 c2 ...`` or ``profile: sine|parabola``), source (``none``,
    ``modes: ...`` constant in time), T, times, kappas; [numerics] keys
    duhamel_nodes, seed, theta, dt, steps, alpha_nodes.  Keys
    are case-insensitive; any other section or key is rejected.
    """
    sections = textio.parse_document(text, overrides)
    for name, body in sections.items():
        if name == "weight":
            continue
        if name not in _KEYS:
            raise PreconditionError(f"unknown config section [{name}]")
        for key in body:
            if key not in _KEYS[name]:
                raise PreconditionError(f"unknown config key {name}.{key}")

    weight = wt.weight_from_mapping(sections.get("weight", {"type": "constant"}))

    op = sections.get("operator", {})
    kind = op.get("kind", "dirichlet").strip().lower()
    length = _number(op, "operator.l", repr(np.pi))
    n_modes = _number(op, "operator.n", "64", int)
    a_fn = _expression(op.get("a", "1.0"))
    q_fn = _expression(op.get("q", "0.0"))
    c_a = _number(op, "operator.c_a", "0") or float(np.min(a_fn(np.linspace(0, length, 257))))
    elliptic = sp.EllipticCoefficients(a=a_fn, q=q_fn, c_a=c_a, length=length)
    M = _number(op, "operator.m", "201", int)
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
        raise PreconditionError(f"unknown operator kind {kind!r}")

    pr = sections.get("problem", {})
    horizon = _number(pr, "problem.t", "1.0")
    if horizon <= 0.0:
        raise PreconditionError(f"problem.t = {pr['t'].strip()!r} must be positive")
    times = textio.parse_array(pr["times"], "problem.times") if pr.get("times") \
        else np.linspace(horizon / 8.0, horizon, 8)
    if times.size == 0:
        raise PreconditionError(f"problem.times = {pr['times'].strip()!r} lists no time")
    if np.any(times <= 0.0) or np.any(times > horizon * (1 + 1e-12)):
        raise PreconditionError("problem.times must lie inside (0, T]")
    kappas = tuple(textio.parse_array(pr.get("kappas", "0.5 1.0"), "problem.kappas"))
    if any(not 0.0 <= k <= 1.0 for k in kappas):
        raise PreconditionError("problem.kappas must lie in [0, 1]")

    u0_spec = pr.get("u0", "modes: 1").strip()
    profile_fns = {
        "sine": lambda x: np.sin(np.pi * x / length),
        "parabola": lambda x: x * (length - x),
    }
    if u0_spec.startswith("modes:"):
        c0 = sp.coefficients_from_text(u0_spec.split(":", 1)[1], n_modes,
                                       "problem.u0")
        u0_fn = _synth_on(basis, c0)
    elif u0_spec.startswith("profile:"):
        name = u0_spec.split(":", 1)[1].strip()
        if name not in profile_fns:
            raise PreconditionError(f"unknown u0 profile {name!r}")
        u0_fn = profile_fns[name]
        c0 = sp.project(basis, u0_fn(basis.grid))
    else:
        raise PreconditionError(f"problem.u0 descriptor {u0_spec!r} not recognized")

    src_spec = pr.get("source", "none").strip()
    if src_spec == "none":
        src_coeffs = src_profile = None
    elif src_spec.startswith("modes:"):
        g = sp.coefficients_from_text(src_spec.split(":", 1)[1], n_modes,
                                      "problem.source")
        src_coeffs = (lambda gg: (lambda t: gg))(g)
        g_on = _synth_on(basis, g)
        src_profile = lambda t, x: g_on(x)
    else:
        raise PreconditionError(f"problem.source descriptor {src_spec!r} not recognized")

    nm = sections.get("numerics", {})
    dt = _number(nm, "numerics.dt", "1e-3")
    if dt <= 0.0:
        raise PreconditionError(f"numerics.dt = {nm['dt'].strip()!r} must be positive")
    # capped so that a tiny dt lands in the range check, not in an overflow
    default_steps = max(1, int(round(min(horizon / dt, 1e9))))
    numerics = {
        "duhamel_nodes": _number(nm, "numerics.duhamel_nodes", "256", int),
        "seed": _number(nm, "numerics.seed", str(vf.DEFAULT_SEED), int),
        "theta": _number(nm, "numerics.theta", repr(3 * np.pi / 4)),
        "dt": dt,
        "steps": _number(nm, "numerics.steps", str(default_steps), int),
        "alpha_nodes": _number(nm, "numerics.alpha_nodes", "32", int),
    }
    if not (np.pi / 2 < numerics["theta"] < np.pi):
        raise PreconditionError(f"numerics.theta = {numerics['theta']} outside (pi/2, pi)")

    return ProblemBundle(weight=weight, elliptic=elliptic, basis=basis,
                         initial_coeffs=c0, initial_profile=u0_fn,
                         source_coeffs=src_coeffs, source_profile=src_profile,
                         horizon=horizon, times=np.asarray(times, dtype=float),
                         kappas=kappas, grid_points=M, numerics=numerics)


def _synth_on(basis, coeffs):
    """x -> the field of ``coeffs`` interpolated at x, synthesized on the
    basis grid once, at the first call."""
    values = functools.cache(lambda: sp.synthesize(basis, coeffs))
    return lambda x: np.interp(np.asarray(x, dtype=float), basis.grid, values())


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
    cfg = oc.OracleConfig(dt=bundle.numerics["dt"], steps=bundle.numerics["steps"],
                          grid_points=max(bundle.grid_points,
                                          bundle.basis.n_modes + 2),
                          alpha_nodes=bundle.numerics["alpha_nodes"])
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
    config_text = ""
    bundle = None
    if run.subcommand != "verify" or run.config_path:
        config_text = Path(run.config_path).read_text()
        bundle = parse_config(config_text, run.overrides)
        if run.seed is None:
            run.seed = bundle.numerics["seed"]
    if run.seed is None:
        run.seed = vf.DEFAULT_SEED
    # created only once the document parsed, so a rejected one writes nothing
    out = Path(run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prov = provenance_lines(run, config_text)
    (out / "provenance.txt").write_text("\n".join(prov) + "\n")
    try:
        if run.subcommand == "kernel":
            return _cmd_kernel(run, bundle, prov)
        if run.subcommand == "solve":
            return _cmd_solve(run, bundle, prov)
        if run.subcommand == "oracle":
            return _cmd_oracle(run, bundle, prov)
        if run.subcommand == "verify":
            return _cmd_verify(run, prov)
    except (DomainError, PreconditionError, NumericError) as exc:
        print(f"error[{run.subcommand}]: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled subcommand {run.subcommand}")


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


def build_parser() -> argparse.ArgumentParser:
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
