import ast
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import constant_coefficients, reference_field_csv, reference_write_csv
from dodiff import cli, make_constant_weight
from dodiff import oracle as oc
from dodiff import solver as sv
from dodiff import weight as wt
from dodiff.errors import PreconditionError
from dodiff.spectral import build_exact_dirichlet, build_fd

MINIMAL = """
[weight]
type = constant
value = 1.0

[problem]
u0 = profile: sine
T = 1.0
times = 0.25 0.5 1.0
"""

FULL = """
[weight]
type = box
alpha0 = 0.5
h = 0.1

[operator]
kind = dirichlet
L = 3.141592653589793
N = 16

[problem]
u0 = modes: 1 0 0.5
source = modes: 0.2
T = 2.0
times = 0.5 1.0 2.0

[numerics]
duhamel_nodes = 128
seed = 7
"""


class TestParseConfig:
    def test_minimal_defaults(self):
        bundle = cli.parse_config(MINIMAL)
        assert bundle.basis.n_modes == 64
        assert bundle.horizon == 1.0
        # sine profile concentrates on the first mode
        assert abs(bundle.initial_coeffs[0]) > 1.0
        assert np.max(np.abs(bundle.initial_coeffs[1:])) < 1e-8

    def test_full_config(self):
        bundle = cli.parse_config(FULL)
        assert bundle.weight.alpha0 == 0.5 and bundle.weight.delta == 0.1
        assert bundle.basis.n_modes == 16
        assert bundle.source_coeffs is not None
        assert bundle.source_coeffs(0.3)[0] == 0.2

    def test_mode_coefficients(self):
        # a modes: list is zero-padded to N, and one longer than N rejected
        doc = MINIMAL.replace("profile: sine", "modes: 1 0 0.5") + "\n[operator]\nN = 5\n"
        assert np.array_equal(cli.parse_config(doc).initial_coeffs, [1, 0, 0.5, 0, 0])
        with pytest.raises(PreconditionError, match="problem.u0 = 'modes: 1 2 3'"):
            cli.parse_config(doc.replace("N = 5", "N = 2").replace("1 0 0.5", "1 2 3"))

    def test_invariant_violation_reported(self):
        bad = MINIMAL.replace("type = constant\nvalue = 1.0",
                              "type = piecewise\n"
                              "breakpoints = 0 0.4 0.5 1\n"
                              "coeffs = 1 ; 0 ; 1\n"
                              "alpha0 = 0.5\ndelta = 0.2\n"
                              "mu_at_alpha0 = 1\nsup_norm = 1")
        with pytest.raises(PreconditionError, match="concentration"):
            cli.parse_config(bad)

    def test_unknown_section(self):
        with pytest.raises(PreconditionError, match="unknown config section"):
            cli.parse_config(MINIMAL + "\n[extra]\nfoo = 1\n")

    def test_override_ranges(self):
        with pytest.raises(PreconditionError, match="duhamel_nodes"):
            cli.parse_config(MINIMAL, overrides={"numerics": {"duhamel_nodes": "4"}})

    def test_times_outside_horizon(self):
        with pytest.raises(PreconditionError, match="times"):
            cli.parse_config(MINIMAL.replace("times = 0.25 0.5 1.0",
                                             "times = 0.5 2.0"))

    def test_expression_attribute_walk_rejected(self):
        walk = "1 + x*0*(().__class__.__base__.__subclasses__().__len__())"
        text = MINIMAL + f"\n[operator]\nkind = fd\na = {walk}\nm = 101\nn = 4\n"
        with pytest.raises(PreconditionError, match="__subclasses__"):
            cli.parse_config(text)

    @pytest.mark.parametrize("expr, match", [
        ("0.1*log(1 + x)", r"log\(1 \+ x\)"),
        ("1 + \x00x", "cannot parse expression"),
        ("-" * 5000 + "1", "cannot parse expression"),
    ], ids=["unlisted-call", "nul-byte", "deep-nesting"])
    def test_expression_unlisted_call_rejected(self, expr, match):
        text = MINIMAL + f"\n[operator]\nkind = fd\nq = {expr}\nm = 101\nn = 4\n"
        with pytest.raises(PreconditionError, match=match):
            cli.parse_config(text)

    def test_fd_operator_with_expressions(self):
        text = MINIMAL + "\n[operator]\nkind = fd\na = 1 + x/2\nq = 0.1\n" \
                         "m = 401\nn = 8\n"
        bundle = cli.parse_config(text)
        assert bundle.basis.n_modes == 8
        assert bundle.elliptic.c_a == pytest.approx(1.0)
        assert bundle.grid_points == 401
        x = np.linspace(0.0, np.pi, 5)
        assert np.allclose(bundle.elliptic.a(x), 1 + x / 2)
        assert np.allclose(bundle.elliptic.q(x), 0.1)
        fd = build_fd(bundle.elliptic, 401, 8)
        assert np.array_equal(bundle.basis.eigenvalues, fd.eigenvalues)


BOX = MINIMAL.replace("type = constant\nvalue = 1.0",
                      "type = box\nalpha0 = 0.5\nh = 0.02")
TAPERED = MINIMAL.replace("type = constant\nvalue = 1.0",
                          "type = piecewise\nbreakpoints = 0 0.75 0.8 1\n"
                          "coeffs = 1 ; 16 -20 ; 0\nalpha0 = 0.75\ndelta = 0.5\n"
                          "mu_at_alpha0 = 1\nsup_norm = 1\nalpha1 = 0.8")

# (document, the section.key and text the error must name)
BAD_VALUES = {
    "N-abc": (MINIMAL + "\n[operator]\nN = abc\n", "operator.n", "'abc'"),
    "T-two": (MINIMAL.replace("T = 1.0", "T = two"), "problem.t", "'two'"),
    "h-wide": (BOX.replace("h = 0.02", "h = wide"), "weight.h", "'wide'"),
    "dt-zero": (MINIMAL + "\n[numerics]\ndt = 0\n", "numerics.dt", "'0'"),
    "T-inf": (MINIMAL.replace("T = 1.0", "T = inf"), "problem.t", "'inf'"),
    "T-nan": (MINIMAL.replace("T = 1.0", "T = nan"), "problem.t", "'nan'"),
    "times-nan": (MINIMAL.replace("times = 0.25 0.5 1.0", "times = 0.2 nan 1.0"),
                  "problem.times", "'nan'"),
    "times-empty": (MINIMAL.replace("times = 0.25 0.5 1.0", "times = ,"),
                    "problem.times", "','"),
    "coeffs-nan": (TAPERED.replace("coeffs = 1 ;", "coeffs = nan ;"),
                   "weight.coeffs", "'nan'"),
    "unknown-key": (MINIMAL + "\n[numerics]\nstesp = 5\n", "numerics.stesp",
                    "unknown config key"),
    "L-negative": (MINIMAL + "\n[operator]\nL = -1\n", "operator.l", "'-1'"),
    "c_a-negative": (MINIMAL + "\n[operator]\nc_a = -1\n", "operator.c_a", "'-1'"),
    "kind-xx": (MINIMAL + "\n[operator]\nkind = xx\n", "operator.kind", "'xx'"),
    "times-beyond-T": (MINIMAL.replace("times = 0.25 0.5 1.0", "times = 5"),
                       "problem.times[0]", "'5'"),
    "kappas-two": (MINIMAL.replace("T = 1.0", "T = 1.0\nkappas = 2"),
                   "problem.kappas[0]", "'2'"),
    "u0-cosine": (MINIMAL.replace("profile: sine", "profile: cosine"), "problem.u0",
                  "'profile: cosine'"),
    "alpha0-two": (MINIMAL.replace("value = 1.0", "value = 1.0\nalpha0 = 2"),
                   "[weight] alpha0", "= 2.0"),
}


FD = MINIMAL + "\n[operator]\nkind = fd\nm = 201\nn = 8\n"
# a dip to 0.5 between the 257 points the default c_a once came from
DIP = FD + "a = 1 - 0.5*exp(-((x - 257*pi/512)/0.001)**2)\n"


class TestCoefficientExpressions:
    """A coefficient that is not finite and real anywhere on its sample is a
    ``PreconditionError`` naming the expression, before any output."""

    @pytest.mark.parametrize("subcommand", ["solve", "oracle"])
    @pytest.mark.parametrize("key, expr", [
        ("a", "sqrt(x - 1)"), ("q", "sqrt(x - 1)"), ("a", "exp(1000*x)"),
        ("a", "(-1)**0.5"), ("a", "1/x"), ("a", "1e999")],
        ids=["root-a", "root-q", "overflow", "complex-power", "pole",
             "infinite-literal"])
    def test_non_finite_named(self, key, expr, subcommand, tmp_path, capsys):
        cfg = tmp_path / "config.ini"
        cfg.write_text(FD + f"{key} = {expr}\n")
        out = tmp_path / "out"
        rc = cli.main([subcommand, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and f"cannot evaluate expression {expr!r}" in err
        assert not out.exists()

    def test_underflow_accepted(self, tmp_path):
        cfg = tmp_path / "config.ini"
        cfg.write_text(FD + "a = 1 + exp(-1000*x)\n")
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("subcommand", ["kernel", "solve", "oracle"])
    def test_c_a_from_the_checked_sample(self, subcommand, tmp_path):
        # without c_a the floor is the least a on the points it is checked on
        cfg = tmp_path / "config.ini"
        cfg.write_text(DIP)
        assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert cli.parse_config(DIP).elliptic.c_a == pytest.approx(0.5)

    def test_declared_c_a_above_a_named(self, tmp_path, capsys):
        cfg = tmp_path / "config.ini"
        cfg.write_text(DIP)
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"),
                       "--set", "operator.c_a=0.9"])
        err = capsys.readouterr().err
        assert rc == 1
        assert re.search(r"a\(1\.5769\d*\) = 0\.5\d* < c_a = 0\.9", err), err


class TestConfigErrors:
    """Malformed, non-finite or unknown config entries end in a
    ``PreconditionError`` that names them, for every subcommand."""

    @pytest.mark.parametrize("subcommand", ["kernel", "solve", "oracle", "verify"])
    @pytest.mark.parametrize("case", list(BAD_VALUES))
    def test_bad_value_named(self, case, subcommand, tmp_path, capsys):
        doc, name, text = BAD_VALUES[case]
        cfg = tmp_path / "config.ini"
        cfg.write_text(doc)
        out = tmp_path / "out"
        extra = ["--suite", "smoothness"] if subcommand == "verify" else []
        rc = cli.main([subcommand, "--config", str(cfg), "--out", str(out), *extra])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error[{subcommand}]: ") and name in err and text in err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, doc", [
        ("numerics", "stesp", MINIMAL + "\n[numerics]\nstesp = 5\n"),
        # the symbol quadrature order is fixed, not a setting
        ("numerics", "quad_order", MINIMAL + "\n[numerics]\nquad_order = 64\n"),
        ("problem", "kappa", MINIMAL.replace("T = 1.0", "T = 1.0\nkappa = 0.3")),
        ("operator", "nn", MINIMAL + "\n[operator]\nnn = 8\n"),
        ("weight", "value", BOX.replace("h = 0.02", "h = 0.02\nvalue = 2")),
        ("weight", "h", MINIMAL.replace("value = 1.0", "value = 1.0\nh = 0.1")),
    ], ids=["numerics", "quad-order", "problem", "operator", "box-weight",
            "constant-weight"])
    def test_unknown_key(self, section, key, doc):
        with pytest.raises(PreconditionError, match=f"unknown config key {section}.{key}"):
            cli.parse_config(doc)

    def test_unresolved_theta_named(self, tmp_path, capsys):
        # below 2 pi/3 the contour's fixed panels do not resolve its rays
        rc, out = TestDispatch().run(tmp_path, "solve",
                                     extra=["--set", f"numerics.theta={0.55 * math.pi!r}"])
        err = capsys.readouterr().err
        assert rc == 1 and not out.exists()
        assert f"numerics.theta = '{0.55 * math.pi!r}' outside [2.09439510239, " \
               "3.14159265359)" in err

    @pytest.mark.parametrize("kind", ["kind = dirichlet\n", ""],
                             ids=["explicit", "default"])
    @pytest.mark.parametrize("key", ["a", "q"])
    def test_dirichlet_rejects_coefficients(self, key, kind, tmp_path, capsys):
        # the sine basis is that of -u''; a and q would reach the oracle only
        doc = MINIMAL + f"\n[operator]\n{kind}{key} = 2\nn = 16\n"
        with pytest.raises(PreconditionError, match=f"operator.{key} .*kind = fd"):
            cli.parse_config(doc)
        cfg = tmp_path / "config.ini"
        cfg.write_text(doc)
        rc = cli.main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1 and f"operator.{key}" in capsys.readouterr().err

    def test_weight_type_defaults_to_constant(self):
        bundle = cli.parse_config(MINIMAL.replace("type = constant\nvalue = 1.0",
                                                  "value = 2.0"))
        w = make_constant_weight(2.0)
        assert bundle.weight.sup_norm == 2.0
        assert np.array_equal(bundle.weight.breakpoints, w.breakpoints)
        assert (bundle.weight.alpha0, bundle.weight.delta) == (w.alpha0, w.delta)

    def test_override_keys(self):
        with pytest.raises(PreconditionError, match="numerics.stesp"):
            cli.parse_config(MINIMAL, overrides=cli._parse_overrides(["numerics.stesp=5"]))
        # keys are case-insensitive, as in the document itself
        bundle = cli.parse_config(MINIMAL, cli._parse_overrides(["problem.T=2.0"]))
        assert bundle.horizon == 2.0

    def test_verify_override_needs_config(self, tmp_path, capsys):
        # with no document there is nothing to override: the run stops
        # before it writes anything, rather than ignoring --set
        out = tmp_path / "out"
        rc = cli.main(["verify", "--suite", "decay", "--set", "bogus.key=1",
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error[verify]: ") and "bogus.key" in err
        assert not list(out.glob("*.csv")) and not (out / "provenance.txt").exists()

    @pytest.mark.parametrize("path", ["option", "document"])
    def test_negative_seed_named(self, path, tmp_path, capsys):
        # the random generators take no negative seed: --seed and
        # [numerics] seed share one interval, checked before --out exists
        out = tmp_path / "out"
        if path == "option":
            args = ["--seed", "-1"]
        else:
            cfg = tmp_path / "config.ini"
            cfg.write_text(MINIMAL + "\n[numerics]\nseed = -1\n")
            args = ["--config", str(cfg)]
        rc = cli.main(["verify", "--suite", "h2", "--out", str(out), *args])
        err = capsys.readouterr().err
        name = "--seed" if path == "option" else "numerics.seed"
        assert rc == 1
        assert err.startswith("error[verify]: ")
        assert f"{name} = '-1' outside [0, inf)" in err
        assert not out.exists()

    def test_non_finite_weight_field(self):
        from dodiff.weight import WeightFunction
        with pytest.raises(PreconditionError, match="finite"):
            WeightFunction(np.array([0.0, 1.0]), (np.array([np.nan]),),
                           alpha0=0.5, delta=0.2, mu_at_alpha0=1.0, sup_norm=1.0)
        with pytest.raises(PreconditionError, match="finite"):
            WeightFunction(np.array([0.0, 1.0]), (np.array([1.0]),),
                           alpha0=0.5, delta=0.2, mu_at_alpha0=1.0,
                           sup_norm=np.inf)


def _scalar_ends():
    """(key, 0 or 1) for each finite end of each interval of the key table."""
    return [(name, side) for name, (_, _, interval) in cli._SCHEMA.items()
            if interval is not None
            for side in (0, 1) if math.isfinite((interval.lo, interval.hi)[side])]


@pytest.mark.parametrize("name, side", _scalar_ends(),
                         ids=lambda v: v if isinstance(v, str) else "lo hi".split()[v])
def test_scalar_interval_ends(name, side):
    # a value just outside either end is rejected, naming the key and the
    # text; a closed end itself is accepted
    cast, _, interval = cli._SCHEMA[name]
    end = (interval.lo, interval.hi)[side]
    closed = interval.ends[side] in "[]"
    outward = 1 if side else -1
    if not closed:
        outside = end
    elif cast is int:
        outside = end + outward
    else:
        outside = math.nextafter(end, outward * math.inf)
    section, key = name.split(".")
    with pytest.raises(PreconditionError, match="outside") as exc:
        cli.parse_config(MINIMAL, {section: {key: repr(outside)}})
    assert f"{name} = {repr(outside)!r}" in str(exc.value)
    if closed:
        assert cli._value({section: {key: repr(end)}}, name) == end


def test_readme_names_every_key():
    # the README's config schema lists every key the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme.split("### Config schema", 1)[1].split("\n## ", 1)[0].lower()
    keys = list(cli._SCHEMA) + ["weight.type"]
    keys += [f"weight.{key}" for _, required, optional in wt._WEIGHT_TYPES.values()
             for key in required + optional]
    assert [key for key in keys if f"`{key}`" not in schema] == []


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's job generator, ``perfbench/workloads.py``."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_shipped_and_benchmark_documents_parse(workloads):
    # every document the benchmark generates, and every shipped config,
    # stays inside the schema
    root = Path(__file__).resolve().parents[1]
    docs = [path.read_text() for path in sorted((root / "configs").glob("*.ini"))]
    assert len(docs) == 3
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            docs += workloads.build(name, seed).docs.values()
    for doc in docs:
        cli.parse_config(doc)


def test_shipped_and_benchmark_weights_keep_sup_norm(workloads):
    # the worked-out sup_norm of each shipped and benchmark weight is the
    # value its builder or document declared before it was worked out
    root = Path(__file__).resolve().parents[1]
    declared = {"box": 50.0, "constant": 1.0, "tapered_fd": 1.0, "tapered": 1.0}
    for name in ("box", "constant", "tapered_fd"):
        doc = (root / "configs" / f"{name}.ini").read_text()
        assert cli.parse_config(doc).weight.sup_norm == declared[name]
    for name, body in workloads.WEIGHTS.items():
        doc = body + "\n[problem]\ntimes = 1.0\n"
        assert cli.parse_config(doc).weight.sup_norm == declared[name]


class TestDispatch:
    def run(self, tmp_path, sub, config=MINIMAL, extra=()):
        cfg = tmp_path / "config.ini"
        cfg.write_text(config)
        out = tmp_path / f"out_{sub}"
        rc = cli.main([sub, "--config", str(cfg), "--out", str(out), *extra])
        return rc, out

    def test_kernel_csv_contract(self, tmp_path):
        rc, out = self.run(tmp_path, "kernel")
        assert rc == 0
        lines = (out / "kernels.csv").read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "n,t,E_n,G_n_contour,G_n_spectral,rel_diff"
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert all(float(ln.split(",")[-1]) <= 1e-6 for ln in data)
        assert (out / "provenance.txt").exists()

    @pytest.mark.parametrize("name", ["box", "constant", "tapered_fd"])
    def test_shipped_kernel_routes_agree(self, tmp_path, name):
        # contour and real axis agree per entry on every shipped config
        config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini"
        rc, out = self.run(tmp_path, "kernel", config=config.read_text())
        assert rc == 0
        lines = [ln for ln in (out / "kernels.csv").read_text().splitlines()
                 if not ln.startswith("#")][1:]
        assert lines and max(float(ln.split(",")[-1]) for ln in lines) <= 1e-12

    def test_solve_outputs(self, tmp_path):
        rc, out = self.run(tmp_path, "solve")
        assert rc == 0
        assert (out / "solve_field.csv").exists()
        norms = (out / "solve_norms.csv").read_text().splitlines()
        header = [ln for ln in norms if not ln.startswith("#")][0]
        assert header == "t,l2,graph_0.5,graph_1.0"

    def test_solve_beyond_default_sine_grid(self, tmp_path):
        # N + 2 > 1025: the sine basis grid grows with the mode count
        config = MINIMAL.replace("u0 = profile: sine",
                                 "u0 = modes: 1\nsource = modes: 1") \
            + "\n[operator]\nkind = dirichlet\nN = 1024\n"
        rc, out = self.run(tmp_path, "solve", config=config)
        assert rc == 0
        rows = [ln for ln in (out / "solve_field.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert len(rows) == 3 * 1026

    def test_oracle_mirror(self, tmp_path):
        rc, out = self.run(tmp_path, "oracle", extra=["--set", "numerics.steps=100",
                                                      "--set", "numerics.dt=0.01"])
        assert rc == 0
        assert (out / "oracle_field.csv").exists()

    def test_steps_read_by_oracle_only(self, tmp_path, capsys):
        # T / dt = 2e7 steps is past the oracle's range; solve and kernel
        # do not step, so they run
        config = (Path(__file__).resolve().parents[1] / "configs" / "constant.ini")
        extra = ["--set", "problem.T=2e4", "--set", "problem.times=1e4"]
        for sub in ("solve", "kernel"):
            assert self.run(tmp_path, sub, config=config.read_text(), extra=extra)[0] == 0
        capsys.readouterr()
        rc, _ = self.run(tmp_path, "oracle", config=config.read_text(), extra=extra)
        err = capsys.readouterr().err
        assert rc == 1 and "20000000 outside [1, 10000000]" in err
        assert all(key in err for key in ("numerics.steps", "problem.T", "numerics.dt"))

    @pytest.mark.parametrize("name", ["box", "constant", "tapered_fd"])
    def test_kernel_routes_agree_at_time_corners(self, tmp_path, name):
        # t e^u, the squares of the cut value and |s|^2 at the contour's
        # cutoff would overflow here; the suite turns any RuntimeWarning
        # into a failure.  solve runs homogeneous and sourced.
        config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini"
        config = config.read_text()
        for n_modes in (1, 64):
            extra = ["--set", f"operator.n={n_modes}", "--set", "problem.T=1e10",
                     "--set", "problem.times=1e-300 1e-200 1e-6 1.0 10000.0 1e10"]
            sources = ("none", "modes: 1" + " -0.5" * (n_modes > 1))
            (tmp_path / f"{n_modes}").mkdir()
            rc, out = self.run(tmp_path / f"{n_modes}", "kernel", config=config,
                               extra=extra + ["--set", "problem.source=none"])
            assert rc == 0
            rows = [ln.split(",") for ln in (out / "kernels.csv").read_text().splitlines()
                    if not ln.startswith("#")][1:]
            small = [float(r[-1]) for r in rows if float(r[1]) < 1e-100]
            assert len(small) == 2 * (7 if n_modes == 64 else 1) and max(small) <= 1e-12
            for k, source in enumerate(sources):
                run_dir = tmp_path / f"{n_modes}-{k}"
                run_dir.mkdir()
                rc, out = self.run(run_dir, "solve", config=config,
                                   extra=extra + ["--set", f"problem.source={source}"])
                assert rc == 0, source
                for csv in out.glob("*.csv"):
                    rows = [ln.split(",") for ln in csv.read_text().splitlines()
                            if not ln.startswith("#")][1:]
                    assert rows and np.all(np.isfinite(np.array(rows, dtype=float))), csv

    @pytest.mark.parametrize("name", ["box", "constant", "tapered_fd"])
    def test_any_interval_and_narrow_box_run(self, tmp_path, name):
        # the contour radius comes from the times alone, and the fd floor is
        # c_a (pi/L)^2, so neither the length nor the box width can fail.
        # At L = 0.1 the contour's absolute error shows in rel_diff (about
        # 1e-10), so only L >= pi is held to 1e-12.
        config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini"
        config = config.read_text()
        cases = [f"operator.l={length}" for length in (0.1, 31.4159, 1000)]
        cases += ["weight.h=0.001"] if name == "box" else []
        runs = [("kernel", []), ("solve", ["--set", "problem.source=none"]),
                ("solve", ["--set", "problem.source=modes: 1 -0.5"]), ("oracle", [])]
        for k, case in enumerate(cases):
            for j, (sub, extra) in enumerate(runs):
                run_dir = tmp_path / f"{k}-{j}"
                run_dir.mkdir()
                rc, out = self.run(run_dir, sub, config=config,
                                   extra=["--set", case, *extra])
                assert rc == 0, (case, sub)
                for csv in out.glob("*.csv"):
                    rows = np.array([ln.split(",") for ln in csv.read_text().splitlines()
                                     if not ln.startswith("#")][1:], dtype=float)
                    assert rows.size and np.all(np.isfinite(rows)), (case, csv)
                    if sub == "kernel" and case != "operator.l=0.1":
                        assert rows[:, -1].max() <= 1e-12, case

    def test_fd_floor_follows_the_length(self, tmp_path):
        # -u'' on (0, 2 pi) has lambda_1 = 1/4, below c_a = 1 but at the
        # Rayleigh floor c_a (pi/L)^2 to within the scheme's O(h^2) error
        doc = MINIMAL + ("\n[operator]\nkind = fd\na = 1\nq = 0\nL = 6.283185307179586\n"
                         "m = 401\nn = 8\n\n[numerics]\ndt = 0.01\n")
        lam1 = cli.parse_config(doc).basis.eigenvalues[0]
        assert abs(lam1 - 0.25) <= 0.25 * (np.pi / 400) ** 2
        for sub in ("solve", "oracle"):
            (tmp_path / sub).mkdir()
            rc, _ = self.run(tmp_path / sub, sub, config=doc)
            assert rc == 0, sub

    @pytest.mark.parametrize("override", ["numerics.dt=3e-3", "numerics.steps=500"])
    def test_oracle_off_grid_time_fails_before_stepping(self, tmp_path, capsys,
                                                        monkeypatch, override):
        # constant.ini asks for t = 0.25, 0.5 and 1 on dt = 1e-3
        def never(*args):
            raise AssertionError("solve_oracle called")

        monkeypatch.setattr(oc, "solve_oracle", never)
        config = (Path(__file__).resolve().parents[1] / "configs" / "constant.ini")
        rc, _ = self.run(tmp_path, "oracle", config=config.read_text(),
                         extra=["--set", override])
        err = capsys.readouterr().err
        assert rc == 1
        name = "problem.times[0] = 0.25" if "dt" in override else "problem.times[2] = 1.0"
        assert name in err and "numerics.dt" in err and "numerics.steps" in err

    def test_oracle_time_between_tiny_steps_fails(self, tmp_path, capsys):
        # 5.5e-12 lies halfway between the steps 5e-12 and 6e-12: the
        # tolerance is relative to t, not an absolute 1e-9 below t = 1
        config = (Path(__file__).resolve().parents[1] / "configs" / "constant.ini")
        rc, _ = self.run(tmp_path, "oracle", config=config.read_text(),
                         extra=["--set", "numerics.dt=1e-12", "--set", "problem.t=1e-10",
                                "--set", "problem.times=5.5e-12 1e-10",
                                "--set", "operator.n=8"])
        assert rc == 1
        assert "problem.times[0] = 5.5e-12 is not a step" in capsys.readouterr().err

    def test_oracle_gets_dirichlet_modes_at_its_nodes(self, tmp_path, monkeypatch):
        # the u0 of a modes: document is the sine series at the oracle's own
        # nodes, not interpolated from another grid
        seen = {}

        def record(coeffs, w, u0, source, cfg):
            x = np.linspace(0.0, coeffs.length, cfg.grid_points)
            seen["u0"], seen["x"] = u0(x), x
            return oc.GridField(times=cfg.step_times, grid=x,
                                values=np.zeros((cfg.steps + 1, x.size)))

        monkeypatch.setattr(oc, "solve_oracle", record)
        c = np.array([1.0, 0.0, 0.0, 0.5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.25])
        config = MINIMAL.replace("u0 = profile: sine",
                                 "u0 = modes: " + " ".join(map(repr, c.tolist())))
        for m in (101, 201, 401):
            rc, _ = self.run(tmp_path, "oracle", config=config + f"\n[operator]\nm = {m}\n",
                             extra=["--set", "numerics.dt=0.25", "--set", "numerics.steps=4"])
            assert rc == 0 and seen["x"].size == m
            # phi_n = sqrt(2/L) sin(n pi x / L) on L = pi, as the basis writes it
            L, n = np.pi, np.arange(1, c.size + 1)
            series = c @ (np.sqrt(2.0 / L) * np.sin(np.outer(n, seen["x"]) * np.pi / L))
            assert np.max(np.abs(seen["u0"] - series)[1:-1]) < 1e-15

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "config.ini"
        cfg.write_text(MINIMAL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["kernel", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli.main(["kernel", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "kernels.csv").read_bytes() == (out_b / "kernels.csv").read_bytes()
        assert (out_a / "provenance.txt").read_bytes() == \
            (out_b / "provenance.txt").read_bytes()

    def test_verify_bounds_zero_violations(self, tmp_path):
        out = tmp_path / "verify"
        rc = cli.main(["verify", "--out", str(out), "--suite", "bounds"])
        assert rc == 0
        summary = (out / "bounds_summary.txt").read_text()
        assert "overall: PASS" in summary
        assert (out / "bounds_metrics.csv").exists()
        assert (out / "provenance.txt").exists()

    def test_unknown_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--out", "/tmp/x"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, tmp_path):
        bad = MINIMAL.replace("value = 1.0", "value = -1.0")
        cfg = tmp_path / "config.ini"
        cfg.write_text(bad)
        rc = cli.main(["solve", "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        assert rc == 1

    def test_document_hash_ignores_comments(self):
        a = cli.textio.document_hash(MINIMAL)
        b = cli.textio.document_hash("# a comment\n" + MINIMAL)
        assert a == b


class TestProvenance:
    OVERRIDES = ["--set", "problem.T=2.0", "--set", "problem.times=0.5 2.0"]

    def run(self, tmp_path, name, extra=()):
        cfg = tmp_path / "config.ini"
        cfg.write_text(MINIMAL)
        out = tmp_path / name
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out), *extra]) == 0
        return out

    @staticmethod
    def config_hash(path):
        lines = path.read_text().splitlines()
        return [ln.split("= ", 1)[1] for ln in lines if "config_sha256" in ln]

    def test_override_changes_hash(self, tmp_path):
        plain = self.run(tmp_path, "plain")
        moved = self.run(tmp_path, "moved", self.OVERRIDES)
        assert self.config_hash(plain / "provenance.txt") == \
            [cli.textio.document_hash(MINIMAL)]
        for name in ("provenance.txt", "solve_field.csv", "solve_norms.csv"):
            a, b = self.config_hash(plain / name), self.config_hash(moved / name)
            assert len(a) == len(b) == 1 and a != b
        # the hash is that of the document as run
        as_run = MINIMAL.replace("T = 1.0", "T = 2.0").replace(
            "times = 0.25 0.5 1.0", "times = 0.5 2.0")
        assert self.config_hash(moved / "provenance.txt") == \
            [cli.textio.document_hash(as_run)]

    def test_no_override_is_document_hash(self):
        for overrides in ({}, {"problem": {}}):
            run = cli.RunConfig("solve", "config.ini", "out", overrides=overrides)
            line = cli.provenance_lines(run, FULL)[2]
            assert line == f"config_sha256 = {cli.textio.document_hash(FULL)}"


class TestCsvWriter:
    """The field CSVs format each value once; their bytes must equal those
    of the per-cell reference writer."""

    PROV = ["dodiff test", "config_sha256 = 0"]

    def assert_field_bytes(self, tmp_path, field, times):
        cli._field_csv(tmp_path / "fast.csv", field, times, self.PROV)
        reference_field_csv(tmp_path / "ref.csv", field, times, self.PROV)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_solution_field(self, tmp_path):
        w = make_constant_weight(1.0, alpha0=0.5, delta=0.25)
        basis = build_exact_dirichlet(np.pi, 8, grid_points=33)
        prob = sv.ProblemSpec(w, basis, np.array([1.0, 0.0, -0.5, 0, 0, 0, 0, 0.125]),
                              sv.Source(np.full(8, 0.2)), 1.0)
        field = sv.solve(prob, [0.1, 0.5, 1.0], n_nodes=32)
        self.assert_field_bytes(tmp_path, field, field.times)

    def test_oracle_field(self, tmp_path):
        w = make_constant_weight(1.0, alpha0=0.5, delta=0.25)
        cfg = oc.OracleConfig(dt=0.01, steps=20, grid_points=21)
        field = oc.solve_oracle(constant_coefficients(), w,
                                lambda x: np.sin(x), None, cfg)
        self.assert_field_bytes(tmp_path, field, [0.05, 0.1, 0.2])

    def test_hand_made_values(self, tmp_path):
        grid = [-0.0, 5e-324, 0.1, 1.0, 1e300]
        values = [[-0.0, 5e-324, 1e300, 1.0, 0.1],
                  [-1.0, -0.1, -5e-324, -1e300, 0.0],
                  [1e-310, 123456789.125, -2.5, 3.0, 1 / 3]]
        field = oc.GridField(times=np.array([-0.0, 0.1, 1.0]), grid=np.array(grid),
                             values=np.array(values))
        self.assert_field_bytes(tmp_path, field, field.times)
        text = (tmp_path / "fast.csv").read_text()
        assert "\n-0.0,-0.0,-0.0\n" in text and "\n-0.0,5e-324,5e-324\n" in text
        assert "\n0.1,5e-324,-0.1\n" in text and "\n1.0,1e+300,0.3333333333333333\n" in text
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 15

    def write_both(self, tmp_path, header, rows):
        cli.textio.write_csv(tmp_path / "fast.csv", header, rows, comments=self.PROV)
        reference_write_csv(tmp_path / "ref.csv", header, rows, comments=self.PROV)
        data = (tmp_path / "fast.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()
        return data.decode().splitlines()[len(self.PROV) + 1:]

    def test_kernel_rows(self, tmp_path):
        rows = [[n, float(t), np.float64(2.0), np.float64(-0.0), np.float32(0.1),
                 np.float64(5e-324)] for n in (1, 64) for t in (0.5, 1e4)]
        lines = self.write_both(tmp_path, ["n", "t", "E_n", "G_c", "G_s", "rel"], rows)
        assert lines[0] == f"1,0.5,2.0,-0.0,{float(np.float32(0.1))!r},5e-324"
        assert lines[3].startswith("64,10000.0,2.0,")

    def test_verify_rows(self, tmp_path):
        rows = [["case a", 0.25, 1e-8, 1, ""], ["case b", np.float64(3.0), 2, True, "x"],
                ["c", -0.0, np.int64(7), False, "note, quoted"]]
        lines = self.write_both(tmp_path, ["case", "value", "tolerance", "passed", "note"],
                                rows)
        assert lines == ["case a,0.25,1e-08,1,", "case b,3.0,2,True,x",
                         "c,-0.0,7,False,note, quoted"]


def _loaded_after_import(left_out):
    """The modules under the dotted prefixes `left_out` that importing
    dodiff.cli and dodiff loads, and the public names that do not resolve."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import json, sys, dodiff.cli, dodiff; print(json.dumps(["
            f"sorted(m for m in sys.modules if m in {left_out!r}"
            f" or m.startswith(tuple(p + '.' for p in {left_out!r}))),"
            "[n for n in dodiff.__all__ if not hasattr(dodiff, n)]]))")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def test_import_leaves_out_scipy_optimize():
    # the package finds its roots itself; scipy.optimize would be most of
    # the import time of the CLI
    assert _loaded_after_import(("scipy.optimize",))[0] == []


def test_import_leaves_out_mpmath_and_scipy_special():
    # mpmath serves only the tests' Mittag-Leffler reference; the oracle
    # takes gamma from math.  Every public name must still resolve.
    assert _loaded_after_import(("mpmath", "scipy.special")) == [[], []]


def test_import_leaves_out_scipy_linalg():
    # scipy.linalg is imported only where build_fd and the oracle run
    assert _loaded_after_import(("scipy.linalg",))[0] == []


def test_every_module_constant_is_read():
    # a module-level constant that no module of the package reads is left
    # over from code that has gone
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py"))]
    defined = {target.id for tree in trees for node in tree.body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in getattr(node, "targets", [getattr(node, "target", None)])
               if isinstance(target, ast.Name)
               and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)}
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    assert sorted(defined - read) == []
