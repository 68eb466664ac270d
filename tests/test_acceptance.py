"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.
"""

import time

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    constant_coefficients,
    dEn_dt_finite_difference,
    mittag_leffler,
    mode_kernels,
)
from dodiff import make_box_weight, make_constant_weight, make_tapered_weight
from dodiff.kernel import (
    ContourSpec,
    KernelConfig,
    check_g0c,
    choose_contour,
    eval_Gn_spectral,
)
from dodiff.oracle import OracleConfig, compare, solve_oracle
from dodiff.solver import ProblemSpec, estimate_decay_exponent, solve
from dodiff.spectral import build_exact_dirichlet, project
from dodiff.verify import run_stability_suite
from dodiff.weight import check_symbol_bounds


def report(num, ok, label, detail, elapsed, budget):
    mark = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} [{mark}] {label}: {detail} "
          f"({elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


@pytest.fixture(scope="module")
def basis64():
    return build_exact_dirichlet(np.pi, 64)


@pytest.fixture(scope="module")
def basis32():
    return build_exact_dirichlet(np.pi, 32)


@pytest.fixture(scope="module")
def mu_const():
    return make_constant_weight(1.0, alpha0=0.5, delta=0.25)


def test_01_cross_method_kernel_agreement(basis64, mu_const):
    t0 = time.time()
    worst = 0.0
    for n in (1, 4, 16):
        for t in (0.01, 0.1, 1.0, 10.0):
            gc = mode_kernels(n, t, basis64, mu_const)[1]
            gs = eval_Gn_spectral(n, t, basis64, mu_const)
            worst = max(worst, abs(gc - gs) / abs(gc))
    report(1, worst <= 1e-6, "cross-method kernel agreement",
           f"worst rel diff {worst:.2e} (tol 1e-6)", time.time() - t0, 5.0)


def test_02_contour_independence(basis64, mu_const):
    t0 = time.time()
    spec1 = choose_contour(1.0)
    cfg2 = KernelConfig(theta=2 * np.pi / 3)
    alt = choose_contour(1.0, cfg2)
    spec2 = ContourSpec(epsilon=alt.epsilon / 2.0, theta=alt.theta, t=alt.t,
                        ray_cutoff=alt.ray_cutoff)
    worst = 0.0
    for n in (1, 4, 16):
        e1, g1 = mode_kernels(n, 1.0, basis64, mu_const, spec=spec1)
        e2, g2 = mode_kernels(n, 1.0, basis64, mu_const, spec=spec2)
        worst = max(worst, abs(e1 - e2) / abs(e1), abs(g1 - g2) / abs(g1))
    report(2, worst <= 1e-8, "contour independence",
           f"worst rel diff {worst:.2e} across (eps, theta) pairs (tol 1e-8)",
           time.time() - t0, 5.0)


def test_03_constant_order_consistency(basis64):
    t0 = time.time()
    # the reference evaluator against a 200-term high-precision series
    with mp.workdps(60):
        ref = float(sum(mp.mpf(-1.0) ** k * mp.rgamma(mp.mpf("0.5") * k + mp.mpf("0.5"))
                        for k in range(200)))
    ml = mittag_leffler(0.5, 0.5, -1.0)
    cross_ok = abs(ml - ref) <= 1e-12 * abs(ref)

    devs = []
    for h in (0.1, 0.05, 0.025, 0.02):
        w = make_box_weight(0.5, h)
        devs.append(abs(mode_kernels(1, 1.0, basis64, w)[1] - ml))
    monotone = devs[0] > devs[1] > devs[2]
    ok = cross_ok and monotone and devs[3] <= 2e-2
    report(3, ok, "constant-order consistency",
           f"deviations {['%.2e' % d for d in devs]} for h in (0.1, 0.05, "
           f"0.025, 0.02), series cross-check {abs(ml - ref):.1e}",
           time.time() - t0, 10.0)


def test_04_solver_vs_oracle(basis32, mu_const):
    t0 = time.time()
    field_o = solve_oracle(constant_coefficients(a=1.0, q=0.0, length=np.pi),
                           mu_const, lambda x: np.sin(x), None,
                           OracleConfig(dt=1e-3, steps=1000, grid_points=201))
    c0 = project(basis32, np.sin(basis32.grid))
    prob = ProblemSpec(mu_const, basis32, c0, None, 1.0)
    field_s = solve(prob, [0.25, 0.5, 1.0])
    errs = compare(field_s, field_o, [0.25, 0.5, 1.0])
    report(4, np.max(errs) <= 0.02, "solver vs oracle",
           f"rel L2 discrepancies {['%.2e' % e for e in errs]} at t in "
           f"(0.25, 0.5, 1) (tol 2e-2)", time.time() - t0, 60.0)


def test_05_derivative_identity(basis64, mu_const):
    t0 = time.time()
    worst = 0.0
    for n in (1, 4):
        for t in (0.1, 1.0):
            ident = -basis64.eigenvalues[n - 1] * mode_kernels(n, t, basis64, mu_const)[1]
            fd = dEn_dt_finite_difference(n, t, basis64, mu_const)
            worst = max(worst, abs(ident - fd) / abs(fd))
    report(5, worst <= 1e-4, "derivative identity",
           f"worst rel mismatch {worst:.2e} (tol 1e-4)", time.time() - t0, 5.0)


def test_06_decay_exponents(basis64, mu_const):
    t0 = time.time()
    ts = np.logspace(-4, -2, 17)
    c_smooth = np.zeros(64)
    c_smooth[0] = 1.0
    f1 = solve(ProblemSpec(mu_const, basis64, c_smooth, None, 1.0), ts)
    slope1 = estimate_decay_exponent(f1, 1.0, (1e-4, 1e-2))
    c_rough = basis64.eigenvalues ** (-0.5 - 0.51)
    f2 = solve(ProblemSpec(mu_const, basis64, c_rough, None, 1.0), ts)
    slope2 = estimate_decay_exponent(f2, 1.0, (1e-4, 1e-2))
    ok = slope1 >= -0.1 and slope2 >= -0.65
    report(6, ok, "decay exponents (one-sided)",
           f"smooth-data slope {slope1:.4f} (>= -0.1), half-smooth slope "
           f"{slope2:.4f} (>= -0.65)", time.time() - t0, 30.0)


def test_07_symbol_bound_sweep(mu_const):
    t0 = time.time()
    rng = np.random.default_rng(20240915)
    n = 10_000
    r = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), n))
    beta = rng.uniform(0.0, np.pi, n)
    sign = rng.choice([-1.0, 1.0], n)
    lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    nu = rng.uniform(0.0, 1.0, n)
    result = check_symbol_bounds(mu_const, r * np.exp(1j * sign * beta), lam, nu)
    violations = {k: v["violations"] for k, v in result.items()}
    slacks = {k: v["min_slack"] for k, v in result.items()}
    ok = all(v == 0 for v in violations.values())
    report(7, ok, "symbol bound sweep",
           f"violations {violations}, min slacks "
           f"{ {k: '%.2e' % v for k, v in slacks.items()} }",
           time.time() - t0, 5.0)


def test_08_spectral_tail_bound(basis64):
    t0 = time.time()
    tw = make_tapered_weight(level=1.0, plateau_end=0.75, support_end=0.8,
                             alpha0=0.75, delta=0.5)
    prods = [check_g0c(n, basis64, tw) for n in range(1, 65)]
    band = max(prods) / min(prods)
    report(8, band < 10.0, "spectral-density tail bound",
           f"lambda_n-scaled products in [{min(prods):.5f}, {max(prods):.5f}], "
           f"max/min {band:.4f} (tol 10)", time.time() - t0, 30.0)


def test_09_stability_linearity():
    t0 = time.time()
    rep = run_stability_suite()
    drifts = {r.case: r.value for r in rep.rows if r.case.endswith("ratio-drift")}
    ok = rep.passed and all(v < 2.0 for v in drifts.values())
    report(9, ok, "stability linearity",
           f"ratio drifts { {k.split('-')[0]: '%.3f' % v for k, v in drifts.items()} } "
           f"(tol 2x)", time.time() - t0, 120.0)


def test_10_ultraslow_trend(mu_const):
    t0 = time.time()
    basis = build_exact_dirichlet(np.pi, 4)
    c0 = np.zeros(4)
    c0[0] = 1.0
    ts = np.logspace(1, 4, 16)
    field = solve(ProblemSpec(mu_const, basis, c0, None, 1e4), ts)
    prod = field.l2_norms() * np.log(ts)
    band = prod.max() / prod.min()
    report(10, band < 5.0, "ultraslow trend",
           f"||u(t)|| log t in [{prod.min():.4f}, {prod.max():.4f}], "
           f"max/min {band:.3f} (tol 5)", time.time() - t0, 30.0)
