import math
import re

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    _ml_asymptotic,
    _ml_series,
    dEn_dt_finite_difference,
    mittag_leffler,
    mode_kernels,
)
from dodiff import kernel as kn
from dodiff import make_box_weight, make_tapered_weight
from dodiff.errors import DomainError, NumericError, PreconditionError
from dodiff.kernel import (
    ContourSpec,
    KernelConfig,
    KernelTable,
    _log_threshold_bound,
    _phi_on_cut,
    an_threshold,
    build_kernel_table,
    check_g0c,
    choose_contour,
    eval_Gn_spectral,
    eval_kernel_block,
    eval_kernel_row,
    eval_kernels,
    eval_spectral_block,
    shared_contour,
    tail_bound_products,
)
from dodiff.spectral import build_exact_dirichlet
from dodiff.weight import zeta_env


def quarter_log_grid(top, low=0.0, high=16.0, order=16):
    """The package's real-axis grid rule at a quarter of its panel width:
    Gauss-Legendre panels in u = log r from top down to -1000, of width
    max(3/32, (low - u)/64, (u - high)/64) at their upper edge u."""
    pts = [top]
    while pts[-1] > -1000.0:
        u = pts[-1]
        pts.append(max(u - max(3 / 32, (low - u) / 64, (u - high) / 64), -1000.0))
    x, wq = np.polynomial.legendre.leggauss(order)
    edges = np.asarray(pts[::-1])
    a, b = edges[:-1, None], edges[1:, None]
    return ((0.5 * (b - a) * x + 0.5 * (a + b)).ravel(),
            (0.5 * (b - a) * wq).ravel())


def phi_rows(lams, u, w):
    """Phi_n at log r = u for every eigenvalue (rows), from the cut value."""
    cut = w.power_moments(np.asarray(u) + 1j * np.pi)
    return cut.imag / ((cut.real + np.asarray(lams)[:, None]) ** 2 + cut.imag ** 2)


def ml_reference(alpha, beta, z, terms=200, dps=80):
    """High-precision fixed-term series, the independent reference.

    The gamma argument must be formed in working precision: at double
    precision its rounding alone corrupts the huge cancelling terms.
    """
    with mp.workdps(dps):
        al, be, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        total = mp.mpf(0)
        for k in range(terms):
            total += zz ** k * mp.rgamma(al * k + be)
        return float(total)


@pytest.fixture(scope="module")
def basis64():
    return build_exact_dirichlet(np.pi, 64)


class TestChooseContour:
    def test_radius_rule_moderate_t(self):
        # one rule: eps = min(1/t_max, 1/4), from the times alone
        for t in (1e-3, 1.0, 3.0, 4.0):
            assert choose_contour(t).epsilon == 0.25
        assert choose_contour(8.0).epsilon == 0.125
        for t in (1e-3, 1.0, 3.0, 1e2):
            assert choose_contour(t) == shared_contour([t])
        # a shared contour takes its radius from the latest time and its
        # cutoff from the earliest
        spec = shared_contour([0.01, 16.0, 2.0])
        assert spec.epsilon == 1.0 / 16.0 and spec.t == 0.01

    def test_radius_rule_large_t(self):
        spec = choose_contour(100.0)
        assert spec.epsilon == pytest.approx(0.01)

    def test_default_angle(self):
        for t in (0.01, 1.0, 50.0):
            assert choose_contour(t).theta == 3 * np.pi / 4

    def test_truncation_certificate(self):
        spec = choose_contour(0.3)
        assert np.exp(spec.ray_cutoff * spec.t * np.cos(spec.theta)) <= 1e-16
        with pytest.raises(NumericError, match="truncation"):
            ContourSpec(epsilon=0.1, theta=spec.theta, t=0.3,
                        ray_cutoff=0.1 * spec.ray_cutoff)

    def test_domain(self):
        with pytest.raises(DomainError):
            choose_contour(0.0)
        with pytest.raises(PreconditionError):
            ContourSpec(epsilon=0.1, theta=np.pi / 3, t=1.0, ray_cutoff=100.0)

    @pytest.mark.parametrize("theta", [0.55 * np.pi, math.nextafter(2 * np.pi / 3, 0.0),
                                       np.pi])
    def test_unresolved_angles_rejected(self, theta):
        # below 2 pi/3 the fixed ray panels do not resolve e^(st): kernels
        # there are 6e-5 off at 0.59 pi and 21% at 0.56 pi
        with pytest.raises(PreconditionError, match=r"outside \[2 pi/3, pi\)"):
            KernelConfig(theta=theta)
        with pytest.raises(PreconditionError, match=r"outside \[2 pi/3, pi\)"):
            ContourSpec(epsilon=0.1, theta=theta, t=1.0, ray_cutoff=1e3)
        assert KernelConfig(theta=2 * np.pi / 3).theta == 2 * np.pi / 3


class TestContourKernels:
    def test_En_constant_order_limit(self, basis64, box_half):
        got = mode_kernels(1, 1.0, basis64, box_half)[0]
        ref = ml_reference(0.5, 1.0, -1.0)
        assert abs(got - ref) <= 2e-2

    def test_En_short_time_limit(self, basis64, const_weight, box_half):
        assert mode_kernels(1, 1e-6, basis64, const_weight)[0] == pytest.approx(
            1.0, abs=1e-3)
        # the box kernel's true deviation from 1 is O(t^(alpha0 - h)), which
        # at t = 1e-6 sits right at 1.3e-3; one decade further down it is
        # comfortably inside the same envelope
        assert mode_kernels(1, 1e-8, basis64, box_half)[0] == pytest.approx(
            1.0, abs=1e-3)
        gap6 = abs(mode_kernels(1, 1e-6, basis64, box_half)[0] - 1.0)
        gap4 = abs(mode_kernels(1, 1e-4, basis64, box_half)[0] - 1.0)
        assert gap6 < gap4

    def test_contour_independence(self, basis64, const_weight, box_half, tapered):
        # per mode: the default contour against theta = 2 pi/3 with half the
        # radius, for every eigenvalue of the basis
        lams = basis64.eigenvalues
        for w in (const_weight, box_half, tapered):
            for t in (1e-3, 1.0, 1e2, 1e4):
                spec1 = choose_contour(t)
                alt = choose_contour(t, KernelConfig(theta=2 * np.pi / 3))
                spec2 = ContourSpec(epsilon=alt.epsilon / 2, theta=alt.theta,
                                    t=alt.t, ray_cutoff=alt.ray_cutoff)
                E1, G1 = eval_kernel_row(t, lams, w, spec=spec1)
                E2, G2 = eval_kernel_row(t, lams, w, spec=spec2)
                assert np.max(np.abs(E1 - E2) / np.abs(E1)) <= 1e-8
                assert np.max(np.abs(G1 - G2) / np.abs(G1)) <= 1e-8

    def test_Gn_constant_order_limit(self, basis64, box_half):
        got = mode_kernels(1, 1.0, basis64, box_half)[1]
        ref = ml_reference(0.5, 0.5, -1.0)  # t^(a-1) E_{a,a}(-t^a) at t = 1
        assert abs(got - ref) <= 2e-2

    def test_Gn_positive(self, basis64, const_weight):
        for n in (1, 3, 16):
            for t in (1e-3, 0.1, 1.0, 20.0):
                assert mode_kernels(n, t, basis64, const_weight)[1] > 0.0

    def test_block_matches_rows(self, basis64, const_weight):
        times = np.logspace(-4, 1, 17)
        lams = basis64.eigenvalues[:8]
        E, G = eval_kernel_block(times, lams, const_weight)
        for j in (0, 7, 16):
            Er, Gr = eval_kernel_row(float(times[j]), lams, const_weight)
            assert np.allclose(E[j], Er, rtol=1e-10, atol=1e-30)
            assert np.allclose(G[j], Gr, rtol=1e-10)

    @pytest.mark.parametrize("weight", ["const_weight", "box_half", "tapered"])
    def test_response_block_integrates_G(self, weight, basis64, request):
        # K_1 = int_0^t G_n = (1 - E_n)/lambda_n, from dE_n/dt = -lambda_n G_n,
        # per mode; K_2 is the time integral of K_1
        w = request.getfixturevalue(weight)
        lams = basis64.eigenvalues
        for t in (1e-4, 1.0, 1e4):
            E, _ = eval_kernel_block([t], lams, w)
            K1, K2 = eval_kernels(t * np.array([1 - 1e-3, 1.0, 1 + 1e-3]),
                                  lams, w, ("K1", "K2"))
            exact = (1.0 - E[0]) / lams
            assert np.max(np.abs(K1[1] - exact) / exact) <= 1e-11
            slope = (K2[2] - K2[0]) / (2e-3 * t)
            assert np.max(np.abs(slope - K1[1]) / K1[1]) <= 1e-5

    def test_each_name_alone_is_bitwise_its_share(self, monkeypatch, basis64,
                                                  tapered):
        # a kernel must not depend on which others its call asks for: banded
        # times (three contours) and modes sliced a few at a time
        monkeypatch.setattr(kn, "_SLICE_ENTRIES", 2 ** 11)
        times = np.logspace(-6, 4, 11)
        lams = basis64.eigenvalues[:16]
        names = ("E", "G", "K1", "K2")
        every = dict(zip(names, eval_kernels(times, lams, tapered, names)))
        for name in names:
            (alone,) = eval_kernels(times, lams, tapered, (name,))
            assert np.array_equal(alone, every[name]), name
        E, G = eval_kernel_block(times, lams, tapered)
        assert np.array_equal(E, every["E"]) and np.array_equal(G, every["G"])

    def test_one_name_evaluates_one_factor(self, monkeypatch, const_weight):
        looked_up = []

        class Recording(dict):
            def __getitem__(self, name):
                looked_up.append(name)
                return super().__getitem__(name)

        monkeypatch.setattr(kn, "_FACTORS", Recording(kn._FACTORS))
        eval_kernels(np.logspace(-6, 1, 5), [1.0, 4.0], const_weight, ("K2",))
        assert set(looked_up) == {"K2"}

    @pytest.mark.parametrize("kernels", [(), ("K1", "K1"), ("E", "K3"), ("",)],
                             ids=["empty", "repeated", "unknown", "blank"])
    def test_kernel_names_checked(self, kernels, const_weight):
        with pytest.raises(PreconditionError,
                           match=re.escape(f"kernels = {kernels!r} must name")):
            eval_kernels([1.0], [1.0], const_weight, kernels)

    def test_shared_contour_spans(self):
        spec = shared_contour([0.01, 1.0])
        assert spec.epsilon <= 1.0
        assert np.exp(spec.ray_cutoff * 0.01 * np.cos(spec.theta)) <= 1e-16

    def test_mode_index_guard(self, basis64, const_weight, tapered):
        with pytest.raises(DomainError):
            check_g0c(0, basis64, tapered)
        with pytest.raises(DomainError):
            eval_Gn_spectral(65, 1.0, basis64, const_weight)


class TestSpectralDensity:
    def test_phi_small_r_limit(self, basis64, const_weight):
        val = _phi_on_cut(basis64.eigenvalues[:1], [math.log(1e-12)], const_weight)[0, 0]
        assert 0.0 <= val <= 5e-3

    def test_phi_closed_form_at_one(self, basis64, const_weight):
        # N = int sin(pi a) da = 2/pi, D = int cos(pi a) da = 0, lambda_1 = 1
        ref = (2 / np.pi) / (1.0 + (2 / np.pi) ** 2)
        got = _phi_on_cut(basis64.eigenvalues[:1], [0.0], const_weight)[0, 0]
        assert got == pytest.approx(ref, rel=1e-12)

    def test_phi_nonnegative_log_grid(self, basis64, const_weight, tapered):
        r = np.logspace(-6, 6, 49)
        for w in (const_weight, tapered):
            assert np.all(_phi_on_cut(basis64.eigenvalues[1:2], np.log(r), w) >= 0.0)

    def test_cross_method_agreement(self, basis64, const_weight):
        for n in (1, 4, 16):
            for t in (0.01, 0.1, 1.0, 10.0):
                gc = mode_kernels(n, t, basis64, const_weight)[1]
                gs = eval_Gn_spectral(n, t, basis64, const_weight)
                assert abs(gc - gs) <= 1e-6 * abs(gc)

    def test_spectral_positive(self, basis64, const_weight, box_half):
        for w in (const_weight, box_half):
            for t in (0.05, 1.0, 5.0):
                assert eval_Gn_spectral(2, t, basis64, w) > 0.0

    @staticmethod
    def refined_block(times, lams, w):
        """G per (time, mode) on panels a quarter as wide as the block's, the
        top where r t_min reaches 80 rather than 40."""
        u, wu = quarter_log_grid(math.log(80.0 / min(times)),
                                 min(0.0, -math.log(max(times))),
                                 max(16.0, -math.log(min(times))))
        dens = phi_rows(lams, u, w)
        return np.array([[np.sum(dens[n] * np.exp(u - np.exp(u) * t) * wu) / np.pi
                          for n in range(len(lams))] for t in times])

    def test_block_against_refined_grid(self, const_weight, box_half, tapered):
        # per mode and relative; t = 1e30 and 1e-30 put the bump of r e^(-rt)
        # far outside [-6, 22], where only the grid's time-dependent band
        # resolves it
        families = [build_exact_dirichlet(np.pi, 16).eigenvalues,
                    build_exact_dirichlet(np.pi, 256).eigenvalues,
                    np.array([1.0, 8.0, 64.0, 512.0, 4096.0]) ** 2]
        for times in ([1e-6, 1e-2, 1.0, 1e4], [1e30], [1e-30]):
            for lams in families:
                for w in (const_weight, box_half, tapered):
                    got = eval_spectral_block(times, lams, w)
                    ref = self.refined_block(times, lams, w)
                    assert got.shape == (len(times), len(lams))
                    assert np.all(np.abs(got - ref) <= 1e-12 * ref)

    def test_block_matches_entries(self, basis64, const_weight):
        # the kernel CLI takes the spectral column of its table from one block
        lams = basis64.eigenvalues[[0, 2]]
        got = eval_spectral_block([0.5], lams, const_weight)
        assert got[0, 1] == pytest.approx(
            eval_Gn_spectral(3, 0.5, basis64, const_weight), rel=1e-12)

    def test_block_domain(self, const_weight):
        with pytest.raises(DomainError, match="t = -1"):
            eval_spectral_block([1.0, -1.0], [1.0], const_weight)
        with pytest.raises(DomainError):
            eval_spectral_block([1.0], [0.0], const_weight)

    def test_spectral_constant_order_limit(self, basis64, box_half):
        got = eval_Gn_spectral(1, 1.0, basis64, box_half)
        assert abs(got - ml_reference(0.5, 0.5, -1.0)) <= 2e-2


class TestDerivativeIdentity:
    def test_finite_difference_match(self, basis64, const_weight):
        got = -basis64.eigenvalues[0] * mode_kernels(1, 1.0, basis64, const_weight)[1]
        ref = dEn_dt_finite_difference(1, 1.0, basis64, const_weight)
        assert abs(got - ref) <= 1e-4 * abs(ref)

    def test_scaling_in_lambda(self, basis64, const_weight):
        # mode 2 on (0, pi) has exactly twice the square root: lambda = 4;
        # the identity ties the derivative to its own eigenvalue linearly
        lam2 = basis64.eigenvalues[1]
        assert lam2 == pytest.approx(4.0)
        got = -lam2 * mode_kernels(2, 0.7, basis64, const_weight)[1]
        _, G = eval_kernel_row(0.7, [4.0], const_weight)
        assert got == pytest.approx(-4.0 * G[0])

    def test_sign(self, basis64, const_weight):
        for n in (1, 4):
            for t in (0.01, 0.5, 3.0):
                lam = basis64.eigenvalues[n - 1]
                assert -lam * mode_kernels(n, t, basis64, const_weight)[1] < 0.0


class TestMittagLeffler:
    def test_exponential_identity(self):
        assert mittag_leffler(1.0, 1.0, -1.0) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_value_at_zero(self):
        assert mittag_leffler(0.5, 0.5, 0.0) == pytest.approx(0.5641895835, rel=1e-9)

    def test_half_order_reference(self):
        got = mittag_leffler(0.5, 1.0, -1.0)
        assert got == pytest.approx(0.42758, abs=5e-6)
        assert got == pytest.approx(ml_reference(0.5, 1.0, -1.0), rel=1e-12)

    def test_against_high_precision_series(self):
        # term count sized so the reference series has fully converged even
        # at the worst case |z|^(1/alpha) here (about 56)
        for alpha, beta, z in [(0.5, 0.5, -1.0), (0.5, 1.5, -4.0), (0.3, 1.0, -2.5),
                               (0.95, 1.0, -3.0), (0.4, 0.4, -5.0)]:
            assert mittag_leffler(alpha, beta, z) == pytest.approx(
                ml_reference(alpha, beta, z, terms=800), rel=1e-9)

    def test_switchover_consistency(self):
        for alpha in (0.3, 0.4, 0.5):
            for beta in (alpha, 1.0, 1.5):
                s = _ml_series(alpha, beta, -5.0)
                a = _ml_asymptotic(alpha, beta, -5.0)
                assert abs(s - a) <= 1e-9 * abs(s)

    def test_erfc_identity_far_field(self):
        from scipy.special import erfc
        # E_(1/2,1)(-x) = e^(x^2) erfc(x)
        for x in (6.0, 12.0, 30.0):
            ref = float(np.exp(min(x * x, 700)) * erfc(x)) if x < 26 else \
                float(mp.exp(x * x) * mp.erfc(x))
            assert mittag_leffler(0.5, 1.0, -x) == pytest.approx(ref, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler(1.5, 1.0, -1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, 1.0, 1.0)

    def test_complete_monotonicity_on_negative_axis(self):
        # the relaxation profile E_(a,1)(-x) is positive and decreasing,
        # crossing the series/asymptotic switch without a jump
        for alpha in (0.3, 0.5, 0.8, 0.95):
            xs = np.concatenate([np.linspace(0.0, 4.9, 25),
                                 np.linspace(5.0, 40.0, 36)])
            vals = [mittag_leffler(alpha, 1.0, -x) for x in xs]
            assert all(v > 0.0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestThresholdRadius:
    def test_unit_root(self, basis64, const_weight):
        # lambda_2 would be 4; use the mode with lambda = 2 via a scaled basis
        basis = build_exact_dirichlet(np.pi / np.sqrt(2), 2)  # lambda_1 = 2
        assert basis.eigenvalues[0] == pytest.approx(2.0)
        assert an_threshold(1, basis, const_weight) == pytest.approx(1.0, abs=1e-9)

    def test_known_value(self, basis64, const_weight):
        # lambda_2 = 4: (a-1)/log(a) = 2 has root near 3.5129
        a = an_threshold(2, basis64, const_weight)
        assert a == pytest.approx(3.5129, abs=2e-4)
        assert zeta_env(a) == pytest.approx(2.0, rel=1e-10)

    def test_monotone_in_lambda(self, basis64, const_weight):
        vals = [an_threshold(n, basis64, const_weight) for n in (1, 2, 4, 8, 16)]
        assert np.all(np.diff(vals) > 0.0)


class TestTailBound:
    def test_requires_cutoff(self, basis64, const_weight):
        with pytest.raises(PreconditionError, match="alpha1"):
            check_g0c(1, basis64, const_weight)

    def test_bounded_products(self, basis64, tapered):
        prods = [check_g0c(n, basis64, tapered) for n in (1, 2, 4, 8, 16, 32, 64)]
        assert all(p > 0.0 for p in prods)
        assert max(prods) / min(prods) < 10.0

    @staticmethod
    def refined_products(lams, w):
        """lambda_n int Phi_n du on panels a quarter as wide as the
        family's, from the threshold radius of the root, not of the bound."""
        lam = float(np.max(lams))
        a = an_threshold(1, build_exact_dirichlet(np.pi / math.sqrt(lam), 1,
                                                  grid_points=3), w)
        u, wu = quarter_log_grid(max(math.log(a), 0.0) + 300.0)
        return lams * (phi_rows(lams, u, w) @ wu)

    @pytest.fixture(scope="class")
    def families(self):
        return (np.arange(1.0, 65.0) ** 2, np.array([1.0, 8, 64, 512, 1024]) ** 2)

    def test_family_against_refined_grid(self, families, tapered, box_half):
        # windows of width 0.49 and 0.74 below alpha0 put the closed top
        # past the overflow of e^u, where the grid stops at 700
        for w in (tapered, box_half, make_box_weight(0.5, 0.49),
                  make_tapered_weight(delta=0.74)):
            for lams in families:
                got = tail_bound_products(lams, w)
                ref = self.refined_products(lams, w)
                assert np.all(np.abs(got - ref) <= 1e-14 * ref)

    def test_exact_value_without_mass_at_zero(self, families, box_half):
        # int_0^inf G_n = 1/lambda_n, so the product is pi when mu vanishes
        # near alpha = 0 and the far tail carries nothing
        for lams in families:
            got = tail_bound_products(lams, box_half)
            assert np.all(np.abs(got / np.pi - 1.0) <= 1e-13)

    def test_cut_is_the_only_error(self, families, tapered):
        # with mu(0) > 0 the integrand in u = log r decays like
        # mu(0)/(lambda_n u^2), so the cut at u = -1000 drops at most
        # mu(0)/(1000 lambda_n) of pi
        mu0 = float(tapered.coeffs[0][0])
        for lams in families:
            short = 1.0 - tail_bound_products(lams, tapered) / np.pi
            assert np.all(short >= 0.0)
            assert np.all(short <= mu0 / (1000.0 * lams) + 1e-13)

    @pytest.mark.parametrize("weight", ["const_weight", "box_half", "tapered", "box_narrow"])
    def test_closed_top_bounds_threshold(self, weight, request):
        # the grid top comes from the window certificate in closed form; the
        # root an_threshold is its reference
        w = (make_box_weight(0.5, 0.001) if weight == "box_narrow"
             else request.getfixturevalue(weight))
        for k in (1, 2, 8, 64, 512, 4096):
            basis = build_exact_dirichlet(np.pi / k, 1, grid_points=3)  # lambda_1 = k^2
            bound = _log_threshold_bound(float(basis.eigenvalues[0]), w)
            assert bound >= max(math.log(an_threshold(1, basis, w)), 0.0)

    def test_product_independent_of_grid_mates(self, basis64, tapered):
        # a mode's product must not depend on which other modes' eigenvalues
        # set the top of its grid
        family = tail_bound_products(basis64.eigenvalues, tapered)
        for n in (1, 8, 64):
            assert check_g0c(n, basis64, tapered) == pytest.approx(
                family[n - 1], rel=1e-14)


class TestKernelTable:
    def test_contour_table(self, basis64, const_weight):
        times = [0.1, 1.0]
        table = build_kernel_table(basis64, const_weight, times, modes=[1, 2, 4])
        assert table.E.shape == (3, 2) and np.all(table.G > 0.0)
        assert table.E[0, 1] == pytest.approx(
            mode_kernels(1, 1.0, basis64, const_weight)[0], rel=1e-12)

    def test_invariants(self):
        with pytest.raises(PreconditionError):
            KernelTable(modes=[1], times=[0.5], E=[[1.0]], G=[[-1.0]])
        with pytest.raises(PreconditionError):
            KernelTable(modes=[1, 2], times=[0.5], E=[[1.0]], G=[[1.0]])

    def test_one_block_per_table(self, monkeypatch, basis64, tapered):
        # the table is the transpose of one block on the solver's banded
        # contour, bit for bit, however many times it holds
        calls = []
        real = kn.eval_kernel_block
        monkeypatch.setattr(kn, "eval_kernel_block",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        modes = [1, 3, 64]
        for times in ([0.5], np.logspace(-3, 4, 9)):
            calls.clear()
            table = build_kernel_table(basis64, tapered, times, modes=modes)
            E, G = real(times, basis64.eigenvalues[np.array(modes) - 1], tapered)
            assert len(calls) == 1
            assert np.array_equal(table.E, E.T) and np.array_equal(table.G, G.T)


_CHECKED_INPUTS = {
    "eval_kernel_block-times": lambda b, w, v: eval_kernel_block(v, [1.0], w),
    "eval_kernel_block-lambdas": lambda b, w, v: eval_kernel_block([1.0], v, w),
    "eval_kernels-times": lambda b, w, v: eval_kernels(v, [1.0], w, ("K1", "K2")),
    "eval_kernels-lambdas": lambda b, w, v: eval_kernels([1.0], v, w, ("K1", "K2")),
    "shared_contour-times": lambda b, w, v: shared_contour(v),
    "eval_spectral_block-times": lambda b, w, v: eval_spectral_block(v, [1.0], w),
    "eval_spectral_block-lambdas": lambda b, w, v: eval_spectral_block([1.0], v, w),
    "tail_bound_products-lambdas": lambda b, w, v: tail_bound_products(v, w),
    "build_kernel_table-times": lambda b, w, v: build_kernel_table(b, w, v),
    "build_kernel_table-modes": lambda b, w, v: build_kernel_table(b, w, [1.0], modes=v),
}


@pytest.mark.parametrize("case", list(_CHECKED_INPUTS))
def test_inputs_checked(basis64, tapered, case):
    # an empty list is a precondition naming the argument; a non-positive
    # entry is a domain error naming the value
    call, arg = _CHECKED_INPUTS[case], case.split("-")[1]
    with pytest.raises(PreconditionError, match=f"^{arg} is empty$"):
        call(basis64, tapered, [])
    with pytest.raises(DomainError, match=f"^{arg}: .* = -1"):
        call(basis64, tapered, [2.0, -1.0])


class TestDecayEnvelope:
    def test_kernel_decay_band(self, basis64, const_weight):
        # |G_n| <= C e^T / (lambda^kappa t^beta) with kappa = 1/2 and beta
        # midway in (1 - alpha0(1 - kappa), 1) = (0.75, 1); the scaled product
        # must stay bounded over the grid (C is not explicit, so the test
        # checks a generous fixed ceiling)
        kappa, beta = 0.5, 0.875
        prods = []
        for n in (1, 2, 4, 8, 16):
            lam = basis64.eigenvalues[n - 1]
            for t in np.logspace(-3, 1, 9):
                g = mode_kernels(n, float(t), basis64, const_weight)[1]
                prods.append(lam ** kappa * t ** beta * abs(g))
        assert max(prods) <= 5.0

    def test_constant_order_consistency_monotone(self, basis64):
        ref = ml_reference(0.5, 0.5, -1.0)
        devs = []
        for h in (0.1, 0.05, 0.025):
            w = make_box_weight(0.5, h)
            devs.append(abs(mode_kernels(1, 1.0, basis64, w)[1] - ref))
        assert devs[0] > devs[1] > devs[2]
