import re

import numpy as np
import pytest

from conftest import mittag_leffler, mode_kernels
from dodiff import kernel, solver
from dodiff import make_box_weight
from dodiff.errors import DomainError, NumericError, PreconditionError
from dodiff.kernel import eval_kernel_block, eval_kernels
from dodiff.solver import (
    DUHAMEL_NODES,
    ProblemSpec,
    SolutionField,
    Source,
    duhamel,
    duhamel_mesh,
    estimate_decay_exponent,
    solve,
)
from dodiff.spectral import build_exact_dirichlet


def unit_mode(n_modes, n=1):
    c = np.zeros(n_modes)
    c[n - 1] = 1.0
    return c


@pytest.fixture(scope="module")
def basis16():
    return build_exact_dirichlet(np.pi, 16)


def narrow_bump(n_modes, width=1e-4):
    """Unit-mass smooth bump in mode 1 centred at tau = 0.99: the response
    at t = 1 approximates G_1(0.01)."""
    def phi(tau):
        arg = (tau - 0.99) / (width / 2.0)
        return np.where(np.abs(arg) < 1.0, np.cos(np.pi * arg / 2.0) ** 2 * (2.0 / width), 0.0)
    return Source(unit_mode(n_modes), phi)


def homogeneous_problem(w, basis, c0=None, horizon=2.0):
    c0 = unit_mode(basis.n_modes) if c0 is None else c0
    return ProblemSpec(weight=w, basis=basis, initial_coeffs=c0, source=None,
                       horizon=horizon)


class TestPropagateHomogeneous:
    """S0(t) u0: ``solve`` of a source-free problem at one time."""

    def test_diagonal_action(self, basis16, const_weight):
        prob = homogeneous_problem(const_weight, basis16)
        c = solve(prob, [0.7]).coeffs[0]
        E, _ = eval_kernel_block([0.7], basis16.eigenvalues, const_weight)
        assert c[0] == pytest.approx(E[0, 0], rel=1e-12)
        assert np.all(c[1:] == 0.0)

    def test_zero_state(self, basis16, const_weight):
        prob = homogeneous_problem(const_weight, basis16,
                                   c0=np.zeros(basis16.n_modes))
        assert np.all(solve(prob, [1.0]).coeffs[0] == 0.0)

    def test_constant_order_limit(self, basis16, box_half):
        prob = homogeneous_problem(box_half, basis16)
        c = solve(prob, [1.0]).coeffs[0]
        assert abs(c[0] - mittag_leffler(0.5, 1.0, -1.0)) <= 2e-2

    def test_domain(self, basis16, const_weight):
        prob = homogeneous_problem(const_weight, basis16)
        with pytest.raises(DomainError):
            solve(prob, [0.0])
        with pytest.raises(DomainError):
            solve(prob, [3.0])


class TestDuhamel:
    def test_zero_source(self, basis16, const_weight):
        prob = ProblemSpec(weight=const_weight, basis=basis16,
                           initial_coeffs=unit_mode(16), source=None, horizon=2.0)
        assert np.all(duhamel(prob, [1.0])[0] == 0.0)

    def test_narrow_bump_recovers_kernel(self, basis16, box_half):
        # the bump sits where the graded mesh is fine; the response
        # approximates the kernel at the bump offset
        prob = ProblemSpec(weight=box_half, basis=basis16,
                           initial_coeffs=np.zeros(16), source=narrow_bump(16),
                           horizon=2.0)
        got = duhamel(prob, [1.0], n_nodes=32768)[0]
        ref = mode_kernels(1, 0.01, basis16, box_half)[1]
        assert abs(got[0] - ref) <= 1e-3 * abs(ref)
        assert np.max(np.abs(got[1:])) <= 1e-12 * abs(ref)

    def test_constant_source_constant_order(self, basis16, box_half):
        # response to F = phi_1 in the narrow-box regime approaches
        # t^(a) E_(a, a+1)(-t^a) with a = 1/2 at t = 1
        prob = ProblemSpec(weight=box_half, basis=basis16,
                           initial_coeffs=np.zeros(16),
                           source=Source(unit_mode(16)), horizon=2.0)
        got = duhamel(prob, [1.0])[0]
        ref = mittag_leffler(0.5, 1.5, -1.0)
        assert abs(got[0] - ref) <= 3e-2

    def test_quadrature_refinement(self, basis16, const_weight):
        prob = ProblemSpec(weight=const_weight, basis=basis16,
                           initial_coeffs=np.zeros(16),
                           source=Source(np.ones(16), np.cos), horizon=2.0)
        a = duhamel(prob, [1.5], n_nodes=256)[0]
        b = duhamel(prob, [1.5], n_nodes=1024)[0]
        c = duhamel(prob, [1.5], n_nodes=4096)[0]
        scale = np.max(np.abs(c))
        assert np.max(np.abs(a - c)) <= 1e-5 * scale
        # graded-mesh error falls at second order in the panel count
        assert np.max(np.abs(b - c)) <= 0.3 * np.max(np.abs(a - c))
        # the same per mode, so mode 1's scale cannot hide the high modes
        rel_a = np.max(np.abs(a - c) / np.abs(c))
        assert rel_a <= 1e-5
        assert np.max(np.abs(b - c) / np.abs(c)) <= 0.3 * rel_a

    @pytest.mark.parametrize("weight", ["const_weight", "box_half", "tapered"])
    def test_constant_source_per_mode(self, weight, basis_pi, request):
        # F = 1 in every mode: the response is int_0^t G_n = (1 - E_n)/lambda_n,
        # also where G_n is concentrated far below the first panel
        w = request.getfixturevalue(weight)
        lam = basis_pi.eigenvalues
        prob = ProblemSpec(w, basis_pi, np.zeros(32), Source(np.ones(32)), 100.0)
        for t in (1e-3, 1.0, 100.0):
            E, _ = eval_kernel_block([t], lam, w)
            exact = (1.0 - E[0]) / lam
            rel = np.abs(duhamel(prob, [t])[0] - exact) / exact
            assert np.max(rel) <= 1e-8, f"t = {t}, mode {rel.argmax() + 1}"

    def test_constant_source_panel_count_free(self, basis_pi, tapered):
        # product integration is exact for a constant source at any panel count
        g = (-1.0) ** np.arange(32) / np.arange(1.0, 33.0)
        prob = ProblemSpec(tapered, basis_pi, np.zeros(32), Source(g), 2.0)
        coarse = duhamel(prob, [1.0], n_nodes=16)[0]
        fine = duhamel(prob, [1.0], n_nodes=4096)[0]
        assert np.max(np.abs(coarse - fine) / np.abs(fine)) <= 1e-12

    def test_linear_source_gives_ramp_response(self, basis_pi, box_half):
        # F = tau g: int_0^t G_n(sigma) (t - sigma) d(sigma) = K_2(t) g_n,
        # exact at any panel count since the source is linear
        g = (-1.0) ** np.arange(32) / np.arange(1.0, 33.0)
        prob = ProblemSpec(box_half, basis_pi, np.zeros(32), Source(g, lambda t: t), 2.0)
        for t in (1e-3, 1.0):
            (K2,) = eval_kernels([t], basis_pi.eigenvalues, box_half, ("K2",))
            for panels in (16, 4096):
                got = duhamel(prob, [t], n_nodes=panels)[0]
                assert np.max(np.abs(got / (K2[0] * g) - 1.0)) <= 1e-9


    def test_non_finite_source_names_tau_and_mode(self, basis16, box_half):
        # phi is finite at 0, T/2 and T, where ProblemSpec samples it, and NaN
        # on (0.3, 0.4): the error names the first tau the mesh of the first
        # output time meets.  A NaN in g is ProblemSpec's to name, by mode
        phi = lambda tau: np.where((0.3 < tau) & (tau < 0.4), np.nan, 1.0)
        prob = ProblemSpec(box_half, basis16, np.zeros(16), Source(np.ones(16), phi), 1.0)
        tau = 0.5 - duhamel_mesh(0.5)[0]
        first = float(tau[(0.3 < tau) & (tau < 0.4)][0])
        with pytest.raises(NumericError, match=f"^source phi at tau = "
                                               f"{re.escape(repr(first))} is nan$"):
            duhamel(prob, [0.5, 1.0])
        g = np.ones(16)
        g[2] = np.nan
        with pytest.raises(PreconditionError, match="is nan in mode 3$"):
            ProblemSpec(box_half, basis16, np.zeros(16), Source(g), 1.0)


class TestSource:
    """F(t) = phi(t) g: what ``ProblemSpec`` accepts, and how often
    ``duhamel`` calls phi."""

    def test_call_gives_coefficients(self):
        g = np.arange(1.0, 5.0)
        assert np.array_equal(Source(g)(0.3), g)
        assert np.array_equal(Source(g, np.cos)(0.3), np.cos(0.3) * g)

    def test_rejected_sources(self, basis16, box_half):
        def spec(source):
            return ProblemSpec(box_half, basis16, np.zeros(16), source, 1.0)

        with pytest.raises(PreconditionError, match="must be a solver.Source or None"):
            spec(lambda t: np.ones(16))
        with pytest.raises(PreconditionError, match=r"source coefficients \(8,\)"):
            spec(Source(np.ones(8)))
        with pytest.raises(PreconditionError, match="is inf in mode 16$"):
            spec(Source(np.r_[np.ones(15), np.inf]))
        with pytest.raises(PreconditionError, match="cannot take an array of times"):
            spec(Source(np.ones(16), lambda t: 1.0 if t < 0.5 else 2.0))
        with pytest.raises(PreconditionError, match="T = 1.0 is 1.0, not three finite"):
            spec(Source(np.ones(16), lambda t: 1.0))
        with pytest.raises(PreconditionError, match=r"is \[inf, 1.0, 1.0\], not three"):
            spec(Source(np.ones(16), lambda t: np.where(t > 0.0, 1.0, np.inf)))

    def test_duhamel_calls_phi_once_per_time(self, basis16, box_half):
        calls = []

        def phi(t):
            calls.append(np.shape(t))
            return np.cos(t)

        prob = ProblemSpec(box_half, basis16, np.zeros(16), Source(np.ones(16), phi), 2.0)
        assert calls == [(3,)]  # ProblemSpec's check at 0, T/2 and T
        times = [0.25, 0.5, 1.0, 2.0]
        duhamel(prob, times, n_nodes=64)
        assert calls[1:] == [(65,)] * len(times)


class TestResponseBlock:
    """``duhamel`` over many output times: K_1 for all of them from one
    block, K_2 per time at the ends of its live panels only."""

    TIMES = np.sort(np.r_[np.logspace(-4, 2, 7), 0.995, 1.0])

    @staticmethod
    def sources(n_modes):
        g = (-1.0) ** np.arange(n_modes) / np.arange(1.0, n_modes + 1.0)
        return {"constant": Source(g), "linear": Source(g, lambda t: t),
                "cos": Source(g, np.cos), "bump": narrow_bump(n_modes)}

    @staticmethod
    def hold_contour(monkeypatch, sigma_min, sigma_max):
        """Evaluate every K block of the solver on one contour admissible
        for all sigma in [sigma_min, sigma_max], so a K value does not depend
        on which other sigma share its block."""
        spec = kernel.shared_contour([sigma_min, sigma_max])

        def fixed(times, lambdas, w, kernels, cfg=None):
            return kernel.eval_kernels(times, lambdas, w, kernels, cfg, spec)

        monkeypatch.setattr(solver, "eval_kernels", fixed)

    @staticmethod
    def unpruned(problem, t, n_nodes):
        """The product rule over every panel of the mesh, dead or not."""
        sigma, h = duhamel_mesh(t, n_nodes)
        K1, K2 = solver.eval_kernels(sigma[1:], problem.basis.eigenvalues,
                                     problem.weight, ("K1", "K2"))
        f = np.array([problem.source(t - s) for s in sigma])
        dK2 = np.diff(K2, axis=0, prepend=0.0) / h[:, None]
        return K1[-1] * f[-1] + np.einsum("jn,jn->n", dK2, f[:-1] - f[1:])

    @pytest.mark.parametrize("source", ["constant", "linear", "cos", "bump"])
    def test_rows_match_single_time_calls(self, source, basis16, box_half,
                                          monkeypatch):
        # a row must not depend on the other times of its call; the contour is
        # held fixed because K_2 carries absolute contour error, which a
        # change of contour turns into ~1e-8 relative on the bump's narrow
        # panels
        n_nodes = 4096 if source == "bump" else 256
        self.hold_contour(monkeypatch, self.TIMES[0] / n_nodes ** 2, self.TIMES[-1])
        prob = ProblemSpec(box_half, basis16, np.zeros(16),
                           self.sources(16)[source], 100.0)
        rows = duhamel(prob, self.TIMES, n_nodes=n_nodes)
        assert rows.shape == (len(self.TIMES), 16)
        if source == "bump":
            assert np.count_nonzero(rows[:, 0]) >= 2
        for j, t in enumerate(self.TIMES):
            single = duhamel(prob, [t], n_nodes=n_nodes)[0]
            assert np.all(np.abs(rows[j] - single) <= 1e-12 * np.abs(single)), t

    @pytest.mark.parametrize("source", ["constant", "linear", "cos", "bump"])
    def test_rows_match_on_default_contours(self, source, basis16, box_half):
        # each block on its own contour, as in a solve: K_1 of all the times
        # shares a contour their single-time calls do not, which K_1 does
        # not feel; K_2, which the bump's narrow panels do feel, is taken
        # per time from that time's panel ends alone
        n_nodes = 4096 if source == "bump" else 256
        prob = ProblemSpec(box_half, basis16, np.zeros(16),
                           self.sources(16)[source], 100.0)
        rows = duhamel(prob, self.TIMES, n_nodes=n_nodes)
        for j, t in enumerate(self.TIMES):
            single = duhamel(prob, [t], n_nodes=n_nodes)[0]
            assert np.all(np.abs(rows[j] - single) <= 1e-12 * np.abs(single)), t

    @pytest.mark.parametrize("t", [0.995, 1.0, 1.02])
    def test_dead_panels_add_nothing(self, t, basis16, box_half, monkeypatch):
        n_nodes = 4096
        self.hold_contour(monkeypatch, t / n_nodes ** 2, t)
        prob = ProblemSpec(box_half, basis16, np.zeros(16), narrow_bump(16), 2.0)
        got = duhamel(prob, [t], n_nodes=n_nodes)[0]
        ref = self.unpruned(prob, t, n_nodes)
        assert ref[0] != 0.0 and np.all(ref[1:] == 0.0)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    def test_one_block_per_mesh(self, box_half, basis16, monkeypatch):
        # each call names the one kernel that duhamel reads from it
        sigmas, names = [], []

        def record(times, lambdas, w, kernels, **kwargs):
            sigmas.append(np.array(times))
            names.append(kernels)
            return eval_kernels(times, lambdas, w, kernels, **kwargs)

        monkeypatch.setattr(solver, "eval_kernels", record)
        times = np.linspace(1.0 / 16.0, 1.0, 16)
        basis = build_exact_dirichlet(np.pi, 1000)
        g = np.ones(1000)
        duhamel(ProblemSpec(box_half, basis, np.zeros(1000), Source(g), 1.0),
                times)
        assert len(sigmas) == 1 and np.array_equal(sigmas[0], times)
        assert names == [("K1",)]

        # a source that changes on every panel: K_2 at every edge but 0
        sigmas.clear()
        names.clear()
        src = self.sources(16)["cos"]
        duhamel(ProblemSpec(box_half, basis16, np.zeros(16), src, 1.0), times)
        assert np.array_equal(sigmas[0], times)
        assert [len(s) for s in sigmas[1:]] == [DUHAMEL_NODES] * len(times)
        assert names == [("K1",)] + [("K2",)] * len(times)


class TestSolve:
    def test_linearity(self, basis16, const_weight):
        rng = np.random.default_rng(12)
        c0 = rng.normal(size=16)
        src = Source(np.arange(1.0, 17.0) / 16.0, np.sin)
        times = [0.3, 1.0, 1.7]
        both = solve(ProblemSpec(const_weight, basis16, c0, src, 2.0), times)
        hom = solve(ProblemSpec(const_weight, basis16, c0, None, 2.0), times)
        inh = solve(ProblemSpec(const_weight, basis16, np.zeros(16), src, 2.0), times)
        assert np.max(np.abs(both.coeffs - hom.coeffs - inh.coeffs)) <= 1e-10

    def test_near_classical_tracking(self, basis16):
        # narrow box at high order: the mode relaxation tracks the classical
        # exponential; the deviation grows with t as the algebraic tail takes
        # over (26% by t = 2), so the 10% envelope is asserted on [0.1, 1.25]
        w = make_box_weight(0.95, 0.05)
        prob = homogeneous_problem(w, basis16)
        ts = np.linspace(0.1, 1.25, 10)
        field = solve(prob, ts)
        rel = np.abs(field.coeffs[:, 0] - np.exp(-ts)) / np.exp(-ts)
        assert np.max(rel) <= 0.10
        full = solve(prob, np.linspace(0.1, 2.0, 14))
        rel_full = np.abs(full.coeffs[:, 0] - np.exp(-full.times)) / np.exp(-full.times)
        assert np.max(rel_full) <= 0.30

    def test_mode_count_stability(self, const_weight):
        # band-limited data: doubling the basis cannot change the solution
        basis_a = build_exact_dirichlet(np.pi, 8)
        basis_b = build_exact_dirichlet(np.pi, 16)
        c_a = np.zeros(8)
        c_a[:4] = [1.0, -0.5, 0.25, 0.125]
        c_b = np.zeros(16)
        c_b[:4] = c_a[:4]
        f_a = solve(homogeneous_problem(const_weight, basis_a, c0=c_a), [0.5, 1.5])
        f_b = solve(homogeneous_problem(const_weight, basis_b, c0=c_b), [0.5, 1.5])
        assert np.max(np.abs(f_a.l2_norms() - f_b.l2_norms())) <= 1e-6

    def test_ultraslow_band(self, const_weight):
        basis = build_exact_dirichlet(np.pi, 4)
        prob = homogeneous_problem(const_weight, basis, c0=unit_mode(4),
                                   horizon=1e4)
        ts = np.logspace(1, 4, 13)
        field = solve(prob, ts)
        prod = field.l2_norms() * np.log(ts)
        assert prod.max() / prod.min() < 5.0

    def test_sample_tolerance_is_relative(self, basis16):
        # 1.5e-13 is no stored time, though within 1e-12 of both
        field = SolutionField(times=[1e-13, 2e-13], coeffs=np.ones((2, 16)), basis=basis16)
        assert np.array_equal(field.sample(2e-13)[1], field.sample(2e-13 * (1 + 1e-15))[1])
        with pytest.raises(DomainError, match="time 1.5e-13 not on the stored grid"):
            field.sample(1.5e-13)

    def test_field_invariants(self, basis16):
        with pytest.raises(PreconditionError):
            SolutionField(times=[0.5], coeffs=np.ones((2, 16)), basis=basis16)
        with pytest.raises(PreconditionError):
            SolutionField(times=[0.5], coeffs=np.full((1, 16), np.nan), basis=basis16)


class TestCrossRoute:
    """Spectral solve against the time-stepping reference on a
    variable-coefficient operator; the routes share no code."""

    def test_variable_coefficients_homogeneous_and_sourced(self, const_weight):
        from dodiff.oracle import OracleConfig, compare, solve_oracle
        from dodiff.spectral import EllipticCoefficients, build_fd, project

        ell = EllipticCoefficients(a=lambda x: 1.0 + x / 2.0,
                                   q=lambda x: np.full_like(x, 0.1),
                                   c_a=1.0, length=np.pi)
        basis = build_fd(ell, 801, 24)
        u0 = lambda x: np.sin(x) * np.exp(x / 4.0)
        c0 = project(basis, u0(basis.grid))

        prob = ProblemSpec(const_weight, basis, c0, None, 1.0)
        field_s = solve(prob, [0.25, 0.5, 1.0])
        ocfg = OracleConfig(dt=1e-3, steps=1000, grid_points=801)
        field_o = solve_oracle(ell, const_weight, u0, None, ocfg)
        assert np.max(compare(field_s, field_o, [0.25, 0.5, 1.0])) <= 5e-3

        src_modes = project(basis, np.sin(2.0 * basis.grid))
        phi = lambda t: np.cos(3.0 * t)
        prob2 = ProblemSpec(const_weight, basis, c0, Source(src_modes, phi), 1.0)
        f2s = solve(prob2, [0.5, 1.0])
        f2o = solve_oracle(ell, const_weight, u0, (phi, lambda x: np.sin(2.0 * x)), ocfg)
        assert np.max(compare(f2s, f2o, [0.5, 1.0])) <= 5e-3


class TestDecayExponent:
    def test_exact_power_law(self, basis16):
        ts = np.logspace(-3, -1, 25)
        coeffs = np.zeros((25, 16))
        coeffs[:, 0] = ts ** -0.3
        field = SolutionField(times=ts, coeffs=coeffs, basis=basis16)
        got = estimate_decay_exponent(field, 0.0, (1e-3, 1e-1))
        assert got == pytest.approx(-0.3, abs=1e-6)

    def test_smooth_data_flat(self, basis16, const_weight):
        prob = homogeneous_problem(const_weight, basis16)
        ts = np.logspace(-4, -2, 15)
        field = solve(prob, ts)
        slope = estimate_decay_exponent(field, 1.0, (1e-4, 1e-2))
        assert slope >= -0.1

    def test_rough_data_one_sided(self, basis16, const_weight):
        lam = basis16.eigenvalues
        c0 = lam ** (-0.5 - 0.51)
        prob = homogeneous_problem(const_weight, basis16, c0=c0)
        ts = np.logspace(-4, -2, 15)
        field = solve(prob, ts)
        slope = estimate_decay_exponent(field, 1.0, (1e-4, 1e-2))
        assert slope >= -0.65

    def test_guards(self, basis16):
        ts = np.linspace(0.1, 1.0, 5)
        field = SolutionField(times=ts, coeffs=np.zeros((5, 16)), basis=basis16)
        with pytest.raises(DomainError):
            estimate_decay_exponent(field, 0.0, (2.0, 3.0))
        with pytest.raises(NumericError):
            estimate_decay_exponent(field, 0.0, (0.1, 1.0))
