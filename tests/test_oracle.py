from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from conftest import constant_coefficients, direct_oracle, mittag_leffler
from dodiff import make_box_weight
from dodiff.errors import DomainError, NumericError, PreconditionError
from dodiff.oracle import (
    HISTORY_BLOCK,
    GridField,
    OracleConfig,
    compare,
    effective_history_weights,
    order_nodes,
    solve_oracle,
)
from dodiff.spectral import EllipticCoefficients


class TestL1Weights:
    def test_near_first_order_limit(self):
        # a density concentrated at alpha -> 1 degenerates the scheme to
        # backward differencing: B_0 * dt -> 1
        B = effective_history_weights(make_box_weight(0.999, 0.001), 4, 0.01)
        assert B[0] * 0.01 == pytest.approx(1.0, rel=1e-2)

    def test_direct_formula_value(self, const_weight, box_half, tapered):
        # the per-order L1 weights with scipy's gamma, contracted with the
        # density at the same order nodes
        j = np.arange(50.0)
        for w in (const_weight, box_half, tapered):
            al, wts = order_nodes(w, 32)
            b = ((j + 1.0) ** (1.0 - al[:, None]) - j ** (1.0 - al[:, None])) \
                * 0.02 ** (-al[:, None]) / gamma_fn(2.0 - al)[:, None]
            B = effective_history_weights(w, 50, 0.02)
            assert np.all(np.abs(B - wts @ b) <= 1e-13 * np.abs(B))

    def test_positive_decreasing(self, const_weight, box_half, tapered):
        for w in (const_weight, box_half, tapered):
            B = effective_history_weights(w, 50, 0.02)
            assert np.all(B > 0.0)
            assert np.all(np.diff(B) < 0.0)

    def test_effective_weights_constant_density(self, const_weight):
        # for mu = 1 the effective weights are the order-average of the
        # per-order ones; spot check against a dense trapezoid average
        B = effective_history_weights(const_weight, 4, 0.05)
        al = np.linspace(1e-6, 1 - 1e-6, 20001)
        for j in range(4):
            per = ((j + 1.0) ** (1.0 - al) - j ** (1.0 - al)) \
                * 0.05 ** (-al) / gamma_fn(2.0 - al)
            assert B[j] == pytest.approx(np.trapezoid(per, al), rel=1e-5)


class TestSolveOracle:
    def test_zero_problem(self, const_weight):
        cfg = OracleConfig(dt=0.01, steps=20, grid_points=41)
        field = solve_oracle(constant_coefficients(), const_weight,
                             lambda x: np.zeros_like(x), None, cfg)
        assert np.all(field.values == 0.0)

    def test_near_classical_heat(self):
        w = make_box_weight(0.95, 0.05)
        cfg = OracleConfig(dt=2e-3, steps=500, grid_points=201)
        field = solve_oracle(constant_coefficients(), w,
                             lambda x: np.sin(x), None, cfg)
        x, u1 = field.sample(1.0)
        ref = np.exp(-1.0) * np.sin(x)
        err = np.sqrt(np.trapezoid((u1 - ref) ** 2, x) / np.trapezoid(ref ** 2, x))
        assert err <= 0.05

    def test_constant_order_box(self, box_half):
        cfg = OracleConfig(dt=1e-3, steps=1000, grid_points=201)
        field = solve_oracle(constant_coefficients(), box_half,
                             lambda x: np.sin(x), None, cfg)
        x, u1 = field.sample(1.0)
        ref = mittag_leffler(0.5, 1.0, -1.0) * np.sin(x)
        err = np.sqrt(np.trapezoid((u1 - ref) ** 2, x) / np.trapezoid(ref ** 2, x))
        assert err <= 0.03

    def test_positivity_preserved(self, const_weight):
        cfg = OracleConfig(dt=0.01, steps=60, grid_points=101)
        field = solve_oracle(constant_coefficients(), const_weight,
                             lambda x: np.sin(x) ** 2, None, cfg)
        assert field.values.min() >= -1e-10

    def test_source_driven(self, const_weight):
        cfg = OracleConfig(dt=0.01, steps=50, grid_points=101)
        field = solve_oracle(constant_coefficients(), const_weight,
                             lambda x: np.zeros_like(x), (np.ones_like, np.sin), cfg)
        assert field.values[-1].max() > 0.0

    def test_self_convergence_first_order(self, const_weight):
        # halving dt shrinks the self-difference by a first-order-ish factor
        u0 = lambda x: np.sin(x)
        vals = {}
        for steps in (125, 250, 500):
            cfg = OracleConfig(dt=1.0 / steps, steps=steps, grid_points=101)
            f = solve_oracle(constant_coefficients(), const_weight, u0, None, cfg)
            vals[steps] = f.values[-1]
        e_coarse = np.max(np.abs(vals[125] - vals[250]))
        e_fine = np.max(np.abs(vals[250] - vals[500]))
        assert 1.5 <= e_coarse / e_fine <= 2.5

    def test_alpha_node_refinement(self, const_weight):
        u0 = lambda x: np.sin(x)
        outs = []
        for nodes in (32, 64):
            cfg = OracleConfig(dt=5e-3, steps=100, grid_points=101,
                               alpha_nodes=nodes)
            f = solve_oracle(constant_coefficients(), const_weight, u0, None, cfg)
            outs.append(f.values[-1])
        rel = np.max(np.abs(outs[0] - outs[1])) / np.max(np.abs(outs[1]))
        assert rel <= 1e-6

    def test_config_guards(self):
        with pytest.raises(PreconditionError):
            OracleConfig(dt=-0.1, steps=10, grid_points=11)
        with pytest.raises(PreconditionError):
            OracleConfig(dt=0.1, steps=10, grid_points=2)


class TestBlockedHistory:
    """The blocked history and the single factorization reproduce the
    direct per-step sum of ``conftest.direct_oracle``."""

    @pytest.mark.parametrize("steps", [1, HISTORY_BLOCK - 1, HISTORY_BLOCK,
                                       HISTORY_BLOCK + 1, 2000])
    @pytest.mark.parametrize("weight", ["const_weight", "box_half", "tapered"])
    def test_matches_direct_sum(self, weight, steps, request):
        w = request.getfixturevalue(weight)
        variable = EllipticCoefficients(a=lambda x: 1.0 + x / 2.0,
                                        q=lambda x: np.full_like(x, 0.1),
                                        c_a=1.0, length=np.pi)
        cfg = OracleConfig(dt=1.0 / steps, steps=steps, grid_points=41)
        for coeffs, source in ((constant_coefficients(), None),
                               (variable, (lambda t: 1.0 + t, np.sin))):
            got = solve_oracle(coeffs, w, np.sin, source, cfg).values
            ref = direct_oracle(coeffs, w, np.sin, source, cfg).values
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("bad_step", [3, HISTORY_BLOCK + 6])
    def test_non_finite_source_names_step(self, const_weight, bad_step):
        dt = 0.01

        def phi(t):
            return np.where(np.round(t / dt) == bad_step, np.nan, 0.0)

        cfg = OracleConfig(dt=dt, steps=2 * HISTORY_BLOCK, grid_points=21)
        with pytest.raises(NumericError, match=f"non-finite values at step {bad_step}$"):
            solve_oracle(constant_coefficients(), const_weight, np.sin,
                         (phi, np.ones_like), cfg)

    def test_source_sampled_once(self, const_weight):
        # phi once on the step times and f once on the interior nodes, not
        # once per step
        calls = []

        def counted(fn):
            def call(v):
                calls.append((fn.__name__, np.shape(v)))
                return fn(v)
            return call

        cfg = OracleConfig(dt=0.01, steps=2 * HISTORY_BLOCK + 3, grid_points=21)
        solve_oracle(constant_coefficients(), const_weight, np.sin,
                     (counted(np.cos), counted(np.sin)), cfg)
        assert calls == [("cos", (cfg.steps + 1,)), ("sin", (19,))]

    def test_singular_operator_rejected(self, const_weight):
        # a = 0 and q = -B_0 make B_0 I + A_h the zero matrix; validated
        # coefficients cannot reach this, so they are passed unvalidated
        cfg = OracleConfig(dt=0.01, steps=4, grid_points=11)
        b0 = effective_history_weights(const_weight, 4, 0.01)[0]
        coeffs = SimpleNamespace(a=lambda x: np.zeros_like(x),
                                 q=lambda x: np.full_like(x, -b0), length=1.0)
        with pytest.raises(NumericError, match="dgttrf info = 1"):
            solve_oracle(coeffs, const_weight, np.sin, None, cfg)


class TestCompare:
    @staticmethod
    def make_field(nx, amp=1.0, shift=0.0):
        x = np.linspace(0.0, np.pi, nx)
        times = np.array([0.0, 1.0])
        vals = np.stack([amp * np.sin(x) + shift, amp * np.sin(x) + shift])
        return GridField(times=times, grid=x, values=vals)

    def test_identical(self):
        f = self.make_field(101)
        assert np.all(compare(f, f, [1.0]) == 0.0)

    def test_tiny_shift(self):
        a = self.make_field(101)
        b = self.make_field(101, amp=1.0 + 1e-9)
        err = compare(a, b, [1.0])[0]
        assert err == pytest.approx(1e-9, rel=1e-3)

    def test_cross_grid_interpolation(self):
        a = self.make_field(101)
        b = self.make_field(301)
        assert compare(a, b, [1.0])[0] <= 1e-3

    def test_disjoint_grids(self):
        a = self.make_field(101)
        x = np.linspace(0.0, 1.0, 51)
        b = GridField(times=np.array([1.0]), grid=x,
                      values=np.sin(x)[None, :])
        with pytest.raises(DomainError):
            compare(a, b, [1.0])

    def test_missing_time(self):
        a = self.make_field(101)
        with pytest.raises(DomainError):
            compare(a, a, [0.37])
