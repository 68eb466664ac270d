import numpy as np
import pytest
import scipy.linalg

from conftest import constant_coefficients
from dodiff.errors import DomainError, NumericError, PreconditionError
from dodiff.spectral import (
    EllipticCoefficients,
    build_exact_dirichlet,
    build_fd,
    fractional_norm,
    project,
    synthesize,
)


def gram(basis):
    """The grid inner products of every pair of basis vectors."""
    return (basis.eigenvectors * basis.inner_weights()) @ basis.eigenvectors.T


class TestExactDirichlet:
    def test_unit_interval_pi(self):
        basis = build_exact_dirichlet(np.pi, 4)
        assert basis.eigenvalues[0] == pytest.approx(1.0)
        assert basis.eigenvalues[3] == pytest.approx(16.0)

    def test_length_one(self):
        basis = build_exact_dirichlet(1.0, 2)
        assert basis.eigenvalues[1] == pytest.approx(4 * np.pi ** 2)

    def test_orthonormality(self, basis_pi):
        # the build checks nothing: the sampled sines are orthonormal by
        # construction on any grid of at least N + 2 points, up to its last mode
        cases = [(basis_pi, 32)] + [(build_exact_dirichlet(np.pi, n), n)
                                    for n in (1, 64, 1023)]
        cases.append((build_exact_dirichlet(2.0, 1000, grid_points=1002), 1000))
        for basis, n in cases:
            assert np.max(np.abs(gram(basis) - np.eye(n))) <= 1e-12, n

    def test_domain(self):
        with pytest.raises(DomainError):
            build_exact_dirichlet(-1.0, 4)
        with pytest.raises(DomainError):
            build_exact_dirichlet(1.0, 0)
        with pytest.raises(DomainError, match="1025 points .* N = 1024"):
            build_exact_dirichlet(1.0, 1024)


class TestFiniteDifference:
    def test_laplacian_eigenvalues(self):
        coeffs = constant_coefficients(a=1.0, q=0.0, length=np.pi)
        basis = build_fd(coeffs, 2001, 10)
        n = np.arange(1, 11)
        rel = np.abs(basis.eigenvalues - n ** 2) / n ** 2
        assert np.max(rel) <= 1e-3

    def test_potential_shift(self):
        base = build_fd(constant_coefficients(q=0.0), 801, 6)
        shifted = build_fd(
            EllipticCoefficients(a=lambda x: np.ones_like(x),
                                 q=lambda x: np.full_like(x, 2.5),
                                 c_a=1.0, length=np.pi), 801, 6)
        assert np.allclose(shifted.eigenvalues, base.eigenvalues + 2.5, atol=1e-10)

    def test_variable_coefficient_richardson(self):
        coeffs = EllipticCoefficients(a=lambda x: 1.0 + x / 2.0,
                                      q=lambda x: np.zeros_like(x),
                                      c_a=1.0, length=np.pi)
        lams = {}
        for M in (501, 1001, 2001):
            lams[M] = build_fd(coeffs, M, 4).eigenvalues
        # second-order convergence: Richardson-extrapolated values agree to
        # much better than the raw mesh error
        extr_a = (4 * lams[1001] - lams[501]) / 3.0
        extr_b = (4 * lams[2001] - lams[1001]) / 3.0
        raw_err = np.abs(lams[2001] - lams[1001])
        assert np.all(np.abs(extr_a - extr_b) <= 0.05 * raw_err + 1e-11)
        ratio = np.abs(lams[501] - extr_b) / np.abs(lams[1001] - extr_b)
        assert np.all((ratio > 3.0) & (ratio < 5.0))

    def test_orthonormality_variable(self):
        coeffs = EllipticCoefficients(a=lambda x: 1.0 + 0.3 * np.sin(x),
                                      q=lambda x: 0.5 + 0.5 * np.cos(x) ** 2,
                                      c_a=0.7, length=np.pi)
        basis = build_fd(coeffs, 901, 12)
        assert np.max(np.abs(gram(basis) - np.eye(12))) <= 1e-8
        assert basis.eigenvalues[0] >= 0.7

    def test_ellipticity_rejected(self):
        with pytest.raises(PreconditionError, match="ellipticity"):
            EllipticCoefficients(a=lambda x: 0.5 + x, q=lambda x: np.zeros_like(x),
                                 c_a=1.0, length=np.pi)

    def test_negative_potential_rejected(self):
        with pytest.raises(PreconditionError,
                           match=r"potential .*: q\(0\.0\) = -1\.0 < 0"):
            EllipticCoefficients(a=lambda x: np.ones_like(x),
                                 q=lambda x: -np.ones_like(x),
                                 c_a=1.0, length=np.pi)

    def test_floor_from_the_checked_sample(self):
        coeffs = EllipticCoefficients(a=lambda x: 2.0 - np.sin(x),
                                      q=lambda x: np.zeros_like(x), length=np.pi)
        assert coeffs.c_a == 1.0
        with pytest.raises(PreconditionError, match=r"a\(0\.0\) = 0\.0"):
            EllipticCoefficients(a=lambda x: x, q=lambda x: np.zeros_like(x),
                                 length=np.pi)

    @pytest.mark.parametrize("defect", ["vectors", "values"])
    def test_eigensolver_output_checked(self, monkeypatch, defect):
        real = scipy.linalg.eigh_tridiagonal

        def corrupted(*args, **kwargs):
            lam, vec = real(*args, **kwargs)
            if defect == "vectors":
                return lam, vec * 1.01
            return lam - 0.5, vec

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", corrupted)
        message = (r"orthonormality defect 2\.01e-02 above 1e-08" if defect == "vectors"
                   else r"lambda_1 = 0\.4999.* below the floor c_a \(pi/L\)\^2 = 1\.0 ")
        with pytest.raises(NumericError, match=message):
            build_fd(constant_coefficients(), 201, 4)

    def test_mode_count_guard(self):
        with pytest.raises(DomainError):
            build_fd(constant_coefficients(), 10, 9)


class TestProjection:
    def test_basis_function_roundtrip(self, basis_pi):
        c = project(basis_pi, basis_pi.eigenvectors[2])
        e3 = np.zeros(basis_pi.n_modes)
        e3[2] = 1.0
        assert np.allclose(c, e3, atol=1e-10)

    def test_zero(self, basis_pi):
        assert np.allclose(project(basis_pi, np.zeros_like(basis_pi.grid)), 0.0)

    def test_span_roundtrip(self, basis_pi):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=basis_pi.n_modes)
        f = synthesize(basis_pi, coeffs)
        assert np.max(np.abs(project(basis_pi, f) - coeffs)) <= 1e-8

    def test_parabola_sine_coefficients(self, basis_pi):
        # x(pi - x) has sine coefficients 8/(pi n^3) for odd n, i.e.
        # 8/(pi n^3) sqrt(pi/2) against the normalized modes
        x = basis_pi.grid
        c = project(basis_pi, x * (np.pi - x))
        for n in range(1, 6):
            ref = 8.0 / (np.pi * n ** 3) * np.sqrt(np.pi / 2) if n % 2 == 1 else 0.0
            assert c[n - 1] == pytest.approx(ref, abs=5e-9)

    def test_dimension_mismatch(self, basis_pi):
        with pytest.raises(DomainError):
            project(basis_pi, np.zeros(11))
        with pytest.raises(DomainError):
            synthesize(basis_pi, np.zeros(basis_pi.n_modes + 1))


class TestFractionalNorm:
    def test_parseval(self, basis_pi):
        rng = np.random.default_rng(5)
        c = rng.normal(size=basis_pi.n_modes)
        assert fractional_norm(basis_pi, c, 0.0) == pytest.approx(np.linalg.norm(c))

    def test_unit_mode(self):
        basis = build_exact_dirichlet(np.pi, 4)
        e1 = np.array([1.0, 0, 0, 0])
        assert fractional_norm(basis, e1, 1.0) == pytest.approx(1.0)

    def test_half_power(self):
        basis = build_exact_dirichlet(np.pi, 4)
        e2 = np.array([0.0, 1.0, 0, 0])
        assert fractional_norm(basis, e2, 0.5) == pytest.approx(2.0)

    def test_domain(self, basis_pi):
        with pytest.raises(DomainError):
            fractional_norm(basis_pi, np.zeros(basis_pi.n_modes), 1.5)
