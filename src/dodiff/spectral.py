"""Eigen-decomposition of the 1-D elliptic operator -(a u')' + q u.

Dirichlet ends on (0, L).  Two builders: closed-form sine eigenpairs for
a = 1, q = 0, and a flux-form (midpoint-coefficient) symmetric tridiagonal
finite-difference discretization for variable coefficients.  Eigenvectors
are normalized in the trapezoid grid inner product, which reduces to
h * sum over interior nodes because of the boundary zeros.

Fractional-power norms (sum lambda_n^(2 kappa) |c_n|^2)^(1/2) serve as the
surrogate for Sobolev norms of order 2*kappa throughout the package.

Bases are immutable once built and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError, PreconditionError

ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class EllipticCoefficients:
    """Diffusion a(x) >= c_a > 0 and potential q(x) >= 0 on [0, L], checked
    on 513 points; a ``c_a`` of None becomes the least a on those points."""

    a: Callable[[np.ndarray], np.ndarray]
    q: Callable[[np.ndarray], np.ndarray]
    length: float
    c_a: float | None = None

    def __post_init__(self):
        if self.length <= 0.0:
            raise PreconditionError(f"interval length {self.length} must be positive")
        x = np.linspace(0.0, self.length, 513)
        av = np.broadcast_to(np.asarray(self.a(x), dtype=float), x.shape)
        qv = np.broadcast_to(np.asarray(self.q(x), dtype=float), x.shape)
        ka, kq = int(np.argmin(av)), int(np.argmin(qv))
        if self.c_a is None:
            object.__setattr__(self, "c_a", float(av[ka]))
        # negated comparisons, so that a NaN fails them too
        if not self.c_a > 0.0:
            raise PreconditionError(
                f"ellipticity floor c_a = {self.c_a} must be positive "
                f"(least a: a({x[ka]}) = {av[ka]})")
        if not av[ka] >= self.c_a - 1e-12:
            raise PreconditionError(f"ellipticity invariant violated: "
                                    f"a({x[ka]}) = {av[ka]} < c_a = {self.c_a}")
        if not qv[kq] >= -1e-12:
            raise PreconditionError(
                f"potential invariant violated: q({x[kq]}) = {qv[kq]} < 0")


@dataclass(frozen=True)
class SpectralBasis:
    """Lowest-N eigenpairs on a uniform grid.

    ``eigenvalues`` are non-decreasing; ``eigenvectors`` has shape (N, M)
    with boundary zeros and rows orthonormal in the grid inner product, which
    each builder guarantees where it can fail (see ``build_fd``).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors", "grid"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(np.diff(self.eigenvalues) < -1e-12):
            raise PreconditionError("eigenvalues must be non-decreasing")

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def inner_weights(self) -> np.ndarray:
        wts = np.full(self.grid.shape, self.spacing)
        wts[0] = wts[-1] = 0.5 * self.spacing
        return wts


def build_exact_dirichlet(L: float, N: int, grid_points: int = 1025) -> SpectralBasis:
    """Closed-form sine eigenpairs of -d2/dx2 on (0, L) with Dirichlet ends:
    lambda_n = (n pi / L)^2, phi_n = sqrt(2/L) sin(n pi x / L), orthonormal
    on any grid of N + 2 points or more (the discrete sine transform is)."""
    if L <= 0.0:
        raise DomainError(f"interval length {L} must be positive")
    if N < 1:
        raise DomainError(f"mode count {N} must be >= 1")
    if grid_points < N + 2:
        raise DomainError(f"grid of {grid_points} points too coarse for "
                          f"N = {N} modes (needs at least N + 2)")
    n = np.arange(1, N + 1)
    x = np.linspace(0.0, L, grid_points)
    lam = (n * np.pi / L) ** 2
    vec = np.sqrt(2.0 / L) * np.sin(np.outer(n, x) * np.pi / L)
    vec[:, 0] = vec[:, -1] = 0.0
    return SpectralBasis(eigenvalues=lam, eigenvectors=vec, grid=x)


def assemble_tridiagonal(coeffs: EllipticCoefficients, M: int):
    """Interior-node flux-form discretization of -(a u')' + q u.

    Returns (diagonal, off-diagonal, grid); a is evaluated at cell midpoints
    so the matrix is symmetric and the discrete operator inherits the
    continuous one's sign structure.
    """
    if M < 3:
        raise DomainError("need at least 3 grid points")
    x = np.linspace(0.0, coeffs.length, M)
    h = x[1] - x[0]
    xm = 0.5 * (x[:-1] + x[1:])
    am = np.broadcast_to(np.asarray(coeffs.a(xm), dtype=float), xm.shape)
    qv = np.broadcast_to(np.asarray(coeffs.q(x[1:-1]), dtype=float), x[1:-1].shape)
    diag = (am[:-1] + am[1:]) / h ** 2 + qv
    off = -am[1:-1] / h ** 2
    return diag, off, x


def build_fd(coeffs: EllipticCoefficients, M: int, N: int) -> SpectralBasis:
    """Lowest-N eigenpairs of the finite-difference operator on M grid points,
    with the eigensolver's output checked: orthonormal vectors, and lambda_1
    above the Rayleigh floor c_a (pi/L)^2 less the scheme's O(h^2) error."""
    from scipy.linalg import eigh_tridiagonal  # imported here: slow to import
    if M < N + 2:
        raise DomainError(f"M = {M} too small for N = {N} modes")
    diag, off, x = assemble_tridiagonal(coeffs, M)
    try:
        lam, vec = eigh_tridiagonal(diag, off, select="i", select_range=(0, N - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy rarely fails here
        raise NumericError(f"tridiagonal eigensolver failed: {exc}") from exc
    # the grid inner product of the interior values vec / sqrt(h) is vec.T vec
    err = np.max(np.abs(vec.T @ vec - np.eye(N)))
    if not err <= ORTHONORMALITY_TOL:
        raise NumericError(f"eigensolver output: orthonormality defect {err:.2e} "
                           f"above {ORTHONORMALITY_TOL:.0e}")
    h = x[1] - x[0]
    floor = coeffs.c_a * (np.pi / coeffs.length) ** 2
    slack = (np.pi * h / coeffs.length) ** 2 / 3.0 * floor + 1e-9 * max(1.0, floor)
    if not lam[0] >= floor - slack:
        raise NumericError(f"eigensolver output: lambda_1 = {lam[0]} below the "
                           f"floor c_a (pi/L)^2 = {floor} less {slack:.2e}")
    full = np.zeros((N, M))
    full[:, 1:-1] = (vec / np.sqrt(h)).T
    # fix sign convention: positive slope at the left end
    signs = np.sign(full[:, 1])
    signs[signs == 0] = 1.0
    full *= signs[:, None]
    return SpectralBasis(eigenvalues=lam, eigenvectors=full, grid=x)


def project(basis: SpectralBasis, values: np.ndarray) -> np.ndarray:
    """Grid inner products <f, phi_n> for all modes."""
    values = np.asarray(values, dtype=float)
    if values.shape != basis.grid.shape:
        raise DomainError(
            f"grid mismatch: field has {values.shape}, basis grid {basis.grid.shape}")
    return (basis.eigenvectors * basis.inner_weights()) @ values


def synthesize(basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
    """Superpose modes: sum_n c_n phi_n on the basis grid."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.n_modes,):
        raise DomainError(
            f"coefficient count {coeffs.shape} does not match {basis.n_modes} modes")
    return coeffs @ basis.eigenvectors


def fractional_norm(basis: SpectralBasis, coeffs: np.ndarray, kappa: float) -> float:
    """Graph norm of the kappa-th operator power: (sum lambda^(2k) |c|^2)^(1/2)."""
    if not (0.0 <= kappa <= 1.0):
        raise DomainError(f"kappa = {kappa} outside [0, 1]")
    coeffs = np.asarray(coeffs, dtype=float)
    return float(np.sqrt(np.sum(basis.eigenvalues ** (2.0 * kappa) * coeffs ** 2)))
