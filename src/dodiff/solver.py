"""Weak-solution assembly from kernels: u(t) = S0(t) u0 + Duhamel term.

Per mode the homogeneous propagator multiplies by E_n(t) and the source
response convolves with G_n:

    c_n(t) = E_n(t) c_n(0) + int_0^t G_n(t - tau) f_n(tau) d(tau).

The convolution is taken by product integration on K_1/K_2: the source is
linear between panel edges graded toward tau = t, and the kernel moments
over each panel are differences of K_1 = int G_n and K_2 = int K_1 at its
edges.  The rule is exact for piecewise-linear sources, however singular
G_n is near the origin or large lambda_n is.  Sources enter as callables
returning mode coefficients; projection of a spatial source is the caller's
concern, which keeps this module purely spectral.

The source response of a whole time grid is one (times x modes) array:
K_1 at every output time from one block, and K_2 only at the ends of the
panels on which the source changes; the others contribute exactly zero.
A constant source thus costs one K_1 row per output time (see ``duhamel``).
Solution fields are written once and immutable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError, PreconditionError
from .kernel import KernelConfig, eval_kernel_block, eval_kernels
from .spectral import SpectralBasis, fractional_norm, synthesize
from .weight import WeightFunction

DUHAMEL_NODES = 256


@dataclass(frozen=True)
class ProblemSpec:
    """One initial-boundary value problem in spectral form.

    ``source`` maps a time to the mode-coefficient vector of F(t, .) and must
    stay bounded on [0, T].
    """

    weight: WeightFunction
    basis: SpectralBasis
    initial_coeffs: np.ndarray
    source: Callable[[float], np.ndarray] | None
    horizon: float

    def __post_init__(self):
        c0 = np.asarray(self.initial_coeffs, dtype=float)
        object.__setattr__(self, "initial_coeffs", c0)
        if self.horizon <= 0.0:
            raise PreconditionError(f"horizon T = {self.horizon} must be positive")
        if c0.shape != (self.basis.n_modes,):
            raise PreconditionError(
                f"initial coefficients {c0.shape} do not match "
                f"{self.basis.n_modes} modes")
        if self.source is not None:
            for t in (0.0, 0.5 * self.horizon, self.horizon):
                f = np.asarray(self.source(t), dtype=float)
                if f.shape != c0.shape or not np.all(np.isfinite(f)):
                    raise PreconditionError(
                        f"source at t = {t} is not a finite coefficient vector")


@dataclass(frozen=True)
class SolutionField:
    """Mode coefficients on a time grid, with norm accessors."""

    times: np.ndarray
    coeffs: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.shape != (len(times), self.basis.n_modes):
            raise PreconditionError("solution field dimensions inconsistent")
        if not np.all(np.isfinite(coeffs)):
            raise PreconditionError("solution field holds non-finite entries")

    def l2_norms(self) -> np.ndarray:
        return np.linalg.norm(self.coeffs, axis=1)

    def frac_norms(self, kappa: float) -> np.ndarray:
        return np.array([fractional_norm(self.basis, c, kappa) for c in self.coeffs])

    def sample(self, t: float):
        """(grid, values) at a stored time; t must match a grid point."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-12 * max(1.0, abs(t)):
            raise DomainError(f"time {t} not on the stored grid")
        return self.basis.grid, synthesize(self.basis, self.coeffs[idx])


def _check_time(problem: ProblemSpec, t: float):
    if not (0.0 < t <= problem.horizon * (1.0 + 1e-12)):
        raise DomainError(f"time t = {t} outside (0, T = {problem.horizon}]")


def duhamel_mesh(t: float, n_nodes: int = DUHAMEL_NODES):
    """Panel edges sigma_j = t (j/P)^2, j = 0..P, in the kernel argument
    sigma = t - tau, and the panel widths; P = ``n_nodes``.  The grading
    packs panels where sigma is small, so the source is sampled most
    densely at tau = t, where the kernel weight is largest."""
    edges = t * (np.arange(n_nodes + 1) / n_nodes) ** 2
    return edges, np.diff(edges)


def duhamel(problem: ProblemSpec, times, n_nodes: int = DUHAMEL_NODES,
            cfg: KernelConfig | None = None) -> np.ndarray:
    """Source response int_0^t G_n(sigma) f_n(t - sigma) d(sigma), shape
    (n_times, n_modes): one row per output time t, one column per mode.

    With f linear on each panel of ``duhamel_mesh(t)``, integration by parts
    gives the exact value

        K_1(t) f(0) + sum_j (K_2(sigma_(j+1)) - K_2(sigma_j)) / h_j
                            * (f(t - sigma_j) - f(t - sigma_(j+1))),

    so a constant source returns K_1(t) f to rounding for any panel count.
    K_1 comes from one ``eval_kernels`` call at all the times.  A panel
    whose source difference is 0 in every mode adds exactly 0 and is
    dropped; a time with live panels makes one more call, for K_2 alone at
    the ends sigma > 0 of those panels (K_2(0) = 0).  A constant source
    thus costs one call, and a row depends on no other time but through
    K_1's contour.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    for t in times:
        _check_time(problem, t)
    if problem.source is None:
        return np.zeros((len(times), problem.basis.n_modes))
    lams, w = problem.basis.eigenvalues, problem.weight
    (out,) = eval_kernels(times, lams, w, ("K1",), cfg=cfg)
    for row, t in enumerate(times):
        edges, h = duhamel_mesh(float(t), n_nodes=n_nodes)
        f = np.array([np.asarray(problem.source(t - s), dtype=float) for s in edges])
        bad = np.argwhere(~np.isfinite(f))
        if bad.size:
            j, n = bad[0]
            raise NumericError(f"source at tau = {float(t - edges[j])!r} is "
                               f"{float(f[j, n])!r} in mode {n + 1}")
        out[row] *= f[-1]
        df = f[:-1] - f[1:]
        live = np.flatnonzero(np.any(df != 0.0, axis=1))
        if live.size:
            ends = np.union1d(live, live + 1)
            ends = ends[ends > 0]
            K2 = np.zeros((n_nodes + 1, len(lams)))
            K2[ends] = eval_kernels(edges[ends], lams, w, ("K2",), cfg=cfg)[0]
            # mean of K_1 over each live panel times its source difference
            out[row] += np.einsum("jn,jn->n", (K2[live + 1] - K2[live]) / h[live, None],
                                  df[live])
    return out


def solve(problem: ProblemSpec, times, n_nodes: int = DUHAMEL_NODES,
          cfg: KernelConfig | None = None) -> SolutionField:
    """Superpose the homogeneous and Duhamel parts on a time grid; every
    time must lie in (0, T], or ``DomainError`` names it."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    for t in times:
        _check_time(problem, t)
    E, _ = eval_kernel_block(times, problem.basis.eigenvalues, problem.weight,
                             cfg=cfg)
    coeffs = E * problem.initial_coeffs[None, :]
    if problem.source is not None:
        coeffs += duhamel(problem, times, n_nodes=n_nodes, cfg=cfg)
    return SolutionField(times=times, coeffs=coeffs, basis=problem.basis)


def estimate_decay_exponent(field: SolutionField, kappa: float,
                            window: tuple[float, float]) -> float:
    """Least-squares slope of log ||u(t)|| against log t inside the window."""
    t_a, t_b = window
    mask = (field.times >= t_a) & (field.times <= t_b)
    if mask.sum() < 2:
        raise DomainError("fit window contains fewer than two grid points")
    norms = field.frac_norms(kappa)[mask]
    if np.any(norms <= 0.0):
        raise NumericError("norm path touches zero inside the fit window")
    slope, _ = np.polyfit(np.log(field.times[mask]), np.log(norms), 1)
    return float(slope)
