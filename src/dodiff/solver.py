"""Weak-solution assembly from kernels: u(t) = S0(t) u0 + Duhamel term.

Per mode the homogeneous propagator multiplies by E_n(t) and the source
response convolves with G_n:

    c_n(t) = E_n(t) c_n(0) + int_0^t G_n(t - tau) f_n(tau) d(tau).

The convolution is taken by product integration on K_1/K_2: the source is
linear between panel edges graded toward tau = t, and the kernel moments
over each panel are differences of K_1 = int G_n and K_2 = int K_1 at its
edges.  The rule is exact for piecewise-linear sources, however singular
G_n is near the origin or large lambda_n is.  A source is one term
F(t) = phi(t) g, ``Source(g, phi)``; projection of a spatial source is the
caller's concern, which keeps this module purely spectral.

The source response of a whole time grid is one (times x modes) array:
K_1 at every output time from one block, and K_2 only at the ends of the
panels on which phi changes; the others contribute exactly zero.  A
constant source thus costs one K_1 row per output time (see ``duhamel``).
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
class Source:
    """F(t) = phi(t) g: mode coefficients ``g`` and a time factor ``phi``
    that maps an array of times to an array of values.  The default
    ``np.ones_like`` makes the source constant in time."""

    g: np.ndarray
    phi: Callable[[np.ndarray], np.ndarray] = np.ones_like

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))

    def __call__(self, t):
        """The mode coefficients of F(t)."""
        return self.phi(np.asarray(t, dtype=float)) * self.g


@dataclass(frozen=True)
class ProblemSpec:
    """One initial-boundary value problem in spectral form.

    ``source`` is a ``Source`` or None.  Its g must be finite with one entry
    per mode, and its phi must give three finite values at t = 0, T/2, T.
    """

    weight: WeightFunction
    basis: SpectralBasis
    initial_coeffs: np.ndarray
    source: Source | None
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
        if self.source is None:
            return
        if not isinstance(self.source, Source):
            raise PreconditionError(f"source must be a solver.Source or None, not "
                                    f"{type(self.source).__name__}")
        g = self.source.g
        if g.shape != c0.shape:
            raise PreconditionError(
                f"source coefficients {g.shape} do not match {self.basis.n_modes} modes")
        bad = np.flatnonzero(~np.isfinite(g))
        if bad.size:
            raise PreconditionError(
                f"source coefficient g is {float(g[bad[0]])!r} in mode {bad[0] + 1}")
        try:
            phi = np.asarray(self.source.phi(np.array([0.0, 0.5, 1.0]) * self.horizon),
                             dtype=float)
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"source phi cannot take an array of times: {exc}")
        if phi.shape != (3,) or not np.all(np.isfinite(phi)):
            raise PreconditionError(f"source phi at t = 0, T/2 and T = {self.horizon} "
                                    f"is {phi.tolist()}, not three finite values")


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
        """(grid, values) at a stored time; t must match a grid point to
        1e-12 relative."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-12 * abs(t):
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
    """Source response int_0^t G_n(sigma) phi(t - sigma) g_n d(sigma), shape
    (n_times, n_modes): one row per output time t, one column per mode.

    With phi linear on each panel of ``duhamel_mesh(t)``, integration by
    parts gives the exact value

        (K_1(t) phi(0) + sum_j (K_2(sigma_(j+1)) - K_2(sigma_j)) / h_j
                         * (phi(t - sigma_j) - phi(t - sigma_(j+1)))) g,

    so a constant source returns K_1(t) g to rounding for any panel count.
    phi is called once per output time, at its P + 1 mesh edges, and a
    non-finite value is a ``NumericError`` naming tau.  K_1 comes from one
    ``eval_kernels`` call at all the times.  A panel on which phi does not
    change adds exactly 0 and is dropped; a time with live panels makes one
    more call, for K_2 alone at the ends sigma > 0 of those panels
    (K_2(0) = 0).  A constant source thus costs one call, and a row depends
    on no other time but through K_1's contour.
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
        taus = t - edges
        phi = np.asarray(problem.source.phi(taus), dtype=float)
        bad = np.flatnonzero(~np.isfinite(phi))
        if bad.size:
            raise NumericError(f"source phi at tau = {float(taus[bad[0]])!r} "
                               f"is {float(phi[bad[0]])!r}")
        out[row] *= phi[-1]
        dphi = phi[:-1] - phi[1:]
        live = np.flatnonzero(dphi)
        if live.size:
            # K_2 at the ends of the live panels; row i of K2 is edge ends[i]
            ends = np.union1d(live, live + 1)
            K2 = np.zeros((len(ends), len(lams)))
            K2[ends > 0] = eval_kernels(edges[ends[ends > 0]], lams, w, ("K2",),
                                        cfg=cfg)[0]
            lo = np.searchsorted(ends, live)
            # mean of K_1 over each live panel times its change of phi
            out[row] += (dphi[live] / h[live]) @ (K2[lo + 1] - K2[lo])
    return out * problem.source.g


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
