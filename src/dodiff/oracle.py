"""Independent time-stepping reference solver.

Discretizes the order-averaged Caputo derivative directly: each order alpha
gets the standard piecewise-linear (L1) history weights

    b_j = ((j+1)^(1-alpha) - j^(1-alpha)) * dt^(-alpha) / Gamma(2-alpha),

and the order integral collapses them against the density into one effective
history sequence B_j = sum_q w_q mu(alpha_q) b_j(alpha_q) over Gauss-Legendre
order nodes (split at the density's breakpoints).  Space is the flux-form
tridiagonal second-difference operator, assembled here independently of the
spectral module, and each implicit step solves

    (B_0 I + A_h) u^k = B_0 u^(k-1) - sum_{j>=1} B_j (u^(k-j) - u^(k-j-1)) + F^k

by banded elimination.  This route shares nothing with the contour kernels,
which is the point: it is the brute-force cross-check for solution values.

Strictly sequential in time; independent problems may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .errors import DomainError, NumericError, PreconditionError
from .spectral import EllipticCoefficients
from .weight import WeightFunction


@dataclass(frozen=True)
class OracleConfig:
    dt: float
    steps: int
    grid_points: int
    alpha_nodes: int = 32

    def __post_init__(self):
        if self.dt <= 0.0 or self.steps < 1:
            raise PreconditionError("need dt > 0 and at least one step")
        if self.grid_points < 3:
            raise PreconditionError("need at least 3 grid points")
        if self.alpha_nodes < 2:
            raise PreconditionError("need at least 2 order-quadrature nodes")

    @property
    def horizon(self) -> float:
        return self.dt * self.steps


@dataclass(frozen=True)
class GridField:
    """Solution values on the oracle's own space-time grid."""

    times: np.ndarray
    grid: np.ndarray
    values: np.ndarray  # shape (len(times), len(grid))

    def sample(self, t: float):
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise DomainError(f"time {t} not on the stored grid")
        return self.grid, self.values[idx]


def order_nodes(w: WeightFunction, n_nodes: int):
    """Gauss-Legendre nodes and density-carrying weights over the order
    interval, one panel per polynomial piece (zero pieces skipped).  Open
    nodes never touch the endpoint orders 0 and 1."""
    x, wq = np.polynomial.legendre.leggauss(n_nodes)
    nodes, wts = [], []
    for k, c in enumerate(w.coeffs):
        if np.all(np.asarray(c) == 0.0):
            continue
        a, b = w.breakpoints[k], w.breakpoints[k + 1]
        al = 0.5 * (b - a) * x + 0.5 * (b + a)
        nodes.append(al)
        wts.append(0.5 * (b - a) * wq * w._eval_many(al))
    return np.concatenate(nodes), np.concatenate(wts)


def effective_history_weights(w: WeightFunction, k: int, dt: float,
                              n_nodes: int = 32) -> np.ndarray:
    """B_j: the L1 weights averaged over orders against the density."""
    al, wts = order_nodes(w, n_nodes)
    j = np.arange(k, dtype=float)
    # matrix (n_alpha, k) of per-order L1 weights, contracted with the density
    b = ((j[None, :] + 1.0) ** (1.0 - al[:, None]) - j[None, :] ** (1.0 - al[:, None]))
    gamma = np.array([math.gamma(2.0 - a) for a in al])
    b *= dt ** (-al[:, None]) / gamma[:, None]
    return wts @ b


def solve_oracle(coeffs: EllipticCoefficients, w: WeightFunction,
                 u0: Callable[[np.ndarray], np.ndarray],
                 source: Callable[[float, np.ndarray], np.ndarray] | None,
                 cfg: OracleConfig) -> GridField:
    """March the implicit order-averaged L1 scheme over the full horizon."""
    M = cfg.grid_points
    x = np.linspace(0.0, coeffs.length, M)
    h = x[1] - x[0]
    xm = 0.5 * (x[:-1] + x[1:])
    am = np.broadcast_to(np.asarray(coeffs.a(xm), dtype=float), xm.shape)
    qv = np.broadcast_to(np.asarray(coeffs.q(x[1:-1]), dtype=float), x[1:-1].shape)
    diag = (am[:-1] + am[1:]) / h ** 2 + qv
    off = -am[1:-1] / h ** 2

    B = effective_history_weights(w, cfg.steps, cfg.dt, cfg.alpha_nodes)
    if B[0] <= 0.0:
        raise NumericError("effective implicit weight is not positive")

    # banded storage of (B_0 I + A_h) for the repeated implicit solves
    ab = np.zeros((3, M - 2))
    ab[0, 1:] = off
    ab[1] = diag + B[0]
    ab[2, :-1] = off

    u = np.empty((cfg.steps + 1, M))
    u[0] = np.asarray(u0(x), dtype=float)
    u[0, 0] = u[0, -1] = 0.0
    diffs = np.zeros((cfg.steps + 1, M - 2))

    for k in range(1, cfg.steps + 1):
        rhs = B[0] * u[k - 1, 1:-1]
        if k > 1:
            rhs -= B[k - 1:0:-1] @ diffs[1:k]
        if source is not None:
            rhs += np.asarray(source(k * cfg.dt, x[1:-1]), dtype=float)
        interior = solve_banded((1, 1), ab, rhs)
        if not np.all(np.isfinite(interior)):
            raise NumericError(f"implicit solve produced non-finite values at step {k}")
        u[k, 1:-1] = interior
        u[k, 0] = u[k, -1] = 0.0
        diffs[k] = interior - u[k - 1, 1:-1]

    times = cfg.dt * np.arange(cfg.steps + 1)
    return GridField(times=times, grid=x, values=u)


def compare(field_a, field_b, times) -> np.ndarray:
    """Per-time relative L2 discrepancy, interpolating to the finer grid."""
    out = []
    for t in times:
        xa, ua = field_a.sample(t)
        xb, ub = field_b.sample(t)
        if xa[-1] != xb[-1] or xa[0] != xb[0]:
            raise DomainError("fields live on different intervals")
        if len(xa) >= len(xb):
            x, fa, fb = xa, ua, np.interp(xa, xb, ub)
        else:
            x, fa, fb = xb, np.interp(xb, xa, ua), ub
        num = np.sqrt(np.trapezoid((fa - fb) ** 2, x))
        den = np.sqrt(np.trapezoid(fb ** 2, x))
        out.append(num / den if den > 0.0 else num)
    return np.array(out)
