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

with one LU factorization of the tridiagonal B_0 I + A_h (LAPACK dgttrf,
partial pivoting), made once per solve and reused by every step (dgttrs).
The source is separable, as the solver's ``Source`` is: F^k = phi(k dt) f
at the interior nodes, with phi sampled once on the step times and f once.

The history sum is taken in blocks of HISTORY_BLOCK steps.  At the start of
a block, the part of every step's sum that reads differences older than the
block is one matrix product: Toeplitz rows of B times those differences.
Each step inside the block then adds only its near terms, at most
HISTORY_BLOCK - 1 of them.  This is the same sum as re-summing the whole
history at every step, only rearranged: nothing is approximated, and the
work is still O(K^2 M), but the old differences are read once per block
through BLAS-3 rather than once per step.

This route shares nothing with the contour kernels, which is the point: it
is the brute-force cross-check for solution values.

Strictly sequential in time; independent problems may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, NumericError, PreconditionError
from .spectral import EllipticCoefficients
from .weight import WeightFunction

# steps per history block (see the module docstring)
HISTORY_BLOCK = 64


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
    def step_times(self) -> np.ndarray:
        """The times k*dt, k = 0, ..., steps, that a solve stores."""
        return self.dt * np.arange(self.steps + 1)


def time_index(times: np.ndarray, t: float) -> int | None:
    """The index of the entry of ``times`` within 1e-9 |t| of t, or None if
    there is none."""
    idx = int(np.argmin(np.abs(times - t)))
    return idx if abs(times[idx] - t) <= 1e-9 * abs(t) else None


@dataclass(frozen=True)
class GridField:
    """Solution values on the oracle's own space-time grid."""

    times: np.ndarray
    grid: np.ndarray
    values: np.ndarray  # shape (len(times), len(grid))

    def sample(self, t: float):
        idx = time_index(self.times, t)
        if idx is None:
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
                              n_nodes: int = OracleConfig.alpha_nodes) -> np.ndarray:
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
                 source: tuple[Callable, Callable] | None,
                 cfg: OracleConfig) -> GridField:
    """March the implicit order-averaged L1 scheme over the full horizon;
    ``source`` is None or the pair (phi, f) of F(t, x) = phi(t) f(x)."""
    from scipy.linalg.lapack import dgttrf, dgttrs  # imported here: slow to import
    M, K = cfg.grid_points, cfg.steps
    x = np.linspace(0.0, coeffs.length, M)
    h = x[1] - x[0]
    xm = 0.5 * (x[:-1] + x[1:])
    xi = x[1:-1]
    am = np.broadcast_to(np.asarray(coeffs.a(xm), dtype=float), xm.shape)
    qv = np.broadcast_to(np.asarray(coeffs.q(xi), dtype=float), xi.shape)
    diag = (am[:-1] + am[1:]) / h ** 2 + qv
    off = -am[1:-1] / h ** 2

    B = effective_history_weights(w, K, cfg.dt, cfg.alpha_nodes)
    if B[0] <= 0.0:
        raise NumericError("effective implicit weight is not positive")
    B_rev = B[::-1].copy()  # B_rev[K-1-j] = B_j

    # one LU factorization (partial pivoting) of B_0 I + A_h for every step
    *lu, info = dgttrf(off, diag + B[0], off)
    if info != 0:
        raise NumericError(f"factorizing B_0 I + A_h failed: dgttrf info = {info}")

    u = np.empty((K + 1, M))
    u[0] = np.asarray(u0(x), dtype=float)
    u[:, 0] = u[:, -1] = 0.0
    diffs = np.zeros((K + 1, M - 2))  # diffs[j] = u^j - u^(j-1), interior
    if source is not None:
        phi = np.asarray(source[0](cfg.step_times), dtype=float)
        f = np.asarray(source[1](xi), dtype=float)

    # in block k0, toeplitz[r, K-k0+1:] holds B_(k0+r-1), ..., B_(r+1): the
    # weights of diffs[1:k0] at step k0 + r.  Those of the next block are the
    # same columns with HISTORY_BLOCK new ones in front, so each block fills
    # only its new columns
    toeplitz = np.empty((HISTORY_BLOCK, K))
    windows = sliding_window_view(B_rev, min(HISTORY_BLOCK, K))
    for k0 in range(1, K + 1, HISTORY_BLOCK):
        b = min(HISTORY_BLOCK, K + 1 - k0)
        start = K - k0 + 1
        if k0 > 1:
            toeplitz[:b, start:start + HISTORY_BLOCK] = windows[start - b:start][::-1]
        # the history older than the block, for all of its steps at once
        old = toeplitz[:b, start:] @ diffs[1:k0]
        for r in range(b):
            k = k0 + r
            prev = u[k - 1, 1:-1]
            rhs = u[k, 1:-1]  # dgttrs overwrites it with the solution
            np.subtract(B[0] * prev, old[r], out=rhs)
            if r:
                # the block's own differences: B_r, ..., B_1 against diffs[k0:k]
                rhs -= B_rev[K - 1 - r:K - 1] @ diffs[k0:k]
            if source is not None:
                rhs += phi[k] * f
            _, info = dgttrs(*lu, rhs, overwrite_b=1)
            if info != 0:
                raise NumericError(f"implicit solve failed at step {k}: dgttrs info = {info}")
            if not np.isfinite(rhs).all():
                raise NumericError(f"implicit solve produced non-finite values at step {k}")
            np.subtract(rhs, prev, out=diffs[k])

    return GridField(times=cfg.step_times, grid=x, values=u)


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
