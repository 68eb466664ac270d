import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.special import rgamma

from dodiff import make_box_weight, make_constant_weight, make_tapered_weight
from dodiff.errors import DomainError, NumericError
from dodiff.kernel import eval_kernel_block
from dodiff.oracle import GridField, effective_history_weights
from dodiff.spectral import EllipticCoefficients, build_exact_dirichlet


def mode_kernels(n, t, basis, w, spec=None):
    """(E_n(t), G_n(t)) of the 1-based mode n: one entry of a contour block."""
    E, G = eval_kernel_block([t], [basis.eigenvalues[n - 1]], w, spec=spec)
    return float(E[0, 0]), float(G[0, 0])


def dEn_dt_finite_difference(n, t, basis, w):
    """Central difference of E_n in time, the reference for the identity
    dE_n/dt = -lambda_n G_n."""
    h = 1e-4 * t
    up = mode_kernels(n, t + h, basis, w)[0]
    dn = mode_kernels(n, t - h, basis, w)[0]
    return (up - dn) / (2.0 * h)


def constant_coefficients(a: float = 1.0, q: float = 0.0, length: float = np.pi,
                          c_a: float | None = None) -> EllipticCoefficients:
    return EllipticCoefficients(a=lambda x: np.full_like(np.asarray(x, float), a),
                                q=lambda x: np.full_like(np.asarray(x, float), q),
                                c_a=a if c_a is None else c_a,
                                length=length)


def direct_oracle(coeffs, w, u0, source, cfg) -> GridField:
    """The oracle's scheme stepped directly: every step re-sums its whole
    L1 history as one matrix-vector product and solves the tridiagonal
    system by banded elimination.  The reference for the blocked history
    and the single factorization of ``solve_oracle``."""
    M = cfg.grid_points
    x = np.linspace(0.0, coeffs.length, M)
    h = x[1] - x[0]
    xm = 0.5 * (x[:-1] + x[1:])
    am = np.broadcast_to(np.asarray(coeffs.a(xm), dtype=float), xm.shape)
    qv = np.broadcast_to(np.asarray(coeffs.q(x[1:-1]), dtype=float), x[1:-1].shape)
    diag = (am[:-1] + am[1:]) / h ** 2 + qv
    off = -am[1:-1] / h ** 2

    B = effective_history_weights(w, cfg.steps, cfg.dt, cfg.alpha_nodes)
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
            phi, f = source
            rhs += phi(k * cfg.dt) * f(x[1:-1])
        interior = solve_banded((1, 1), ab, rhs)
        u[k, 1:-1] = interior
        u[k, 0] = u[k, -1] = 0.0
        diffs[k] = interior - u[k - 1, 1:-1]
    return GridField(times=cfg.dt * np.arange(cfg.steps + 1), grid=x, values=u)


def reference_write_csv(path, header, rows, comments=None) -> None:
    """The per-cell CSV writer: each cell formatted on its own, a float
    (Python or numpy) by ``repr``, anything else by ``str``.  The reference
    for the bytes of ``textio.write_csv``."""
    out = []
    for line in comments or []:
        out.append(f"# {line}")
    out.append(",".join(header))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(repr(float(cell)))
            else:
                cells.append(str(cell))
        out.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def reference_field_csv(path, field, times, prov) -> None:
    """(t, x, u) rows of float cells, one row per grid point and time,
    through the per-cell writer: the reference for ``cli._field_csv``."""
    rows = []
    for t in times:
        x, u = field.sample(float(t))
        rows.extend([float(t), float(xi), float(ui)] for xi, ui in zip(x, u))
    reference_write_csv(path, ["t", "x", "u"], rows, comments=prov)


# --- Mittag-Leffler reference ------------------------------------------------

def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """E_(alpha,beta)(z) for real z <= 0 and alpha in (0, 1].

    The constant-order reference the kernels approach as a box density
    narrows.  Power series sum z^k / Gamma(alpha k + beta) below the switch
    radius max(5, 21^alpha); the series is summed in extended precision
    because its terms grow like exp(|z|^(1/alpha)) before they decay.  Beyond
    the switch the algebraic tail expansion -sum z^(-k)/Gamma(beta - alpha k)
    applies, truncated at its smallest term; the switch radius keeps that
    optimal truncation error below 1e-9.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha = {alpha} outside (0, 1]")
    z = float(z)
    if z > 0.0:
        raise DomainError(f"evaluator covers z <= 0, got z = {z}")
    if z == 0.0:
        return float(rgamma(beta))
    if abs(z) <= max(5.0, 21.0 ** alpha):
        return _ml_series(alpha, beta, z)
    return _ml_asymptotic(alpha, beta, z)


def _ml_series(alpha: float, beta: float, z: float) -> float:
    growth = abs(z) ** (1.0 / alpha)
    extra = int(math.ceil(0.45 * growth)) + 10
    if extra > 1200:
        raise NumericError(
            f"series at alpha = {alpha}, |z| = {abs(z)} needs {extra} digits")
    with mp.workdps(20 + extra):
        za, ba = mp.mpf(alpha), mp.mpf(beta)
        zz = mp.mpf(z)
        total = mp.mpf(0)
        power = mp.mpf(1)
        kmax = int(4 * (growth / alpha + 60))
        tol = mp.mpf(10) ** (-(mp.mp.dps - 5))
        small = 0
        for k in range(kmax):
            term = power * mp.rgamma(za * k + ba)
            total += term
            power *= zz
            if abs(term) < tol * (1 + abs(total)):
                small += 1
                if small >= 3 and za * k + ba > growth + 2:
                    break
            else:
                small = 0
        else:
            raise NumericError("series failed to converge within the term cap")
        return float(total)


def _ml_asymptotic(alpha: float, beta: float, z: float) -> float:
    # optimal truncation: |terms| dip to a global minimum before diverging,
    # but not monotonically (the reciprocal gamma oscillates through its
    # zeros), so truncate at the global minimum over a fixed horizon
    ks = np.arange(1, 201)
    terms = -rgamma(beta - alpha * ks) * z ** (-ks.astype(float))
    mags = np.abs(terms)
    mags[mags == 0.0] = np.inf
    stop = int(np.argmin(mags)) + 1
    return float(math.fsum(terms[:stop]))


@pytest.fixture(scope="session")
def const_weight():
    return make_constant_weight(1.0, alpha0=0.5, delta=0.25)


@pytest.fixture(scope="session")
def box_half():
    return make_box_weight(0.5, 0.02)


@pytest.fixture(scope="session")
def tapered():
    return make_tapered_weight(level=1.0, plateau_end=0.75, support_end=0.8,
                               alpha0=0.75, delta=0.5)


@pytest.fixture(scope="session")
def basis_pi():
    return build_exact_dirichlet(np.pi, 32)
