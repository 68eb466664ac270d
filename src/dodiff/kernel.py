"""Per-mode relaxation kernels by contour and real-axis quadrature.

For each eigenvalue lambda_n the solution operators act diagonally through
two inverse-Laplace kernels,

    E_n(t) = (1/2 pi i) int_gamma  w(s)/(s w(s) + lambda_n) e^(st) ds,
    G_n(t) = (1/2 pi i) int_gamma     1/(s w(s) + lambda_n) e^(st) ds,

which generalize the constant-order pair E_a(-lambda t^a) and
t^(a-1) E_{a,a}(-lambda t^a); the Mittag-Leffler evaluator for that limit
is a test reference and lives with the tests.  The contour gamma(eps, theta)
consists of two rays at angles +-theta in [2 pi/3, pi) joined by an arc of
radius eps; the kernels are independent of any admissible (eps, theta),
which the tests exploit as an internal consistency check.

The same contour, with s^-k in place of w(s), gives the time integrals of G,

    K_k(t) = (1/2 pi i) int_gamma s^(-k)/(s w(s) + lambda_n) e^(st) ds,

whose panel differences the solver uses for product integration of the
source term (K_1(t) = int_0^t G_n, K_2(t) = int_0^t K_1).  Every kernel
comes out of one quadrature assembly, ``eval_kernels``, which computes the
kernels its caller names; only the factor at each node differs.  E is kept
on its own factor rather than written as 1 - lambda_n K_1, which would
cancel catastrophically once lambda_n t^alpha is large.

Independently, squeezing the contour onto the branch cut yields the
real-axis representation

    G_n(t) = (1/pi) int_0^inf Phi_n(r) e^(-rt) dr,
    Phi_n(r) = N(r) / ((D(r) + lambda_n)^2 + N(r)^2),

where D + iN is the upper-side cut limit of s w(s).  Phi_n is the spectral
density of the mode: non-negative, integrable against 1/r, and the route is
fully independent of the contour quadrature.  D + iN does not depend on the
mode, so the route is one block: the cut value is evaluated once on a grid
in log r shared by all modes and times, each mode adds its lambda_n, and
e^(-rt) enters as a matrix.  The tail-bound products lambda_n int Phi_n/r dr
likewise share one grid across modes, built by the same rule (``_log_grid``);
each is pi G^_n(0) lambda_n = pi up to the grid's cut at log r = -1000.

Only the upper ray and upper half-arc are quadratured; the lower half is
their complex conjugate, which halves the cost and forces a real result.

Kernels and tail-bound products are evaluated from eigenvalue vectors; the
entry points taking 1-based mode indices of a basis are ``eval_Gn_spectral``,
``an_threshold``, ``check_g0c`` and ``build_kernel_table``, which reject an
index outside the basis.

Everything here is pure; kernel tables are immutable once built and safe to
fill from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericError, PreconditionError
from .spectral import SpectralBasis
from .weight import WeightFunction, monotone_root

_LN10 = math.log(10.0)

# Gauss-Legendre order per panel, on the contour ray and on the log r grids
_PANEL_ORDER = 16
# contour quadrature: ray panels graded geometrically by _PANEL_RATIO from
# the arc radius out to the cutoff, where the discarded tail is below
# 10^-_TAIL_DECADES; the arc takes one Gauss-Legendre rule
_PANEL_RATIO = 2.0
_ARC_COUNT = 24
# the angles theta in [lo, hi) whose ray oscillation these panels resolve:
# kernels stay within 1.1e-9 of theta = 3 pi/4 (t from 1e-6 to 1e4, lambda
# up to 64^2), but are 1.9e-7 off at 0.62 pi, 6e-5 at 0.59 pi, 21% at 0.56 pi
THETA_RANGE = (2.0 * np.pi / 3.0, np.pi)
_TAIL_DECADES = 16.0
# times per exponential block and entries per (modes x nodes) coefficient
# slice, bounding the working set of a kernel block: t = 1e-300 puts about
# 16k nodes on one band, which at 4096 modes would be 1 GB per array
_CHUNK = 64
_SLICE_ENTRIES = 2 ** 22
# spectral route: the top of its log r grid sits where r t_min reaches this
_SPECTRAL_UPPER_RT = 40.0


@lru_cache(maxsize=32)
def _gauss(order: int):
    """Gauss-Legendre rule of ``order`` nodes on [-1, 1]: cached, shared, read-only."""
    x, wq = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = wq.flags.writeable = False
    return x, wq


def gauss_on_edges(edges, order: int):
    """Gauss-Legendre nodes and weights of ``order`` points on every panel
    between consecutive edges, flattened panel by panel."""
    x, wq = _gauss(order)
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    wts = 0.5 * (hi - lo) * np.broadcast_to(wq, nodes.shape)
    return nodes.ravel(), wts.ravel()


@dataclass(frozen=True)
class KernelConfig:
    """The kernel setting a caller chooses: the contour angle ``theta`` in
    ``THETA_RANGE``.  Kernel values do not depend on it; everything else
    about the contour follows from the times."""

    theta: float = 3.0 * np.pi / 4.0

    def __post_init__(self):
        if not THETA_RANGE[0] <= self.theta < THETA_RANGE[1]:
            raise PreconditionError(f"theta = {self.theta} outside [2 pi/3, pi)")


_DEFAULT_CONFIG = KernelConfig()


def _positive(values, arg: str, symbol: str) -> np.ndarray:
    """``values`` as a non-empty 1-d float array of positive entries."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.size == 0:
        raise PreconditionError(f"{arg} is empty")
    bad = values[~(values > 0.0)]
    if bad.size:
        raise DomainError(f"{arg}: {symbol} = {bad[0]} must be positive")
    return values


@dataclass(frozen=True)
class ContourSpec:
    """A concrete deformed contour: rays at +-theta from radius epsilon out
    to the cutoff, plus the joining arc.  The cutoff carries a truncation
    certificate: the discarded ray tail is bounded by exp(cutoff*t*cos(theta)),
    required to be below 1e-16.  The node counts follow from these four
    values and the module's fixed quadrature orders."""

    epsilon: float
    theta: float
    t: float
    ray_cutoff: float

    def __post_init__(self):
        KernelConfig(self.theta)  # checks the angle
        if not (0.0 < self.epsilon <= self.ray_cutoff):
            raise PreconditionError("need 0 < epsilon <= ray cutoff")
        if self.t <= 0.0:
            raise DomainError("contour is built for a positive time")
        # compared in log space with rounding slack: the cutoff rule lands
        # exactly on the certificate boundary
        if self.ray_cutoff * self.t * math.cos(self.theta) > -_TAIL_DECADES * _LN10 + 1e-9:
            raise NumericError(
                "truncation certificate unmet: exp(R t cos theta) > 1e-16")

    @property
    def n_panels(self) -> int:
        return max(1, int(np.ceil(np.log(self.ray_cutoff / self.epsilon)
                                  / np.log(_PANEL_RATIO))))

    @property
    def ray_count(self) -> int:
        return self.n_panels * _PANEL_ORDER

    @property
    def arc_count(self) -> int:
        return _ARC_COUNT

    def ray_quadrature(self):
        """Geometrically graded Gauss-Legendre nodes on [epsilon, cutoff]."""
        return gauss_on_edges(self.epsilon * (self.ray_cutoff / self.epsilon) ** (
            np.arange(self.n_panels + 1) / self.n_panels), _PANEL_ORDER)

    def arc_quadrature(self):
        """Gauss-Legendre nodes in angle on the upper half-arc [0, theta]."""
        x, wq = _gauss(_ARC_COUNT)
        return 0.5 * self.theta * (x + 1.0), 0.5 * self.theta * wq


def shared_contour(times, cfg: KernelConfig | None = None) -> ContourSpec:
    """One contour admissible for every time in ``times``, and the only
    radius and cutoff rule: eps = min(1/t_max, 1/4), and the cutoff meets
    the truncation certificate at t_min.  Kernel values are
    contour-independent, so sharing is exact.

    Any radius is admissible: the resolvent symbol s w(s) + lambda has no
    zeros off the cut (its modulus stays above C_beta * lambda everywhere),
    so nothing about the weight or the eigenvalues enters.  1/t_max keeps
    e^(st) of order one on the arc; below t_max = 4 the radius stays at 1/4.
    """
    times = _positive(times, "times", "t")
    theta = (cfg or _DEFAULT_CONFIG).theta
    epsilon = min(1.0 / float(times.max()), 0.25)
    cutoff = _TAIL_DECADES * _LN10 / (float(times.min()) * abs(math.cos(theta)))
    return ContourSpec(epsilon=epsilon, theta=theta, t=float(times.min()),
                       ray_cutoff=cutoff)


def choose_contour(t: float, cfg: KernelConfig | None = None) -> ContourSpec:
    """The shared contour of the single time t."""
    return shared_contour([t], cfg)


def eval_kernel_row(t: float, lambdas, w: WeightFunction,
                    spec: ContourSpec | None = None,
                    cfg: KernelConfig | None = None):
    """(E_n(t), G_n(t)) for a whole eigenvalue vector at one time."""
    E, G = eval_kernel_block([t], lambdas, w, cfg=cfg, spec=spec)
    return E[0], G[0]


def eval_kernel_block(times, lambdas, w: WeightFunction,
                      cfg: KernelConfig | None = None,
                      spec: ContourSpec | None = None):
    """(E, G) arrays of shape (n_times, n_modes) over a whole time grid."""
    return eval_kernels(times, lambdas, w, ("E", "G"), cfg=cfg, spec=spec)


# each kernel's factor on ds/(s w(s) + lambda) at a contour node, from the
# node s and its symbol s w(s); K2 is (1/s)^2, not 1/s^2: the cutoff of
# t = 1e-300 puts |s|^2 past the float range
_FACTORS = {
    "E": lambda s, sw: sw / s,
    "G": lambda s, sw: 1.0,
    "K1": lambda s, sw: 1.0 / s,
    "K2": lambda s, sw: (1.0 / s) ** 2,
}


def eval_kernels(times, lambdas, w: WeightFunction, kernels,
                 cfg: KernelConfig | None = None,
                 spec: ContourSpec | None = None):
    """The contour quadrature behind every kernel: one array of shape
    (n_times, n_modes) per name in ``kernels`` (E, G, K1 or K2), in order.

    All times share one contour, so the symbol is evaluated once and only
    the exponential factor varies; times are chunked, and modes sliced, to
    bound the working set.  The kernels differ only in the factor
    multiplying ds/(s w(s) + lambda) at each node (``_FACTORS``), so each
    name costs one product per mode slice and one matmul per time chunk.
    The arc encloses s = 0, so the poles of s^-k need no separate contour.
    """
    kernels = tuple(kernels)
    if not (kernels and set(kernels) <= set(_FACTORS)
            and len(set(kernels)) == len(kernels)):
        raise PreconditionError(f"kernels = {kernels!r} must name one or more "
                                f"of {', '.join(_FACTORS)}, none twice")
    times = _positive(times, "times", "t")
    lambdas = _positive(lambdas, "lambdas", "lambda")
    out = [np.empty((len(times), len(lambdas))) for _ in kernels]
    if spec is None and times.max() > 1e3 * times.min():
        # wide spans would force very long ray gradings; band the grid so
        # each shared contour covers at most three decades
        order = np.argsort(times)
        lo = 0
        while lo < len(order):
            hi = np.searchsorted(times[order], 1e3 * times[order[lo]], side="right")
            idx = order[lo:hi]
            for dst, band in zip(out, eval_kernels(times[idx], lambdas, w,
                                                   kernels, cfg)):
                dst[idx] = band
            lo = hi
        return tuple(out)
    if spec is None:
        spec = shared_contour(times, cfg)

    # upper ray, then upper half-arc; ds = e^(i theta) dr on the ray and
    # i s dbeta on the arc, absorbed into the node weights
    r, wr = spec.ray_quadrature()
    beta, wb = spec.arc_quadrature()
    logs = np.concatenate([np.log(r) + 1j * spec.theta,
                           np.log(spec.epsilon) + 1j * beta])
    s = np.exp(logs)
    sw = w.power_moments(logs)
    ds = np.concatenate([wr * np.exp(1j * spec.theta), 1j * s[len(r):] * wb])
    factors = [_FACTORS[name](s, sw) for name in kernels]

    step = max(1, _SLICE_ENTRIES // len(s))
    for m in range(0, len(lambdas), step):
        denom = np.add.outer(lambdas[m:m + step], sw)  # (modes, nodes)
        base = np.divide(ds, denom, out=denom)
        # the last product overwrites the base, which no name reads after it
        coefs = [base * f for f in factors[:-1]]
        base *= factors[-1]
        coefs.append(base)
        for lo in range(0, len(times), _CHUNK):
            ex = np.exp(np.multiply.outer(times[lo:lo + _CHUNK], s))
            for dst, coef in zip(out, coefs):
                # the lower half is the conjugate of the upper, so the closed
                # contour gives (a - conj a) / (2 pi i) = Im(a) / pi
                dst[lo:lo + _CHUNK, m:m + step] = (ex @ coef.T).imag / np.pi
    return tuple(out)


def _mode_lambda(basis: SpectralBasis, n: int) -> float:
    if not (1 <= n <= basis.n_modes):
        raise DomainError(f"mode index n = {n} outside 1..{basis.n_modes}")
    return float(basis.eigenvalues[n - 1])


def _phi_on_cut(lambdas, logr, w: WeightFunction) -> np.ndarray:
    """Phi for every eigenvalue (rows) at every log r (columns), from one
    evaluation of the cut value; log r keeps far tails from underflowing.
    Each column is scaled by a power of two 2^-e <= min(1, 1/|D + iN|), so
    no square overflows; being exact, it moves no value that did not overflow."""
    cut = w.power_moments(np.asarray(logr, dtype=float) + 1j * np.pi)
    e = np.maximum(np.frexp(np.abs(cut))[1], 0)
    num = np.ldexp(cut.imag, -e)
    den = np.ldexp(np.asarray(lambdas, dtype=float)[:, None], -e)
    den += np.ldexp(cut.real, -e)
    den *= den
    den += num * num
    np.divide(num, den, out=den)
    return np.ldexp(den, -e, out=den)


def _log_grid(top: float, low: float = 0.0, high: float = 16.0):
    """Gauss-Legendre nodes and weights in u = log r from ``top`` down to
    -1000, the only real-axis grid.  Panel width max(3/8, (low - u)/16,
    (u - high)/16) at the upper edge u is 3/8 on the flat band
    [low - 6, high + 6], which holds the peaks of Phi_n for lambda_n up to
    about 1.6e8."""
    pts = [top]
    while pts[-1] > -1000.0:
        u = pts[-1]
        pts.append(max(u - max(0.375, (low - u) / 16.0, (u - high) / 16.0), -1000.0))
    return gauss_on_edges(pts[::-1], _PANEL_ORDER)


def eval_spectral_block(times, lambdas, w: WeightFunction) -> np.ndarray:
    """G of shape (n_times, n_modes) through the real-axis density,
    G_n(t) = (1/pi) int Phi_n(r) e^(-rt) dr.

    One ``_log_grid`` serves every mode and time, with its top where r t_min
    reaches 40, low = min(0, -log t_max) and high = max(16, -log t_min): the
    bump of r e^(-rt) at u = -log t then lies in the flat band for every
    time.  Below the bottom at -1000, e^u underflows, so nothing is left to
    certify there.  The route has no contour, so it takes no kernel setting.
    """
    times = _positive(times, "times", "t")
    lambdas = _positive(lambdas, "lambdas", "lambda")
    low, high = -math.log(times.max()), -math.log(times.min())
    u, wu = _log_grid(math.log(_SPECTRAL_UPPER_RT) + high, min(0.0, low),
                      max(16.0, high))
    phi = _phi_on_cut(lambdas, u, w)
    # e^u capped at e^709 / t, beyond which e^(u - t e^u) is 0 either way
    # and t e^u would overflow
    rate = np.exp(np.minimum(u, 709.0 - np.log(times)[:, None])) * times[:, None]
    decay = np.exp(u - rate) * wu
    return decay @ phi.T / np.pi


def eval_Gn_spectral(n: int, t: float, basis: SpectralBasis, w: WeightFunction) -> float:
    """G_n(t) through the real-axis density, one entry of the spectral block."""
    return float(eval_spectral_block([t], [_mode_lambda(basis, n)], w)[0, 0])


# --- spectral-density tail machinery ------------------------------------------

def an_threshold(n: int, basis: SpectralBasis, w: WeightFunction) -> float:
    """The radius a_n where int_0^1 a^alpha mu(alpha) d(alpha) = lambda_n / 2.

    The moment map is strictly increasing, so the root is unique; solved by
    a bracketed root in u = log a with residual certified below
    1e-10 * lambda_n: the reference for ``_log_threshold_bound``.
    """
    lam = _mode_lambda(basis, n)
    target = lam / 2.0

    def moment(u):
        return float(w.power_moments(np.array([u + 0.0j]))[0].real)

    u = monotone_root(moment, target, -300.0, 300.0, 1e-14)
    if u is None:
        raise NumericError(f"a_n bracket expansion failed for lambda = {lam}")
    a = float(math.exp(u))
    if abs(moment(u) - target) > 1e-10 * lam:
        raise NumericError(f"a_n residual certificate unmet at lambda = {lam}")
    return a


def _log_threshold_bound(lam: float, w: WeightFunction) -> float:
    """max(0, log(lam / (mu(alpha0) delta)) / (alpha0 - delta)) >= log a for
    a of ``an_threshold``, where int_0^1 a^alpha mu = lam / 2: for a >= 1 the
    window gives that integral at least (mu(alpha0)/2) delta a^(alpha0 - delta)."""
    return max(0.0, math.log(lam / (w.mu_at_alpha0 * w.delta))
               / (w.alpha0 - w.delta))


def tail_bound_products(lambdas, w: WeightFunction) -> np.ndarray:
    """The products lambda_n * int_0^inf Phi_n(r)/r dr for eigenvalues lambda_n.

    Their boundedness in n is the testable content of the spectral-density
    tail bound; it requires the upper support cutoff alpha1.  All modes share
    one ``_log_grid`` from ``_log_threshold_bound`` of the largest eigenvalue
    plus 300, capped at 700 so that e^u stays finite: a narrow window can put
    the bound far above log a, and the cap still clears log a + 300 for any
    log a <= 400.  The integral is pi G^_n(0) = pi/lambda_n, so each product is
    pi but for the cut at -1000, a known shortfall of at most
    mu(0)/(1000 lambda_n): the integrand decays like mu(0)/(lambda_n u^2).
    """
    if w.alpha1 is None:
        raise PreconditionError(
            "tail-bound check requires a weight with upper support cutoff alpha1")
    lams = _positive(lambdas, "lambdas", "lambda")
    u, wu = _log_grid(min(_log_threshold_bound(float(lams.max()), w) + 300.0, 700.0))
    return lams * (_phi_on_cut(lams, u, w) @ wu)


def check_g0c(n: int, basis: SpectralBasis, w: WeightFunction) -> float:
    """The tail-bound product lambda_n * int_0^inf Phi_n(r)/r dr of mode n."""
    return float(tail_bound_products([_mode_lambda(basis, n)], w)[0])


# --- sampled kernel tables -----------------------------------------------------

@dataclass(frozen=True)
class KernelTable:
    """Contour kernels (E_n, G_n) sampled per mode (rows) and time (columns)."""

    modes: np.ndarray
    times: np.ndarray
    E: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        for name, kind in (("modes", int), ("times", float), ("E", float), ("G", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=kind))
        shape = (len(self.modes), len(self.times))
        if self.E.shape != shape or self.G.shape != shape:
            raise PreconditionError("kernel table shape mismatch")
        if not (np.all(np.isfinite(self.E)) and np.all(np.isfinite(self.G))):
            raise PreconditionError("kernel table holds non-finite entries")
        if np.any(self.G <= 0.0):
            raise PreconditionError("positivity invariant violated: G_n <= 0")


def build_kernel_table(basis: SpectralBasis, w: WeightFunction, times,
                       modes=None, cfg: KernelConfig | None = None) -> KernelTable:
    """The contour table of ``modes`` (default: all) at ``times``: the
    transpose of one ``eval_kernel_block``, the solver's banded contour."""
    times = _positive(times, "times", "t")
    if modes is None:
        modes = np.arange(1, basis.n_modes + 1)
    modes = _positive(modes, "modes", "n").astype(int)
    lams = np.array([_mode_lambda(basis, int(m)) for m in modes])
    E, G = eval_kernel_block(times, lams, w, cfg=cfg)
    return KernelTable(modes=modes, times=times, E=E.T, G=G.T)
