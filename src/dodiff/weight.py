"""Distributed-order weight functions and their Laplace symbol.

The order density ``mu`` is a piecewise polynomial on [0, 1].  Its Laplace
symbol is

    w(s)   = int_0^1 s^(alpha-1) mu(alpha) d(alpha),
    s w(s) = int_0^1 s^alpha     mu(alpha) d(alpha),

with the principal branch of log s, branch cut along (-inf, 0].  Every
weight carries a concentration certificate (alpha0, delta, mu_at_alpha0):
the density stays above mu(alpha0)/2 on the open window
(alpha0 - delta, alpha0), which is what drives all lower bounds on the
resolvent symbol s*w(s) + lambda.  An optional upper cutoff alpha1 certifies
that mu vanishes on (alpha1, 1).

The envelope

    zeta(r) = (r - 1)/log r     (continuous, = 1 at r = 1, increasing)

bounds |s w(s)| <= sup|mu| * zeta(|s|), and so |w(s)| <= sup|mu| * zeta(|s|)/|s|.
zeta is strictly monotone, so it has an inverse, ``zeta_inv``; the contour
needs none, since any radius is admissible.

The symbol is exact per polynomial piece p on [a, b], h = b - a:

    int_a^b p(alpha) e^((alpha + offset) L) d(alpha)
        = h e^((a + offset) L) sum_j (-h)^j p^(j)(b) phi_(j+1)(h L),

with the exponential-integrator functions phi_1(z) = (e^z - 1)/z,
phi_(k+1)(z) = (phi_k(z) - 1/k!)/z (Hochbruck and Ostermann, Acta Numerica
19, 2010): a Taylor series below |hL| = 2, the recurrence above it.

All functions here are pure and the weight objects are immutable, so
concurrent use from any number of workers is safe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import textio
from .errors import DomainError, NumericError, PreconditionError

# Taylor terms below |hL| = 2, where the first one dropped is under 2^28/29!
# of the leading one; switching at |hL| = 1 loses 1.2e-12 on a degree-10 piece
_TAYLOR_TERMS = 28
_TAYLOR_RADIUS = 2.0


class NearCutWarning(UserWarning):
    """Evaluation requested very close to the branch cut (|arg s| > 3.1)."""


def _piece_moment(logs, a, b, offset, scaled, taylor):
    """h e^((a + offset) L) sum_j scaled[j] phi_(j+1)(hL) over the piece
    [a, b], from the Taylor coefficients (highest degree first) of the sum
    or the recurrence on e^((a + offset) L) phi_k, started from the two end
    exponentials so that one underflowing never meets phi_1 overflowing.
    An end exponent's real part past 700 is taken out of every exponent and
    multiplied back at the end, so no finite value meets an overflow."""
    z = (b - a) * logs
    shift = np.maximum(np.maximum((a + offset) * logs.real,
                                  (b + offset) * logs.real) - 700.0, 0.0)
    out = np.empty_like(z)
    small = np.abs(z) < _TAYLOR_RADIUS
    if small.any():
        zs = z[small]
        acc = np.zeros_like(zs)
        for c in taylor:
            acc = acc * zs + c
        out[small] = np.exp((a + offset) * logs[small] - shift[small]) * acc
    if not small.all():
        zl, ll, sl = z[~small], logs[~small], shift[~small]
        start = np.exp((a + offset) * ll - sl)
        psi = (np.exp((b + offset) * ll - sl) - start) / zl
        acc = scaled[0] * psi
        for k in range(1, len(scaled)):
            psi = (psi - start / math.factorial(k)) / zl
            acc += scaled[k] * psi
        out[~small] = acc
    out *= b - a
    big = shift > 0.0
    if big.any():
        out[big] *= np.exp(shift[big])
    return out


def _extremes(c, a, b):
    """Least and largest value of the polynomial c on [a, b]."""
    # polyroots drops zero top coefficients of p' itself (coeffs = 1 0 0)
    x = npoly.polyroots(npoly.polyder(c)).real
    vals = npoly.polyval(np.concatenate(([a, b], x[(a < x) & (x < b)])), c)
    return float(vals.min()), float(vals.max())


@dataclass(frozen=True)
class WeightFunction:
    """Piecewise-polynomial order density with its concentration certificate.

    ``breakpoints`` has K+1 sorted entries spanning [0, 1]; ``coeffs[k]``
    holds the polynomial coefficients (low to high degree, in the global
    order variable) valid on [breakpoints[k], breakpoints[k+1]).  At a
    breakpoint the right-limit value applies.  ``mu_at_alpha0`` is stored
    explicitly rather than recomputed: for an essentially-bounded density
    the pointwise value at alpha0 is a convention, and the certificate makes
    that convention explicit.

    The certificate (mu >= 0, mu >= mu_at_alpha0/2 on the window, mu = 0
    above alpha1) is checked exactly per piece, with a slack of a few
    rounding units of the size sum |c_k| x^k of the piece's terms, never
    below 1e-12; a given ``sup_norm`` is only checked, then replaced by the
    largest value of mu.
    """

    breakpoints: np.ndarray
    coeffs: tuple
    alpha0: float
    delta: float
    mu_at_alpha0: float
    sup_norm: float | None = None
    alpha1: float | None = None

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        cf = tuple(np.atleast_1d(np.asarray(c, dtype=float)) for c in self.coeffs)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", cf)
        if bp.ndim != 1 or len(bp) < 2 or len(cf) != len(bp) - 1:
            raise PreconditionError("breakpoints/coeffs shape mismatch")
        scalars = [self.alpha0, self.delta, self.mu_at_alpha0,
                   *(v for v in (self.sup_norm, self.alpha1) if v is not None)]
        if not all(np.all(np.isfinite(a)) for a in (bp, *cf, scalars)):
            raise PreconditionError("weight fields must be finite")
        if not (abs(bp[0]) < 1e-15 and abs(bp[-1] - 1.0) < 1e-15):
            raise PreconditionError("breakpoints must span [0, 1]")
        if np.any(np.diff(bp) <= 0):
            raise PreconditionError("breakpoints must be strictly increasing")
        if not (0.0 < self.alpha0 < 1.0):
            raise PreconditionError(f"alpha0 = {self.alpha0} outside (0, 1)")
        if not (0.0 < self.delta < self.alpha0):
            raise PreconditionError(f"delta = {self.delta} outside (0, alpha0)")
        if not self.mu_at_alpha0 > 0.0:
            raise PreconditionError("mu_at_alpha0 must be positive")
        if self.alpha1 is not None and not (self.alpha0 < self.alpha1 < 1.0):
            raise PreconditionError(f"alpha1 = {self.alpha1} outside (alpha0, 1)")
        # (violation, open interval, bounds on mu there); no alpha1: empty
        lo, hi = self.alpha0 - self.delta, self.alpha0
        claim = math.inf if self.sup_norm is None else self.sup_norm
        conditions = [("density invariant violated: mu < 0", 0.0, 1.0, 0.0, math.inf),
                      (f"sup_norm invariant violated: mu > sup_norm = {claim}",
                       0.0, 1.0, -math.inf, claim),
                      ("concentration invariant violated: mu < mu(alpha0)/2 on "
                       f"({lo}, {hi})", lo, hi, 0.5 * self.mu_at_alpha0, math.inf),
                      ("upper-cutoff invariant violated: mu != 0 on (alpha1, 1)",
                       self.alpha1 or 1.0, 1.0, 0.0, 0.0)]
        wholes = [_extremes(c, a, b) for a, b, c in zip(bp[:-1], bp[1:], cf)]
        # per nonzero piece: its ends, (-h)^j p^(j)(b) and the Taylor
        # coefficients sum_j (-h)^j p^(j)(b) / (m + j + 1)! of the phi sum
        pieces = []
        for k, (a, b, c, whole) in enumerate(zip(bp[:-1], bp[1:], cf, wholes)):
            for name, x0, x1, floor, ceil in conditions:
                if a < x1 and b > x0:
                    u, v = max(a, x0), min(b, x1)
                    least, most = whole if (u, v) == (a, b) else _extremes(c, u, v)
                    # Horner rounds mu by under 2 deg eps sum |c_k| x^k, at
                    # most at v; twice that covers the rounded roots of p'
                    slack = max(1e-12, 4 * len(c) * np.finfo(float).eps
                                * npoly.polyval(v, np.abs(c)))
                    if least < floor - slack or most > ceil + slack:
                        raise PreconditionError(f"{name}: mu spans [{least!r}, {most!r}]"
                                                f" on piece {k} [{a}, {b}]")
            if np.any(c != 0.0):
                scaled = tuple((a - b) ** j * npoly.polyval(b, npoly.polyder(c, j))
                               for j in range(len(c)))
                taylor = tuple(sum(g / math.factorial(m + j + 1) for j, g in enumerate(scaled))
                               for m in reversed(range(_TAYLOR_TERMS)))
                pieces.append((a, b, scaled, taylor))
        object.__setattr__(self, "sup_norm", max(most for _, most in wholes))
        object.__setattr__(self, "_pieces", tuple(pieces))

    def _eval_many(self, alpha: np.ndarray) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=float)
        out = np.empty_like(alpha)
        idx = np.clip(np.searchsorted(self.breakpoints, alpha, side="right") - 1,
                      0, len(self.coeffs) - 1)
        for k, c in enumerate(self.coeffs):
            out[idx == k] = npoly.polyval(alpha[idx == k], c)
        return out

    def power_moments(self, logs, offset: float = 0.0):
        """Vectorized ``int_0^1 exp((alpha + offset) * logs) mu(alpha) d(alpha)``.

        ``logs`` is an array of (complex) logarithms of the evaluation
        points; every symbol evaluation reduces to this sum of exact piece
        integrals.
        """
        logs = np.atleast_1d(np.asarray(logs, dtype=complex))
        out = np.zeros(logs.shape, dtype=complex)
        for a, b, scaled, taylor in self._pieces:
            out += _piece_moment(logs, a, b, offset, scaled, taylor)
        return out


def make_constant_weight(value: float = 1.0, alpha0: float = 0.5,
                         delta: float | None = None) -> WeightFunction:
    """Constant density mu = value on [0, 1]."""
    if value <= 0.0:
        raise DomainError("constant weight must be positive")
    if delta is None:
        delta = alpha0 / 2.0
    return WeightFunction(
        breakpoints=np.array([0.0, 1.0]),
        coeffs=(np.array([value]),),
        alpha0=alpha0,
        delta=delta,
        mu_at_alpha0=value,
    )


def make_box_weight(alpha0: float, h: float) -> WeightFunction:
    """Unit-mass box density (1/h) on [alpha0 - h, alpha0].

    This is the bounded approximant of a point mass at alpha0; letting
    h -> 0 recovers the constant-order dynamics at order alpha0.
    """
    if not (0.0 < h < alpha0 < 1.0):
        raise DomainError(f"box weight needs 0 < h < alpha0 < 1, got ({alpha0}, {h})")
    return WeightFunction(
        breakpoints=np.array([0.0, alpha0 - h, alpha0, 1.0]),
        coeffs=(np.array([0.0]), np.array([1.0 / h]), np.array([0.0])),
        alpha0=alpha0,
        delta=h,
        mu_at_alpha0=1.0 / h,
        # the density vanishes beyond alpha0, so any cutoff in (alpha0, 1) is valid
        alpha1=0.5 * (alpha0 + 1.0),
    )


# each [weight] type: its builder, the keys it needs and the keys it may
# take.  A key left out takes the builder's own default.
_WEIGHT_TYPES = {
    "constant": (make_constant_weight, (), ("value", "alpha0", "delta")),
    "box": (make_box_weight, ("alpha0", "h"), ()),
    "piecewise": (WeightFunction, ("breakpoints", "coeffs", "alpha0", "delta",
                                   "mu_at_alpha0"), ("sup_norm", "alpha1")),
}
# coeffs holds one array per polynomial piece, joined with ";"
_ARRAY_KEYS = {"breakpoints": textio.parse_array,
               "coeffs": lambda text, name: [textio.parse_array(part, name)
                                             for part in text.split(";")]}


def weight_from_mapping(body: dict[str, str]) -> WeightFunction:
    """Build a weight from the key-value document body (section ``[weight]``).

    ``type`` defaults to constant; the other keys allowed depend on it and
    any other key is rejected.  An error of the builder is prefixed with
    ``[weight]``."""
    kind = body.get("type", "constant").strip().lower()
    if kind not in _WEIGHT_TYPES:
        raise PreconditionError(f"weight.type = {kind!r} is not one of "
                                f"{', '.join(_WEIGHT_TYPES)}")
    builder, required, optional = _WEIGHT_TYPES[kind]
    for key in body:
        if key != "type" and key not in required + optional:
            raise PreconditionError(
                f"unknown config key weight.{key} for a {kind} weight")
    for key in required:
        if key not in body:
            raise PreconditionError(f"{kind} weight missing key weight.{key}")
    args = {key: _ARRAY_KEYS.get(key, textio.parse_number)(body[key], f"weight.{key}")
            for key in required + optional if key in body}
    try:
        return builder(**args)
    except (DomainError, PreconditionError) as exc:
        raise type(exc)(f"[weight] {exc}") from None


def make_tapered_weight(level: float = 1.0, plateau_end: float = 0.75,
                        support_end: float = 0.8, alpha0: float | None = None,
                        delta: float | None = None) -> WeightFunction:
    """Plateau density with a linear taper to zero and an upper support cutoff.

    mu = level on [0, plateau_end], linear down to 0 at support_end, 0 after.
    The cutoff certificate alpha1 = support_end enables the spectral-density
    tail bound checks.
    """
    if not (0.0 < plateau_end < support_end < 1.0) or level <= 0.0:
        raise DomainError("need 0 < plateau_end < support_end < 1 and level > 0")
    a0 = plateau_end if alpha0 is None else alpha0
    dl = (2.0 * a0 / 3.0) if delta is None else delta
    slope = -level / (support_end - plateau_end)
    # taper piece written in the global variable: level + slope*(alpha - plateau_end)
    taper = np.array([level - slope * plateau_end, slope])
    return WeightFunction(
        breakpoints=np.array([0.0, plateau_end, support_end, 1.0]),
        coeffs=(np.array([level]), taper, np.array([0.0])),
        alpha0=a0,
        delta=dl,
        mu_at_alpha0=level,
        alpha1=support_end,
    )


def _checked_logs(s) -> np.ndarray:
    """log s for finite points off the cut (-inf, 0], warning once if any
    lies near it."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if not np.all(np.isfinite(s)):
        raise DomainError(f"s = {complex(s[~np.isfinite(s)][0])} is not finite")
    on_cut = (s.imag == 0.0) & (s.real <= 0.0)
    if np.any(on_cut):
        raise DomainError(
            f"s = {complex(s[on_cut][0])} lies on the branch cut (-inf, 0]")
    arg = np.abs(np.angle(s))
    if np.any(arg > 3.1):
        warnings.warn(f"evaluation near the branch cut: |arg s| = {arg.max():.4f}",
                      NearCutWarning, stacklevel=3)
    return np.log(s)


def eval_w(w: WeightFunction, s: complex) -> complex:
    """Laplace symbol w(s) = int_0^1 s^(alpha-1) mu(alpha) d(alpha)."""
    return complex(w.power_moments(_checked_logs(s), offset=-1.0)[0])


def eval_sw(w: WeightFunction, s: complex) -> complex:
    """s*w(s) = int_0^1 s^alpha mu(alpha) d(alpha), the resolvent symbol."""
    return complex(w.power_moments(_checked_logs(s), offset=0.0)[0])


def zeta_env(r):
    """zeta(r) = (r-1)/log r, continued by 1 at r = 1, for a scalar or array r."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError(f"zeta requires r > 0, got {np.min(r)}")
    x = r - 1.0
    # the series about r = 1 avoids the 0/0; each branch sees a stand-in
    near = np.abs(x) < 1e-6
    xs = np.where(near, x, 0.0)
    return np.where(near, 1.0 + xs / 2.0 - xs * xs / 12.0,
                    x / np.log(np.where(near, 2.0, r)))


def monotone_root(g, target: float, lo: float, hi: float, xtol: float):
    """The u in [lo, hi] where the increasing positive map g reaches target.

    Regula falsi with the Illinois step on log g(u) - log target: the maps
    solved here are power-like in e^u, so their logs are close to linear in
    u and the secant lands near the root; halving the value kept at a stale
    end keeps both ends moving.  Returns None when [lo, hi] does not bracket
    the root.
    """
    def f(u):
        return math.log(g(u)) - math.log(target)

    flo, fhi = f(lo), f(hi)
    if flo > 0.0 or fhi < 0.0:
        return None
    u, side = lo, 0
    while hi - lo > xtol + 4e-16 * abs(u):
        u = hi - fhi * (hi - lo) / (fhi - flo)
        fu = f(u)
        if fu == 0.0 or not lo < u < hi:
            break
        if fu > 0.0:
            hi, fhi, flo = u, fu, flo * (0.5 if side > 0 else 1.0)
            side = 1
        else:
            lo, flo, fhi = u, fu, fhi * (0.5 if side < 0 else 1.0)
            side = -1
    return u


def zeta_inv(y: float) -> float:
    """Inverse of the increasing envelope zeta, by a bracketed root in log r.

    The bracket spans log r in [-690, 690]; tiny targets (y below about
    1/690) come from weights with very large sup-norm and fall outside it.
    """
    if y <= 0.0:
        raise DomainError(f"zeta_inv requires y > 0, got {y}")
    # zeta(e^u) = expm1(u)/u, solved in u so that one step is scalar math
    u = monotone_root(lambda u: math.expm1(u) / u if u else 1.0, y,
                      -690.0, 690.0, 1e-13)
    if u is None:
        raise NumericError(f"zeta_inv target {y} outside the root bracket")
    return float(np.exp(u))


def symbol_bound_constants(w: WeightFunction) -> dict[str, float]:
    """Explicit constants of the symbol lower bounds implied by the certificate."""
    a0, d = w.alpha0, w.delta
    base = d * w.mu_at_alpha0 / 2.0
    return {
        "power_floor_right": base * np.cos(a0 * np.pi / 2.0),
        "power_floor_left": base * min(np.sin((a0 - d) * np.pi / 2.0), np.sin(a0 * np.pi)),
    }


def check_symbol_bounds(w: WeightFunction, s, lam, nu=0.5) -> dict[str, dict]:
    """Evaluate the four symbol inequalities on samples (s, lam, nu).

    ``s`` (off the cut), ``lam`` (> 0) and the interpolation exponent ``nu``
    in [0, 1] are arrays broadcast against each other, one sample per entry.
    Checked with their explicit constants:

      resolvent_floor:      |s w(s) + lam| >= C_beta * lam,
                            C_beta = 1 for |arg s| <= pi/2, sin(beta)/2 above;
      interpolation_bound:  lam^nu |s w|^{1-nu} / |s w + lam| <= 2/sin(beta),
                            only for |arg s| in (pi/2, pi);
      power_floor:          |s w(s) + lam| >= C min(|s|^{alpha0-delta}, |s|^{alpha0});
      symbol_envelope:      |s w(s)| <= sup|mu| * zeta(|s|).

    All samples go through one symbol evaluation.  Returns, per inequality,
    the worst (signed) slack = satisfied-side minus required-side, the index
    of the first sample achieving it, and the violation count; any negative
    slack is a violation.
    """
    s, lam, nu = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(s, dtype=complex), np.asarray(lam, dtype=float),
        np.asarray(nu, dtype=float)))
    if np.any(lam <= 0.0):
        raise DomainError(f"lambda must be positive, got {lam[lam <= 0.0][0]}")
    sw = w.power_moments(_checked_logs(s))
    beta, mod = np.abs(np.angle(s)), np.abs(s)
    lhs = np.abs(sw + lam)
    left = beta > np.pi / 2.0

    consts = symbol_bound_constants(w)
    c_pow = np.where(left, consts["power_floor_left"], consts["power_floor_right"])
    rows = np.arange(s.size)
    checks = {
        "resolvent_floor":
            (rows, lhs - np.where(left, np.sin(beta) / 2.0, 1.0) * lam),
        "interpolation_bound":
            (rows[left], 2.0 / np.sin(beta[left]) - lam[left] ** nu[left]
             * np.abs(sw[left]) ** (1.0 - nu[left]) / lhs[left]),
        "power_floor":
            (rows, lhs - c_pow * np.minimum(mod ** (w.alpha0 - w.delta),
                                            mod ** w.alpha0)),
        "symbol_envelope": (rows, w.sup_norm * zeta_env(mod) - np.abs(sw)),
    }
    report = {}
    for name, (idx, slack) in checks.items():
        i = int(np.argmin(slack)) if idx.size else None
        report[name] = {
            "min_slack": np.inf if i is None else float(slack[i]),
            "argmin": None if i is None else int(idx[i]),
            "violations": int(np.count_nonzero(slack < 0.0)),
            "count": int(idx.size),
        }
    return report
