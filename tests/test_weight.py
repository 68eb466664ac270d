import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

import dodiff.weight as wt
from dodiff import cli
from dodiff import (
    DomainError,
    NumericError,
    PreconditionError,
    WeightFunction,
    check_symbol_bounds,
    eval_sw,
    eval_w,
    make_box_weight,
    make_constant_weight,
    make_tapered_weight,
    zeta_env,
    zeta_inv,
)


def quad_oracle_sw(w, s, offset=0.0):
    """Adaptive Gauss-Kronrod reference for the symbol moments."""
    logs = np.log(complex(s))
    breaks = list(w.breakpoints)
    total = 0.0 + 0.0j
    for a, b in zip(breaks[:-1], breaks[1:]):
        f = lambda al: np.exp((al + offset) * logs) * w._eval_many(np.array([al]))[0]
        re, _ = quad(lambda al: f(al).real, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
        im, _ = quad(lambda al: f(al).imag, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
        total += re + 1j * im
    return total


class TestEvalMu:
    def test_constant(self, const_weight):
        assert const_weight._eval_many([0.5])[0] == pytest.approx(1.0)

    def test_box_outside(self):
        w = make_box_weight(0.75, 0.5)  # density 2 on [0.25, 0.75]
        assert w._eval_many([0.1])[0] == 0.0

    def test_box_inside(self):
        w = make_box_weight(0.75, 0.5)
        assert w._eval_many([0.5])[0] == pytest.approx(2.0)

    def test_breakpoint_right_limit(self):
        w = make_box_weight(0.75, 0.5)
        # at the lower breakpoint the right-hand piece applies
        assert w._eval_many([0.25])[0] == pytest.approx(2.0)
        # at the upper breakpoint the zero tail applies
        assert w._eval_many([0.75])[0] == 0.0


class TestSymbol:
    def test_w_at_one(self, const_weight):
        assert eval_w(const_weight, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_w_closed_form_real(self, const_weight):
        assert eval_w(const_weight, 2.0) == pytest.approx((2 - 1) / (2 * np.log(2)), abs=1e-14)

    def test_w_imaginary_vs_adaptive_oracle(self, const_weight):
        got = eval_w(const_weight, 1j)
        ref = quad_oracle_sw(const_weight, 1j, offset=-1.0)
        assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_sw_closed_form(self, const_weight):
        for r in (2.0, 5.0, 37.0):
            assert eval_sw(const_weight, r) == pytest.approx((r - 1) / np.log(r), rel=1e-13)

    def test_sw_ray_vs_adaptive_oracle(self, const_weight):
        s = 10.0 * np.exp(1j * 3 * np.pi / 4)
        got = eval_sw(const_weight, s)
        ref = quad_oracle_sw(const_weight, s)
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_box_sw_closed_form(self):
        w = make_box_weight(0.5, 0.05)
        r = 4.0
        ref = r ** 0.5 * (1 - r ** -0.05) / (0.05 * np.log(r))
        assert eval_sw(w, r) == pytest.approx(ref, rel=1e-12)

    def test_cut_rejected(self, const_weight):
        with pytest.raises(DomainError):
            eval_w(const_weight, -1.0)
        with pytest.raises(DomainError):
            eval_sw(const_weight, 0.0)

    @pytest.mark.parametrize("s", [complex(np.nan, 1.0), complex(np.inf, 0.0)])
    def test_non_finite_rejected(self, const_weight, s):
        with pytest.raises(DomainError, match="not finite"):
            eval_w(const_weight, s)
        with pytest.raises(DomainError, match="not finite"):
            check_symbol_bounds(const_weight, s, 1.0)

    def test_near_cut_flagged(self, const_weight):
        with pytest.warns(wt.NearCutWarning):
            eval_sw(const_weight, np.exp(1j * 3.13))


def exact_moment(w, L, offset=0.0):
    """``int_0^1 exp((alpha + offset) L) mu(alpha) d(alpha)`` from the exact
    antiderivative sum_m (-1)^m p^(m)(alpha) e^((alpha + offset) L) / L^(m+1)
    of each piece, in 50 digits plus the ones its cancellation near L = 0
    costs."""
    total = mp.mpc(0)
    for k, c in enumerate(w.coeffs):
        if np.all(c == 0.0):
            continue
        a, b = (mp.mpf(float(x)) for x in w.breakpoints[k:k + 2])
        if L == 0:
            total += sum(mp.mpf(float(ci)) * (b ** (i + 1) - a ** (i + 1)) / (i + 1)
                         for i, ci in enumerate(c))
            continue
        lost = len(c) * max(0, math.ceil(-math.log10(abs(L))))
        with mp.workdps(50 + lost):
            Lm = mp.mpc(L.real, L.imag)
            # p^(m), highest degree first, differentiated exactly in mp
            derivs = [[mp.mpf(float(ci)) for ci in c[::-1]]]
            for _ in c[1:]:
                d = derivs[-1]
                derivs.append([ci * (len(d) - 1 - i) for i, ci in enumerate(d[:-1])])

            def antiderivative(al):
                return mp.exp((al + offset) * Lm) * sum(
                    (-1) ** m * mp.polyval(d, al) / Lm ** (m + 1)
                    for m, d in enumerate(derivs))

            total += antiderivative(b) - antiderivative(a)
    return complex(total)


def cubic_weight():
    # a cubic piece between two others, one of them zero
    c = np.array([0.3, -1.1, 2.0, 1.5])
    return WeightFunction(np.array([0.0, 0.2, 0.9, 1.0]),
                          (np.array([1.0]), c, np.array([0.0])), alpha0=0.5,
                          delta=0.1, mu_at_alpha0=float(npoly.polyval(0.5, c)),
                          sup_norm=2.1)


def degree10_weight():
    c = np.array([1.0, 0.5, -0.3, 0.2, 0.1, -0.05, 0.02, 0.01, -0.005, 0.002, 0.001])
    return WeightFunction(np.array([0.0, 1.0]), (c,), alpha0=0.5, delta=0.2,
                          mu_at_alpha0=float(npoly.polyval(0.5, c)), sup_norm=2.0)


def moment_points(w):
    """Points on the cut (u + i pi, u from -1000 to 40), scattered points
    with |Re L| up to 1000, |hL| either side of 1 and of the Taylor radius 2
    for every piece width h, and points at and near 0."""
    rng = np.random.default_rng(5)
    widths = [b - a for a, b, c in zip(w.breakpoints[:-1], w.breakpoints[1:],
                                       w.coeffs) if np.any(c != 0.0)]
    turns = np.exp(1j * np.array([0.0, 1.0, 2.0, 3.1]))
    return np.concatenate([
        np.linspace(-1000.0, 40.0, 53) + 1j * np.pi,
        rng.uniform(-1000.0, 1000.0, 30) + 1j * rng.uniform(-np.pi, np.pi, 30),
        rng.uniform(-60.0, 60.0, 30) + 1j * rng.uniform(-np.pi, np.pi, 30),
        *[np.outer([1.0 - 1e-9, 1.0 + 1e-9, 2.0 - 1e-9, 2.0 + 1e-9],
                   turns).ravel() / h for h in widths],
        [0.0, 1e-12, 1e-6j, 1e-3 * (1.0 - 1.0j)],
    ])


@pytest.mark.parametrize("offset", [0.0, -1.0])
@pytest.mark.parametrize("family", ["const_weight", "box_half", "tapered",
                                    "cubic", "degree10"])
def test_power_moments_exact_per_point(family, offset, request):
    # relative to the exact value wherever it is a normal double with a
    # factor |L| of headroom (the end value e^((b + offset) L) is formed
    # before its division by hL); 4e-16 |L| is what rounding (a + offset) L
    # alone costs
    w = {"cubic": cubic_weight, "degree10": degree10_weight}.get(
        family, lambda: request.getfixturevalue(family))()
    logs = moment_points(w)
    with np.errstate(over="ignore", invalid="ignore"):  # points past the range
        got = w.power_moments(logs, offset=offset)
    checked = 0
    for L, value in zip(logs, got):
        ref = exact_moment(w, complex(L), offset)
        if not np.finfo(float).tiny <= abs(ref) <= np.finfo(float).max / max(1.0, abs(L)):
            continue
        tol = max(1e-14, 4e-16 * abs(L))
        assert abs(value - ref) <= tol * abs(ref), (L, value, ref)
        checked += 1
    assert checked >= 0.8 * len(logs)


def test_power_moments_one_call_matches_per_point(tapered):
    logs = moment_points(tapered)
    with np.errstate(over="ignore", invalid="ignore"):
        one = tapered.power_moments(logs)
        each = np.concatenate([tapered.power_moments(L) for L in logs])
    assert np.array_equal(one, each, equal_nan=True)


@pytest.mark.parametrize("L", [709.0, 712.0, 708.0 + 3.0j])
def test_power_moments_past_end_overflow(L):
    # e^L overflows from Re L = 709.8 on, while the moment (e^L - 1)/L of
    # the unit constant weight is a normal double up to Re L = 716
    w = wt.make_constant_weight(1.0)
    ref = complex((mp.exp(mp.mpc(L)) - 1) / mp.mpc(L))
    got = w.power_moments(L)[0]
    assert abs(got - ref) <= 4e-16 * abs(L) * abs(ref), (got, ref)


class TestEnvelopes:
    def test_zeta_at_one(self):
        assert zeta_env(1.0) == 1.0

    def test_zeta_at_e(self):
        assert zeta_env(np.e) == pytest.approx(np.e - 1.0)

    def test_vartheta_at_two(self):
        # vartheta(r) = zeta(r)/r
        assert zeta_env(2.0) / 2.0 == pytest.approx(0.7213475204, rel=1e-9)

    def test_series_fallback_continuity(self):
        for x in (1e-7, -1e-7, 1e-6, -3e-7):
            direct = x / np.log1p(x)
            assert zeta_env(1.0 + x) == pytest.approx(direct, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta_env(0.0)
        with pytest.raises(DomainError):
            zeta_env([2.0, -1.0])

    def test_array_matches_scalars(self):
        # both branches in one array, out to where the series would overflow
        r = np.array([1e-300, 0.5, 1.0 - 3e-7, 1.0, 1.0 + 1e-7, np.e, 1e6, 1e300])
        got = zeta_env(r)
        assert got.shape == r.shape
        assert np.array_equal(got, [zeta_env(x) for x in r])
        assert got[3] == 1.0 and got[-1] == pytest.approx(1e300 / np.log(1e300))

    @given(st.floats(min_value=-13.0, max_value=13.0),
           st.floats(min_value=1e-4, max_value=13.0))
    @settings(max_examples=200, deadline=None)
    def test_zeta_increasing_vartheta_decreasing(self, logr, gap):
        r1 = np.exp(logr)
        r2 = np.exp(logr + gap)
        assert zeta_env(r1) < zeta_env(r2)
        assert zeta_env(r1) / r1 > zeta_env(r2) / r2

    def test_zeta_inv_roundtrip(self):
        for y in (0.01, 0.2, 1.0, 37.0, 1e6):
            assert zeta_env(zeta_inv(y)) == pytest.approx(y, rel=1e-10)

    def test_zeta_inv_domain(self):
        with pytest.raises(DomainError):
            zeta_inv(-1.0)
        with pytest.raises(NumericError):
            zeta_inv(1e-9)

    def test_envelope_log_polar_grid(self, const_weight, box_half, tapered):
        rs = np.logspace(-6, 6, 25)
        betas = np.linspace(0.05, 3.09, 21)
        for w in (const_weight, box_half, tapered):
            for r in rs:
                for b in betas:
                    s = r * np.exp(1j * b)
                    assert abs(eval_sw(w, s)) <= w.sup_norm * zeta_env(r) * (1 + 1e-12)
                    assert abs(eval_w(w, s)) <= w.sup_norm * zeta_env(r) / r * (1 + 1e-12)


class TestSymbolBounds:
    def test_real_positive_spot(self, const_weight):
        rep = check_symbol_bounds(const_weight, 2.0, 1.0)
        assert rep["resolvent_floor"]["min_slack"] == pytest.approx(1.4426950408, rel=1e-9)
        assert rep["resolvent_floor"]["violations"] == 0

    def test_upper_ray_constant(self, const_weight):
        s = np.exp(1j * 3 * np.pi / 4)
        lam = 1.0
        rep = check_symbol_bounds(const_weight, s, lam)
        c_beta = np.sin(3 * np.pi / 4) / 2.0
        lhs = abs(eval_sw(const_weight, s) + lam)
        assert lhs >= c_beta * lam
        assert rep["resolvent_floor"]["min_slack"] == pytest.approx(lhs - c_beta * lam)

    @staticmethod
    def random_samples(n, seed=20240915):
        rng = np.random.default_rng(seed)
        r = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), n))
        beta = rng.uniform(0.0, np.pi, n)
        sign = rng.choice([-1.0, 1.0], n)
        lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
        nu = rng.uniform(0.0, 1.0, n)
        return r * np.exp(1j * sign * beta), lam, nu

    def test_randomized_sweep(self, const_weight):
        rep = check_symbol_bounds(const_weight, *self.random_samples(10_000))
        for name, entry in rep.items():
            assert entry["violations"] == 0, (name, entry)
            assert entry["min_slack"] >= 0.0

    def test_randomized_sweep_box(self, box_half):
        rep = check_symbol_bounds(box_half, *self.random_samples(2_000, seed=11))
        for name, entry in rep.items():
            assert entry["violations"] == 0, (name, entry)

    def test_bad_lambda(self, const_weight):
        with pytest.raises(DomainError):
            check_symbol_bounds(const_weight, 2.0, -1.0)

    def test_on_cut_sample(self, const_weight):
        with pytest.raises(DomainError, match="branch cut"):
            check_symbol_bounds(const_weight, [2.0, -3.0], 1.0)

    def test_near_cut_warned_once(self, const_weight):
        s = np.exp(1j * np.array([3.11, 3.12, -3.13]))
        with pytest.warns(wt.NearCutWarning) as record:
            check_symbol_bounds(const_weight, s, 1.0)
        assert len(record) == 1

    @staticmethod
    def per_sample_reference(w, samples):
        """The inequalities one sample at a time through scalar eval_sw."""
        consts = wt.symbol_bound_constants(w)
        out = {name: [] for name in ("resolvent_floor", "interpolation_bound",
                                     "power_floor", "symbol_envelope")}
        for k, (s, lam, nu) in enumerate(zip(*samples)):
            sw = eval_sw(w, s)
            beta, mod = abs(np.angle(s)), abs(s)
            lhs = abs(sw + lam)
            left = beta > np.pi / 2.0
            out["resolvent_floor"].append(
                (lhs - (np.sin(beta) / 2.0 if left else 1.0) * lam, k))
            if left:
                out["interpolation_bound"].append(
                    (2.0 / np.sin(beta) - lam ** nu * abs(sw) ** (1.0 - nu) / lhs, k))
            c_pow = consts["power_floor_left" if left else "power_floor_right"]
            out["power_floor"].append(
                (lhs - c_pow * min(mod ** (w.alpha0 - w.delta), mod ** w.alpha0), k))
            out["symbol_envelope"].append((w.sup_norm * zeta_env(mod) - abs(sw), k))
        return out

    def test_sweep_matches_per_sample_loop(self, const_weight, box_half):
        samples = self.random_samples(200, seed=7)
        for w in (const_weight, box_half):
            rep = check_symbol_bounds(w, *samples)
            for name, rows in self.per_sample_reference(w, samples).items():
                slacks = np.array([v for v, _ in rows])
                k = int(np.argmin(slacks))
                entry = rep[name]
                assert entry["count"] == len(rows)
                assert entry["violations"] == int(np.sum(slacks < 0.0))
                assert entry["argmin"] == rows[k][1]
                assert entry["min_slack"] == pytest.approx(slacks[k], rel=1e-12)


class TestBoxWeight:
    def test_normalization(self):
        w = make_box_weight(0.5, 0.1)
        assert w._eval_many([0.45])[0] == pytest.approx(10.0)
        assert w._eval_many([0.3])[0] == 0.0
        assert eval_w(w, 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_certificate(self):
        w = make_box_weight(0.5, 0.1)
        assert w.alpha0 == 0.5 and w.delta == 0.1
        assert w.mu_at_alpha0 == pytest.approx(10.0)

    def test_invalid(self):
        with pytest.raises(DomainError):
            make_box_weight(0.5, 0.6)
        with pytest.raises(DomainError):
            make_box_weight(1.2, 0.1)


class TestInvariantsAndSerialization:
    def test_negative_density_rejected(self):
        with pytest.raises(PreconditionError, match="mu < 0"):
            WeightFunction(np.array([0.0, 1.0]), (np.array([-1.0]),),
                           alpha0=0.5, delta=0.2, mu_at_alpha0=1.0, sup_norm=1.0)

    def test_concentration_rejected(self):
        # density vanishing just below alpha0 breaks the concentration window
        with pytest.raises(PreconditionError, match="concentration"):
            WeightFunction(np.array([0.0, 0.4, 0.5, 1.0]),
                           (np.array([1.0]), np.array([0.0]), np.array([1.0])),
                           alpha0=0.5, delta=0.2, mu_at_alpha0=1.0, sup_norm=1.0)

    def test_sup_norm_rejected(self):
        with pytest.raises(PreconditionError, match="sup_norm"):
            WeightFunction(np.array([0.0, 1.0]), (np.array([2.0]),),
                           alpha0=0.5, delta=0.2, mu_at_alpha0=2.0, sup_norm=1.0)

    def test_cutoff_rejected(self):
        with pytest.raises(PreconditionError, match="cutoff"):
            WeightFunction(np.array([0.0, 1.0]), (np.array([1.0]),),
                           alpha0=0.5, delta=0.2, mu_at_alpha0=1.0, sup_norm=1.0,
                           alpha1=0.8)

    # piecewise [weight] bodies of the tapered, box and constant fixtures
    BODIES = (
        {"type": "piecewise", "breakpoints": "0.0 0.75 0.8 1.0",
         "coeffs": "1.0 ; 15.999999999999986 -19.999999999999982 ; 0.0",
         "alpha0": "0.75", "delta": "0.5", "mu_at_alpha0": "1.0",
         "sup_norm": "1.0", "alpha1": "0.8"},
        {"type": "piecewise", "breakpoints": "0.0 0.48 0.5 1.0",
         "coeffs": "0.0 ; 50.0 ; 0.0", "alpha0": "0.5", "delta": "0.02",
         "mu_at_alpha0": "50.0", "sup_norm": "50.0", "alpha1": "0.75"},
        {"type": "piecewise", "breakpoints": "0.0 1.0", "coeffs": "1.0",
         "alpha0": "0.5", "delta": "0.25", "mu_at_alpha0": "1.0",
         "sup_norm": "1.0"},
    )

    def test_roundtrip(self, tapered, box_half, const_weight):
        for w, body in zip((tapered, box_half, const_weight), self.BODIES):
            back = wt.weight_from_mapping(body)
            grid = np.linspace(0, 1, 321)
            assert np.allclose(back._eval_many(grid), w._eval_many(grid), atol=1e-15)
            assert back.alpha0 == w.alpha0 and back.delta == w.delta
            assert (back.alpha1 is None) == (w.alpha1 is None)

    def test_unknown_type(self):
        with pytest.raises(PreconditionError):
            wt.weight_from_mapping({"type": "spline"})


# samples 1000 and 1001 of a 2048-point grid on [0, 1]: a certificate taken
# on that grid misses both narrow pieces below
_SAMPLE_GAP = (1000 / 2047, 1001 / 2047)


def parabola_body(a, b, end, mid, **extra):
    """A piecewise [weight] body: mu = 1 off [a, b], and on it the parabola
    from ``end`` at a and b to ``mid`` at the midpoint (alpha0 = 0.3,
    delta = 0.2, mu(alpha0) = 1), with the parabola's coefficients."""
    m, k = 0.5 * (a + b), 4.0 * (end - mid) / (b - a) ** 2
    c = np.array([mid + k * m * m, -2.0 * k * m, k])
    body = {"type": "piecewise", "breakpoints": f"0 {a!r} {b!r} 1",
            "coeffs": "1 ; " + " ".join(map(repr, c.tolist())) + " ; 1",
            "alpha0": "0.3", "delta": "0.2", "mu_at_alpha0": "1", **extra}
    return body, c


# a dip to -1 centred between the two samples, which both read 0.0025, a
# dip to -1 on a piece 2e-6 wide, whose terms (~2e12) round mu by ~4e-4, and
# a spike to 5 under a claimed sup_norm of 1, strictly between them
NARROW = {
    "dip": (parabola_body(sum(_SAMPLE_GAP) / 2 - 3.45e-4, sum(_SAMPLE_GAP) / 2 + 3.45e-4,
                          1.0, -1.0), r"density .* mu spans \[-1\.0, "),
    "tiny_dip": (parabola_body(0.4888, 0.488802, 1.0, -1.0), r"density .* mu spans \[-1\.0, "),
    "spike": (parabola_body(0.4886, 0.4889, 1.0, 5.0, sup_norm="1"),
              r"sup_norm .* mu spans \[.*, 5\.0\]"),
}


class TestExactCertificate:
    """The certificate is checked from each piece's exact extremes, and
    sup_norm is worked out from them, not declared."""

    @pytest.mark.parametrize("case", list(NARROW))
    def test_narrow_violation_between_samples(self, case, tmp_path, capsys):
        (body, c), message = NARROW[case]
        a, b = (float(x) for x in body["breakpoints"].split()[1:3])
        grid = np.linspace(0.0, 1.0, 2048)
        inside = grid[(grid >= a) & (grid < b)]
        # every sample of the old grid inside the piece reads in (0, 1]
        vals = npoly.polyval(inside, c)
        assert np.all((vals > 0.0) & (vals <= 1.0))
        piece = re.escape(f"on piece 1 [{a}, {b}]")
        with pytest.raises(PreconditionError, match=f"{message}.*{piece}"):
            wt.weight_from_mapping(body)
        doc = "[weight]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
        cfg = tmp_path / "config.ini"
        cfg.write_text(doc + "\n[operator]\nN = 4\n\n[problem]\ntimes = 0.5 1.0\n")
        rc = cli.main(["kernel", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1 and "[weight]" in err and f"piece 1 [{a}, {b}]" in err

    def test_narrow_bump_accepted(self):
        # a bump from 0 at its ends to 1 at its midpoint: coefficients ~1e7
        # cancel to mu, which rounding puts at -1.9e-9 at the ends; the
        # slack, a few rounding units of the terms (~1e-7), accepts it
        body, _ = parabola_body(0.4886, 0.4889, 0.0, 1.0)
        assert wt.weight_from_mapping(body).sup_norm == pytest.approx(1.0, abs=1e-8)

    def test_interior_maximum_is_sup_norm(self):
        # 1 + 4 x (1 - x) peaks at 2 at the root x = 1/2 of p'
        body = {"type": "piecewise", "breakpoints": "0 1", "coeffs": "1 4 -4",
                "alpha0": "0.5", "delta": "0.25", "mu_at_alpha0": "2"}
        assert wt.weight_from_mapping(body).sup_norm == pytest.approx(2.0, abs=1e-15)
        # a claim above the maximum is accepted and replaced by it ...
        w = wt.weight_from_mapping({**body, "sup_norm": "3"})
        assert w.sup_norm == pytest.approx(2.0, abs=1e-15)
        # ... and one below it is rejected, naming both values
        with pytest.raises(PreconditionError, match=r"sup_norm = 1\.5: mu spans .*, 2\.0"):
            wt.weight_from_mapping({**body, "sup_norm": "1.5"})

    def test_trailing_zero_coefficients(self):
        # p' = 0 0 has a zero leading coefficient; a root finder that kept
        # it would divide by zero, and the warning fails the test
        body = {"type": "piecewise", "breakpoints": "0 0.5 1", "coeffs": "1 0 0 ; 0 0 0",
                "alpha0": "0.5", "delta": "0.25", "mu_at_alpha0": "1"}
        assert wt.weight_from_mapping(body).sup_norm == 1.0

    def test_builders_work_out_sup_norm(self):
        assert make_constant_weight(2.5).sup_norm == 2.5
        assert make_box_weight(0.5, 0.02).sup_norm == 50.0
        assert make_tapered_weight(level=1.0).sup_norm == 1.0
