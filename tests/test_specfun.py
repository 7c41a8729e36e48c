"""Special-function evaluators against independent references.

scipy and mpmath appear here as oracles only; the library itself never
imports them.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from fdrelay import specfun
from fdrelay.errors import DomainError
from fdrelay.quadrature import QuadratureSettings, integrate_to_infinity
from fdrelay.specfun import (
    bessel_k,
    gamma_fn,
    ln_gamma,
    reg_lower_gamma,
    _LAGUERRE_16,
    _LAGUERRE_20,
    _bessel_k_cf2,
    _bessel_k_scaled,
    _bessel_k_series,
    _digamma_int,
    _g2131_eval,
    _g_complement,
    _kernel_tail,
    _zeta_int,
)

mpmath.mp.dps = 30


# ----------------------------------------------------------------------
# ln_gamma / gamma_fn

def test_ln_gamma_known_points():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)


def test_ln_gamma_matches_gamma_to_contract():
    for x in np.linspace(0.5, 50.0, 1201):
        assert math.exp(ln_gamma(float(x))) == pytest.approx(
            float(special.gamma(x)), rel=1e-13)


def test_ln_gamma_domain():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-3.2)


@given(st.floats(min_value=0.05, max_value=60.0))
def test_ln_gamma_recurrence(x):
    # Gamma(x + 1) = x Gamma(x), independent of any reference library
    assert ln_gamma(x + 1.0) == pytest.approx(ln_gamma(x) + math.log(x), abs=1e-11)


def test_gamma_fn_reflection():
    for x in (-0.5, -2.3, -7.25):
        assert gamma_fn(x) == pytest.approx(float(special.gamma(x)), rel=1e-12)
    with pytest.raises(DomainError):
        gamma_fn(-3.0)


def test_digamma_int_matches_scipy():
    for n in (1, 2, 5, 40):
        assert _digamma_int(n) == pytest.approx(float(special.digamma(n)), rel=1e-13)


def test_zeta_table():
    for k in (2, 3, 7, 20):
        assert _zeta_int(k) == pytest.approx(float(mpmath.zeta(k)), rel=1e-14)


# ----------------------------------------------------------------------
# regularized lower incomplete gamma

@given(st.floats(min_value=1e-3, max_value=50.0))
def test_reg_lower_gamma_exponential_case(t):
    # P(1, t) is the unit exponential CDF
    assert reg_lower_gamma(1.0, t) == pytest.approx(1.0 - math.exp(-t), abs=1e-14)


def test_reg_lower_gamma_at_zero():
    assert reg_lower_gamma(3.7, 0.0) == 0.0
    assert reg_lower_gamma(3.7, math.inf) == 1.0


def test_reg_lower_gamma_closed_form_series_crosscheck():
    # gamma(2, x) = 1 - (1 + x) e^-x; also rebuilt by brute series summation
    x = 2.0
    closed = 1.0 - 3.0 * math.exp(-2.0)

    def brute_series(s, x, terms=200):
        # gamma(s,x)/Gamma(s) = x^s e^-x sum_k x^k / Gamma(s+k+1)
        total = 0.0
        for k in range(terms):
            total += x ** k / float(special.gamma(s + k + 1))
        return x ** s * math.exp(-x) * total

    assert reg_lower_gamma(2.0, x) == pytest.approx(closed, rel=1e-13)
    assert reg_lower_gamma(2.0, x) == pytest.approx(brute_series(2.0, x), rel=1e-12)


def test_reg_lower_gamma_against_scipy_grid(rng):
    for _ in range(800):
        s = float(10.0 ** rng.uniform(-2, 2))
        x = float(10.0 ** rng.uniform(-8, 3))
        assert reg_lower_gamma(s, x) == pytest.approx(
            float(special.gammainc(s, x)), abs=1e-13, rel=1e-11)


@given(st.floats(min_value=0.5, max_value=20.0), st.data())
def test_reg_lower_gamma_monotone_in_x(s, data):
    xs = sorted(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=200.0), min_size=2, max_size=8)))
    vals = [reg_lower_gamma(s, x) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_reg_lower_gamma_limits_and_domain():
    assert reg_lower_gamma(2.5, 1e4) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError):
        reg_lower_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        reg_lower_gamma(1.0, -0.1)


# ----------------------------------------------------------------------
# modified Bessel K

def test_bessel_k_half_order_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^-x
    for x in (0.3, 1.0, 7.0, 300.0):
        assert bessel_k(0.5, x) == pytest.approx(
            math.sqrt(math.pi / (2.0 * x)) * math.exp(-x), rel=1e-12)


def test_bessel_k_order_symmetry():
    assert bessel_k(-2.3, 4.0) == bessel_k(2.3, 4.0)


def test_bessel_k_dual_method_overlap():
    # series and continued fraction evaluated at the same switchover point
    for nu in (0.0, 0.25, 1.0, 0.5):
        n_up = int(nu + 0.5)
        mu = nu - n_up
        via_series = _bessel_k_series(mu, 2.0)
        via_cf = _bessel_k_cf2(mu, 2.0)
        scale = math.exp(-2.0)
        for a, b in zip(via_series, via_cf):
            assert a == pytest.approx(b * scale, rel=1e-10)


def test_bessel_k_contract_domain_against_scipy(rng):
    worst = 0.0
    for _ in range(3000):
        nu = float(rng.uniform(0.0, 20.0))
        x = float(10.0 ** rng.uniform(-8.0, math.log10(700.0)))
        ref = float(special.kv(nu, x))
        if ref == 0.0 or not math.isfinite(ref):
            continue
        worst = max(worst, abs(bessel_k(nu, x) - ref) / ref)
    assert worst < 1e-10


def test_bessel_k_underflow_and_domain():
    assert bessel_k(3.0, 800.0) == 0.0
    assert bessel_k(0.0, 740.5) >= 0.0
    with pytest.raises(DomainError):
        bessel_k(1.0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(1.0, -2.0)


@given(st.floats(min_value=0.0, max_value=12.0), st.data())
def test_bessel_k_positive_and_decreasing(nu, data):
    xs = sorted(data.draw(st.lists(
        st.floats(min_value=1e-3, max_value=50.0), min_size=2, max_size=6)))
    vals = [bessel_k(nu, x) for x in xs]
    assert all(v > 0.0 for v in vals)
    for a, b, xa, xb in zip(vals, vals[1:], xs, xs[1:]):
        if xb > xa * (1.0 + 1e-12):
            assert b < a * (1.0 + 1e-12)


# ----------------------------------------------------------------------
# large-argument kernel tail

def test_gauss_laguerre_rules_match_numpy():
    for n, (nodes, weights) in ((20, _LAGUERRE_20), (16, _LAGUERRE_16)):
        ref_nodes, ref_weights = np.polynomial.laguerre.laggauss(n)
        assert nodes == pytest.approx(ref_nodes, rel=1e-12)
        assert weights == pytest.approx(ref_weights, rel=1e-12)


def adaptive_kernel_tail(delta, sigma, x0):
    """The tail as an adaptive integral to infinity in t = 2 sqrt(v)."""
    t0 = 2.0 * math.sqrt(x0)

    def f(t):
        if t > 800.0:
            return 0.0
        return t ** (2.0 * sigma - 1.0) * math.exp(-t) * _bessel_k_scaled(delta, t)

    settings = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=400)
    val, err, ok = integrate_to_infinity(
        f, t0, settings, breakpoints=(t0 + 2.0, t0 + 8.0, t0 + 25.0, t0 + 60.0))
    assert ok
    scale = 2.0 ** (2.0 - 2.0 * sigma)
    return scale * val, scale * err


def test_kernel_tail_matches_adaptive_reference(monkeypatch):
    # 6 x 10 x 13 = 780 cells over delta in [0, 7.5], sigma in [1, 8],
    # x0 in [12, 1e5]; the upper end puts t0 = 2 sqrt(x0) near 632
    fallbacks = []

    def counted(*args, **kwargs):
        fallbacks.append(args[1])
        return integrate_to_infinity(*args, **kwargs)

    monkeypatch.setattr(specfun, "integrate_to_infinity", counted)
    for delta in (0.0, 0.3, 1.0, 2.5, 4.75, 7.5):
        for sigma in np.linspace(1.0, 8.0, 10):
            for x0 in np.geomspace(12.0, 1e5, 13):
                sigma, x0 = float(sigma), float(x0)
                before = len(fallbacks)
                value, err, ok = _kernel_tail(delta, sigma, x0)
                ref, ref_err = adaptive_kernel_tail(delta, sigma, x0)
                cell = (delta, sigma, x0)
                assert ok, cell
                assert abs(value - ref) <= 1e-12 * ref, cell
                assert abs(value - ref) <= err + ref_err, cell
                if sigma - delta / 2.0 >= 0.5:
                    # shapes mu1, mu2 >= 0.5: the fixed rule, or the closed
                    # form for an integer smaller shape, serves every cell
                    assert len(fallbacks) == before, cell


def test_kernel_tail_falls_back_beyond_the_laguerre_nodes():
    # with sigma = 30 the integrand peaks near t = 59, past t0 + the last
    # node; the 20-point rule is off by 8e-4 there and must not be used
    for x0 in (12.0, 40.0, 200.0):
        value, err, ok = _kernel_tail(1.0, 30.0, x0)
        ref, ref_err = adaptive_kernel_tail(1.0, 30.0, x0)
        assert ok
        assert value == pytest.approx(ref, rel=1e-12)
        assert err <= 1e-12 * value


def test_kernel_tail_vanishes_past_the_double_range():
    assert _kernel_tail(1.0, 2.0, 401.0 ** 2) == (0.0, 0.0, True)


def erlang_tail_reference(delta, m, x0):
    """The tail for an integer smaller shape m, as mpmath's finite Erlang sum."""
    with mpmath.workdps(40):
        d, x = mpmath.mpf(delta), mpmath.mpf(x0)
        t0 = 2 * mpmath.sqrt(x)
        return mpmath.gamma(m) * mpmath.fsum(
            2 / mpmath.factorial(k) * x ** ((m + d + k) / 2) * mpmath.besselk(m + d - k, t0)
            for k in range(m))


def test_erlang_sum_is_the_kernel_tail_integral():
    # the finite sum against the defining integral, in t = t0 + s with
    # e^{t0} taken out so that the quadrature sees an O(1) integrand
    for delta, m, x0 in ((0.3, 2, 12.0), (7.5, 8, 1e5)):
        with mpmath.workdps(30):
            d = mpmath.mpf(delta)
            sigma = m + d / 2
            t0 = 2 * mpmath.sqrt(mpmath.mpf(x0))
            integral = mpmath.quad(
                lambda s: (t0 + s) ** (2 * sigma - 1) * mpmath.besselk(d, t0 + s) * mpmath.exp(t0),
                [0, 2, 8, 25, 60, 150, mpmath.inf])
            tail = 2 ** (2 - 2 * sigma) * integral * mpmath.exp(-t0)
            ref = erlang_tail_reference(delta, m, x0)
            assert abs(tail - ref) <= mpmath.mpf(10) ** -25 * ref, (delta, m, x0)


def test_kernel_tail_closed_form_matches_mpmath(monkeypatch):
    # 6 x 5 x 7 cells with an integer smaller shape m = sigma - delta/2,
    # plus shapes 1 / 2.2, whose m = 0.9999999999999999 is float noise;
    # each is one ladder of Bessel values, and its err certifies it
    bessel_calls = []

    def counted(*args):
        bessel_calls.append(args)
        return _bessel_k_scaled(*args)

    monkeypatch.setattr(specfun, "_bessel_k_scaled", counted)
    x0s = [float(x) for x in np.geomspace(12.0, 1e5, 7)]
    cells = [(delta, m + delta / 2.0, x0, m)
             for delta in (0.0, 0.3, 1.0, 2.5, 4.75, 7.5) for m in (1, 2, 3, 5, 8)
             for x0 in x0s]
    cells += [(2.2 - 1.0, 0.5 * (1.0 + 2.2), x0, 1) for x0 in x0s]
    for delta, sigma, x0, m in cells:
        before = len(bessel_calls)
        value, err, ok = _kernel_tail(delta, sigma, x0)
        ref = erlang_tail_reference(delta, m, x0)
        cell = (delta, sigma, x0)
        assert ok and len(bessel_calls) == before + 1, cell
        assert abs(value - ref) <= 1e-12 * ref, cell
        assert abs(value - ref) <= err, cell
        assert err <= 1e-12 * value, cell


def test_preset_shape_tail_makes_one_bessel_call(monkeypatch):
    # delta 0, smaller shape 2 (Nakagami-2 hops) at x0 = 50: one counted
    # ladder call, never the Gauss-Laguerre rule nor the adaptive fallback
    class Untouchable:
        def __iter__(self):
            raise AssertionError("Gauss-Laguerre rule used")

    def forbidden(*args, **kwargs):
        raise AssertionError("adaptive tail used")

    calls = []

    def counted(*args):
        calls.append(args)
        return _bessel_k_scaled(*args)

    monkeypatch.setattr(specfun, "_LAGUERRE_20", Untouchable())
    monkeypatch.setattr(specfun, "_LAGUERRE_16", Untouchable())
    monkeypatch.setattr(specfun, "integrate_to_infinity", forbidden)
    monkeypatch.setattr(specfun, "_bessel_k_scaled", counted)
    value, err, ok = _kernel_tail(0.0, 2.0, 50.0)
    assert ok and 0.0 < value and err <= 1e-12 * value
    assert len(calls) == 1


def test_complement_err_bounds_its_error():
    # 6 gaps x 4 smaller shapes x 4 arguments past the series range, where
    # every F_Z takes the complement; the error of Gamma(a) Gamma(b) from
    # ln_gamma dominates there and must sit inside err
    for gap in (0.0, 0.5, 1.0, 1.5, 2.3, 4.0):
        for mu_min in (0.5, 1.0, 2.0, 4.5):
            sigma = mu_min + gap / 2.0
            for x in (12.5, 20.0, 50.0, 200.0):
                value, err, ok = _g_complement(gap, sigma, x)
                ref = meijer_reference(gap, sigma, x)
                cell = (gap, mu_min, x)
                assert ok, cell
                assert abs(value - ref) <= err, cell
                assert err <= 1e-12 * abs(value), cell


# ----------------------------------------------------------------------
# restricted Meijer G
#
# G^{2,1}_{1,3}(x | 1-s ; h, -h, -s) with s = (mu1+mu2)/2, h = (mu1-mu2)/2,
# the kernel of the product CDF, evaluated by _g2131_eval(mu1 - mu2, s, x)

def g2131(mu1, mu2, x):
    value, _, ok = _g2131_eval(mu1 - mu2, 0.5 * (mu1 + mu2), x)
    assert ok
    return value


def test_meijer_matches_mpmath():
    # shape gaps 0, 1, 2 and 7 take the log-series, the others the two-branch
    # series; x = 28 and 120 take the large-argument complement.  The gap of
    # 2.2 - 1.2 is 1 plus one ulp of float noise.
    cases = [(1.3, 0.7), (2.0, 0.5), (8.0, 0.5), (5.5, 3.2),
             (1.0, 1.0), (2.0, 1.0), (3.5, 1.5), (2.0, 2.0), (8.0, 1.0),
             (2.2, 1.2)]
    for mu1, mu2 in cases:
        s = 0.5 * (mu1 + mu2)
        h = 0.5 * (mu1 - mu2)
        for x in (1e-8, 1e-3, 0.4, 5.0, 28.0, 120.0):
            ref = float(mpmath.meijerg([[1.0 - s], []], [[h, -h], [-s]], x))
            assert g2131(mu1, mu2, x) == pytest.approx(ref, rel=3e-8), (mu1, mu2, x)


def test_meijer_kernel_integral_oracle():
    # G(x) = 2 x^-s Int_0^x v^{s-1} K_{m1-m2}(2 sqrt v) dv
    for mu1, mu2, x in [(2.0, 1.0, 0.3), (1.5, 0.5, 2.0), (3.5, 2.0, 9.0)]:
        s = 0.5 * (mu1 + mu2)
        d = abs(mu1 - mu2)
        val, err = integrate.quad(
            lambda v: v ** (s - 1.0) * special.kv(d, 2.0 * math.sqrt(v)), 0.0, x,
            limit=300)
        assert g2131(mu1, mu2, x) == pytest.approx(2.0 * x ** -s * val, rel=1e-8)


def test_meijer_near_integer_band_uses_quadrature():
    mu1, mu2 = 2.0 + 3e-5, 1.0
    s = 0.5 * (mu1 + mu2)
    d = abs(mu1 - mu2)
    val, _ = integrate.quad(
        lambda v: v ** (s - 1.0) * special.kv(d, 2.0 * math.sqrt(v)), 0.0, 0.7,
        limit=300)
    assert g2131(mu1, mu2, 0.7) == pytest.approx(2.0 * 0.7 ** -s * val, rel=1e-8)


def test_meijer_float_noise_gap_takes_the_log_series(monkeypatch):
    # 2.2 - 1.2 = 1.0000000000000002 is an integer gap up to rounding; its
    # value is checked against mpmath in test_meijer_matches_mpmath
    def forbidden(*args):
        raise AssertionError("near-integer route called")

    monkeypatch.setattr(specfun, "_g_near_integer", forbidden)
    assert 2.2 - 1.2 != 1.0
    assert 0.0 < g2131(2.2, 1.2, 0.5) < math.inf


# ----------------------------------------------------------------------
# near-integer gaps: interpolation across the gap
#
# a gap delta with 0 < |delta - d| < 1e-4 for an integer d; sigma is
# min(mu) + delta/2, so G's pole at delta = 2 sigma lies 2 min(mu) away

def meijer_reference(delta, sigma, x):
    with mpmath.workdps(40):
        s = mpmath.mpf(sigma)
        h = mpmath.mpf(delta) / 2
        return float(mpmath.meijerg([[1 - s], []], [[h, -h], [-s]], mpmath.mpf(x)))


def test_near_integer_gap_matches_mpmath():
    # the interpolation error grows with |ln x| through x^(+-delta/2), to
    # about 2e-8 relative at x = 1e-25, where only the estimate is checked
    deltas = sorted({abs(d + sign * off) for d in (0, 1, 2, 3, 6)
                     for off in (3e-6, 2e-5, 9.9e-5) for sign in (-1, 1)})
    for delta in deltas:
        for mu_min in (0.5, 1.7, 4.5, 8.0):
            sigma = mu_min + delta / 2.0
            for x in (1e-25, 1e-20, 1e-10, 1e-3, 0.5, 3.0, 5.9):
                value, err, ok = _g2131_eval(delta, sigma, x)
                ref = meijer_reference(delta, sigma, x)
                cell = (delta, mu_min, x)
                assert ok, cell
                assert abs(value - ref) <= err, cell
                if x >= 1e-10:
                    assert abs(value - ref) <= 1e-10 * abs(ref), cell


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=6),
       st.floats(min_value=3e-6, max_value=9.9e-5),
       st.sampled_from((-1.0, 1.0)),
       st.floats(min_value=0.5, max_value=8.0),
       st.floats(min_value=-6.0, max_value=math.log10(5.9)))
def test_near_integer_route_agrees_with_kernel_quadrature(d, off, sign, mu_min, log_x):
    delta = abs(d + sign * off)
    sigma = mu_min + delta / 2.0
    x = 10.0 ** log_x
    value, err, ok = _g2131_eval(delta, sigma, x)
    ref, ref_err, ref_ok = specfun._g_kernel_quadrature(delta, sigma, x)
    assert ok and ref_ok
    assert abs(value - ref) <= err + ref_err


def test_near_integer_band_never_integrates_the_kernel(monkeypatch):
    def forbidden(*args):
        raise AssertionError("kernel quadrature called")

    monkeypatch.setattr(specfun, "_g_kernel_quadrature", forbidden)
    for d in range(7):
        for mu_min in (0.5, 3.0, 8.0):
            sigma = mu_min + d / 2.0
            # from just past the float-noise bound 2 eps (sigma + delta) to
            # just below 1e-4, on both sides of d
            lo = 4.0 * specfun.EPS * (sigma + d + 1.0)
            for off in np.geomspace(lo, 0.999e-4, 12):
                for delta in (d + off, d - off):
                    if delta <= 0.0:
                        continue
                    for x in (1e-20, 0.5, 5.9, 6.0, 11.9, 30.0):
                        value, _, ok = _g2131_eval(delta, sigma, x)
                        assert ok and math.isfinite(value) and value > 0.0
