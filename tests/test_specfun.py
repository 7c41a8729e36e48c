"""Special-function evaluators against independent references.

scipy and mpmath appear here as oracles only; the library itself never
imports them.
"""

import functools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from fdrelay import quadrature, specfun
from fdrelay.errors import DomainError
from fdrelay.fading import AlphaMuParams
from fdrelay.quadrature import QuadratureSettings, integrate_to_infinity
from fdrelay.specfun import (
    bessel_k,
    reg_lower_gamma,
    shape_pair,
    ShapePair,
    _LAGUERRE_20,
    _bessel_k_scaled,
    _digamma_int,
    _g2131_eval,
    _g_complement,
    _kernel_tail,
)

mpmath.mp.dps = 30


# ----------------------------------------------------------------------
# ln Gamma, from libm: the values the package keeps, against mpmath

def _assert_ln_gamma_within_budget(value, x):
    # (8 + 2 |ln Gamma|) EPS: a ln Gamma tens of ulp off near 1.5 put the
    # two-branch series' cells near gaps 1, 2 and 3 outside their err
    with mpmath.workdps(40):
        ref = mpmath.loggamma(mpmath.mpf(x))
        assert abs(mpmath.mpf(value) - ref) <= (8 + 2 * abs(ref)) * specfun.EPS, x


def test_ln_gamma_of_each_shape_is_within_budget():
    mus = np.concatenate([np.linspace(0.5, 3.5, 601), np.geomspace(3.5, 200.0, 200)[1:]])
    for mu in mus:
        _assert_ln_gamma_within_budget(AlphaMuParams(2.0, float(mu)).ln_gamma_mu, float(mu))
    # the fractional parts of non-integer shapes, which the kernel tail reads
    for f in np.linspace(0.0, 1.0, 402)[1:-1]:
        pair = shape_pair(1.0 + f, 3.0 + f)
        for r in (pair.a, pair.b):
            assert 0.0 < r.f < 1.0
            _assert_ln_gamma_within_budget(r.ln_gamma_f, r.f)


def _pair_ln_gamma(mu):
    pair = shape_pair(mu, 2.5)
    return next(r.ln_gamma_mu for r in (pair.a, pair.b) if r.mu == mu)


def test_ln_gamma_known_points():
    # ln Gamma(mu) as the fading parameters and the kernel's pair state keep it
    for mu, expected in ((1.0, 0.0), (0.5, math.log(math.sqrt(math.pi))),
                         (5.0, math.log(24.0))):
        for value in (AlphaMuParams(2.0, mu).ln_gamma_mu, _pair_ln_gamma(mu)):
            assert value == pytest.approx(expected, rel=1e-14, abs=1e-14), mu


def test_ln_gamma_matches_gamma_to_contract():
    for x in np.linspace(0.5, 50.0, 1201):
        assert math.exp(AlphaMuParams(2.0, float(x)).ln_gamma_mu) == pytest.approx(
            float(special.gamma(x)), rel=1e-13)
        assert math.exp(_pair_ln_gamma(float(x))) == pytest.approx(
            float(special.gamma(x)), rel=1e-13)


def test_digamma_int_matches_scipy():
    for n in (1, 2, 5, 40):
        assert _digamma_int(n) == pytest.approx(float(special.digamma(n)), rel=1e-13)


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
    # the reference integral against the engines' continued fraction
    for nu in (0.0, 0.25, 0.5, 1.0, 3.7, 12.0):
        for x in (2.5, 6.0, 30.0, 300.0):
            assert bessel_k(nu, x) == pytest.approx(
                _bessel_k_scaled(nu, x) * math.exp(-x), rel=1e-10), (nu, x)


def test_bessel_k_shares_no_code_with_the_engines_k(monkeypatch):
    def forbidden(*args):
        raise AssertionError("continued-fraction K called")

    for name in ("_bessel_k_cf2", "_k_upward", "_bessel_k_scaled", "_k_table", "_k_start",
                 "_k_ladder", "_clenshaw"):
        monkeypatch.setattr(specfun, name, forbidden)
    for nu in (0.0, 0.5, 3.7, 20.0):
        for x in (1e-8, 0.5, 2.0, 6.0, 300.0):
            assert bessel_k(nu, x) == pytest.approx(
                float(special.kv(nu, x)), rel=1e-10), (nu, x)


def test_continued_fraction_k_takes_only_x_above_2():
    for x in (2.0, 1.0, 1e-3):
        with pytest.raises(DomainError):
            _bessel_k_scaled(0.3, x)


def test_tabled_ladder_takes_only_t_from_2_sqrt_6():
    # below t = 2 sqrt(6) the tables would extrapolate past y = 1
    t_min = 2.0 * math.sqrt(6.0)
    for t in (math.nextafter(t_min, 0.0), 2.0, 1.0, 1e-3):
        with pytest.raises(DomainError):
            specfun._k_ladder(specfun._k_start(2.0), t, 3)


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 0.7, 1.0, 2.25, 7.5])
def test_tabled_ladder_matches_mpmath_within_its_bound(nu):
    # e^t K_{nu+j}(t), j < 6, from the tables' starting pair up: each value
    # within the larger table bound plus 4 EPS a step of the recurrence
    n = 6
    for t in (2.0 * math.sqrt(6.0), 7.3, 30.0, 632.0):
        ladder, bound = specfun._k_ladder(specfun._k_start(nu), t, n)
        assert len(ladder) == n and bound <= 1e-14
        for j, value in enumerate(ladder):
            ref = mpmath.exp(t) * mpmath.besselk(nu + j, t)
            tol = bound + 4.0 * (nu + j + 1.0) * specfun.EPS
            assert abs(value - ref) <= tol * ref, (nu, t, j)


def test_bessel_k_past_the_double_range_and_at_subnormal_x():
    # inf where K leaves the double range, never an OverflowError
    for nu, x in ((5.0, 1e-300), (20.0, 1e-20), (200.5, 3.0), (150.0, 1e-3)):
        assert bessel_k(nu, x) == math.inf, (nu, x)
    # 0 where K is below the double range, however the huge exponent's parts round
    for nu, x in ((1e20, 2e20), (1e20, 7e19)):
        assert bessel_k(nu, x) == 0.0, (nu, x)
    # K_0(x) = ln(2 / x) - gamma + O(x^2 ln x): finite down to the least subnormal
    assert bessel_k(0.0, 1e-300) == pytest.approx(690.8914594138721, rel=1e-10)
    with mpmath.workdps(30):
        ref = float(mpmath.besselk(0, mpmath.mpf(5e-324)))
    assert bessel_k(0.0, 5e-324) == pytest.approx(ref, rel=1e-10)


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
# large-argument kernel tail: S(x0) = P(X1 X2 > x0) by shape reduction

def test_gauss_laguerre_rules_match_numpy():
    for n, (nodes, weights) in ((20, _LAGUERRE_20),):
        ref_nodes, ref_weights = np.polynomial.laguerre.laggauss(n)
        assert nodes == pytest.approx(ref_nodes, rel=1e-12)
        assert weights == pytest.approx(ref_weights, rel=1e-12)


def tail_shapes(delta, sigma):
    """The shape pair sigma +- delta/2, as ProductDistParams forms it."""
    return shape_pair(sigma + delta / 2.0, sigma - delta / 2.0)


def adaptive_kernel_tail(delta, sigma, x0):
    """S as an adaptive integral to infinity in t = 2 sqrt(v), over Gamma(mu1) Gamma(mu2)."""
    t0 = 2.0 * math.sqrt(x0)

    def f(t):
        if t > 800.0:
            return 0.0
        return t ** (2.0 * sigma - 1.0) * math.exp(-t) * _bessel_k_scaled(delta, t)

    settings = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=400)
    val, err, ok = integrate_to_infinity(
        f, t0, settings, breakpoints=(t0 + 2.0, t0 + 8.0, t0 + 25.0, t0 + 60.0))
    assert ok
    with mpmath.workdps(40):
        d, s = mpmath.mpf(delta), mpmath.mpf(sigma)
        ln_norm = float(mpmath.loggamma(s + d / 2) + mpmath.loggamma(s - d / 2))
    scale = 2.0 ** (2.0 - 2.0 * sigma) * math.exp(-ln_norm)
    return scale * val, scale * err


def _forbid_adaptive_tail(monkeypatch):
    """Every adaptive integral started from specfun from now on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        raise AssertionError("adaptive integral used")

    monkeypatch.setattr(quadrature, "integrate_to_infinity", counted)
    monkeypatch.setattr(specfun, "integrate_adaptive", counted)
    return calls


def test_kernel_tail_matches_adaptive_reference(monkeypatch):
    # 6 x 10 x 13 cells over delta in [0, 7.5], sigma in [1, 8], x0 in
    # [12, 1e5], less the 91 whose smaller shape sigma - delta/2 is not
    # positive; the upper end puts t0 = 2 sqrt(x0) near 632
    adaptive = _forbid_adaptive_tail(monkeypatch)
    for delta in (0.0, 0.3, 1.0, 2.5, 4.75, 7.5):
        for sigma in np.linspace(1.0, 8.0, 10):
            for x0 in np.geomspace(12.0, 1e5, 13):
                sigma, x0 = float(sigma), float(x0)
                if sigma - delta / 2.0 <= 0.0:
                    continue
                value, err = _kernel_tail(tail_shapes(delta, sigma), x0)
                ref, ref_err = adaptive_kernel_tail(delta, sigma, x0)
                cell = (delta, sigma, x0)
                assert math.isfinite(err), cell
                assert abs(value - ref) <= 1e-12 * ref, cell
                assert abs(value - ref) <= err + ref_err, cell
    assert not adaptive


def test_kernel_tail_holds_beyond_the_laguerre_nodes():
    # with sigma = 30 the tail's mass peaks near t = 59, past t0 + the last
    # Laguerre node: the shape reduction leaves the rule only the residual,
    # whose shapes are below 1
    for x0 in (12.0, 40.0, 200.0):
        value, err = _kernel_tail(tail_shapes(1.0, 30.0), x0)
        ref, ref_err = adaptive_kernel_tail(1.0, 30.0, x0)
        assert math.isfinite(err)
        assert value == pytest.approx(ref, rel=1e-12)
        assert err <= 1e-12 * value


def test_kernel_tail_vanishes_past_the_double_range():
    assert _kernel_tail(tail_shapes(1.0, 2.0), 401.0 ** 2) == (0.0, 0.0)


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


# continued fractions per K table: the 16 Chebyshev nodes and the 16
# interleaved points that bound it
CF_PER_TABLE = 2 * specfun._K_TABLE_TERMS


def _count_cf_calls(monkeypatch):
    """Every continued fraction from now on, with the table memo emptied first."""
    calls = []
    real = specfun._bessel_k_cf2

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(specfun, "_K_TABLES", {})
    monkeypatch.setattr(specfun, "_bessel_k_cf2", counted)
    return calls


def test_kernel_tail_closed_form_matches_mpmath(monkeypatch):
    # 6 x 5 x 7 cells with an integer smaller shape m = sigma - delta/2,
    # plus shapes 1 / 2.2, whose m = 0.9999999999999999 is float noise;
    # each is one ladder of Bessel values, and its err certifies it.  The
    # continued fraction runs only to build a table, once per order, and a
    # warm tail repeats its value without one
    cf_calls = _count_cf_calls(monkeypatch)
    x0s = [float(x) for x in np.geomspace(12.0, 1e5, 7)]
    cells = [(delta, m + delta / 2.0, x0, m)
             for delta in (0.0, 0.3, 1.0, 2.5, 4.75, 7.5) for m in (1, 2, 3, 5, 8)
             for x0 in x0s]
    cells += [(2.2 - 1.0, 0.5 * (1.0 + 2.2), x0, 1) for x0 in x0s]
    for delta, sigma, x0, m in cells:
        pair = tail_shapes(delta, sigma)
        value, err = _kernel_tail(pair, x0)
        cell = (delta, sigma, x0)
        assert len(cf_calls) == CF_PER_TABLE * len(specfun._K_TABLES), cell
        before = len(cf_calls)
        assert _kernel_tail(pair, x0) == (value, err) and len(cf_calls) == before, cell
        ref = erlang_tail_reference(delta, m, x0) / (mpmath.gamma(m) * mpmath.gamma(m + delta))
        assert math.isfinite(err), cell
        assert abs(value - ref) <= 1e-12 * ref, cell
        assert abs(value - ref) <= err, cell
        assert err <= 1e-12 * value, cell


def test_preset_shape_tail_makes_one_bessel_call(monkeypatch):
    # delta 0, smaller shape 2 (Nakagami-2 hops) at x0 = 50: one ladder,
    # never the Gauss-Laguerre rule; cold it builds the K_0 and K_1 tables,
    # warm it runs no continued fraction
    class Untouchable:
        def __iter__(self):
            raise AssertionError("Gauss-Laguerre rule used")

    monkeypatch.setattr(specfun, "_LAGUERRE_20", Untouchable())
    monkeypatch.setattr(specfun, "_PAIRS", {})   # a cold pair resolves its tables
    cf_calls = _count_cf_calls(monkeypatch)
    ladders = []
    real = specfun._k_ladder

    def counted(*args):
        ladders.append(args)
        return real(*args)

    monkeypatch.setattr(specfun, "_k_ladder", counted)
    for x0, cf in ((50.0, 2 * CF_PER_TABLE), (80.0, 0)):
        before = len(cf_calls)
        value, err = _kernel_tail(shape_pair(2.0, 2.0), x0)
        assert math.isfinite(err) and 0.0 < value and err <= 1e-12 * value
        assert len(cf_calls) == before + cf
    assert len(ladders) == 2
    assert sorted(specfun._K_TABLES) == [0.0, 1.0]


def test_a_pair_resolves_its_k_tables_on_its_first_tail(monkeypatch):
    # mu 1.3 / 1.8 takes the up ladder's start (two tables) and the
    # residual's table, mu 3.2 / 1.5 the down ladder's start as well:
    # looked up on the pair's first tail, not when it is built and not on
    # later tails
    monkeypatch.setattr(specfun, "_PAIRS", {})
    lookups, real = [], specfun._k_table

    def counted(nu):
        lookups.append(nu)
        return real(nu)

    monkeypatch.setattr(specfun, "_k_table", counted)
    for mu1, mu2, first_lookups in ((1.3, 1.8, 3), (3.2, 1.5, 5)):
        pair = shape_pair(mu1, mu2)
        assert pair.k_tables is None and not lookups
        first = _kernel_tail(pair, 50.0)
        assert len(lookups) == first_lookups, (mu1, mu2)
        for x0 in (50.0, 80.0, 300.0):
            _kernel_tail(pair, x0)
        assert _kernel_tail(pair, 50.0) == first
        assert len(lookups) == first_lookups, (mu1, mu2)
        lookups.clear()


def test_kernel_tail_bessel_work(monkeypatch):
    # a cold K_0 / K_1 pair of tables, 2 x 32 continued fractions once per
    # process, serves the residual and the ladder of mu 1.125 / 2.125, the
    # Erlang ladders of mu 1 / 1 and 2 / 2, and mu 1.7 / 2.7, whose gap
    # misses 1 by an ulp: both its shapes reduce to one fractional part, so
    # it takes c = 0, not orders 2.2e-16 and 1 + 2.2e-16; a warm tail runs
    # no continued fraction; nothing integrates adaptively
    monkeypatch.setattr(specfun, "_PAIRS", {})
    adaptive = _forbid_adaptive_tail(monkeypatch)
    cf_calls = _count_cf_calls(monkeypatch)
    value, err = _kernel_tail(shape_pair(1.125, 2.125), 50.0)
    assert math.isfinite(err) and 0.0 < value and err <= 1e-12 * value
    assert len(cf_calls) == 2 * CF_PER_TABLE
    assert sorted(specfun._K_TABLES) == [0.0, 1.0]
    for mu1, mu2, x0 in ((1.125, 2.125, 80.0), (1.0, 1.0, 50.0), (2.0, 2.0, 50.0),
                         (2.125, 1.125, 50.0), (1.7, 2.7, 50.0)):
        value, err = _kernel_tail(shape_pair(mu1, mu2), x0)
        assert math.isfinite(err) and 0.0 < value and err <= 1e-12 * value
        assert len(cf_calls) == 2 * CF_PER_TABLE, (mu1, mu2, x0)
    assert sorted(specfun._K_TABLES) == [0.0, 1.0]
    assert not adaptive


def test_k_tables_stay_at_their_bound(monkeypatch):
    # 300 shape pairs mu / 2, mu from 1 to 1.5, ask for 600 orders, c and
    # 1 + c; the memo keeps the newest _K_TABLES_MAX, and a value whose
    # tables were dropped and rebuilt is the same
    monkeypatch.setattr(specfun, "_K_TABLES", {})
    monkeypatch.setattr(specfun, "_PAIRS", {})
    mus = [1.0 + (i + 0.5) / 600 for i in range(300)]
    first = _kernel_tail(shape_pair(mus[0], 2.0), 50.0)
    first_orders = set(specfun._K_TABLES)
    assert len(first_orders) == 2
    for mu in mus:
        _kernel_tail(shape_pair(mu, 2.0), 50.0)
        assert len(specfun._K_TABLES) <= specfun._K_TABLES_MAX
    assert len(specfun._K_TABLES) == specfun._K_TABLES_MAX
    assert not first_orders & set(specfun._K_TABLES)                # the oldest go first
    assert _kernel_tail(shape_pair(mus[0], 2.0), 50.0) == first


@pytest.mark.parametrize("c", [0.0, 1e-9, 0.1, 0.37, 0.5, 0.6, 0.93, 1.0 - 1e-9, 1.0, 1.25, 1.5])
def test_k_table_matches_mpmath_within_its_bound(c):
    # sqrt(t) e^t K_c(t) off the table, t from 2 sqrt(6) to 1e4, against
    # mpmath at 30 digits, for the residual's orders in [0, 1) and the
    # ladders' starting orders up to 1.5; the bound must be informative,
    # not vacuous
    coeffs, bound = specfun._k_table(c)
    assert bound <= 1e-14
    for t in np.geomspace(2.0 * math.sqrt(6.0), 1e4, 120):
        t = float(t)
        value = specfun._clenshaw(coeffs, specfun._K_TABLE_SCALE / t - 1.0)
        ref = mpmath.sqrt(t) * mpmath.exp(t) * mpmath.besselk(c, t)
        assert abs(value - ref) <= bound * ref, (c, t)


def k_values(orders, t):
    """{|order|: K_|order|(t)}, each unit-step run of orders off two mpmath values.

    K_{nu+1} = K_{nu-1} + (2 nu / t) K_nu is exact, and stable upward at 32
    digits.
    """
    out = {}
    runs = {}
    for order in {abs(o) for o in orders}:
        runs.setdefault(order - mpmath.floor(order), []).append(order)
    for run in runs.values():
        lo, count = min(run), int(max(run) - min(run)) + 1
        ks = [mpmath.besselk(lo, t), mpmath.besselk(lo + 1, t)]
        while len(ks) < count:
            ks.append(ks[-2] + 2 * (lo + len(ks) - 1) / t * ks[-1])
        out.update((lo + j, ks[j]) for j in range(count))
    return out


@functools.lru_cache(maxsize=None)
def residual_reference(f1, f2, x0):
    """P(Y1 Y2 > x0), Y ~ Gamma(f) with f in (0, 1), at 32 digits or better.

    Up to x0 = 12 as 1 - F from mpmath.meijerg at 60 digits, which covers
    the cancellation of a residual down to 1e-25; past it by mpmath.quad in
    t-space with e^{t0} out of the integrand.
    """
    f1, f2, x = mpmath.mpf(f1), mpmath.mpf(f2), mpmath.mpf(x0)
    if x0 <= 12.0:
        with mpmath.workdps(60):
            s, h = (f1 + f2) / 2, (f1 - f2) / 2
            g = mpmath.meijerg([[1 - s], []], [[h, -h], [-s]], x)
            return 1 - x ** s * g / (mpmath.gamma(f1) * mpmath.gamma(f2))
    with mpmath.workdps(32):
        t0 = 2 * mpmath.sqrt(x)
        p = f1 + f2 - 1
        integral = mpmath.quad(
            lambda s: (t0 + s) ** p * mpmath.besselk(f1 - f2, t0 + s) * mpmath.exp(t0),
            [0, mpmath.inf])
        return 2 ** (1 - p) * mpmath.exp(-t0) * integral / (mpmath.gamma(f1) * mpmath.gamma(f2))


def survival_reference(mu1, mu2, x0):
    """S(x0) at 32 digits by the shape reduction, X1 reduced first.

    Exact for any binary shapes: a shape a few ulps off an integer keeps its
    fractional part.  The identity itself is checked against the defining
    integral in test_shape_reduction_is_the_kernel_tail_integral.
    """
    with mpmath.workdps(32):
        m1, m2, x = mpmath.mpf(mu1), mpmath.mpf(mu2), mpmath.mpf(x0)
        t0 = 2 * mpmath.sqrt(x)
        n1, n2 = int(mpmath.floor(m1)), int(mpmath.floor(m2))
        f1, f2 = m1 - n1, m2 - n2
        first = [(m2 + f1 + k, m2 - f1 - k, mpmath.gamma(m2) * mpmath.gamma(f1 + k + 1))
                 for k in range(n1)]
        second = [(f1 + f2 + k, f1 - f2 - k, mpmath.gamma(f1) * mpmath.gamma(f2 + k + 1))
                  for k in range(n2)] if f1 else []
        ks = k_values([order for _, order, _ in first + second], t0)
        total = mpmath.fsum(2 * x ** (e / 2) * ks[abs(order)] / norm
                            for e, order, norm in first + second)
        if f1 and f2:
            total += residual_reference(float(f1), float(f2), x0)
        return total


def test_shape_reduction_is_the_kernel_tail_integral():
    # the two finite sums and the residual against the defining integral,
    # over Gamma(mu1) Gamma(mu2), at 30 digits: an integer shape whose
    # orders cross 0, and a non-integer pair with both sums and the residual
    for mu1, mu2, x0 in ((1.5, 3.0, 20.0), (5.25, 1.5, 1e3)):
        with mpmath.workdps(32):
            m1, m2 = mpmath.mpf(mu1), mpmath.mpf(mu2)
            sigma, d = (m1 + m2) / 2, abs(m1 - m2)
            t0 = 2 * mpmath.sqrt(mpmath.mpf(x0))
            integral = mpmath.quad(
                lambda s: (t0 + s) ** (2 * sigma - 1) * mpmath.besselk(d, t0 + s) * mpmath.exp(t0),
                [0, 2, 8, 25, 60, 150, mpmath.inf])
            tail = 2 ** (2 - 2 * sigma) * integral * mpmath.exp(-t0) \
                / (mpmath.gamma(m1) * mpmath.gamma(m2))
            ref = survival_reference(mu1, mu2, x0)
            assert abs(tail - ref) <= mpmath.mpf(10) ** -25 * ref, (mu1, mu2, x0)


def _ulps(mu, k):
    return mu + k * math.ulp(mu)


# shapes within float noise of an integer (2 ulps, reduced whole) and past
# it (16 ulps: a fractional part of a few ulps, or a few ulps short of 1);
# crossing orders (4 / 2.5, 5.25 / 1.5); the residual alone (0.5 / 0.5); and
# large shapes
_TAIL_GATE_PAIRS = [
    (1.0, 1.0), (2.0, 7.0), (_ulps(3.0, 2), 5.5), (_ulps(3.0, 16), 5.5),
    (_ulps(4.0, -2), 2.5), (_ulps(4.0, -16), 2.5), (5.25, 1.5), (0.5, 0.5),
    (62.5, 62.5), (0.5, 115.5), (150.0, 150.0), (150.5, 149.25),
]


def test_kernel_tail_matches_mpmath():
    # |S - ref| <= err on every cell, and err <= 1e-12 S up to shape 64.
    # Past that the exponent parts reach 3,500 at x0 = 1e5 and the error
    # itself 4.5e-13 relative (shapes 120 / 141), so err reaches 2.2e-12 S
    for mu1, mu2 in _TAIL_GATE_PAIRS:
        pair = shape_pair(mu1, mu2)
        bound = 1e-12 if max(mu1, mu2) <= 64.0 else 2.5e-12
        for x0 in (6.0, 1e3, 2e4, 1e5):
            value, err = _kernel_tail(pair, x0)
            ref = survival_reference(mu1, mu2, x0)
            cell = (mu1, mu2, x0)
            assert math.isfinite(err), cell
            assert abs(value - ref) <= err, cell
            assert err <= bound * value, cell


def test_complement_err_bounds_its_error():
    # 6 gaps x 4 smaller shapes x 4 arguments past the series range, where
    # every F_Z takes the complement 1 - S; the roundoff of S's exponents,
    # ln_gamma parts included, must sit inside err
    for gap in (0.0, 0.5, 1.0, 1.5, 2.3, 4.0):
        for mu_min in (0.5, 1.0, 2.0, 4.5):
            sigma = mu_min + gap / 2.0
            for x in (12.5, 20.0, 50.0, 200.0):
                value, err = _g_complement(tail_shapes(gap, sigma), x)
                ref = cdf_reference(gap, sigma, x)
                cell = (gap, mu_min, x)
                assert math.isfinite(err), cell
                assert abs(value - ref) <= err, cell
                assert err <= 1e-12 * abs(value), cell


# ----------------------------------------------------------------------
# restricted Meijer G
#
# G^{2,1}_{1,3}(x | 1-s ; h, -h, -s) with s = (mu1+mu2)/2, h = (mu1-mu2)/2,
# the kernel of the product CDF, evaluated by _g2131_eval(mu1 - mu2, s, x)

def g2131(mu1, mu2, x):
    # _g2131_eval returns F_Z = x^s G / (Gamma(mu1) Gamma(mu2))
    pair = shape_pair(mu1, mu2)
    value, err = _g2131_eval(pair, x)
    assert math.isfinite(err)
    return value * math.exp(pair.ln_norm) / x ** pair.sigma


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
        raise AssertionError("paired series called")

    monkeypatch.setattr(specfun, "_g_series_noninteger", forbidden)
    assert 2.2 - 1.2 != 1.0
    assert 0.0 < g2131(2.2, 1.2, 0.5) < math.inf


def test_series_arguments_never_reach_the_kernel_tail(monkeypatch):
    # one route per argument: up to x = 12 the pair's series alone, even
    # where its err is above 3e-9 of the value and the complement's is smaller
    def forbidden(*args):
        raise AssertionError("kernel tail called")

    monkeypatch.setattr(specfun, "_kernel_tail", forbidden)
    for mu1, mu2 in ((10.5, 10.0), (8.64, 9.01)):
        value, err = _g2131_eval(shape_pair(mu1, mu2), 12.0)
        assert 0.0 < value < 1.0 and math.isfinite(err), (mu1, mu2)


# ----------------------------------------------------------------------
# non-integer gaps: the paired series
#
# a gap delta = d + e, 0 < |e| <= 1/2, for the integer d nearest it; sigma
# is min(mu) + delta/2, so G's pole at delta = 2 sigma lies 2 min(mu) away

def cdf_reference(delta, sigma, x):
    """F_Z = x^s G(x) / (Gamma(s + delta/2) Gamma(s - delta/2)) by mpmath."""
    with mpmath.workdps(40):
        s, h, x = mpmath.mpf(sigma), mpmath.mpf(delta) / 2, mpmath.mpf(x)
        g = mpmath.meijerg([[1 - s], []], [[h, -h], [-s]], x)
        return float(x ** s * g / (mpmath.gamma(s + h) * mpmath.gamma(s - h)))


def test_near_integer_gap_matches_mpmath():
    # within 1e-4 of an integer the unpaired branches cancel 1e4-fold or
    # more; the paired series keeps 1e-10 relative down to x = 1e-300
    deltas = sorted({abs(d + sign * off) for d in (0, 1, 2, 3, 6)
                     for off in (3e-6, 2e-5, 9.9e-5) for sign in (-1, 1)})
    for delta in deltas:
        for mu_min in (0.5, 1.7, 4.5, 8.0):
            sigma = mu_min + delta / 2.0
            pair = ShapePair(sigma - delta / 2.0, sigma + delta / 2.0)
            for x in (1e-300, 1e-200, 1e-40, 1e-30, 1e-25, 1e-20, 1e-10, 1e-3, 0.5, 3.0, 5.9):
                value, err = _g2131_eval(pair, x)
                ref = cdf_reference(pair.delta, pair.sigma, x)
                cell = (delta, mu_min, x)
                assert math.isfinite(err), cell
                assert abs(value - ref) <= err, cell
                assert abs(value - ref) <= 1e-10 * abs(ref), cell


def test_two_branch_nodes_of_the_near_integer_route_bound_their_error():
    # gaps 0.01 to 0.03 off the integers 1, 2 and 3, where the unpaired
    # branches cancel about 100-fold: 108 cells, whose err held only with
    # ln Gamma(gap) and ln Gamma(1 + gap) a few ulp off
    for d in (1, 2, 3):
        for sigma in (2.0, 3.5, 5.0):
            for off in (-0.03, -0.02, -0.01, 0.01, 0.02, 0.03):
                gap = d + off
                pair = ShapePair(sigma - gap / 2.0, sigma + gap / 2.0)
                assert pair.route == "two"
                for x in (10.0, 11.9):
                    value, err = specfun._g_series_noninteger(pair, x)
                    with mpmath.workdps(40):
                        s, h, xm = (mpmath.mpf(pair.sigma), mpmath.mpf(pair.delta) / 2,
                                    mpmath.mpf(x))
                        g = mpmath.meijerg([[1 - s], []], [[h, -h], [-s]], xm)
                        ref = xm ** s * g / (mpmath.gamma(mpmath.mpf(pair.a.mu))
                                             * mpmath.gamma(mpmath.mpf(pair.b.mu)))
                    assert abs(value - ref) <= err, (d, sigma, gap, x)


def test_ln_gamma_ratio_matches_mpmath():
    # the paired series' A = ln Gamma(1+e) - ln Gamma(1-e), within the
    # relative budget its err counts, from float noise to the half-integer gap
    bound = specfun._LN_GAMMA_RATIO_ERR * specfun.EPS
    es = np.concatenate([np.geomspace(1e-16, 0.5, 400), np.linspace(0.09, 0.5, 400)])
    for e in es:
        for x in (float(e), -float(e)):
            with mpmath.workdps(40):
                ref = mpmath.loggamma(1 + mpmath.mpf(x)) - mpmath.loggamma(1 - mpmath.mpf(x))
            assert abs(specfun._ln_gamma_ratio(x) - ref) <= bound * abs(ref), x


def _paired_reference(delta, sigma, x):
    """F_Z = x^s G(x) / (Gamma(s + delta/2) Gamma(s - delta/2)) from G's unpaired branches.

    Each is (1/a) 1F2(a; a + 1, 1 +- delta; x), a = sigma +- delta/2, taken
    at enough digits to absorb their cancellation.
    """
    e = abs(delta - round(delta))
    with mpmath.workdps(60 + int(-math.log10(e))):
        d, s, xm = mpmath.mpf(delta), mpmath.mpf(sigma), mpmath.mpf(x)
        h = d / 2
        plus = mpmath.hyp1f2(s + h, s + h + 1, 1 + d, xm) / (s + h)
        minus = mpmath.hyp1f2(s - h, s - h + 1, 1 - d, xm) / (s - h)
        g = mpmath.gamma(-d) * xm ** h * plus + mpmath.gamma(d) * xm ** -h * minus
        return xm ** s * g / (mpmath.gamma(s + h) * mpmath.gamma(s - h))


def test_paired_series_grid_matches_mpmath():
    # every non-integer gap takes the paired series: its err bounds its
    # error on every cell, and up to x = 6 it holds 1e-10 relative down to
    # the least normal double, wherever F_Z is normal too.  At e = +-0.1 and
    # x >= 6 the err needs D_j's roundoff, |t_j| e^{D_j} times its parts
    xs = (sys.float_info.min, 1e-300, 1e-200, 1e-100, 1e-30, 1e-10, 1e-3, 0.5, 3.0, 6.0,
          9.0, 11.9)
    for d in (0, 1, 2, 3, 6, 20):
        for e in (1e-14, 1e-10, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5):
            for delta in {d + e, abs(d - e)}:
                for mu_min in (0.5, 2.0, 8.0):
                    pair = ShapePair(mu_min, mu_min + delta)
                    if pair.route == "log":   # 20 + 1e-14 is 20 up to float noise
                        assert d == 20 and e == 1e-14
                        continue
                    assert abs(pair.delta - pair.d) <= 0.5
                    for x in xs:
                        value, err = _g2131_eval(pair, x)
                        ref = _paired_reference(pair.delta, pair.sigma, x)
                        cell = (pair.delta, mu_min, x)
                        assert abs(value - ref) <= err, cell
                        if x <= 6.0 and ref >= sys.float_info.min:
                            assert abs(value - ref) <= 1e-10 * ref, cell
    # the unpaired reference is G itself
    for delta, sigma, x in ((1.0001, 2.0, 1e-200), (0.3, 1.5, 11.9), (19.5, 10.5, 3.0)):
        with mpmath.workdps(40):
            s, h = mpmath.mpf(sigma), mpmath.mpf(delta) / 2
            g = mpmath.meijerg([[1 - s], []], [[h, -h], [-s]], mpmath.mpf(x))
            ref = mpmath.mpf(x) ** s * g / (mpmath.gamma(s + h) * mpmath.gamma(s - h))
        assert abs(_paired_reference(delta, sigma, x) - ref) <= 1e-30 * ref


# F_Z where the normalisation Gamma(mu1) Gamma(mu2) or a series prefactor
# leaves the double range
LARGE_SHAPE_CELLS = (
    # exp(-ln_norm) leaves the normal range from shape 99 each and is 0 from
    # 103, where F_Z read 0 with err 0; at 120/120 and x = 12 F_Z is 8.06e-270
    (120.0, 120.0, 12.0), (119.5, 120.5, 6.0), (104.0, 104.0, 3.0),
    (110.0, 111.0, 12.0), (130.0, 131.00002, 12.0),
    # an err that counted 4 ulp for the scale missed the ln_gamma error of
    # the normalisation by up to 4.8x
    (1.5, 120.2, 0.05), (1.5, 120.2, 0.5), (1.5, 120.2, 1.0), (1.5, 120.2, 2.0),
    (85.0, 85.0, 0.5),
    # Gamma(gap), (gap - 1)! or x^(-gap/2) past the double range left no value
    (0.5, 199.5, 1e-3), (0.5, 199.5, 0.5), (0.5, 199.5, 5.0),
    (0.5, 172.5, 1e-3), (0.5, 172.5, 0.5), (0.5, 172.5, 5.0),
    (0.5, 25.0, 1e-25),
)


def test_large_shapes_keep_f_z_where_the_gamma_norm_underflows():
    for mu1, mu2, x in LARGE_SHAPE_CELLS:
        value, err = _g2131_eval(shape_pair(mu1, mu2), x)
        ref = cdf_reference(abs(mu1 - mu2), 0.5 * (mu1 + mu2), x)
        assert math.isfinite(err) and value > 0.0, (mu1, mu2, x)
        assert abs(value - ref) <= err, (mu1, mu2, x, value, ref, err)
        # an interpolation in the gap estimated 1.3e-7 relative at 130/131.00002
        assert err <= 1e-6 * ref, (mu1, mu2, x)


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
    pair = ShapePair(sigma - delta / 2.0, sigma + delta / 2.0)
    value, err = _g2131_eval(pair, x)
    g, g_err, ref_ok = specfun._g_kernel_quadrature(pair.delta, pair.sigma, x)
    # the kernel integral is G; F_Z is G x^sigma / (Gamma(mu1) Gamma(mu2))
    with mpmath.workdps(40):
        s, h = mpmath.mpf(pair.sigma), mpmath.mpf(pair.delta) / 2
        scale = mpmath.mpf(x) ** s / (mpmath.gamma(s + h) * mpmath.gamma(s - h))
    ref, ref_err = float(g * scale), float(g_err * scale)
    assert math.isfinite(err) and ref_ok
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
                        value, err = _g2131_eval(tail_shapes(delta, sigma), x)
                        assert math.isfinite(err) and math.isfinite(value) and value > 0.0
