"""Distribution-level tests: reductions, normalization, oracles, sampling."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special, stats

from fdrelay import quadrature, specfun
from fdrelay.errors import DomainError
from fdrelay.fading import (
    AlphaMuParams,
    ProductDistParams,
    cdf_power,
    pdf_power,
    sample_envelope,
    _cdf_product_meijer,
)
from reference import _cdf_product_quadrature, pdf_product

RAYLEIGH = AlphaMuParams(alpha=2.0, mu=1.0, r_hat=1.0)

params_strategy = st.builds(
    AlphaMuParams,
    alpha=st.floats(min_value=0.6, max_value=4.5),
    mu=st.floats(min_value=0.5, max_value=6.0),
    r_hat=st.floats(min_value=0.2, max_value=4.0),
)


# ----------------------------------------------------------------------
# parameter containers

def test_params_validation():
    with pytest.raises(DomainError):
        AlphaMuParams(alpha=0.0, mu=1.0, r_hat=1.0)
    with pytest.raises(DomainError):
        AlphaMuParams(alpha=2.0, mu=0.3, r_hat=1.0)
    with pytest.raises(DomainError):
        AlphaMuParams(alpha=2.0, mu=1.0, r_hat=0.0)


def test_power_lambda():
    p = AlphaMuParams(alpha=3.0, mu=2.0, r_hat=2.0)
    assert p.rate == pytest.approx(2.0 / 8.0)
    # r_hat^alpha past the double range: the branch power is inf
    assert AlphaMuParams(alpha=2.0, mu=1.0, r_hat=1e200).rate == 0.0


def test_product_params_alpha_mismatch():
    with pytest.raises(DomainError):
        ProductDistParams(AlphaMuParams(2.0, 1.0), AlphaMuParams(3.0, 1.0))


# ----------------------------------------------------------------------
# envelope

def test_cdf_envelope_examples():
    # the envelope CDF at r is the power CDF at r^2
    assert cdf_power(RAYLEIGH, 0.0) == 0.0
    for r in (0.3, 1.1, 2.5):
        assert cdf_power(RAYLEIGH, r * r) == pytest.approx(
            1.0 - math.exp(-r * r), rel=1e-13)
    # Weibull-type reduction with the scaled argument hitting exactly 1
    p = AlphaMuParams(alpha=3.0, mu=1.0, r_hat=2.0)
    assert cdf_power(p, 2.0 * 2.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)
    # (r / r_hat)**alpha overflows or reaches inf: the CDF saturates at 1
    tiny = AlphaMuParams(alpha=2.0, mu=1.0, r_hat=1e-200)
    assert cdf_power(tiny, 1.0) == 1.0
    assert cdf_power(tiny, 1e200 * 1e200) == 1.0


@given(params_strategy, st.data())
def test_cdf_envelope_monotone_unit_range(p, data):
    rs = sorted(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=20.0), min_size=2, max_size=6)))
    vals = [cdf_power(p, r * r) for r in rs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# squared envelope

@given(st.floats(min_value=1e-3, max_value=8.0))
def test_pdf_power_rayleigh_is_exponential(x):
    assert pdf_power(RAYLEIGH, x) == pytest.approx(math.exp(-x), rel=1e-12)


def test_pdf_power_gamma_case():
    p = AlphaMuParams(alpha=2.0, mu=2.0, r_hat=1.0)
    for x in (0.1, 0.7, 3.0):
        assert pdf_power(p, x) == pytest.approx(4.0 * x * math.exp(-2.0 * x),
                                                rel=1e-12)


@given(params_strategy)
def test_pdf_power_normalizes(p):
    # this is the arbiter for the rate-constant exponent convention
    upper = (60.0 / p.rate) ** (2.0 / p.alpha)
    val, err = integrate.quad(lambda x: pdf_power(p, x), 0.0, upper, limit=200)
    assert val == pytest.approx(1.0, abs=5e-9)


def test_cdf_power_examples():
    for x in (0.2, 1.0, 4.0):
        assert cdf_power(RAYLEIGH, x) == pytest.approx(1.0 - math.exp(-x), rel=1e-13)
    p = AlphaMuParams(alpha=2.0, mu=2.0, r_hat=1.0)
    assert cdf_power(p, 1.0) == pytest.approx(1.0 - 3.0 * math.exp(-2.0), rel=1e-13)


# ----------------------------------------------------------------------
# product of two powers

def _pp(alpha, mu1, mu2, r1=1.0, r2=1.0):
    return ProductDistParams(AlphaMuParams(alpha, mu1, r1),
                             AlphaMuParams(alpha, mu2, r2))


def test_pdf_product_double_rayleigh():
    pp = _pp(2.0, 1.0, 1.0)
    for z in (0.05, 0.4, 2.0):
        assert pdf_product(pp, z) == pytest.approx(
            2.0 * special.kv(0, 2.0 * math.sqrt(z)), rel=1e-11)


def test_pdf_product_normalizes():
    for pp in (_pp(2.0, 1.0, 1.0), _pp(1.0, 0.5, 2.5), _pp(3.0, 2.0, 1.5, 1.3, 0.7)):
        a = pp.hop1.alpha
        # substitute t = z^{a/2} so the integrand decays like a gamma kernel
        def f(t):
            z = t ** (2.0 / a)
            return pdf_product(pp, z) * (2.0 / a) * t ** (2.0 / a - 1.0)
        ll = pp.lam12
        val, err = integrate.quad(f, 0.0, 2500.0 / ll, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_pdf_product_convolution_oracle():
    # direct Mellin convolution of the two power densities
    for pp, z in [(_pp(2.0, 1.0, 2.0), 0.8), (_pp(1.5, 0.8, 3.1), 1.9),
                  (_pp(3.0, 1.0, 1.0, 1.2, 0.8), 0.2)]:
        val, err = integrate.quad(
            lambda u: pdf_power(pp.hop1, u) * pdf_power(pp.hop2, z / u) / u,
            0.0, np.inf, limit=500)
        assert pdf_product(pp, z) == pytest.approx(val, rel=1e-8, abs=1e-10)


def test_cdf_product_double_rayleigh_closed_form():
    pp = _pp(2.0, 1.0, 1.0)
    for z in (1e-4, 0.3, 1.0, 6.0):
        closed = 1.0 - 2.0 * math.sqrt(z) * special.kv(1, 2.0 * math.sqrt(z))
        assert _cdf_product_meijer(pp, z)[0] == pytest.approx(closed, abs=1e-9)
        assert _cdf_product_quadrature(pp, z)[0] == pytest.approx(closed, abs=1e-8)


def test_cdf_product_limits_and_errors():
    pp = _pp(2.0, 1.5, 0.5)
    assert _cdf_product_meijer(pp, 0.0)[0] == 0.0
    assert _cdf_product_meijer(pp, 1e9)[0] == pytest.approx(1.0, abs=1e-12)


def test_cdf_product_tiny_argument_with_large_shapes():
    # near-integer gap 1.00005 at kernel argument ~2e-23, where x^-sigma
    # with sigma = 15.5 overflows: the series route never forms it
    pp = _pp(2.0, 15.0, 16.00005)
    value, err = _cdf_product_meijer(pp, 1e-25)
    assert 0.0 <= value <= 1.0 and math.isfinite(err)


def _cdf_product_mpmath(mu1, mu2, lam12, z, half_alpha):
    """P(Y1 Y2 <= lam12 z^half_alpha) for unit-rate gammas of shapes mu1, mu2, at 50 digits."""
    with mpmath.workdps(50):
        m1, m2 = mpmath.mpf(mu1), mpmath.mpf(mu2)
        x = mpmath.mpf(lam12) * mpmath.mpf(z) ** mpmath.mpf(half_alpha)
        return mpmath.meijerg([[1], []], [[m1, m2], [0]], x) / (
            mpmath.gamma(m1) * mpmath.gamma(m2))


# (alpha, mu1, mu2, r_hat, z), with kernel argument x = lam12 z^{alpha/2}
# and lam12 = mu1 mu2 at r_hat 1: the log-series and the paired series at
# plain and near-integer gaps below x = 1e-30 (where an interpolation in the
# gap read 0), down to the least normal double; below
# it, x formed in the subnormals, z^{alpha/2} subnormal under a large lam12
# (r_hat 1e-3 or 1e-2), and x underflowing to 0
SMALL_ARGUMENT_CELLS = (
    (2.0, 0.5, 0.5, 1.0, 3.9996e-30), (2.0, 0.5, 0.5, 1.0, 4e-100),
    (2.0, 0.5, 0.5, 1.0, 4e-300), (2.0, 1.0, 3.0, 1.0, 1e-60 / 3.0),
    (2.0, 1.3, 1.8, 1.0, 1e-200 / 2.34), (2.0, 0.5, 30.0, 1.0, 1e-150 / 15.0),
    (2.0, 2.2, 1.2, 1.0, 1e-80 / 2.64), (2.0, 0.5, 0.50005, 1.0, 1e-40 / 0.250025),
    (2.0, 2.0, 3.00005, 1.0, 1e-31 / 6.0001), (2.0, 0.5, 6.50009, 1.0, 1e-200 / 3.250045),
    (2.0, 0.5, 0.50005, 1.0, 1e-300 / 0.250025), (3.0, 0.5, 0.5, 1.0, 1.13e-204),
    (2.0, 1.0, 1.0, 1.0, 1e-320), (2.0, 0.5, 0.5, 1.0, 1.2345678e-320),
    (3.0, 0.5, 0.5, 1.0, 1e-214), (2.0, 0.5, 6.50009, 1.0, 5e-324),
    (3.0, 0.5, 0.5, 1e-3, 1.23456789e-213), (5.0, 0.5, 0.5, 1e-2, 1e-127),
    (3.0, 1.3, 1.8, 1e-3, 3.3e-213), (2.0, 0.5, 0.5, 1.0, 0.0), (3.0, 1.3, 1.8, 1.0, 0.0),
)


@pytest.mark.parametrize("alpha, mu1, mu2, r_hat, z", SMALL_ARGUMENT_CELLS)
def test_cdf_product_below_kernel_argument_1e_30(alpha, mu1, mu2, r_hat, z):
    # F_Z at x = 0.9999e-30 and mu 0.5/0.5 is 4.45e-14: a value of 0 with err
    # 1e-15 below 1e-30 bounded nothing; nor, below the least normal double,
    # does a value taken at an x or z^{alpha/2} that kept only a few bits
    pp = ProductDistParams(AlphaMuParams(alpha, mu1, r_hat), AlphaMuParams(alpha, mu2, r_hat))
    half_alpha = 0.5 * alpha
    value, err = _cdf_product_meijer(pp, z)
    ref = _cdf_product_mpmath(mu1, mu2, pp.lam12, z, half_alpha)
    assert abs(value - ref) <= err, (value, float(ref), err)
    normal = min(z ** half_alpha, pp.lam12 * z ** half_alpha) >= sys.float_info.min
    if normal:
        assert abs(value - ref) <= 1e-12 * ref


def test_cdf_product_dual_route_spot_grid():
    # small version of the full acceptance grid
    for mu1, mu2 in ((0.5, 0.5), (1.0, 2.0), (3.5, 1.5), (2.0, 0.5)):
        for alpha in (1.0, 2.0, 3.0):
            pp = _pp(alpha, mu1, mu2)
            for z in np.logspace(-4, 2, 9):
                a = _cdf_product_meijer(pp, float(z))[0]
                b = _cdf_product_quadrature(pp, float(z))[0]
                assert abs(a - b) <= 1e-7, (mu1, mu2, alpha, z)


def test_quadrature_route_never_calls_the_series(disable):
    # the dual route of F_Z shares no code with the series routes or the
    # package's quadrature: it still runs when they raise
    pps = [_pp(alpha, mu1, mu2) for mu1, mu2 in ((0.5, 0.5), (1.0, 2.0), (3.5, 1.5))
           for alpha in (1.0, 2.0)]
    disable(specfun, ["_g2131_eval", "_g_series_integer", "_g_series_noninteger",
                      "_g_complement", "_kernel_tail"])
    disable(quadrature, ["gauss_kronrod"])
    with pytest.raises(AssertionError, match="specfun"):
        _cdf_product_meijer(pps[0], 1.0)
    for pp in pps:
        for z in (1e-3, 1.0, 30.0):
            value, err, ok = _cdf_product_quadrature(pp, z)
            assert ok and 0.0 <= value <= 1.0 and math.isfinite(err)


def test_cdf_product_derivative_matches_pdf():
    # central differences with sqrt(eps)-scaled steps, mixed tolerance 1e-6
    for pp in (_pp(2.0, 1.0, 2.0), _pp(1.0, 1.5, 0.5), _pp(3.0, 2.0, 2.0)):
        for z in (0.08, 0.6, 2.5):
            h = math.sqrt(2.2e-16) * max(1.0, z) * 40.0
            num = (_cdf_product_meijer(pp, z + h)[0]
                   - _cdf_product_meijer(pp, z - h)[0]) / (2.0 * h)
            ref = pdf_product(pp, z)
            assert abs(num - ref) <= 1e-6 * (1.0 + abs(ref))


# ----------------------------------------------------------------------
# sampling

def test_sample_envelope_rayleigh_ks(rng):
    n = 1_000_000
    r = sample_envelope(RAYLEIGH, rng, n)
    stat = stats.kstest(r, lambda v: 1.0 - np.exp(-v * v)).statistic
    assert stat < 0.002


@pytest.mark.parametrize("p", [
    AlphaMuParams(2.0, 1.0, 1.0),
    AlphaMuParams(3.0, 1.0, 2.0),
    AlphaMuParams(2.0, 2.0, 0.5),
    AlphaMuParams(1.3, 4.2, 1.7),
])
def test_sample_envelope_moments(p, rng):
    n = 1_000_000
    w = sample_envelope(p, rng, n) ** p.alpha
    mean = float(np.mean(w))
    se_mean = float(np.std(w, ddof=1)) / math.sqrt(n)
    assert abs(mean - p.r_hat ** p.alpha) <= 3.0 * se_mean

    # inverse normalized variance estimate and its delta-method error
    var = float(np.var(w, ddof=1))
    mu_hat = mean * mean / var
    d = w - mean
    m2 = float(np.mean(d ** 2))
    m3 = float(np.mean(d ** 3))
    m4 = float(np.mean(d ** 4))
    g_mean = 2.0 * mean / m2
    g_var = -mean * mean / (m2 * m2)
    var_mu = (g_mean ** 2 * m2 + 2.0 * g_mean * g_var * m3
              + g_var ** 2 * (m4 - m2 * m2)) / n
    assert abs(mu_hat - p.mu) <= 3.0 * math.sqrt(var_mu)
