import math

import pytest
from scipy import integrate, special

from fdrelay import outage, specfun
from fdrelay.errors import DomainError
from fdrelay.fading import (AlphaMuParams, ProductDistParams, pdf_power, cdf_power,
                            _cdf_product_meijer)
from fdrelay.mcsim import simulate_grid
from fdrelay.outage import OutageResult, outage_af, outage_df, outage_high_snr
from fdrelay.presets import preset_config
from fdrelay.quadrature import QuadratureSettings
from fdrelay.relaysys import derive_constants
import dataclasses


def test_outage_result_validation():
    with pytest.raises(DomainError):
        OutageResult(value=1.2, numeric_error=0.0)
    with pytest.raises(DomainError):
        OutageResult(value=0.5, numeric_error=-1.0)


def test_outage_df_rayleigh_closed_form():
    # kappa=1, nu=3, threshold c = 3 * 625e-4 = 0.1875; scipy supplies the
    # independent Bessel value
    cfg = preset_config("rayleigh")
    c = 0.1875
    expected = 1.0 - (1.0 - math.exp(-1.0 / 3.0)) * 2.0 * math.sqrt(c) \
        * float(special.kv(1, 2.0 * math.sqrt(c)))
    res = outage_df(cfg)
    assert res.value == pytest.approx(expected, abs=1e-10)
    assert res.value == pytest.approx(0.8129524963713193, abs=1e-12)


def test_outage_df_limits():
    tiny_rate = preset_config("rayleigh", target_rate=1e-9)
    assert outage_df(tiny_rate).value < 1e-6
    huge_rate = preset_config("rayleigh", target_rate=40.0)
    assert outage_df(huge_rate).value == pytest.approx(1.0, abs=1e-9)


def test_outage_af_limits_and_ordering():
    huge_rate = preset_config("weibull", target_rate=40.0)
    assert outage_af(huge_rate).value == pytest.approx(1.0, abs=1e-9)
    for name in ("rayleigh", "weibull", "nakagami"):
        for ps in (1.0, 10.0):
            cfg = preset_config(name, source_power=ps, target_rate=1.5)
            df = outage_df(cfg)
            af = outage_af(cfg)
            assert df.value <= af.value


def test_af_not_below_df_where_the_gap_is_one_signed():
    # rayleigh noise (sigma_R^2 = sigma_D^2) at alpha 4 with a weak,
    # singular loop-back: the gap F_Z(z(v)) - F_Z(z_D) is non-negative, so
    # AF reads at least DF on the values alone, with no slack
    cfg = dataclasses.replace(
        preset_config("rayleigh", source_power=0.11, target_rate=3.063),
        hop1_fading=AlphaMuParams(4.0, 5.042), hop2_fading=AlphaMuParams(4.0, 3.218),
        lbi_fading=AlphaMuParams(1.0, 0.644, 0.169))
    assert outage_df(cfg).value <= outage_af(cfg).value


def test_af_at_zero_loopback_carries_the_fz_error():
    # the loop-back power is 0 in double precision: AF is F_Z at v = 0, and
    # its err counts that F_Z value's err
    cfg = _weak_loopback(preset_config("rayleigh"), 1e-200)
    assert cfg.lbi_fading.rate == math.inf
    c = derive_constants(cfg)
    pp = ProductDistParams(cfg.hop1_fading, cfg.hop2_fading)
    af = outage_af(cfg)
    assert af.converged
    assert af.numeric_error >= _cdf_product_meijer(pp, c.nu * c.beta4 / c.beta1)[1]


def test_outage_af_saturated_threshold_is_loopback_mass():
    # with negligible source power the product CDF factor is 1 everywhere,
    # so the integral must reproduce the loop-back mass exactly
    cfg = preset_config("rayleigh", source_power=1e-15)
    res = outage_af(cfg)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_outage_af_endpoint_neighborhood_mass():
    # near the integrable endpoint the threshold curve diverges, the product
    # CDF saturates at 1, and the integrand collapses onto the loop-back
    # density; check the reconstructed integrand reproduces that mass
    cfg = preset_config("rayleigh", source_power=1.0, target_rate=1.0)
    c = derive_constants(cfg)
    v_star = 1.0 / (c.kappa * c.nu)
    pp = ProductDistParams(cfg.hop1_fading, cfg.hop2_fading)

    def integrand(v):
        arg = c.nu * (c.beta3 * v + c.beta4) / (c.beta1 - c.beta2 * c.nu * v)
        return _cdf_product_meijer(pp, arg)[0] * pdf_power(cfg.lbi_fading, v)

    eps_v = v_star * 1e-9
    val, err = integrate.quad(integrand, v_star - eps_v, v_star, limit=200)
    mass = cdf_power(cfg.lbi_fading, v_star) - cdf_power(cfg.lbi_fading, v_star - eps_v)
    assert val == pytest.approx(mass, abs=1e-9)


def test_outage_af_convergence_flag_propagates(monkeypatch):
    cfg = preset_config("nakagami", target_rate=2.0)
    starved = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-15, max_subdivisions=10)
    monkeypatch.setattr(outage, "QuadratureSettings", lambda: starved)
    res = outage_af(cfg)
    assert not res.converged
    assert 0.0 <= res.value <= 1.0


def test_unconverged_fz_carries_its_value_and_error(monkeypatch):
    # shapes 1.5 and 2.50005 put F_Z on the paired series at a near-integer
    # gap; when it reaches no value (err inf) at any argument but keeps
    # its best kernel value, the engines return the same outage, with err
    # inf, flagged unconverged
    hop = dataclasses.replace(preset_config("rayleigh").hop1_fading, mu=1.5)
    cfg = dataclasses.replace(preset_config("rayleigh", target_rate=1.0), hop1_fading=hop,
                              hop2_fading=dataclasses.replace(hop, mu=2.50005))
    good = outage_df(cfg), outage_af(cfg)
    real = specfun._g_series_noninteger

    def failing(s, x):
        value, err = real(s, x)
        return value, math.inf

    monkeypatch.setattr(specfun, "_g_series_noninteger", failing)
    for ref, res in zip(good, (outage_df(cfg), outage_af(cfg))):
        assert ref.converged and not res.converged
        assert res.value == ref.value
        assert res.numeric_error == math.inf


@pytest.mark.parametrize("mu3", [0.5, 1.0, 2.0])
def test_af_lower_integrand_takes_its_limit_at_zero(monkeypatch, mu3):
    # the lower half runs in the loop-back's gamma space w; at w = 0 its
    # integrand is the density's limit (+inf, 1, 0 as mu3 is below, at or
    # above 1) times the gap F_Z(z(0)) - F_Z(z_D), where math.log(0) raised
    # before.  sigma_R^2 above sigma_D^2 keeps that gap away from 0
    real = outage.integrate_adaptive
    at_zero = []

    def zero_first(f, a, b, *args, **kwargs):
        if not at_zero:   # the first integral is the lower half, from w = 0
            at_zero.append(f(a))
        return real(f, a, b, *args, **kwargs)

    monkeypatch.setattr(outage, "integrate_adaptive", zero_first)
    cfg = preset_config("nakagami", target_rate=2.0)
    cfg = dataclasses.replace(cfg, noise_dest_var=2e-5,
                              lbi_fading=dataclasses.replace(cfg.lbi_fading, mu=mu3))
    res = outage_af(cfg)
    assert 0.0 <= res.value <= 1.0
    c = derive_constants(cfg)
    pp = ProductDistParams(cfg.hop1_fading, cfg.hop2_fading)
    gap0 = (_cdf_product_meijer(pp, c.nu * c.beta4 / c.beta1)[0]
            - _cdf_product_meijer(pp, c.nu / c.dest_coef)[0])
    assert 0.0 < gap0 < 1.0
    # at mu3 = 1 the density's limit is 1 / Gamma(1), from ln_gamma(1) ~ 0
    assert at_zero == [pytest.approx({0.5: math.inf, 1.0: gap0, 2.0: 0.0}[mu3], rel=1e-14)]


def test_af_takes_a_large_loopback_shape():
    # w^{mu3-1} e^{-w} at w = mu3 - 1 passes the double range once mu3 is
    # above about 172; with 1 / Gamma(mu3) in its exponent it stays in range
    cfg = preset_config("rayleigh", target_rate=1.0)
    cfg = dataclasses.replace(cfg, lbi_fading=dataclasses.replace(cfg.lbi_fading, mu=191.0,
                                                                  r_hat=0.1))
    af, df = outage_af(cfg), outage_df(cfg)
    assert af.converged and df.value <= af.value
    est = simulate_grid([cfg], ("af",), 200_000, 5)[0][0]
    assert abs(af.value - est.p_hat) <= 4.0 * est.stderr, (af, est)


def test_outage_high_snr_examples():
    cfg = preset_config("rayleigh")   # kappa=1, nu=3, lambda3=1
    res = outage_high_snr(cfg)
    assert res.value == pytest.approx(math.exp(-1.0 / 3.0), rel=1e-12)
    tiny = preset_config("rayleigh", target_rate=1e-9)
    assert outage_high_snr(tiny).value < 1e-9


def test_high_snr_is_a_lower_bound():
    for name in ("rayleigh", "weibull", "nakagami"):
        cfg = preset_config(name, source_power=10.0, target_rate=2.0)
        floor = outage_high_snr(cfg).value
        assert floor <= outage_df(cfg).value + 1e-12
        assert floor <= outage_af(cfg).value + 1e-12


def test_outage_monotonic_quick():
    rates = [0.5, 1.5, 3.0, 5.0]
    cfg = preset_config("weibull", source_power=10.0)
    df_vals = [outage_df(dataclasses.replace(cfg, target_rate=r)).value for r in rates]
    assert all(b >= a - 1e-12 for a, b in zip(df_vals, df_vals[1:]))
    powers = [0.5, 1.0, 5.0, 50.0]
    df_p = [outage_df(dataclasses.replace(cfg, source_power=p)).value for p in powers]
    assert all(b <= a + 1e-12 for a, b in zip(df_p, df_p[1:]))


def _weak_loopback(cfg, r_hat):
    """``cfg`` with the loop-back envelope scale set to ``r_hat``."""
    return dataclasses.replace(cfg, lbi_fading=dataclasses.replace(cfg.lbi_fading, r_hat=r_hat))


def test_degenerate_loopback_leaves_product_term():
    # as the residual loop-back vanishes the outage reduces to the product
    # CDF at the destination threshold
    cfg = _weak_loopback(preset_config("nakagami", source_power=1.0, target_rate=1.0), 1e-4)
    c = derive_constants(cfg)
    pp = ProductDistParams(cfg.hop1_fading, cfg.hop2_fading)
    path = 625.0
    z_th = c.nu * path * cfg.noise_dest_var / (c.kappa * cfg.source_power)
    assert outage_df(cfg).value == pytest.approx(_cdf_product_meijer(pp, z_th)[0], abs=1e-9)


@pytest.mark.parametrize("name", ["rayleigh", "weibull", "nakagami"])
def test_af_never_below_df_at_small_loopback_scales(name):
    # a small loop-back scale puts the gamma mass of the lower AF half far
    # below its endpoint; AF must still keep all of it, and as the scale
    # vanishes AF meets DF, F_Z at the destination threshold
    for r_hat in (1e-4, 1e-6, 1e-10, 1e-50):
        cfg = _weak_loopback(preset_config(name), r_hat)
        df, af = outage_df(cfg), outage_af(cfg)
        tol = af.numeric_error + df.numeric_error
        assert af.value >= df.value, (r_hat, af, df)
    assert abs(af.value - df.value) <= tol, (af, df)


# analytic (df, af) outage of every preset at 1 and 10 W and four rates; a
# refactor of the engines must reproduce them to 1e-12
GOLDEN = {
    ('nakagami', 1.0, 0.5): (0.42804525608477195, 0.5726872843515267),
    ('nakagami', 1.0, 2.0): (0.9970531715231212, 0.9993288934686876),
    ('nakagami', 1.0, 4.0): (0.9999999986803645, 0.9999999999672455),
    ('nakagami', 1.0, 6.0): (1.0, 0.9999999999999999),
    ('nakagami', 10.0, 0.5): (0.40658425723795877, 0.43041373352743173),
    ('nakagami', 10.0, 2.0): (0.9923909500638919, 0.9949255334855139),
    ('nakagami', 10.0, 4.0): (0.9999942756710277, 0.9999990761159329),
    ('nakagami', 10.0, 6.0): (0.9999999999998739, 0.9999999999999979),
    ('rayleigh', 1.0, 0.5): (0.4764647567784567, 0.5928962569506016),
    ('rayleigh', 1.0, 2.0): (0.9810044621526376, 0.990788525735148),
    ('rayleigh', 1.0, 4.0): (0.9999950629604915, 0.9999990437363075),
    ('rayleigh', 1.0, 6.0): (1.0, 1.0),
    ('rayleigh', 10.0, 0.5): (0.38739944623482314, 0.4286523535484657),
    ('rayleigh', 10.0, 2.0): (0.9499579581393099, 0.9621282434209414),
    ('rayleigh', 10.0, 4.0): (0.9992920272617015, 0.9996989959075046),
    ('rayleigh', 10.0, 6.0): (0.9999999593136498, 0.9999999934759166),
    ('weibull', 1.0, 0.5): (0.4078569617728558, 0.5682831133945403),
    ('weibull', 1.0, 2.0): (0.9948458927078959, 0.9986616285826051),
    ('weibull', 1.0, 4.0): (0.9999999998516869, 0.9999999999961218),
    ('weibull', 1.0, 6.0): (1.0, 1.0),
    ('weibull', 10.0, 0.5): (0.3702096259772041, 0.40239197738771215),
    ('weibull', 10.0, 2.0): (0.9846324098137853, 0.9893941950282018),
    ('weibull', 10.0, 4.0): (0.9999659537444565, 0.9999935211314718),
    ('weibull', 10.0, 6.0): (0.999999999999997, 1.0),
}


@pytest.mark.parametrize("name, power, rate", sorted(GOLDEN))
def test_preset_outage_golden_values(name, power, rate):
    cfg = preset_config(name, source_power=power, target_rate=rate)
    df, af = GOLDEN[(name, power, rate)]
    assert outage_df(cfg).value == pytest.approx(df, rel=1e-12)
    assert outage_af(cfg).value == pytest.approx(af, rel=1e-12)
