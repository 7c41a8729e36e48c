import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fdrelay.errors import DomainError
from fdrelay.fading import AlphaMuParams
from fdrelay.mcsim import gamma_eff
from fdrelay.relaysys import SystemConfig, derive_constants
from fdrelay.presets import preset_config


def make_cfg(**kw):
    base = dict(
        source_power=1.0, hop1_distance=1.0, hop2_distance=1.0,
        hop1_pathloss=2.0, hop2_pathloss=2.0,
        hop1_fading=AlphaMuParams(2.0, 1.0), hop2_fading=AlphaMuParams(2.0, 1.0),
        lbi_fading=AlphaMuParams(2.0, 1.0),
        noise_antenna_var=5e-5, noise_conversion_var=5e-5, noise_dest_var=1e-4,
        eh_efficiency=1.0, eh_time_fraction=0.5, target_rate=1.0)
    base.update(kw)
    return SystemConfig(**base)


envelope = st.floats(min_value=1e-3, max_value=30.0)
draw_strategy = st.tuples(envelope, envelope, envelope)   # (h1, h2, h3)


def gamma_at(mode, cfg, h1, h2, h3):
    """The package SNR chain at one channel draw."""
    return float(gamma_eff(mode, (h1 * h2) ** 2, h3 * h3, derive_constants(cfg)))


# The physical model written out from the scenario fields, independent of
# derive_constants: the relay harvests during the first eta*T of the block
# and spends it all during the data slot.  The scenario has no block time T,
# since T cancels out of the relay power; a block of T != 1 shows that here.
BLOCK_TIME = 2.5   # s


def harvested_energy(cfg, h1):
    """Energy collected during the harvesting slot (noise harvest dropped)."""
    return (cfg.eh_efficiency * cfg.eh_time_fraction * BLOCK_TIME
            * cfg.source_power * h1 * h1
            / cfg.hop1_distance ** cfg.hop1_pathloss)


def relay_power(cfg, h1):
    """Transmit power at the relay: the harvest spread over the data slot."""
    return harvested_energy(cfg, h1) / ((1.0 - cfg.eh_time_fraction) * BLOCK_TIME)


def snr_af_longform(cfg, h1, h2, h3):
    """Unsimplified amplify-and-forward SNR, written against the relay power."""
    pr = relay_power(cfg, h1)
    d1m = cfg.hop1_distance ** cfg.hop1_pathloss
    d2m = cfg.hop2_distance ** cfg.hop2_pathloss
    h1s, h2s, h3s = h1 ** 2, h2 ** 2, h3 ** 2
    sr2 = cfg.noise_antenna_var + cfg.noise_conversion_var
    num = cfg.source_power * h1s * h2s
    den = (pr * d1m * h2s * h3s
           + cfg.source_power * d2m * h1s * sr2 / pr
           + h3s * d1m * d2m * sr2)
    return num / den


def capacity(cfg, snr):
    """Instantaneous capacity in bits/s/Hz: the data slot's share of the block."""
    return (1.0 - cfg.eh_time_fraction) * math.log2(1.0 + snr)


def test_config_validation():
    with pytest.raises(DomainError):
        make_cfg(source_power=0.0)
    with pytest.raises(DomainError):
        make_cfg(eh_time_fraction=1.0)
    with pytest.raises(DomainError):
        make_cfg(eh_efficiency=1.2)
    with pytest.raises(DomainError):
        make_cfg(target_rate=-1.0)
    with pytest.raises(DomainError):
        gamma_eff("hd", 1.0, 1.0, derive_constants(make_cfg()))


def test_relay_noise_is_sum_of_stages():
    # rho = path * relay noise / P_S, with path 1 here
    cfg = make_cfg(noise_antenna_var=3e-5, noise_conversion_var=7e-5)
    assert derive_constants(cfg).rho == pytest.approx(1e-4 / cfg.source_power, rel=1e-15)


def test_derive_constants_examples():
    cfg = make_cfg()
    c = derive_constants(cfg)
    assert c.kappa == pytest.approx(1.0)          # theta=1, eta=0.5
    assert c.nu == pytest.approx(3.0)             # rate 1 over half a block
    cfg5 = preset_config("rayleigh")
    c5 = derive_constants(cfg5)
    assert c5.dest_coef == pytest.approx(16.0, rel=1e-14)  # 1 W / (625 * 1e-4)
    assert c5.rho == pytest.approx(0.0625, rel=1e-14)   # 5^2 5^2 1e-4 / 1 W
    assert [f.name for f in dataclasses.fields(c5)] == ["kappa", "nu", "dest_coef", "rho"]


def test_harvested_energy_examples():
    # pins the harvest model under the long-form AF oracle to hand figures
    cfg = make_cfg()
    assert harvested_energy(cfg, 1.0) == pytest.approx(0.5 * BLOCK_TIME, rel=1e-15)
    assert harvested_energy(cfg, 1e-9) < 1e-15
    cfg2 = make_cfg(source_power=10.0, hop1_distance=5.0)
    assert harvested_energy(cfg2, 2.0) == pytest.approx(0.8 * BLOCK_TIME, rel=1e-14)


@given(st.floats(min_value=1e-3, max_value=100.0),
       st.floats(min_value=0.05, max_value=0.95))
def test_relay_power_consistent_with_harvest(h1, eta):
    # kappa is the relay power per watt received on the first hop
    cfg = make_cfg(eh_time_fraction=eta, eh_efficiency=0.7, hop1_distance=3.0)
    received = cfg.source_power * h1 * h1 / cfg.hop1_distance ** cfg.hop1_pathloss
    assert relay_power(cfg, h1) == pytest.approx(
        derive_constants(cfg).kappa * received, rel=1e-13)


def test_relay_power_examples():
    assert relay_power(make_cfg(), 1.0) == pytest.approx(1.0, rel=1e-15)
    cfg = make_cfg(source_power=10.0, hop1_distance=5.0)
    assert relay_power(cfg, 1.0) == pytest.approx(0.4, rel=1e-14)


def test_snr_df_relay_examples():
    # the destination leg is at least 1e4 here, so the relay leg binds
    cfg = make_cfg()
    assert gamma_at("df", cfg, 1.0, 1.0, 1.0) == pytest.approx(1.0)
    assert gamma_at("df", cfg, 1.0, 1.0, 0.1) == pytest.approx(100.0)
    # independent of source power
    boosted = make_cfg(source_power=200.0)
    assert gamma_at("df", boosted, 0.7, 1.3, 0.4) == gamma_at("df", cfg, 0.7, 1.3, 0.4)


def test_snr_df_dest_examples():
    # h3 = 1e-6 puts the relay leg at 1e12, so the destination leg binds
    cfg = make_cfg()
    assert gamma_at("df", cfg, 1.0, 1.0, 1e-6) == pytest.approx(1e4)  # sigma_D^2 = 1e-4
    assert gamma_at("df", make_cfg(source_power=2.0), 1.0, 1.0, 1e-6) == pytest.approx(
        2.0 * gamma_at("df", cfg, 1.0, 1.0, 1e-6), rel=1e-14)
    cfg5 = make_cfg(hop1_distance=5.0, hop2_distance=5.0)
    assert gamma_at("df", cfg5, 1.0, 1.0, 1e-6) == pytest.approx(16.0, rel=1e-13)


@given(draw_strategy)
def test_snr_df_dest_noise_power_scale_invariance(d):
    h1, h2, _ = d
    cfg = make_cfg()
    scaled = make_cfg(source_power=cfg.source_power * 7.3,
                      noise_dest_var=cfg.noise_dest_var * 7.3)
    # relay leg 1e18 against a destination leg of at most 1e4 * 900^2
    assert gamma_at("df", scaled, h1, h2, 1e-9) == pytest.approx(
        gamma_at("df", cfg, h1, h2, 1e-9), rel=1e-12)


@given(draw_strategy)
def test_snr_af_matches_longform(d):
    cfg = preset_config("nakagami", source_power=3.7, target_rate=2.0)
    assert gamma_at("af", cfg, *d) == pytest.approx(snr_af_longform(cfg, *d), rel=1e-12)


@given(draw_strategy)
def test_snr_af_bounded_by_loopback_floor(d):
    cfg = preset_config("rayleigh", source_power=10.0)
    c = derive_constants(cfg)
    assert gamma_at("af", cfg, *d) <= 1.0 / (c.kappa * d[2] ** 2) * (1.0 + 1e-12)


def test_snr_af_limits():
    cfg = make_cfg()
    assert gamma_at("af", cfg, 1.0, 1.0, 1e6) < 1e-9
    # large source power saturates at the loop-back floor
    big = make_cfg(source_power=1e12)
    c = derive_constants(big)
    assert gamma_at("af", big, 0.8, 1.2, 0.5) == pytest.approx(
        1.0 / (c.kappa * 0.25), rel=1e-6)


def test_capacity_examples():
    # nu is the SNR at which the data-slot capacity meets the target rate
    for rate, eta in [(1.0, 0.5), (2.5, 0.3), (0.2, 0.8)]:
        cfg = make_cfg(target_rate=rate, eh_time_fraction=eta)
        assert capacity(cfg, derive_constants(cfg).nu) == pytest.approx(rate, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=0.05, max_value=6.0),
       st.floats(min_value=0.05, max_value=0.9))
def test_capacity_threshold_equivalence(gamma, rate, eta):
    cfg = make_cfg(target_rate=rate, eh_time_fraction=eta)
    nu = derive_constants(cfg).nu
    # either side may round differently within a ulp of the knife edge
    assume(abs(gamma - nu) > 1e-9 * (1.0 + nu))
    # strict outage event on each side of the equivalence
    assert (capacity(cfg, gamma) < rate) == (gamma < nu)


@pytest.mark.parametrize("mode", ["df", "af"])
def test_gamma_eff_into_a_buffer_is_bitwise_the_same(mode, rng):
    c = derive_constants(make_cfg(source_power=3.0))
    z, v = rng.gamma(1.3, 1.0, 4097) ** 2, rng.gamma(0.7, 1.0, 4097)
    z[:3], v[3:6] = 0.0, 0.0   # zero powers; df divides by zero at v = 0
    z0, v0 = z.copy(), v.copy()
    buf = np.full_like(z, np.nan)
    with np.errstate(divide="ignore"):
        got = gamma_eff(mode, z, v, c, out=buf)
        want = gamma_eff(mode, z, v, c)
    assert got is buf
    assert got.tobytes() == want.tobytes()
    assert z.tobytes() == z0.tobytes() and v.tobytes() == v0.tobytes()
