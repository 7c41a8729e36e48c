"""Exact bits of both engines, one cell per route of F_Z.

Each cell's hop shapes and rate put DF's F_Z argument on one route of the
kernel: the log-series, the paired series at a plain and at a near-integer
gap, the complement 1 - S for an integer and for two non-integer shapes
(the Gauss-Laguerre residual), and the clamped end.  AF on the same
cell adds to DF the gap integral of F_Z from its DF argument up.  The pinned
``float.hex`` of (value, numeric_error) holds the arithmetic of the hot
path fixed: a rewrite that changes the order of one operation fails here.
"""

import dataclasses

import pytest

from fdrelay import specfun
from fdrelay.fading import AlphaMuParams, ProductDistParams, product_arg_clamp
from fdrelay.outage import outage_af, outage_df
from fdrelay.presets import preset_config
from fdrelay.relaysys import derive_constants

# name: (mu1, mu2, source power W, rate), rayleigh hops; the loop-back branch
# (alpha 2.5, mu 1.7, r_hat 0.1) takes every term of pdf_power and the AF integrands
CELLS = {
    "log-series": (1.0, 3.0, 10.0, 3.0),
    "two-branch": (1.3, 1.8, 10.0, 3.0),
    "near-integer": (2.0, 3.00005, 10.0, 3.0),
    "integer-complement": (1.0, 3.0, 1.0, 4.0),
    "residual-complement": (1.3, 1.8, 10.0, 5.0),
    "clamped": (1.0, 3.0, 1.0, 6.0),
}

# name: ((DF value, DF err), (AF value, AF err)) as float.hex
PINNED = {
    "log-series": (('0x1.ecb6cded4a28ap-2', '0x1.617545d5d3921p-46'),
                  ('0x1.5e29366f37583p-1', '0x1.72d4923cdef44p-33')),
    "two-branch": (('0x1.f01cc08e36ba2p-2', '0x1.1300dfdf39893p-44'),
                  ('0x1.604b1f0aba50fp-1', '0x1.14b653e5398c0p-33')),
    "near-integer": (('0x1.9048241a84122p-2', '0x1.6a045607b8522p-43'),
                    ('0x1.48feaf24fc35ep-1', '0x1.364336c12717fp-37')),
    "integer-complement": (('0x1.fffce9e058849p-1', '0x1.052a62ae0c654p-49'),
                          ('0x1.ffffe4ee9b50ap-1', '0x1.0729af35dccd9p-49')),
    "residual-complement": (('0x1.fff219cd22fa6p-1', '0x1.00f09450fa57cp-49'),
                           ('0x1.ffff0e5f14b42p-1', '0x1.062b239003d5ep-49')),
    "clamped": (('0x1.0000000000000p+0', '0x1.00da72db91f3cp-49'),
               ('0x1.0000000000000p+0', '0x1.00da72db91f3cp-49')),
}


def _config(name):
    mu1, mu2, power, rate = CELLS[name]
    cfg = preset_config("rayleigh", source_power=power, target_rate=rate)
    return dataclasses.replace(cfg, hop1_fading=AlphaMuParams(2.0, mu1),
                               hop2_fading=AlphaMuParams(2.0, mu2),
                               lbi_fading=AlphaMuParams(2.5, 1.7, 0.1))


def _df_route(cfg):
    c = derive_constants(cfg)
    pp = ProductDistParams(cfg.hop1_fading, cfg.hop2_fading)
    x = pp.lam12 * (c.nu / c.dest_coef) ** (0.5 * cfg.hop1_fading.alpha)
    if x >= product_arg_clamp(pp):
        return "clamped"
    if x > specfun._X_SERIES_MAX:
        return "residual-complement" if pp.shapes.a.f else "integer-complement"
    if pp.shapes.route == "log":
        return "log-series"
    return "near-integer" if abs(pp.shapes.delta - pp.shapes.d) < 1e-4 else "two-branch"


@pytest.mark.parametrize("name", sorted(CELLS))
def test_engines_keep_their_bits(name):
    cfg = _config(name)
    assert _df_route(cfg) == name
    got = tuple((r.value.hex(), r.numeric_error.hex()) for r in (outage_df(cfg), outage_af(cfg)))
    assert got == PINNED[name]
