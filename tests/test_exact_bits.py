"""Exact bits of both engines, one cell per route of F_Z.

Each cell's hop shapes and rate put DF's F_Z argument on one route of the
kernel: the log-series, the paired series at a plain and at a near-integer
gap, the complement 1 - S for an integer and for two non-integer shapes
(the Gauss-Laguerre residual), and the clamped end.  AF on the same
cell adds to DF the gap integral of F_Z from its DF argument up.  The pinned
``float.hex`` of (value, numeric_error) holds the arithmetic of the hot
path fixed: a rewrite that changes the order of one operation fails here.

The kernel pins below hold ``_g2131_eval``'s (value, err) bits on each of its
routes at several arguments, and each K table's bound, so that a rewrite of
the series loops, the complement's per-pair terms or the table form keeps
every bit.
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


# (mu1, mu2, x): (value, err) of _g2131_eval as float.hex, by route: the
# log-series without and with poles, the paired series (a near-integer gap
# 2.3e-5 among them) without and with poles, the complement of integer shapes
# (the Erlang sum), and the residual complement of two non-integer shapes,
# with a second ladder down from 1 - c at mu 4.2 / 1.7
KERNEL_PINNED = {
    "log-series": {
        (1.0, 1.0, 0.001): ('0x1.badb38a1bbacep-8', '0x1.546da26ddee3ep-52'),
        (1.0, 1.0, 0.5): ('0x1.1c7f23018e0c8p-1', '0x1.8ab98b697ea6fp-46'),
        (1.0, 1.0, 5.0): ('0x1.ef46aef8d8eeep-1', '0x1.746688c76bd2ap-43'),
        (1.0, 1.0, 11.9): ('0x1.fe36239faf888p-1', '0x1.7d72063880f52p-40'),
        (2.0, 2.0, 0.001): ('0x1.a403ecdb845dap-19', '0x1.59850f605660ap-63'),
        (2.0, 2.0, 0.5): ('0x1.826edbb0126e2p-4', '0x1.29049f121de8fp-48'),
        (2.0, 2.0, 5.0): ('0x1.79dd12d325d40p-1', '0x1.f28dce5a63b1ep-42'),
        (2.0, 2.0, 11.9): ('0x1.e329b066ca0d2p-1', '0x1.b226fb5f23f00p-37'),
        (1.0, 3.0, 0.001): ('0x1.060364fa8beb3p-11', '0x1.ce515f36adf25p-56'),
        (1.0, 3.0, 0.5): ('0x1.a4b84ad67b2acp-3', '0x1.61fc3af871500p-47'),
        (1.0, 3.0, 5.0): ('0x1.a3ac5d65077eap-1', '0x1.7cf09336979dcp-43'),
        (1.0, 3.0, 11.9): ('0x1.edcdf60a42583p-1', '0x1.1ecc4ad49878fp-38'),
    },
    "paired-series": {
        (1.462, 1.032, 0.01): ('0x1.0f5f35b148780p-6', '0x1.4a05c0eae4896p-50'),
        (1.462, 1.032, 3.0): ('0x1.b7f83b4d78c45p-1', '0x1.65ccb37d1aaa6p-41'),
        (1.462, 1.032, 11.9): ('0x1.fbe557ba9e922p-1', '0x1.72da18cb8e4eap-35'),
        (2.045318, 2.04534111, 0.01): ('0x1.3e364cf2b9ce2p-13', '0x1.8f91ec4ed53aap-57'),
        (2.045318, 2.04534111, 3.0): ('0x1.12a4d9bd07f13p-1', '0x1.71e564b58374bp-41'),
        (2.045318, 2.04534111, 11.9): ('0x1.e0816298258bep-1', '0x1.38205c4c8a95bp-33'),
        (1.3, 3.8, 0.01): ('0x1.3e759fc3fa06ap-11', '0x1.99622106f87a0p-55'),
        (1.3, 3.8, 3.0): ('0x1.e9b6fd70f624ap-2', '0x1.969893f8db496p-43'),
        (1.3, 3.8, 11.9): ('0x1.d162b584deb31p-1', '0x1.0480474324d27p-33'),
    },
    "integer-complement": {
        (1.0, 1.0, 13.0): ('0x1.feaa03465010dp-1', '0x1.4b2f52c475642p-52'),
        (1.0, 1.0, 100.0): ('0x1.ffffff9aee099p-1', '0x1.00001babfdcb7p-52'),
        (1.0, 1.0, 400.0): ('0x1.0000000000000p+0', '0x1.000000000001cp-52'),
        (2.0, 2.0, 13.0): ('0x1.e8c8c805f82d0p-1', '0x1.acc08ca61040fp-50'),
        (2.0, 2.0, 100.0): ('0x1.ffffd44593786p-1', '0x1.000d7131430ddp-52'),
        (2.0, 2.0, 400.0): ('0x1.fffffffffff7fp-1', '0x1.00000000032b5p-52'),
        (1.0, 3.0, 13.0): ('0x1.f177b2bcefbfep-1', '0x1.295cac596c21bp-50'),
        (1.0, 3.0, 100.0): ('0x1.ffffe80315996p-1', '0x1.000780fc82a20p-52'),
        (1.0, 3.0, 400.0): ('0x1.fffffffffffbcp-1', '0x1.0000000001af8p-52'),
    },
    "residual-complement": {
        (1.462, 1.032, 13.0): ('0x1.fce083361f6c9p-1', '0x1.105ba1a4c888ep-51'),
        (1.462, 1.032, 60.0): ('0x1.ffff981afab4cp-1', '0x1.0028f818d9750p-52'),
        (1.3, 3.8, 13.0): ('0x1.d9722aa403b8ap-1', '0x1.e750eca593007p-49'),
        (1.3, 3.8, 60.0): ('0x1.ffe7212b918bbp-1', '0x1.0a3b2b2a21501p-52'),
        (4.2, 1.7, 13.0): ('0x1.b544ecae855edp-1', '0x1.cfe48c110f168p-48'),
        (4.2, 1.7, 60.0): ('0x1.ffaeb660fca34p-1', '0x1.22398fd038fbdp-52'),
    },
}

# order: relative bound of the K table as float.hex
K_TABLE_BOUNDS = {0.0: '0x1.407e9649c0100p-48', 0.5: '0x1.6c4608649ecaap-48',
                  1.0: '0x1.893128e25d775p-48', 1.25: '0x1.b58f8dee2125dp-48',
                  1.5: '0x1.50debe50e9a10p-48'}


def _route(pair, x):
    if x > specfun._X_SERIES_MAX:
        return "residual-complement" if pair.a.f else "integer-complement"
    return "log-series" if pair.route == "log" else "paired-series"


@pytest.mark.parametrize("route", sorted(KERNEL_PINNED))
def test_kernel_keeps_its_bits(route):
    # each pair fresh, then the same pair again, its weights and terms warm
    for (mu1, mu2, x), pinned in KERNEL_PINNED[route].items():
        pair = specfun.ShapePair(mu1, mu2)
        assert _route(pair, x) == route
        for _ in range(2):
            value, err = specfun._g2131_eval(pair, x)
            assert (value.hex(), err.hex()) == pinned, (mu1, mu2, x)


def test_k_table_bounds_keep_their_bits(monkeypatch):
    monkeypatch.setattr(specfun, "_K_TABLES", {})   # each table built here
    assert {nu: specfun._k_table(nu)[1].hex() for nu in K_TABLE_BOUNDS} == K_TABLE_BOUNDS
