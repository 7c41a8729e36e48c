"""The per-shape-pair kernel state: memoised, bounded, and never a value change.

``specfun.shape_pair`` keeps one state per (mu1, mu2): the series route,
ln Gamma(mu1) + ln Gamma(mu2), the route's x-free terms (the log-series'
log-factorials, or the paired series' ln |Gamma(-gap)|, ln Gamma(gap) and
ln Gamma(1+e) - ln Gamma(1-e)) and its per-term weights, grown ahead of k
and past that as far as k has reached, the complement's x-free terms, and
the clamp; the K tables sit in their own memo.  Every F_Z value, error and
flag must be the same whichever memo the call meets.
"""

import dataclasses
import math

import pytest

from fdrelay import fading, specfun
from fdrelay.fading import AlphaMuParams, ProductDistParams, product_arg_clamp, _cdf_product_meijer
from fdrelay.outage import outage_af, outage_df
from fdrelay.presets import preset_config
from fdrelay.specfun import shape_pair

# one pair per series route, and a near-integer gap on the paired series;
# the complement is reached past x = 12 on each
PAIRS = {"log": (1.0, 3.0), "two": (1.3, 0.7), "near": (1.5, 2.50005)}
ROUTES = {"log": "log", "two": "two", "near": "two"}
XS = (1e-3, 0.5, 5.0, 8.0, 11.5, 30.0, 400.0)


@pytest.fixture(autouse=True)
def cold_memo():
    specfun._PAIRS.clear()
    yield
    specfun._PAIRS.clear()


def _pp(mu1, mu2):
    return ProductDistParams(AlphaMuParams(2.0, mu1), AlphaMuParams(2.0, mu2))


def _fz(mu1, mu2, xs):
    # at alpha = 2 the kernel argument is lam1 lam2 z, and lam = mu here
    pp = _pp(mu1, mu2)
    return [_cdf_product_meijer(pp, x / pp.lam12) for x in xs]


def _engines(mu1, mu2):
    cfg = preset_config("rayleigh", source_power=10.0, target_rate=1.0)
    cfg = dataclasses.replace(cfg, hop1_fading=AlphaMuParams(2.0, mu1),
                              hop2_fading=AlphaMuParams(2.0, mu2))
    return [(r.value, r.numeric_error, r.converged) for r in (outage_df(cfg), outage_af(cfg))]


def test_each_pair_takes_its_route():
    for name, shapes in PAIRS.items():
        assert shape_pair(*shapes).route == ROUTES[name]
    assert max(XS) > specfun._X_SERIES_MAX


def test_fz_is_bit_identical_cold_warm_and_interleaved():
    cold = {}
    for name, shapes in PAIRS.items():
        cold[name] = []
        for x in XS:
            specfun._PAIRS.clear()
            cold[name] += _fz(*shapes, [x])
    specfun._PAIRS.clear()
    for name, shapes in PAIRS.items():
        assert _fz(*shapes, XS) == cold[name], name            # one pair, growing
        assert _fz(*shapes, XS) == cold[name], name            # warm
    specfun._PAIRS.clear()
    a, b = PAIRS["near"], PAIRS["log"]
    assert _fz(*a, XS[::-1]) == cold["near"][::-1]              # large x first
    assert _fz(*b, XS) == cold["log"]
    assert _fz(*a, XS) == cold["near"]
    assert _fz(*PAIRS["two"], XS[::-1]) == cold["two"][::-1]


def test_engines_are_bit_identical_cold_warm_and_interleaved():
    cold = {}
    for name, shapes in PAIRS.items():
        specfun._PAIRS.clear()
        cold[name] = _engines(*shapes)
    for name, shapes in PAIRS.items():                          # warm
        assert _engines(*shapes) == cold[name], name
    specfun._PAIRS.clear()
    for name in ("near", "log", "near", "two"):                 # A, B, A
        assert _engines(*PAIRS[name]) == cold[name], name


def test_residual_k_table_moves_no_value():
    # mu 1.3 / 1.8 at x0 = 50 reaches the residual: the first call builds
    # the K tables of its orders, the second reads them, and tables built
    # first for another pair give the same value
    for fn in (specfun._kernel_tail, specfun._g2131_eval):
        specfun._PAIRS.clear()
        specfun._K_TABLES.clear()
        pair = shape_pair(1.3, 1.8)
        fresh = fn(pair, 50.0)
        assert specfun._K_TABLES
        assert fn(pair, 50.0) == fresh, fn.__name__
        specfun._PAIRS.clear()
        specfun._K_TABLES.clear()
        assert fn(shape_pair(1.3, 1.8), 50.0) == fresh, fn.__name__
        specfun._K_TABLES.clear()
        fn(shape_pair(2.3, 3.8), 50.0)                           # the same orders
        assert fn(shape_pair(1.3, 1.8), 50.0) == fresh, fn.__name__


def test_series_weights_grown_inside_the_loop_keep_every_bit():
    # the series loops iterate weights built 16 terms past where the terms
    # start to decay; at x = 100 and 1000, outside the routes' range, they
    # read past those and grow them to the 600-term cap on the way.  Each
    # value is the one with all 600 weights built first, or grown by
    # smaller arguments first
    xs = (100.0, 1000.0, 1e-3, 5.0, 100.0)
    for shapes in ((1.0, 3.0), (2.0, 2.0), (1.3, 3.8), (1.462, 1.032)):
        series = (specfun._g_series_integer if shape_pair(*shapes).route == "log"
                  else specfun._g_series_noninteger)
        grown = [series(specfun.ShapePair(*shapes), x) for x in xs]
        pair = specfun.ShapePair(*shapes)
        assert series(pair, 100.0) == grown[0]
        assert len(pair.weights) == 600                          # grown inside the loop
        pair = specfun.ShapePair(*shapes)
        series(pair, 1e-3)                                       # the paired series' head
        specfun._series_weights(pair, math.inf)                  # all 600 weights first
        assert [series(pair, x) for x in xs] == grown, shapes
        pair = specfun.ShapePair(*shapes)
        assert [series(pair, x) for x in sorted(xs)] == [grown[xs.index(x)] for x in sorted(xs)]


def test_memo_stays_at_its_bound():
    n = specfun._PAIRS_MAX
    keys = [(1.0 + i / 64.0, 2.0) for i in range(2 * n)]
    for key in keys:
        shape_pair(*key)
    assert len(specfun._PAIRS) == n
    assert list(specfun._PAIRS) == keys[n:]                     # the oldest go first
    assert shape_pair(*keys[-1]) is specfun._PAIRS[keys[-1]]


def test_clearing_the_clamp_cache_makes_the_next_search_cold(monkeypatch):
    real = fading._kernel_tail
    calls = []

    def counted(pair, x0):
        calls.append(x0)
        return real(pair, x0)

    monkeypatch.setattr(fading, "_kernel_tail", counted)
    hops = AlphaMuParams(2.0, 1.5), AlphaMuParams(2.0, 2.5)
    clamp = product_arg_clamp(ProductDistParams(*hops))
    assert calls
    calls.clear()
    assert product_arg_clamp(ProductDistParams(*hops)) == clamp
    assert not calls
    fading._CLAMP_CACHE.clear()
    assert product_arg_clamp(ProductDistParams(*hops)) == clamp
    assert calls


def test_ln_gamma_of_the_shape_is_derived_not_a_field_of_the_branch():
    p = AlphaMuParams(2.0, 2.5, 0.5)
    assert p.ln_gamma_mu == math.lgamma(2.5)
    assert "ln_gamma_mu" not in repr(p)
    assert p == AlphaMuParams(2.0, 2.5, 0.5) and hash(p) == hash(AlphaMuParams(2.0, 2.5, 0.5))
    assert dataclasses.replace(p, mu=4.0).ln_gamma_mu == math.lgamma(4.0)
    with pytest.raises(TypeError):
        AlphaMuParams(2.0, 2.5, 0.5, 1.0)
