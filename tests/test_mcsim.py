import inspect
import math

import numpy as np
import pytest

from fdrelay import specfun
from fdrelay.errors import DomainError
from fdrelay.mcsim import (
    _BLOCK,
    McEstimate,
    _unit_gammas,
    simulate_grid,
    simulate_outage,
    wilson_interval,
)
from fdrelay.outage import outage_af, outage_df, outage_high_snr
from fdrelay.presets import preset_config


def test_input_validation():
    cfg = preset_config("rayleigh")
    with pytest.raises(DomainError):
        simulate_outage(cfg, "df", 5000, 1)
    with pytest.raises(DomainError):
        simulate_outage(cfg, "hd", 10_000, 1)
    with pytest.raises(DomainError):
        simulate_outage(cfg, "df", 10_000, -1)


def test_wilson_interval_properties():
    for p, n in [(0.0, 100), (1.0, 100), (0.5, 10_000), (1e-4, 1_000_000)]:
        lo, hi = wilson_interval(p, n)
        assert 0.0 <= lo <= p <= hi <= 1.0


def test_deterministic_for_fixed_seed():
    cfg = preset_config("weibull", target_rate=2.0)
    a = simulate_outage(cfg, "df", 50_000, seed=7)
    b = simulate_outage(cfg, "df", 50_000, seed=7)
    assert a == b
    c = simulate_outage(cfg, "df", 50_000, seed=8)
    assert c.p_hat != a.p_hat


def test_estimate_invariants():
    cfg = preset_config("rayleigh")
    est = simulate_outage(cfg, "af", 100_000, seed=3)
    assert isinstance(est, McEstimate)
    assert est.ci_low <= est.p_hat <= est.ci_high
    assert est.stderr == pytest.approx(
        math.sqrt(est.p_hat * (1.0 - est.p_hat) / est.n_samples))
    assert est.n_samples == 100_000
    assert est.seed == 3


def test_negligible_threshold_gives_zero():
    cfg = preset_config("rayleigh", target_rate=1e-12)
    est = simulate_outage(cfg, "df", 10_000, seed=1)
    assert est.p_hat == 0.0
    assert est.stderr == 0.0


def test_sweep_permutation_permutes_results():
    grid = [preset_config("rayleigh", target_rate=r) for r in (0.5, 1.0, 2.0, 4.0)]
    fwd = [simulate_outage(cfg, "df", 20_000, seed=5) for cfg in grid]
    rev = [simulate_outage(cfg, "df", 20_000, seed=5) for cfg in grid[::-1]]
    assert fwd == rev[::-1]


def test_grid_cells_equal_single_cell_runs():
    # n is not a multiple of the block, so the last block is partial
    n = 100_003
    grid = [preset_config("nakagami", source_power=ps, target_rate=r)
            for ps in (1.0, 10.0) for r in (0.5, 1.5, 3.0, 4.5)]
    ests = simulate_grid(grid, ("df", "af"), n, seed=4)
    for cfg, row in zip(grid, ests):
        for mode, est in zip(("df", "af"), row):
            assert est == simulate_outage(cfg, mode, n, seed=4)


def test_partial_block_takes_the_first_draws():
    shapes = (1.0, 2.5, 0.7)
    full = _unit_gammas(shapes, 3, 2, _BLOCK)
    part = _unit_gammas(shapes, 3, 2, 1000)
    for a, b in zip(full, part):
        assert np.array_equal(a[:1000], b)


def test_rate_sweep_monotone():
    # cells sharing a shape triple share draws, and gamma_eff does not
    # depend on the rate, so the estimate is exactly monotone
    # steps of 1e-3 move the outage by less than its standard error
    rates = [0.5, 1.0, 1.001, 1.002, 1.003, 2.0, 3.0, 4.5]
    grid = [preset_config("rayleigh", target_rate=r) for r in rates]
    for mode in ("df", "af"):
        p = [simulate_outage(cfg, mode, 100_000, seed=9).p_hat for cfg in grid]
        assert p == sorted(p), (mode, p)


def test_power_sweep_monotone():
    powers = [0.5, 1.0, 2.0, 10.0, 10.2, 10.4, 10.6, 10.8, 100.0]
    grid = [preset_config("weibull", source_power=ps, target_rate=1.0) for ps in powers]
    for mode, row in zip(("df", "af"), zip(*simulate_grid(grid, ("df", "af"), 100_000, 9))):
        p = [est.p_hat for est in row]
        assert p == sorted(p, reverse=True), (mode, p)


def test_df_never_worse_than_af_under_common_randoms():
    # same seed and config share the channel triples across modes, and the
    # amplify-and-forward SNR is dominated pointwise, so the ordering is exact
    for name in ("rayleigh", "nakagami"):
        cfg = preset_config(name, source_power=10.0, target_rate=2.0)
        df = simulate_outage(cfg, "df", 100_000, seed=13)
        af = simulate_outage(cfg, "af", 100_000, seed=13)
        assert df.p_hat <= af.p_hat


def test_matches_analytic_quick():
    cfg = preset_config("rayleigh", source_power=10.0, target_rate=2.0)
    est = simulate_outage(cfg, "df", 200_000, seed=21)
    ref = outage_df(cfg).value
    assert abs(est.p_hat - ref) <= 3.0 * est.stderr
    est = simulate_outage(cfg, "af", 200_000, seed=21)
    ref = outage_af(cfg).value
    assert abs(est.p_hat - ref) <= 3.0 * est.stderr


def test_high_snr_agreement_quick():
    cfg = preset_config("rayleigh", source_power=1e6, target_rate=1.0)
    floor = outage_high_snr(cfg).value
    for mode in ("df", "af"):
        est = simulate_outage(cfg, mode, 200_000, seed=17)
        assert abs(est.p_hat - floor) <= 3.0 * est.stderr + 1e-3


def test_three_sigma_coverage_over_seeds():
    # fixed family of 100 seeds at n=1e5: at least 99 must land inside
    # 3 standard errors of the closed form
    cfg = preset_config("weibull", source_power=1.0, target_rate=1.0)
    ref = outage_df(cfg).value
    hits = 0
    for seed in range(100):
        est = simulate_outage(cfg, "df", 100_000, seed=seed)
        if abs(est.p_hat - ref) <= 3.0 * est.stderr:
            hits += 1
    assert hits >= 99


def test_simulate_grid_never_calls_specfun(disable):
    # the Monte Carlo leg shares no code with the special functions: it
    # still runs when every function of fdrelay.specfun raises
    cfgs = [preset_config(name, target_rate=rate)
            for name in ("rayleigh", "weibull", "nakagami") for rate in (1.0, 3.0)]
    disable(specfun, [name for name, value in vars(specfun).items()
                      if inspect.isfunction(value) and value.__module__ == specfun.__name__])
    with pytest.raises(AssertionError, match="specfun"):
        outage_df(cfgs[0])
    est = simulate_grid(cfgs, ("df", "af"), 10_000, 7)
    assert all(0.0 <= e.p_hat <= 1.0 and e.n_samples == 10_000 for row in est for e in row)
