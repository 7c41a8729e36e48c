import dataclasses
import inspect
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from fdrelay import mcsim, specfun
from fdrelay.cli import apply_sweep_value
from fdrelay.errors import DomainError
from fdrelay.fading import AlphaMuParams
from fdrelay.mcsim import (
    _BLOCK,
    McEstimate,
    _shape_key,
    _unit_gammas,
    simulate_grid,
    simulate_outage,
)
from fdrelay.outage import outage_af, outage_df, outage_high_snr
from fdrelay.presets import preset_config
from fdrelay.relaysys import derive_constants
from reference import wilson_interval


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
    ci_low, ci_high = wilson_interval(est.p_hat, est.n_samples)
    assert ci_low <= est.p_hat <= ci_high
    assert est.stderr == pytest.approx(
        math.sqrt(est.p_hat * (1.0 - est.p_hat) / est.n_samples))
    assert est.n_samples == 100_000


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


# Crossing counts p_hat * n of the stream contract, pinned: seed 2024,
# n = 100,003 (so the last block is partial), 10 W, rates 0.5, 1.5 and 3,
# rows (df, af).  The presets run with loop-back r_hat 0.1; "mixed" has
# non-integer shapes at alpha 2.5 and a loop-back shape below 1.
GOLDEN_N = 100_003
GOLDEN_RATES = (0.5, 1.5, 3.0)
GOLDEN_COUNTS = {
    "rayleigh": [[3131, 3186], [13531, 14419], [59984, 71167]],
    "weibull": [[372, 384], [4290, 4690], [47696, 68631]],
    "nakagami": [[77, 78], [2255, 2544], [44997, 66571]],
    "mixed": [[1352, 1706], [52067, 56008], [92747, 95454]],
}


def golden_grid(name):
    if name != "mixed":
        base = preset_config(name, source_power=10.0)
        lbi = dataclasses.replace(base.lbi_fading, r_hat=0.1)
        return [dataclasses.replace(base, lbi_fading=lbi, target_rate=r) for r in GOLDEN_RATES]
    base = preset_config("rayleigh", source_power=10.0)
    return [dataclasses.replace(base, target_rate=r,
                                hop1_fading=AlphaMuParams(2.5, 1.3),
                                hop2_fading=AlphaMuParams(2.5, 2.7),
                                lbi_fading=AlphaMuParams(2.5, 0.6, 0.5))
            for r in GOLDEN_RATES]


@pytest.mark.parametrize("name", sorted(GOLDEN_COUNTS))
def test_estimates_match_the_pinned_stream(name):
    est = simulate_grid(golden_grid(name), ("df", "af"), GOLDEN_N, 2024)
    assert [[e.p_hat for e in row] for row in est] == \
        [[c / GOLDEN_N for c in row] for row in GOLDEN_COUNTS[name]]


def test_estimates_do_not_depend_on_the_thread_count(monkeypatch):
    # a mu sweep gives a shape triple per cell, and the weibull alpha sweep
    # puts several fading triples under the shapes of nakagami at mu 1;
    # 4 shape triples of 2 blocks each, the last one partial
    grid = [apply_sweep_value(preset_config("nakagami", target_rate=r), "mu", mu)
            for mu in (0.8, 1.0, 1.7, 3.0) for r in (1.0, 2.5)]
    base = preset_config("weibull", target_rate=1.5)
    grid += [dataclasses.replace(base, hop1_fading=AlphaMuParams(a, 1.0),
                                 hop2_fading=AlphaMuParams(a, 1.0),
                                 lbi_fading=AlphaMuParams(a, 1.0)) for a in (1.5, 2.0, 3.5)]
    taken, unit_gammas = [], mcsim._unit_gammas

    def spy(shapes, key, seed, block, out):
        taken.append(((shapes, block), threading.get_ident(), threading.active_count()))
        unit_gammas(shapes, key, seed, block, out)

    monkeypatch.setattr(mcsim, "_unit_gammas", spy)
    before, interval = threading.active_count(), sys.getswitchinterval()
    est = {}
    try:
        # 4 threads on at most 2 cores, switching often: a job that two
        # threads took, or that none took, would change a count
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 4):
            monkeypatch.setattr(mcsim, "_workers", lambda: workers)
            taken.clear()
            est[workers] = simulate_grid(grid, ("df", "af"), GOLDEN_N, 11)
            assert threading.active_count() == before
            jobs, threads, active = zip(*taken)
            assert len(jobs) == len(set(jobs)) == 8
            assert len(set(threads)) <= workers
            assert max(active) <= before + workers - 1
    finally:
        sys.setswitchinterval(interval)
    assert est[1] == est[2] == est[4]


def test_a_failing_thread_raises_and_leaves_no_thread(monkeypatch):
    calls, unit_gammas = [], mcsim._unit_gammas

    def failing(*args):
        calls.append(args[3])
        if len(calls) == 2:
            raise MemoryError("block buffer")
        unit_gammas(*args)

    monkeypatch.setattr(mcsim, "_unit_gammas", failing)
    monkeypatch.setattr(mcsim, "_workers", lambda: 2)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="block buffer"):
        simulate_grid([preset_config("rayleigh")], ("df",), 40 * _BLOCK, 1)
    assert threading.active_count() == before
    assert len(calls) < 40


def test_partial_block_takes_the_first_draws():
    shapes = (1.0, 2.5, 0.7)
    full, part = np.empty((3, _BLOCK)), np.empty((3, 1000))
    _unit_gammas(shapes, _shape_key(shapes), 3, 2, full)
    _unit_gammas(shapes, _shape_key(shapes), 3, 2, part)
    for a, b in zip(full, part):
        assert np.array_equal(a[:1000], b)


@pytest.mark.parametrize("block, m", [(0, _BLOCK), (3, 1000)])
def test_each_block_is_its_own_pcg64dxsm_stream(block, m):
    shapes, seed = (0.6, 1.0, 2.5), 2024
    key = _shape_key(shapes)
    out = np.empty((3, m))
    _unit_gammas(shapes, key, seed, block, out)
    for j, (mu, row) in enumerate(zip(shapes, out)):
        ss = np.random.SeedSequence(seed, spawn_key=(*key, j, block))
        expected = np.random.Generator(np.random.PCG64DXSM(ss)).standard_gamma(mu, m)
        assert np.array_equal(row, expected), j


def test_rate_sweep_shares_one_snr_chain_per_mode_and_block(monkeypatch):
    # cells that differ only in the rate differ only in nu, which the SNR
    # chain does not read; a per-rate chain would run gamma_eff 12 times
    grid = [preset_config("nakagami", target_rate=0.5 * k) for k in range(1, 13)]
    calls, gamma_eff = [], mcsim.gamma_eff

    def spy(mode, z, v, c, out=None):
        calls.append(mode)
        return gamma_eff(mode, z, v, c, out=out)

    monkeypatch.setattr(mcsim, "gamma_eff", spy)
    simulate_grid(grid, ("df", "af"), GOLDEN_N, 5)
    blocks = -(-GOLDEN_N // _BLOCK)
    assert sorted(calls) == ["af"] * blocks + ["df"] * blocks


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


@pytest.mark.parametrize("power, eta, rate, lbi_r_hat", [
    pytest.param(1e308, None, 2.0, None, id="1e+308-None-2.0"),
    pytest.param(1.7e308, 0.7, 0.3, None, id="1.7e+308-0.7-0.3"),
    pytest.param(1e-310, None, 2.0, 1e-200, id="1e-310-None-2.0-1e-200")])
def test_af_chain_keeps_its_limit_near_the_double_range(power, eta, rate, lbi_r_hat):
    # at 1e308 W, P_S Z and kappa P_S V Z overflowed: inf / inf gave nan and
    # inf / finite gave inf, both counted as no outage, and AF read 0.839 at
    # 131 standard errors from 0.992, with a RuntimeWarning.  At eta 0.7,
    # kappa is above 1 and kappa P_S itself is inf: AF read 0.683 against 0.788.
    # At a subnormal power rho is inf, and with the loop-back r_hat at 1e-200
    # V is 0, where rho V would be inf * 0 = nan: AF must read 1
    cfg = preset_config("nakagami", source_power=power, target_rate=rate)
    if eta is not None:
        cfg = dataclasses.replace(cfg, eh_time_fraction=eta)
        assert derive_constants(cfg).kappa * cfg.source_power == math.inf
    if lbi_r_hat is not None:
        cfg = dataclasses.replace(
            cfg, lbi_fading=dataclasses.replace(cfg.lbi_fading, r_hat=lbi_r_hat))
        assert derive_constants(cfg).rho == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = simulate_outage(cfg, "af", 100_000, 42)
    assert abs(est.p_hat - outage_af(cfg).value) <= 4.0 * est.stderr


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
