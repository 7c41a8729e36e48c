"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime.  Tolerances are fixed here, not tuned.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear;
the Monte Carlo criteria dominate the clock (a few minutes at 1e7 samples
per grid point).
"""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
from scipy import integrate, special

from fdrelay.cli import CSV_HEADER, apply_sweep_value
from fdrelay.fading import (
    AlphaMuParams,
    ProductDistParams,
    cdf_power,
    pdf_power,
    sample_envelope,
    _cdf_product_meijer,
)
from fdrelay.mcsim import simulate_grid
from fdrelay.outage import outage_af, outage_df, outage_high_snr
from fdrelay.presets import PRESET_NAMES, preset_config
from reference import _cdf_product_quadrature, wilson_interval

MC_SAMPLES = 10_000_000
MC_SEED = 42
RATES = [0.5 * k for k in range(1, 13)]          # 0.5 .. 6.0
POWERS = (1.0, 10.0)


def _report(num, name, t0):
    print(f"[acceptance] criterion {num} ({name}): PASS ({time.perf_counter() - t0:.1f} s)")


# ----------------------------------------------------------------------
# 1. distribution correctness per preset

def test_criterion_1_distribution_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MC_SEED)
    for name in PRESET_NAMES:
        p = preset_config(name).hop1_fading
        upper_r = (60.0 / p.rate) ** (1.0 / p.alpha)
        val = cdf_power(p, upper_r * upper_r)
        assert abs(val - 1.0) <= 1e-8, f"{name}: envelope mass {val}"
        upper_x = upper_r ** 2
        val, _ = integrate.quad(lambda x: pdf_power(p, x), 0.0, upper_x, limit=300)
        assert abs(val - 1.0) <= 1e-8, f"{name}: power density mass {val}"

        n = 1_000_000
        w = sample_envelope(p, rng, n) ** p.alpha
        mean = float(np.mean(w))
        se = float(np.std(w, ddof=1)) / math.sqrt(n)
        assert abs(mean - p.r_hat ** p.alpha) <= 3.0 * se, name

        var = float(np.var(w, ddof=1))
        mu_hat = mean * mean / var
        d = w - mean
        m2, m3, m4 = (float(np.mean(d ** k)) for k in (2, 3, 4))
        g_mean = 2.0 * mean / m2
        g_var = -mean * mean / (m2 * m2)
        se_mu = math.sqrt((g_mean ** 2 * m2 + 2.0 * g_mean * g_var * m3
                           + g_var ** 2 * (m4 - m2 * m2)) / n)
        assert abs(mu_hat - p.mu) <= 3.0 * se_mu, name
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"criterion 1 runtime {dt:.1f} s over budget"
    _report(1, "distribution correctness", t0)


# ----------------------------------------------------------------------
# 2. dual-route product CDF agreement

def test_criterion_2_product_cdf_dual_route():
    t0 = time.perf_counter()
    z_grid = np.logspace(-6.0, 3.0, 25)
    worst = 0.0
    for mu1 in (0.5, 1.0, 1.5, 2.0, 3.5):
        for mu2 in (0.5, 1.0, 1.5, 2.0, 3.5):
            for alpha in (1.0, 2.0, 3.0):
                pp = ProductDistParams(AlphaMuParams(alpha, mu1),
                                       AlphaMuParams(alpha, mu2))
                for z in z_grid:
                    a = _cdf_product_meijer(pp, float(z))[0]
                    b = _cdf_product_quadrature(pp, float(z))[0]
                    worst = max(worst, abs(a - b))
    assert worst <= 1e-7, f"dual-route disagreement {worst:.3e}"

    pp = ProductDistParams(AlphaMuParams(2.0, 1.0), AlphaMuParams(2.0, 1.0))
    worst_ray = 0.0
    for z in z_grid:
        closed = 1.0 - 2.0 * math.sqrt(z) * float(special.kv(1, 2.0 * math.sqrt(z)))
        worst_ray = max(worst_ray, abs(_cdf_product_meijer(pp, float(z))[0] - closed))
    assert worst_ray <= 1e-9, f"double-Rayleigh mismatch {worst_ray:.3e}"
    dt = time.perf_counter() - t0
    assert dt < 120.0, f"criterion 2 runtime {dt:.1f} s over budget"
    _report(2, "product-CDF dual route", t0)


# ----------------------------------------------------------------------
# 3 and 4. analytic vs Monte Carlo on the full preset grid

def _grid_configs():
    for name in PRESET_NAMES:
        for ps in POWERS:
            for rate in RATES:
                yield name, ps, rate, preset_config(name, source_power=ps,
                                                    target_rate=rate)


def _consistent(ref_value, est, extra=0.0):
    # a degenerate count (every sample on one side) has zero normal stderr;
    # the Wilson interval is the meaningful acceptance region there
    if abs(ref_value - est.p_hat) <= 3.0 * est.stderr + extra:
        return True
    ci_low, ci_high = wilson_interval(est.p_hat, est.n_samples)
    return ci_low - extra <= ref_value <= ci_high + extra


def _grid_estimates(mode):
    cells = list(_grid_configs())
    ests = simulate_grid([cell[3] for cell in cells], [mode], MC_SAMPLES, MC_SEED)
    return [(*cell, row[0]) for cell, row in zip(cells, ests)]


def test_criterion_3_df_analytic_vs_mc():
    t0 = time.perf_counter()
    for name, ps, rate, cfg, est in _grid_estimates("df"):
        ref = outage_df(cfg)
        assert _consistent(ref.value, est), (
            f"df {name} P={ps} R={rate}: |{ref.value:.8f} - {est.p_hat:.8f}|"
            f" > 3 x {est.stderr:.2e}")
    dt = time.perf_counter() - t0
    assert dt < 600.0, f"criterion 3 runtime {dt:.1f} s over budget"
    _report(3, "DF analytic vs Monte Carlo", t0)


def test_criterion_4_af_analytic_vs_mc():
    t0 = time.perf_counter()
    for name, ps, rate, cfg, est in _grid_estimates("af"):
        ref = outage_af(cfg)
        assert ref.converged
        assert _consistent(ref.value, est, extra=ref.numeric_error), (
            f"af {name} P={ps} R={rate}: |{ref.value:.8f} - {est.p_hat:.8f}|"
            f" > 3 x {est.stderr:.2e}")
    dt = time.perf_counter() - t0
    assert dt < 900.0, f"criterion 4 runtime {dt:.1f} s over budget"
    _report(4, "AF analytic vs Monte Carlo", t0)


# ----------------------------------------------------------------------
# 5. decode-and-forward never loses to amplify-and-forward

def test_criterion_5_mode_ordering():
    t0 = time.perf_counter()
    for name, ps, rate, cfg in _grid_configs():
        df = outage_df(cfg)
        af = outage_af(cfg)
        # every preset has sigma_R^2 = sigma_D^2, where AF is DF plus a
        # non-negative gap integral: the order holds on the values alone
        assert df.value <= af.value, (
            f"{name} P={ps} R={rate}: df {df.value} > af {af.value}")
    _report(5, "DF <= AF ordering", t0)


# ----------------------------------------------------------------------
# 6. both modes collapse onto the high-SNR floor

def test_criterion_6_high_snr_coincidence():
    t0 = time.perf_counter()
    gaps_df = []
    gaps_af = []
    for ps in (1e3, 1e4, 1e6):
        cfg = preset_config("rayleigh", source_power=ps)
        floor = outage_high_snr(cfg).value
        gaps_df.append(abs(outage_df(cfg).value - floor))
        gaps_af.append(abs(outage_af(cfg).value - floor))
    assert gaps_df[0] > gaps_df[1] > gaps_df[2], gaps_df
    assert gaps_af[0] > gaps_af[1] > gaps_af[2], gaps_af
    assert gaps_df[2] < 1e-3
    assert gaps_af[2] < 1e-3
    _report(6, "high-SNR coincidence", t0)


# ----------------------------------------------------------------------
# 7. monotone in the rate, monotone in the power

def test_criterion_7_monotonicity():
    t0 = time.perf_counter()
    power_grid = (0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e4, 1e6)
    for name in PRESET_NAMES:
        for ps in POWERS:
            for engine in (outage_df, outage_af):
                vals = []
                errs = []
                for rate in RATES:
                    r = engine(preset_config(name, source_power=ps, target_rate=rate))
                    vals.append(r.value)
                    errs.append(r.numeric_error)
                for i in range(len(vals) - 1):
                    slack = max(1e-12, errs[i] + errs[i + 1])
                    assert vals[i + 1] >= vals[i] - slack, (name, ps, engine, RATES[i])
        for engine in (outage_df, outage_af):
            vals = []
            errs = []
            for ps in power_grid:
                r = engine(preset_config(name, source_power=ps, target_rate=1.0))
                vals.append(r.value)
                errs.append(r.numeric_error)
            for i in range(len(vals) - 1):
                slack = max(1e-12, errs[i] + errs[i + 1])
                assert vals[i + 1] <= vals[i] + slack, (name, engine, power_grid[i])
    _report(7, "monotone in rate and power", t0)


# ----------------------------------------------------------------------
# 8. direction of the nonlinearity-exponent sweep flips with the power

def test_criterion_8_alpha_sweep_shape():
    # at 10 W the link legs dominate and hardening the fading helps; at 1 W
    # the destination threshold sits above the hardened product mass and the
    # same hardening hurts.  Residual loop-back at 0.1 amplitude, rate 2.5.
    t0 = time.perf_counter()
    for mu in (1.0, 2.0):
        for ps, direction in ((10.0, -1.0), (1.0, +1.0)):
            base = apply_sweep_value(
                preset_config("rayleigh", source_power=ps, target_rate=2.5), "mu", mu)
            base = dataclasses.replace(
                base, lbi_fading=dataclasses.replace(base.lbi_fading, r_hat=0.1))
            for engine in (outage_df, outage_af):
                lo = engine(apply_sweep_value(base, "alpha", 1.0)).value
                hi = engine(apply_sweep_value(base, "alpha", 4.0)).value
                assert (hi - lo) * direction >= 0.0, (
                    f"mu={mu} P={ps} {engine.__name__}: "
                    f"OP(alpha=1)={lo:.4f}, OP(alpha=4)={hi:.4f}")
    _report(8, "alpha-sweep direction flip", t0)


# ----------------------------------------------------------------------
# 9. byte-identical CLI output for identical seeds

def test_criterion_9_cli_determinism():
    t0 = time.perf_counter()
    args = [sys.executable, "-m", "fdrelay.cli",
            "--preset", "rayleigh", "--mode", "both", "--method", "both",
            "--rate-sweep", "0.5:6:0.5", "--samples", "100000", "--seed", str(MC_SEED)]
    first = subprocess.run(args, capture_output=True, text=True, check=True).stdout
    second = subprocess.run(args, capture_output=True, text=True, check=True).stdout
    assert first == second
    assert first.splitlines()[0] == CSV_HEADER
    assert len(first.splitlines()) == 1 + 12 * 2 * 2
    _report(9, "CLI determinism", t0)
