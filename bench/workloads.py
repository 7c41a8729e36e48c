"""Workload plans: the CLI sweeps one round runs, built from the seed alone.

A plan is plain JSON: each sweep carries the ``fdrelay`` argv and, for
scenario files, the file content; each cell (scenario, rate) carries the
configuration the oracle evaluates.  The program sees only the argv and the
files.
"""

from __future__ import annotations

import math
import random

import oracle

RATES = (0.5, 6.0, 0.5)  # the paper's rate axis, start:stop:step
PRESET_POWERS = (1.0, 10.0)
# the three presets as the package README defines them: (alpha, mu) on all
# three branches, unit r_hat, 5 m hops with exponent 2, 1e-4 W noise
PRESETS = {"rayleigh": (2.0, 1.0), "weibull": (3.0, 1.0), "nakagami": (2.0, 2.0)}
MC_SAMPLES = 1_000_000   # as scripts/rate_sweep_experiment.py runs the grid
GRID_MC_SAMPLES = 100_000

# One shape-grid round: 24 scenarios, each a new shape pair (mu1, mu2).
# The design is fixed and the seed only jitters the shapes, because the cost
# of an AF row grows with mu1 + mu2 and with the route: freely drawn shapes
# made the cost of a round swing by 20-60% between seeds.  Per kind of gap
# mu2 - mu1: (scenarios, rates each, lowest mu1, integer part of the gap).
# The near-integer and float-noise kinds reach the kernel quadrature, 10-30x
# dearer per row, so they keep to one rate and are fewer, so that the median
# sweep is a cheap one.
GRID_KINDS = {
    "non-integer": (8, 2, 1.0, 0),
    "integer": (8, 2, 1.0, 1),
    "near-integer": (4, 1, 2.0, None),   # gap 0 or 1, alternating
    "float-noise": (4, 1, 1.5, 1),
}
GRID_ALPHAS = (1.5, 2.0, 2.5, 3.0)
GRID_POWERS = (1.0, 2.0, 5.0, 10.0)
GRID_STEP = 0.25
# weak loop-back, so outage is set by the hops; its shape stays fixed
# because below 1 the density is singular at 0 and an AF row costs up to
# 5x more, by a factor that swings with the other shapes
GRID_LBI_MU = 2.0
GRID_LBI_R_HAT = 0.1

# AF oracle cells checked per run, drawn from the seed before any result
AF_ORACLE_CELLS = 6

WORKLOADS = ("analytic-rate-sweep", "mc-rate-sweep", "shape-grid")


def base_config(power, rate, hop1, hop2, lbi):
    return {
        "source_power": power, "hop1_distance": 5.0, "hop2_distance": 5.0,
        "hop1_pathloss": 2.0, "hop2_pathloss": 2.0,
        "hop1_fading": hop1, "hop2_fading": hop2, "lbi_fading": lbi,
        "noise_antenna_var": 5e-5, "noise_conversion_var": 5e-5, "noise_dest_var": 1e-4,
        "eh_efficiency": 1.0, "eh_time_fraction": 0.5, "target_rate": rate,
    }


def grid_values(start, stop, step):
    n = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(n)]


def _preset_plan(seed, method):
    sweeps = []
    for name, (alpha, mu) in PRESETS.items():
        branch = {"alpha": alpha, "mu": mu, "r_hat": 1.0}
        for power in PRESET_POWERS:
            argv = ["--preset", name, "--mode", "both", "--method", method,
                    "--rate-sweep", "{:g}:{:g}:{:g}".format(*RATES),
                    "--power", f"{power:g}", "--seed", str(seed)]
            if method == "mc":
                argv += ["--samples", str(MC_SAMPLES)]
            sweeps.append({
                "id": name, "argv": argv, "file": None,
                "config": base_config(power, RATES[0], branch, branch, branch),
                "rates": grid_values(*RATES),
                "methods": [method],
                "samples": MC_SAMPLES if method == "mc" else 0,
            })
    random.Random(seed).shuffle(sweeps)
    return sweeps


def _noisy_pairs(lo, hi, k):
    """Two-decimal shapes in [lo, hi] whose float gap misses the integer k."""
    out = []
    for d in range(round(100 * lo), round(100 * hi) + 1):
        mu1, mu2 = float(f"{d / 100:.2f}"), float(f"{(d + 100 * k) / 100:.2f}")
        if mu2 - mu1 != k:
            out.append((mu1, mu2))
    return out


def _shape_pair(kind, j, rng):
    """Shapes of slot j of a kind: the slot's anchor, jittered by the seed."""
    _, _, base, k = GRID_KINDS[kind]
    anchor = base + 0.125 * j
    if kind == "non-integer":
        mu1 = round(anchor + rng.uniform(0.0, 0.1), 3)
        mu2 = round(mu1 + rng.uniform(0.4, 0.6), 3)
    elif kind == "integer":
        mu1 = anchor + rng.choice((0.0, 0.0625))   # exact in binary
        mu2 = mu1 + k
    elif kind == "near-integer":
        mu1 = round(anchor + rng.uniform(0.0, 0.1), 6)
        eps = rng.choice((-1.0, 1.0)) * rng.uniform(1e-6, 9e-5)
        mu2 = round(mu1 + j % 2 + eps, 9)
    elif kind == "float-noise":
        mu1, mu2 = rng.choice(_noisy_pairs(anchor, anchor + 0.12, k))
    else:
        raise ValueError(kind)
    gap = abs(mu2 - mu1)
    dist = abs(gap - round(gap))
    expected = {"non-integer": dist >= 0.1, "integer": dist == 0.0,
                "near-integer": 0.0 < dist < 1e-4 and gap > 0.0,
                "float-noise": 0.0 < dist < 1e-12}[kind]
    if not expected:
        raise ArithmeticError(f"{kind} pair {mu1}/{mu2} has gap {gap!r}")
    return (mu1, mu2) if rng.random() < 0.5 else (mu2, mu1)


def _grid_plan(seed, run_dir):
    rng = random.Random(seed)
    sweeps = []
    for kind, (count, n_rates, _, _) in GRID_KINDS.items():
        for j in range(count):
            mu1, mu2 = _shape_pair(kind, j, rng)
            alpha = GRID_ALPHAS[j % 4] if n_rates > 1 else GRID_ALPHAS[1 + 2 * (j % 2)]
            cfg = base_config(GRID_POWERS[(3 * j) % 4], GRID_STEP,
                              {"alpha": alpha, "mu": mu1, "r_hat": 1.0},
                              {"alpha": alpha, "mu": mu2, "r_hat": 1.0},
                              {"alpha": alpha, "mu": GRID_LBI_MU, "r_hat": GRID_LBI_R_HAT})
            # the first rate on the grid whose DF outage reaches 1/2, after
            # the one below it if two; DF outage rises with the rate: bisect
            lo, hi = 1, 40
            while lo < hi:
                mid = (lo + hi) // 2
                if oracle.outage_df(dict(cfg, target_rate=mid * GRID_STEP)) < 0.5:
                    lo = mid + 1
                else:
                    hi = mid
            start = max(1, lo - n_rates + 1) * GRID_STEP
            stop = start + (n_rates - 1) * GRID_STEP
            sid = f"sg{len(sweeps)}-{kind}"
            path = f"{run_dir}/{sid}.json"
            cfg["target_rate"] = start
            sweep = {"parameter": "target_rate", "start": start, "stop": stop, "step": GRID_STEP}
            sweeps.append({
                "id": sid, "file": {"path": path, "content": {"id": sid, "config": cfg, "sweep": sweep}},
                "argv": ["--config", path, "--mode", "both", "--method", "both",
                         "--samples", str(GRID_MC_SAMPLES), "--seed", str(seed)],
                "config": cfg, "rates": grid_values(start, stop, GRID_STEP),
                "methods": ["analytic", "mc"], "samples": GRID_MC_SAMPLES,
            })
    pairs = {tuple(sorted((s["config"]["hop1_fading"]["mu"], s["config"]["hop2_fading"]["mu"])))
             for s in sweeps}
    if len(pairs) != len(sweeps):   # each scenario must pay a cold clamp search
        raise ArithmeticError("shape pairs repeat within a round")
    return sweeps


def build_plan(workload, seed, run_dir):
    """Sweeps of one round, plus the seeded choice of AF oracle cells."""
    if workload == "analytic-rate-sweep":
        sweeps = _preset_plan(seed, "analytic")
    elif workload == "mc-rate-sweep":
        sweeps = _preset_plan(seed, "mc")
    elif workload == "shape-grid":
        sweeps = _grid_plan(seed, run_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cells = [(i, r) for i, s in enumerate(sweeps) for r in range(len(s["rates"]))]
    af_cells = sorted(random.Random(f"af-oracle-{seed}").sample(cells, AF_ORACLE_CELLS))
    return {"workload": workload, "seed": seed, "sweeps": sweeps,
            "af_cells": [list(c) for c in af_cells]}


def cell_config(sweep, rate_index):
    return dict(sweep["config"], target_rate=sweep["rates"][rate_index])


def oracle_values(plan):
    """{(sweep, rate index, mode): reference outage}; AF only on the seeded cells."""
    ref = {}
    for i, sweep in enumerate(plan["sweeps"]):
        for r in range(len(sweep["rates"])):
            ref[(i, r, "df")] = oracle.outage_df(cell_config(sweep, r))
    for i, r in plan["af_cells"]:
        ref[(i, r, "af")] = oracle.outage_af(cell_config(plan["sweeps"][i], r))
    bad = {k: v for k, v in ref.items() if not (math.isfinite(v) and 0.0 <= v <= 1.0)}
    if bad:
        raise ArithmeticError(f"oracle values outside [0, 1]: {bad}")
    return ref
