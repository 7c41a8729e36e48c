"""Monte Carlo outage estimator.

The simulator draws channel powers through the exact gamma-power transform,
pushes them through the package's one SNR chain (``relaysys.gamma_eff``),
and counts threshold crossings.  It is the independent validation leg for
every closed form in the package: nothing here touches the incomplete
gamma, Bessel, or Meijer code paths.

Reproducibility contract: draw i of branch j (hop 1, hop 2, loop-back) is
draw i mod ``_BLOCK`` of block i // ``_BLOCK``, and block b of branch j
comes from the Philox (counter-based) stream
``SeedSequence(seed, spawn_key=(*shape_key, j, b))``, where ``shape_key``
is a SHA-256 hash of the three branch shapes (mu1, mu2, mu3) and nothing
else.  A last partial block takes the first draws of its stream.
The stream draws unit-scale gamma variates g; alpha, r_hat, powers, rate,
harvesting, noise and geometry are deterministic transforms applied to
them.  The estimate is a pure function of (seed, config, n).  Consequences:

* results never depend on grid position or on the other cells of a grid,
  so a cell of ``simulate_grid`` equals ``simulate_outage`` on that cell,
  and permuting a grid permutes the results and nothing else;
* cells that share a shape triple share draws, both relay modes included
  (common random numbers, which sharpens comparisons); errors along a
  curve are therefore correlated, not independent.  In return p_hat is
  exactly non-decreasing in the target rate and non-increasing in the
  source power, since the effective SNR of a draw does not depend on the
  rate and rises with the power.  Pass a different seed to decouple runs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .relaysys import SystemConfig, derive_constants, gamma_eff

_BLOCK = 1 << 16
_Z975 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class McEstimate:
    """Estimated outage probability with a 95% Wilson interval."""

    p_hat: float
    n_samples: int
    stderr: float
    ci_low: float
    ci_high: float
    seed: int


def wilson_interval(p_hat: float, n: int):
    """95% Wilson score interval; always contains p_hat, stable for small p."""
    z = _Z975
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)) / denom
    # containment of p_hat holds exactly in real arithmetic; enforce it
    # against roundoff at the endpoints
    lo = max(0.0, min(center - half, p_hat))
    hi = min(1.0, max(center + half, p_hat))
    return lo, hi


def _unit_gammas(shapes, seed: int, block: int, m: int):
    """The m first unit-scale gamma draws of block ``block`` of each branch."""
    digest = hashlib.sha256(np.array(shapes, dtype="<f8").tobytes()).digest()
    shape_key = tuple(int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4))
    out = []
    for j, mu in enumerate(shapes):
        ss = np.random.SeedSequence(seed, spawn_key=(*shape_key, j, block))
        out.append(np.random.Generator(np.random.Philox(ss)).gamma(mu, 1.0, m))
    return out


def _power(g, p):
    """Squared envelope r_hat^2 (g/mu)^(2/alpha) from unit gammas g."""
    x = g / p.mu
    if p.alpha != 2.0:
        x **= 2.0 / p.alpha
    return x * (p.r_hat * p.r_hat)


def simulate_grid(cfgs, modes, n: int, seed: int):
    """Estimate the outage of every (config, mode) cell from n draws each.

    Returns ``est[i][k]`` for ``cfgs[i]`` under ``modes[k]``.  Each block of
    unit gammas is drawn once per distinct shape triple, the channel powers
    once per distinct fading triple, and the SNR chain once per mode and
    set of derived constants other than the threshold nu; every cell then
    counts its own crossings gamma < nu.  Cell (i, k) is bitwise the
    estimate ``simulate_outage(cfgs[i], modes[k], n, seed)``; see the
    module docstring for the stream contract.
    """
    for mode in modes:
        if mode not in ("df", "af"):
            raise DomainError(f"mode must be 'df' or 'af', got {mode!r}")
    if n < 10_000:
        raise DomainError(f"need at least 1e4 samples, got {n}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    consts = [derive_constants(cfg) for cfg in cfgs]
    # shape triple -> fading triple -> SNR-chain constants -> cell indices
    plan = {}
    for i, (cfg, c) in enumerate(zip(cfgs, consts)):
        fadings = (cfg.hop1_fading, cfg.hop2_fading, cfg.lbi_fading)
        by_fading = plan.setdefault(tuple(p.mu for p in fadings), {})
        by_chain = by_fading.setdefault(fadings, {})
        by_chain.setdefault(replace(c, nu=0.0), []).append(i)
    counts = np.zeros((len(cfgs), len(modes)), dtype=np.int64)
    for shapes, by_fading in plan.items():
        for block, start in enumerate(range(0, n, _BLOCK)):
            g = _unit_gammas(shapes, seed, block, min(_BLOCK, n - start))
            for (f1, f2, f3), by_chain in by_fading.items():
                z = _power(g[0], f1) * _power(g[1], f2)
                v = _power(g[2], f3)
                for chain, cells in by_chain.items():
                    for k, mode in enumerate(modes):
                        gamma = gamma_eff(mode, z, v, chain)
                        for i in cells:
                            counts[i, k] += np.count_nonzero(gamma < consts[i].nu)
    return [[_estimate(int(count), n, seed) for count in row] for row in counts]


def _estimate(count: int, n: int, seed: int) -> McEstimate:
    p_hat = count / n
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / n)
    lo, hi = wilson_interval(p_hat, n)
    return McEstimate(p_hat=p_hat, n_samples=n, stderr=stderr,
                      ci_low=lo, ci_high=hi, seed=seed)


def simulate_outage(cfg: SystemConfig, mode: str, n: int, seed: int) -> McEstimate:
    """Estimate the outage probability from n independent channel triples.

    ``mode`` selects the SNR chain: "df" uses min of the relay and
    destination SNRs, "af" the end-to-end amplify-and-forward SNR.  Outage
    is the strict event gamma < nu.  Bit-reproducible for fixed
    (cfg, n, seed), whatever else is simulated around it.
    """
    return simulate_grid([cfg], [mode], n, seed)[0][0]
