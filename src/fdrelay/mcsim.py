"""Monte Carlo outage estimator.

The simulator draws channel triples through the exact gamma-power sampler,
pushes them through the package's one SNR chain (``relaysys.gamma_eff``),
and counts threshold crossings.  It is the independent validation leg for
every closed form in the package: nothing here touches the incomplete
gamma, Bessel, or Meijer code paths.

Reproducibility contract: the stream for a run is a Philox (counter-based)
generator keyed by the user seed plus a content hash of the configuration.
The estimate is a pure function of (seed, config, n).  Consequences:

* the same configuration reuses the same channel triples for both relay
  modes (common random numbers, which sharpens mode comparisons); pass a
  different seed to decouple them;
* results never depend on grid position or on other cells, so permuting a
  grid of configurations permutes the results and nothing else.

The estimate does depend on the chunk size ``_CHUNK``: the three branches
are drawn in turn from one stream, chunk by chunk, so a different chunk
size assigns different draws to each branch once n exceeds it.  Chunk
invariance needs per-branch substreams and is not provided yet.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError
from .fading import sample_envelope
from .relaysys import SystemConfig, derive_constants, gamma_eff

_CHUNK = 1 << 21
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


def wilson_interval(p_hat: float, n: int, z: float = _Z975):
    """Wilson score interval; always contains p_hat, stable for small p."""
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)) / denom
    # containment of p_hat holds exactly in real arithmetic; enforce it
    # against roundoff at the endpoints
    lo = max(0.0, min(center - half, p_hat))
    hi = min(1.0, max(center + half, p_hat))
    return lo, hi


def _config_stream(cfg: SystemConfig, seed: int) -> np.random.Generator:
    """Philox stream keyed by (seed, content hash of cfg).

    Content keying makes the draw sequence a pure function of the scenario,
    independent of grid order or parallel placement.
    """
    parts = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if hasattr(v, "alpha"):
            parts.append(f"{f.name}=({v.alpha!r},{v.mu!r},{v.r_hat!r})")
        else:
            parts.append(f"{f.name}={v!r}")
    digest = hashlib.sha256("|".join(parts).encode()).digest()
    spawn_key = tuple(int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4))
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


def simulate_outage(cfg: SystemConfig, mode: str, n: int, seed: int) -> McEstimate:
    """Estimate the outage probability from n independent channel triples.

    ``mode`` selects the SNR chain: "df" uses min of the relay and
    destination SNRs, "af" the end-to-end amplify-and-forward SNR.  Outage
    is the strict event gamma < nu.  Bit-reproducible for fixed
    (cfg, n, seed), whatever else is simulated around it; see the module
    docstring for the chunk-size caveat.
    """
    if mode not in ("df", "af"):
        raise DomainError(f"mode must be 'df' or 'af', got {mode!r}")
    if n < 10_000:
        raise DomainError(f"need at least 1e4 samples, got {n}")
    c = derive_constants(cfg)
    rng = _config_stream(cfg, seed)
    count = 0
    remaining = n
    while remaining > 0:
        m = min(_CHUNK, remaining)
        h1 = sample_envelope(cfg.hop1_fading, rng, m)
        h2 = sample_envelope(cfg.hop2_fading, rng, m)
        h3 = sample_envelope(cfg.lbi_fading, rng, m)
        gamma = gamma_eff(mode, np.square(h1 * h2), np.square(h3), c)
        count += int(np.count_nonzero(gamma < c.nu))
        remaining -= m
    p_hat = count / n
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / n)
    lo, hi = wilson_interval(p_hat, n)
    return McEstimate(p_hat=p_hat, n_samples=n, stderr=stderr,
                      ci_low=lo, ci_high=hi, seed=seed)
