"""Monte Carlo outage estimator.

The simulator draws channel powers through the exact gamma-power transform,
pushes them through the package's one SNR chain (``gamma_eff``), and
counts threshold crossings; an inf on the way is a limit and counts, a nan
(Z = inf * 0 at tiny alpha) raises DomainError.  It is the independent
validation leg for every closed form in the package: nothing here
touches the incomplete gamma, Bessel, or Meijer code paths.

Reproducibility contract: draw i of branch j (hop 1, hop 2, loop-back) is
draw i mod ``_BLOCK`` of block i // ``_BLOCK``, and block b of branch j
comes from the PCG64DXSM stream
``SeedSequence(seed, spawn_key=(*shape_key, j, b))``, where ``shape_key``
is a SHA-256 hash of the three branch shapes (mu1, mu2, mu3) and nothing
else.  A last partial block takes the first draws of its stream.
The stream draws unit-scale gamma variates g; alpha, r_hat, powers, rate,
harvesting, noise and geometry are deterministic transforms applied to
them.  The estimate is a pure function of (seed, config, n).  Versions
that drew these blocks from Philox streams give other MC rows, which differ
from these within their standard errors.  Consequences:

* results never depend on grid position or on the other cells of a grid,
  so a cell of ``simulate_grid`` equals ``simulate_outage`` on that cell,
  and permuting a grid permutes the results and nothing else;
* cells that share a shape triple share draws, both relay modes included
  (common random numbers, which sharpens comparisons); errors along a
  curve are therefore correlated, not independent.  In return p_hat is
  exactly non-decreasing in the target rate and non-increasing in the
  source power, since the effective SNR of a draw does not depend on the
  rate and rises with the power.  Pass a different seed to decouple runs;
* the (shape triple, block) jobs of a grid are shared by up to two
  threads, the caller's included, never more than the usable cores; each
  takes the next job from one iterator, advanced under a lock, that makes
  a job only when it is taken, so no job state grows with n; each thread
  keeps its own buffers and integer crossing counts, summed at the end.
  Integer sums do not depend on order, so every estimate is bitwise the
  same for any thread count and any order of the blocks.  The threads
  run only the draws, the power transform, ``gamma_eff`` and the counting;
  constants are derived on the calling thread, and no thread outlives the
  call;
* a block is drawn and counted in chunks of ``_CHUNK`` from its streams,
  which fill variate by variate: the same counts, in a few chunk rows.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .relaysys import DerivedConstants, SystemConfig, derive_constants

_BLOCK = 1 << 16
_CHUNK = 1 << 14   # draws a block is drawn and counted in, a few rows of them per thread
_CELLS = 16   # cells of one SNR chain compared in one call, into a bool row each


@dataclass(frozen=True)
class McEstimate:
    """Estimated outage probability with its binomial standard error."""

    p_hat: float
    n_samples: int
    stderr: float


def _shape_key(shapes):
    """The four 32-bit words of the SHA-256 hash of the three branch shapes."""
    digest = hashlib.sha256(np.array(shapes, dtype="<f8").tobytes()).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4))


def _block_streams(shape_key, seed: int, block: int):
    """The generators of block ``block`` of branches 0, 1 and 2, at their first draw."""
    return [np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence(seed, spawn_key=(*shape_key, j, block)))) for j in range(3)]


def _power(g, p, out):
    """Squared envelope r_hat^2 (g/mu)^(2/alpha) from unit gammas g, into out (may be g)."""
    # a division by mu = 1, a power 2 / alpha = 1 and a product with
    # r_hat^2 = 1 change no bit: each is skipped, the last unless g must
    # still be copied into out
    x = g if p.mu == 1.0 else np.divide(g, p.mu, out=out)
    x = x if p.alpha == 2.0 else np.power(x, 2.0 / p.alpha, out=out)
    return x if p.r_hat == 1.0 and x is out else np.multiply(x, p.r_hat * p.r_hat, out=out)


def gamma_eff(mode: str, z, v, c: DerivedConstants, out=None):
    """Effective end-to-end SNR for Z = h1^2 h2^2 and V = h3^2, elementwise.

    "df": min(1/(kappa V), kappa P_S Z / (path sigma_D^2)), the smaller of
    the relay-side SNR (the source and loop-back terms both scale with the
    source power, so only kappa and V remain) and the destination SNR.
    "af": Z / (kappa V Z + rho (V + 1/kappa)), rho = path sigma_R^2 / P_S,
    bounded above by 1/(kappa V): the loop-back floor survives any source
    power.  Outage is gamma < nu.

    With ``out`` (an array the shape of z and v, neither of which it may
    be) the result is written there, bit for bit the same; z and v are
    never written.
    """
    if mode == "df":
        t = np.divide(1.0, np.multiply(v, c.kappa, out=out), out=out)
        return np.minimum(t, c.dest_coef * z, out=out)
    if mode == "af":
        # kappa V Z in one temporary, rho (V + 1/kappa) in out; not rho V +
        # rho / kappa: rho is inf at subnormal powers and V may be 0, where
        # rho V is nan
        t = np.multiply(v, c.kappa)
        t *= z
        t += np.multiply(np.add(v, 1.0 / c.kappa, out=out), c.rho, out=out)
        return np.divide(z, t, out=out)
    raise DomainError(f"mode must be 'df' or 'af', got {mode!r}")


def _workers() -> int:
    """Threads that share the blocks of a grid: the usable cores, at most 2."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def _run_on_threads(work, workers: int):
    """The results of work() run once on each of ``workers`` threads, this one included.

    Every started thread has ended when this returns or raises; the first
    exception of any thread is raised.
    """
    results, errors = [None] * workers, []

    def run(k):
        try:
            results[k] = work()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, workers)]
    for t in threads:
        t.start()
    try:
        run(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return results


def simulate_grid(cfgs, modes, n: int, seed: int):
    """Estimate the outage of every (config, mode) cell from n draws each.

    Returns ``est[i][k]`` for ``cfgs[i]`` under ``modes[k]``.  Each block of
    unit gammas is drawn once per distinct shape triple, the channel powers
    once per distinct fading triple, and the SNR chain once per mode and
    set of derived constants other than the threshold nu; every cell then
    counts its own crossings gamma < nu.  Cell (i, k) is bitwise the
    estimate ``simulate_outage(cfgs[i], modes[k], n, seed)``; see the
    module docstring for the stream contract and the threads.
    """
    for mode in modes:
        if mode not in ("df", "af"):
            raise DomainError(f"mode must be 'df' or 'af', got {mode!r}")
    if n < 10_000:
        raise DomainError(f"need at least 1e4 samples, got {n}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    consts = [derive_constants(cfg) for cfg in cfgs]
    # shape triple -> fading triple -> SNR-chain constants -> cell indices,
    # then groups of up to _CELLS cells with their thresholds nu as a column
    plan = {}
    for i, (cfg, c) in enumerate(zip(cfgs, consts)):
        fadings = (cfg.hop1_fading, cfg.hop2_fading, cfg.lbi_fading)
        by_fading = plan.setdefault(tuple(p.mu for p in fadings), {})
        by_chain = by_fading.setdefault(fadings, {})
        by_chain.setdefault(replace(c, nu=0.0), []).append(i)
    for by_chain in [b for by_fading in plan.values() for b in by_fading.values()]:
        for chain, cells in by_chain.items():
            nus = np.array([[consts[i].nu] for i in cells])
            by_chain[chain] = [(cells[s:s + _CELLS], nus[s:s + _CELLS]) for s in range(0, len(cells), _CELLS)]
    # (shape triple, block) jobs, made one at a time as threads take them
    keyed = [(shapes, _shape_key(shapes), by_fading) for shapes, by_fading in plan.items()]
    jobs = ((shapes, key, block, min(_BLOCK, n - start), by_fading)
            for shapes, key, by_fading in keyed for block, start in enumerate(range(0, n, _BLOCK)))
    lock = threading.Lock()

    def next_job():
        with lock:
            return next(jobs, None)

    def count_jobs():
        counts = [[0] * len(modes) for _ in cfgs]
        # rows 0-2 take the draws and row 3 the SNR; a shape triple under
        # several fading triples keeps its draws, and rows 4-5 (untouched,
        # so not resident, otherwise) take the channel powers
        buf = np.empty((6, min(n, _CHUNK)))
        below = np.empty((_CELLS, buf.shape[1]), dtype=bool)
        try:
            # in each thread: numpy's error state does not carry into threads
            with np.errstate(divide="ignore", over="ignore", invalid="raise"):
                for shapes, key, block, m, by_fading in iter(next_job, None):
                    streams = _block_streams(key, seed, block)
                    for w in (min(_CHUNK, m - start) for start in range(0, m, _CHUNK)):
                        g = [gen.standard_gamma(mu, out=row)
                             for mu, gen, row in zip(shapes, streams, buf[:3, :w])]
                        out = buf[3, :w]
                        for t, ((f1, f2, f3), by_chain) in enumerate(by_fading.items()):
                            # the last fading triple may overwrite the draws
                            dst = g if t == len(by_fading) - 1 else (buf[4, :w], out, buf[5, :w])
                            z = _power(g[0], f1, dst[0])
                            z *= _power(g[1], f2, dst[1])
                            v = _power(g[2], f3, dst[2])
                            for chain, groups in by_chain.items():
                                for k, mode in enumerate(modes):
                                    gamma = gamma_eff(mode, z, v, chain, out=out)
                                    for cells, nus in groups:
                                        hits = np.less(gamma, nus, out=below[:len(cells), :w])
                                        for i, row in zip(cells, hits):
                                            counts[i][k] += np.count_nonzero(row)
        except BaseException as exc:
            with lock:
                jobs.close()   # the other threads stop after their current block
            if isinstance(exc, FloatingPointError):
                raise DomainError(f"Monte Carlo draws leave the double range ({exc})") from None
            raise
        return counts

    workers = max(1, min(_workers(), len(keyed) * -(-n // _BLOCK)))
    counts = _run_on_threads(count_jobs, workers)
    return [[_estimate(sum(cell), n) for cell in zip(*rows)] for rows in zip(*counts)]


def _estimate(count: int, n: int) -> McEstimate:
    p_hat = count / n
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / n)
    return McEstimate(p_hat=p_hat, n_samples=n, stderr=stderr)


def simulate_outage(cfg: SystemConfig, mode: str, n: int, seed: int) -> McEstimate:
    """Estimate the outage probability from n independent channel triples.

    ``mode`` selects the SNR chain: "df" uses min of the relay and
    destination SNRs, "af" the end-to-end amplify-and-forward SNR.  Outage
    is the strict event gamma < nu.  Bit-reproducible for fixed
    (cfg, n, seed), whatever else is simulated around it.
    """
    return simulate_grid([cfg], [mode], n, seed)[0][0]
