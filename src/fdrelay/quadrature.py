"""Adaptive Gauss-Kronrod quadrature.

A 7-point Gauss / 15-point Kronrod pair drives a worst-interval-first
bisection loop.  The Kronrod extension supplies the value, the Gauss/Kronrod
discrepancy the local error estimate.  All outage integrals run through
this module, so the quadrature part of the error estimates reported by the
analytic engines traces back to here.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass

EPS = sys.float_info.epsilon

# (node, Gauss weight, Kronrod weight) on [-1, 1]; zero Gauss weight marks
# Kronrod-only nodes.
_G7K15 = (
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.207784955007898, 0.0, 0.204432940075298),
    (-0.207784955007898, 0.0, 0.204432940075298),
    (+0.586087235467691, 0.0, 0.169004726639267),
    (-0.586087235467691, 0.0, 0.169004726639267),
    (+0.864864423359769, 0.0, 0.104790010322250),
    (-0.864864423359769, 0.0, 0.104790010322250),
    (+0.991455371120813, 0.0, 0.022935322010529),
    (-0.991455371120813, 0.0, 0.022935322010529),
)


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and subdivision budget for the adaptive integrator."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")


def gauss_kronrod(f, a: float, b: float):
    """One G7/K15 panel on [a, b].

    Returns (integral, error_estimate).  Nodes are interior, so integrable
    endpoint singularities are never evaluated directly.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ig = 0.0
    ik = 0.0
    ia = 0.0
    for z, wg, wk in _G7K15:
        fz = f(mid + half * z)
        ig += wg * fz
        ik += wk * fz
        ia += wk * (fz if fz >= 0.0 else -fz)
    ig *= half
    ik *= half
    ia *= abs(half)
    raw = abs(ik - ig)
    # sharpen the estimate once the pair agrees well, as in the usual
    # QUADPACK heuristic; keep a floor tied to roundoff of the panel
    err = min(raw, (200.0 * raw) ** 1.5) if raw > 0.0 else 0.0
    err = max(err, 50.0 * EPS * ia)
    return ik, err


def integrate_adaptive(f, a: float, b: float,
                       settings: QuadratureSettings | None = None,
                       breakpoints=()):
    """Adaptive integral of ``f`` over [a, b].

    ``breakpoints`` seed the initial partition (useful when the integrand
    mass sits far from the interval midpoint).  Returns
    (value, error_estimate, converged).
    """
    settings = settings or QuadratureSettings()
    if a == b:
        return 0.0, 0.0, True
    pts = [a] + sorted(p for p in breakpoints if a < p < b) + [b]
    heap = []
    count = 0
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, err = gauss_kronrod(f, lo, hi)
        heap.append((-err, count, lo, hi, val, err))
        count += 1
    heapq.heapify(heap)
    for i in range(settings.max_subdivisions + 1):
        total = sum(item[4] for item in heap)
        total_err = sum(item[5] for item in heap)
        converged = total_err <= max(settings.abs_tol, settings.rel_tol * abs(total))
        if converged or i == settings.max_subdivisions:
            return total, total_err, converged
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at roundoff resolution, keep it and give up refining
            heap.append((0.0, count, lo, hi, val, err))
            count += 1
            continue
        v1, e1 = gauss_kronrod(f, lo, mid)
        v2, e2 = gauss_kronrod(f, mid, hi)
        heapq.heappush(heap, (-e1, count, lo, mid, v1, e1))
        count += 1
        heapq.heappush(heap, (-e2, count, mid, hi, v2, e2))
        count += 1


def integrate_to_infinity(f, a: float,
                          settings: QuadratureSettings | None = None,
                          breakpoints=()):
    """Integral of ``f`` over [a, inf) via the map x = a + t/(1-t), t in [0, 1).

    ``breakpoints`` are x-space hints; they are mapped into t-space.  The
    Kronrod nodes never touch t = 1, so the transform stays finite.
    """
    def g(t):
        one_m = 1.0 - t
        x = a + t / one_m
        return f(x) / (one_m * one_m)

    tb = [(p - a) / (1.0 + (p - a)) for p in breakpoints if p > a]
    # default scale diversity so distant mass is not missed by one panel
    tb += [0.1, 0.5, 0.9, 0.99]
    return integrate_adaptive(g, 0.0, 1.0, settings, breakpoints=tb)
