"""Independent references for the product of two hop powers, and the Wilson interval.

Neither shares code with the package's F_Z route (``_cdf_product_meijer``
and its series and tail kernels): the density is the closed Bessel form,
and the CDF integrates that kernel by scipy's ``quad`` (QUADPACK).  The
Bessel factor is scipy's ``kv``, so no Bessel or quadrature code is shared
with the package.

The product density carries the symmetric prefactor
``(lam1*lam2)**((mu1+mu2)/2)``, a convention the normalization tests enforce.

The Monte Carlo acceptance tests read a 95% Wilson interval about each
estimate where its normal standard error is degenerate; the package
itself reports only the standard error.
"""

from __future__ import annotations

import math
import warnings

from scipy.integrate import IntegrationWarning, quad
from scipy.special import kv

from fdrelay.errors import DomainError
from fdrelay.fading import ProductDistParams


def pdf_product(pp: ProductDistParams, z: float) -> float:
    """Density of Z = h1^2 * h2^2 at z > 0.

    f_Z(z) = alpha (l1 l2)^{(m1+m2)/2} z^{alpha (m1+m2)/4 - 1}
             K_{m1-m2}(2 sqrt(l1 l2 z^{alpha/2})) / (Gamma(m1) Gamma(m2)).
    """
    if not z > 0.0:
        raise DomainError(f"pdf_product requires z > 0, got {z}")
    a = pp.hop1.alpha
    kval = float(kv(pp.shapes.delta, 2.0 * math.sqrt(pp.lam12 * z ** (0.5 * a))))
    if kval == 0.0:
        return 0.0
    ln_f = (math.log(a) + pp.shapes.sigma * math.log(pp.lam12)
            + (0.5 * a * pp.shapes.sigma - 1.0) * math.log(z)
            + math.log(kval) - pp.shapes.ln_norm)
    return math.exp(ln_f) if ln_f > -745.0 else 0.0


def _cdf_product_quadrature(pp: ProductDistParams, z: float):
    """(value, abs error, converged) of F_Z(z) by integrating the density.

    Works in t = zeta^{alpha/2}, where the density becomes the plain
    Bessel-kernel integrand; panel seeds follow the kernel argument scale.
    The independent reference the tests hold ``_cdf_product_meijer`` against.
    """
    ll = pp.lam12
    sigma, delta = pp.shapes.sigma, pp.shapes.delta
    norm = 2.0 * ll ** sigma * math.exp(-pp.shapes.ln_norm)
    # beyond arg ~ 900 the Bessel factor underflows to exactly zero
    t_max = min(z ** (0.5 * pp.hop1.alpha), 450.0 ** 2 / ll)

    def f(t):
        arg = 2.0 * math.sqrt(ll * t)
        kval = float(kv(delta, arg))
        if kval == 0.0:
            return 0.0
        ln_f = (sigma - 1.0) * math.log(t) + math.log(kval)
        return math.exp(ln_f) if ln_f > -745.0 else 0.0

    # scales where the kernel argument passes interesting magnitudes
    bps = [c / ll for c in (1e-3, 0.0625, 1.0, 25.0, 400.0) if 0.0 < c / ll < t_max]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        val, err = quad(f, 0.0, t_max, points=bps or None, epsabs=1e-10, epsrel=1e-9,
                        limit=200)
    ok = not any(issubclass(w.category, IntegrationWarning) for w in caught)
    return min(1.0, max(0.0, norm * val)), norm * err, ok


_Z975 = 1.959963984540054  # two-sided 95% normal quantile


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
