"""Analytic outage probability engines.

Outage means the instantaneous capacity falls below the target rate,
equivalently the effective SNR falls below the threshold nu (strict
inequality by convention, matching the Monte Carlo counter).

Three engines:

* ``outage_df``      closed form from the independence of the loop-back
                     power V and the product of hop powers Z:
                     1 - F_V(1/(kappa nu)) * (1 - F_Z(nu / dest_coef)),
                     dest_coef = kappa P_S / (path sigma_D^2)
* ``outage_af``      semi-analytic: the loop-back tail mass plus an adaptive
                     quadrature of F_Z over the conditional threshold curve
* ``outage_high_snr`` the shared large-power floor 1 - F_V(1/(kappa nu)),
                     where both strategies coincide
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .fading import (
    ProductDistParams,
    cdf_power,
    pdf_power,
    _cdf_product_meijer,
)
from .quadrature import QuadratureSettings, integrate_adaptive
from .relaysys import SystemConfig, derive_constants
from .specfun import EPS, EXP_UNDERFLOW

# the error floor of every outage value: the roundoff of its last few operations
_ERR_FLOOR = 8.0 * EPS


@dataclass(frozen=True)
class OutageResult:
    """Outage value with a numerical error estimate.

    ``numeric_error`` is inf where F_Z reached no value; ``converged`` is
    false then, or where AF's quadrature did not converge.
    """

    value: float
    numeric_error: float
    converged: bool = True

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise DomainError(f"outage must lie in [0, 1], got {self.value}")
        if self.numeric_error < 0.0:
            raise DomainError("numeric_error must be nonnegative")


def outage_df(cfg: SystemConfig) -> OutageResult:
    """Decode-and-forward outage probability, closed form.

    If F_Z reaches no value (its error is inf), the result carries F_Z's
    best value with error inf and ``converged=False``.
    """
    c = derive_constants(cfg)
    pp = ProductDistParams(cfg.hop1_fading, cfg.hop2_fading)
    f_v = cdf_power(cfg.lbi_fading, c.v_star)
    f_z, f_z_err = _cdf_product_meijer(pp, c.nu / c.dest_coef)
    value = 1.0 - f_v * (1.0 - f_z)
    # f_v * inf would be nan at f_v = 0
    err = f_v * f_z_err + _ERR_FLOOR if math.isfinite(f_z_err) else math.inf
    return OutageResult(value=min(1.0, max(0.0, value)), numeric_error=err,
                        converged=math.isfinite(err))


def outage_af(cfg: SystemConfig) -> OutageResult:
    """Amplify-and-forward outage probability.

    P = [1 - F_V(v*)] + Int_0^{v*} F_Z(nu (b3 v + b4) / (b1 - b2 nu v)) f_V(v) dv

    with v* = 1/(kappa nu).  The integral is split at v*/2: the lower half
    runs in the gamma space of the loop-back power (killing the v -> 0
    density singularity exactly), the upper half in u = 1 - kappa nu v so
    the diverging F_Z argument collapses onto u -> 0, where F_Z clamps to 1
    and the integrand degenerates to the plain loop-back density.  An F_Z
    call that reaches no value (error inf), on any route of its kernel,
    contributes its best value and makes ``numeric_error`` inf; a finite F_Z
    error is not yet part of ``numeric_error``.
    """
    settings = QuadratureSettings()
    c = derive_constants(cfg)
    pp = ProductDistParams(cfg.hop1_fading, cfg.hop2_fading)
    nu = c.nu
    v_star = c.v_star
    lbi = cfg.lbi_fading
    lam3 = lbi.rate
    a3 = lbi.alpha
    mu3 = lbi.mu

    f_z_failed = []

    def f_z(arg):
        value, err = _cdf_product_meijer(pp, arg)
        if err == math.inf:
            f_z_failed.append(arg)
        return value

    if lam3 == 0.0:
        # the loop-back power is inf in double precision, so the relay
        # SNR 1/(kappa V) is 0 and every block is in outage
        return OutageResult(value=1.0, numeric_error=_ERR_FLOOR)
    if lam3 == math.inf:
        # the loop-back power is 0 in double precision, so the AF SNR is
        # b1 Z / b4 and no integral over V remains
        value = f_z(nu * c.beta4 / c.beta1)
        err = math.inf if f_z_failed else _ERR_FLOOR
        return OutageResult(value=value, numeric_error=err, converged=math.isfinite(err))

    # lower half in w = lam3 * v^{a3/2}: f_V(v) dv = w^{mu3-1} e^-w dw / Gamma(mu3)
    w_mid = lam3 * (0.5 * v_star) ** (0.5 * a3)
    # per-node constants; nu b2 v is (nu b2) v, as written below
    b1, b3, b4, nu_b2 = c.beta1, c.beta3, c.beta4, c.beta2 * nu
    mu3_m1, ln_gamma3, two_over_a3 = mu3 - 1.0, lbi.ln_gamma_mu, 2.0 / a3

    def lower_integrand(w):
        if w == 0.0:
            # the gamma density's limit at 0 is 0 above mu3 = 1, 1 at it and
            # +inf below it, weighted by F_Z at v = 0
            if mu3 > 1.0:
                return 0.0
            f0 = f_z(nu * b4 / b1)
            return f0 * math.exp(-ln_gamma3) if mu3 == 1.0 or f0 == 0.0 else math.inf
        # 1 / Gamma(mu3) inside the exp: w^{mu3-1} e^{-w} alone passes the
        # double range at w = mu3 - 1 once mu3 is above about 172
        ln_d = mu3_m1 * math.log(w) - w - ln_gamma3
        if ln_d < EXP_UNDERFLOW:
            return 0.0
        v = (w / lam3) ** two_over_a3
        arg = nu * (b3 * v + b4) / (b1 - nu_b2 * v)
        return f_z(arg) * math.exp(ln_d)

    # seed panels on both the endpoint scale and the gamma-density scale;
    # the two can differ by many orders when the loop-back endpoint is far
    # out in the tail
    bps_lo = [b * w_mid for b in (1e-6, 1e-3, 0.03, 0.3)]
    bps_lo += [0.5 * mu3, 2.0 * mu3, 10.0 + 5.0 * mu3, 40.0 + 5.0 * mu3]
    bps_lo = sorted({b for b in bps_lo if 0.0 < b < w_mid})
    val_lo, err_lo, ok_lo = integrate_adaptive(
        lower_integrand, 0.0, w_mid, settings, breakpoints=bps_lo)
    # upper half in u = 1 - kappa nu v, u in (0, 1/2], where dv = v* du

    def upper_integrand(u):
        v = (1.0 - u) * v_star
        # b1 u underflows to 0 at subnormal source powers; the argument is
        # then past every clamp and F_Z is 1
        den = b1 * u
        arg = nu * (b3 * v + b4) / den if den > 0.0 else math.inf
        return f_z(arg) * pdf_power(lbi, v) * v_star

    bps_up = [1e-10, 1e-7, 1e-4, 1e-2, 0.1]
    val_up, err_up, ok_up = integrate_adaptive(
        upper_integrand, 0.0, 0.5, settings, breakpoints=bps_up)

    tail = 1.0 - cdf_power(lbi, v_star)
    value = tail + val_lo + val_up
    err = math.inf if f_z_failed else err_lo + err_up + _ERR_FLOOR
    return OutageResult(value=min(1.0, max(0.0, value)), numeric_error=err,
                        converged=ok_lo and ok_up and math.isfinite(err))


def outage_high_snr(cfg: SystemConfig) -> OutageResult:
    """Common outage floor of both strategies as the source power grows.

    Only the loop-back leg survives: P -> 1 - F_V(1/(kappa nu)).
    """
    c = derive_constants(cfg)
    value = 1.0 - cdf_power(cfg.lbi_fading, c.v_star)
    return OutageResult(value=min(1.0, max(0.0, value)), numeric_error=_ERR_FLOOR)
