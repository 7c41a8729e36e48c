"""Analytic outage probability engines.

Outage means the instantaneous capacity falls below the target rate,
equivalently the effective SNR falls below the threshold nu (strict
inequality by convention, matching the Monte Carlo counter).

Three engines, each from one helper, ``_df``, that forms F_V(1/(kappa nu)):

* ``outage_df``      closed form from the independence of the loop-back
                     power V and the product of hop powers Z:
                     1 - F_V(1/(kappa nu)) * (1 - F_Z(nu / dest_coef)),
                     dest_coef = kappa P_S / (path sigma_D^2)
* ``outage_af``      semi-analytic: DF plus an adaptive quadrature of the
                     gap F_Z(z(v)) - F_Z(z_D) over the loop-back density
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
    _pow_or_inf,
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


def _df(cfg: SystemConfig, hops: bool = True):
    """(DF result, constants, pair, F_Z(z_D)); without ``hops`` F_Z(z_D) is 0,
    its large-power limit, which gives the high-SNR floor and no hop product."""
    c = derive_constants(cfg)
    f_v = cdf_power(cfg.lbi_fading, c.v_star)
    pp = ProductDistParams(cfg.hop1_fading, cfg.hop2_fading) if hops else None
    f_z, f_z_err = _cdf_product_meijer(pp, c.nu / c.dest_coef) if hops else (0.0, 0.0)
    value = 1.0 - f_v * (1.0 - f_z)
    # f_v * inf would be nan at f_v = 0
    err = f_v * f_z_err + _ERR_FLOOR if math.isfinite(f_z_err) else math.inf
    return (OutageResult(value=min(1.0, max(0.0, value)), numeric_error=err,
                         converged=math.isfinite(err)), c, pp, f_z)


def outage_df(cfg: SystemConfig) -> OutageResult:
    """Decode-and-forward outage probability, closed form.

    If F_Z reaches no value (its error is inf), the result carries F_Z's
    best value with error inf and ``converged=False``.
    """
    return _df(cfg)[0]


def outage_af(cfg: SystemConfig) -> OutageResult:
    """Amplify-and-forward outage probability: DF plus the gap integral.

    P = P_DF + Int_0^{v*} [F_Z(z(v)) - F_Z(z_D)] f_V(v) dv,  z(v) = nu rho (v + 1/kappa) / (1 - kappa nu v)

    exactly, as AF and DF share 1 - F_V(v*) and F_V(v*) F_Z(z_D).  z(v) rises
    with v, and z(0) >= z_D where sigma_R^2 >= sigma_D^2: there each node's
    gap is clamped at 0 against rounding, so DF <= AF by construction.  The
    integral is split at v*/2: the lower half runs in the gamma space of the
    loop-back power (killing the v -> 0 density singularity exactly), the
    upper half in u = 1 - kappa nu v, where F_Z's argument diverges at u = 0
    and F_Z clamps to 1.  ``numeric_error`` is DF's plus the two quadrature
    estimates, or inf where an F_Z node reached no value (its best value is
    kept); the nodes' finite F_Z errors are not yet part of it.
    """
    settings = QuadratureSettings()
    df, c, pp, f_z_d = _df(cfg)
    nu, v_star, lbi = c.nu, c.v_star, cfg.lbi_fading
    lam3, a3, mu3 = lbi.rate, lbi.alpha, lbi.mu
    # the least gap a node may take
    gap_min = 0.0 if cfg.noise_relay_var >= cfg.noise_dest_var else -math.inf

    f_z_failed = []

    def gap(arg):
        value, err = _cdf_product_meijer(pp, arg)
        if err == math.inf:
            f_z_failed.append(arg)
        g = value - f_z_d
        return g if g > gap_min else gap_min

    # per-node constants, and the relay argument at v = 0 by the same formula
    nu_rho, inv_kappa, kappa_nu = nu * c.rho, 1.0 / c.kappa, c.kappa * nu
    z0 = nu_rho * inv_kappa
    if lam3 == math.inf:
        # the loop-back power is 0 in double precision: F_V(v*) is 1, and the
        # gap at v = 0, with its F_Z error, is all that remains
        f_z0, f_z0_err = _cdf_product_meijer(pp, z0)
        value, err = df.value + max(gap_min, f_z0 - f_z_d), df.numeric_error + f_z0_err
        return OutageResult(value=min(1.0, max(0.0, value)), numeric_error=err,
                            converged=math.isfinite(err))
    if lam3 == 0.0:
        # mu3 / r_hat^a3 underflowed, so no integrand can weigh the loop-back mass
        # below v*: AF is DF within F_V(v*), the most the gap integral adds
        f_v = cdf_power(lbi, v_star)
        return OutageResult(value=df.value, numeric_error=df.numeric_error + f_v,
                            converged=df.converged and f_v <= _ERR_FLOOR)

    # lower half in w = lam3 * v^{a3/2}: f_V(v) dv = w^{mu3-1} e^-w dw / Gamma(mu3)
    mu3_m1, ln_gamma3, two_over_a3 = mu3 - 1.0, lbi.ln_gamma_mu, 2.0 / a3
    w_mid = lam3 * _pow_or_inf(0.5 * v_star, 0.5 * a3)
    upper = w_mid < math.inf
    if not upper:
        # the lower half ends where the gamma density, past its mode, underflows,
        # and the upper half, where it is 0, is dropped
        w_mid = mu3 + 1.0
        while mu3_m1 * math.log(w_mid) - w_mid - ln_gamma3 >= EXP_UNDERFLOW:
            w_mid *= 2.0

    def lower_integrand(w):
        if w == 0.0:
            # the gamma density's limit at 0 is 0 above mu3 = 1, 1 at it and
            # +inf below it, weighted by the gap at v = 0; a zero gap gives 0
            if mu3 > 1.0:
                return 0.0
            g0 = gap(z0)
            return g0 * (math.exp(-ln_gamma3) if mu3 == 1.0 else math.inf) if g0 else 0.0
        # 1 / Gamma(mu3) inside the exp: w^{mu3-1} e^{-w} alone passes the
        # double range at w = mu3 - 1 once mu3 is above about 172
        ln_d = mu3_m1 * math.log(w) - w - ln_gamma3
        if ln_d < EXP_UNDERFLOW:
            return 0.0
        v = (w / lam3) ** two_over_a3
        return gap(nu_rho * (v + inv_kappa) / (1.0 - kappa_nu * v)) * math.exp(ln_d)

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
        # 1 - kappa nu v is u itself; at u = 0 F_Z's argument is inf
        arg = nu_rho * (v + inv_kappa) / u if u > 0.0 else math.inf
        return gap(arg) * pdf_power(lbi, v) * v_star

    bps_up = [1e-10, 1e-7, 1e-4, 1e-2, 0.1]
    val_up, err_up, ok_up = integrate_adaptive(
        upper_integrand, 0.0, 0.5, settings, breakpoints=bps_up) if upper else (0.0, 0.0, True)

    value = df.value + val_lo + val_up
    err = math.inf if f_z_failed else df.numeric_error + err_lo + err_up
    return OutageResult(value=min(1.0, max(0.0, value)), numeric_error=err,
                        converged=ok_lo and ok_up and math.isfinite(err))


def outage_high_snr(cfg: SystemConfig) -> OutageResult:
    """Common outage floor of both strategies as the source power grows.

    Only the loop-back leg survives: P -> 1 - F_V(1/(kappa nu)), DF's form
    with F_Z(z_D) at 0.
    """
    return _df(cfg, hops=False)[0]
