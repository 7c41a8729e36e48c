"""Independent outage oracle, built from the model definitions alone.

Nothing here imports fdrelay.  Each branch j of the link is an alpha-mu
power X_j whose transform X_j**(alpha_j/2) is Gamma(mu_j, rate lam_j) with
lam_j = mu_j / r_hat_j**alpha_j.  Z = X1 X2 is the product of the hop
powers and V = X3 the loop-back power.  The scenario constants are

    kappa = theta eta / (1 - eta)          nu = 2**(R / (1 - eta)) - 1
    path  = d1**m1 d2**m2                  sigma_R^2 = antenna + conversion
    b1 = P_S   b2 = kappa P_S   b3 = path sigma_R^2   b4 = b3 / kappa

and the end-to-end SNRs are

    DF: min(1 / (kappa V), kappa P_S Z / (path sigma_D^2))
    AF: b1 Z / (b2 V Z + b3 V + b4)

Outage is P(SNR < nu).  F_V is one regularized incomplete gamma.  F_Z is
one scipy quadrature over the gamma variate of the second hop, so it needs
no Meijer G or Bessel machinery.  DF is 1 - F_V(v*) (1 - F_Z(z*)), and AF
integrates F_Z over the loop-back variable, in its gamma space.

Run ``python3 bench/oracle.py`` for the self-test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

# quadrature accuracy of the oracle; far below the row tolerance it serves
_INNER = dict(epsabs=1e-13, epsrel=1e-11, limit=200)
_OUTER = dict(epsabs=1e-12, epsrel=1e-10, limit=200)


def _rate(branch) -> float:
    return branch["mu"] / branch["r_hat"] ** branch["alpha"]


def _gamma_span(mu: float) -> float:
    """Upper end beyond which a unit-rate Gamma(mu) has mass below 1e-20."""
    return mu + 50.0 + 12.0 * math.sqrt(mu)


def cdf_power(branch, x: float) -> float:
    """F_X(x) for one branch."""
    if x <= 0.0:
        return 0.0
    return float(special.gammainc(branch["mu"], _rate(branch) * x ** (0.5 * branch["alpha"])))


def cdf_product(hop1, hop2, z: float) -> float:
    """F_Z(z) = E_B[F_X1(z / X2)], with X2 = (B / lam2)**(2 / alpha2), B ~ Gamma(mu2, 1)."""
    if z <= 0.0:
        return 0.0
    mu1, mu2 = hop1["mu"], hop2["mu"]
    r = hop1["alpha"] / hop2["alpha"]
    c = _rate(hop1) * z ** (0.5 * hop1["alpha"]) * _rate(hop2) ** r
    ln_norm = special.gammaln(mu2)

    def f(b):
        if b <= 0.0:
            return 0.0
        return special.gammainc(mu1, c * b ** -r) * math.exp((mu2 - 1.0) * math.log(b) - b - ln_norm)

    hi = _gamma_span(mu2)
    b_turn = (c / mu1) ** (1.0 / r)  # where the conditional CDF turns over
    pts = sorted({p for p in (0.1 * mu2, mu2, 3.0 * mu2, 0.3 * b_turn, b_turn, 3.0 * b_turn)
                  if 0.0 < p < hi})
    val, _ = integrate.quad(f, 0.0, hi, points=pts or None, **_INNER)
    return min(1.0, max(0.0, val))


def constants(cfg):
    eta = cfg["eh_time_fraction"]
    kappa = cfg["eh_efficiency"] * eta / (1.0 - eta)
    nu = 2.0 ** (cfg["target_rate"] / (1.0 - eta)) - 1.0
    path = (cfg["hop1_distance"] ** cfg["hop1_pathloss"]
            * cfg["hop2_distance"] ** cfg["hop2_pathloss"])
    b3 = path * (cfg["noise_antenna_var"] + cfg["noise_conversion_var"])
    return dict(kappa=kappa, nu=nu, path=path, b1=cfg["source_power"],
                b2=kappa * cfg["source_power"], b3=b3, b4=b3 / kappa)


def outage_df(cfg) -> float:
    k = constants(cfg)
    v_star = 1.0 / (k["kappa"] * k["nu"])
    z_star = k["nu"] * k["path"] * cfg["noise_dest_var"] / (k["kappa"] * cfg["source_power"])
    f_v = cdf_power(cfg["lbi_fading"], v_star)
    f_z = cdf_product(cfg["hop1_fading"], cfg["hop2_fading"], z_star)
    return min(1.0, max(0.0, 1.0 - f_v * (1.0 - f_z)))


def outage_af(cfg) -> float:
    """P(AF SNR < nu): loop-back tail plus the integral of F_Z(z(v)) f_V(v).

    Runs in w = lam3 v**(alpha3/2), where f_V(v) dv is the Gamma(mu3, 1)
    density.  For v >= v* = 1 / (kappa nu) outage is certain.
    """
    k = constants(cfg)
    lbi = cfg["lbi_fading"]
    mu3, a3, lam3 = lbi["mu"], lbi["alpha"], _rate(lbi)
    nu = k["nu"]
    v_star = 1.0 / (k["kappa"] * nu)
    w_star = lam3 * v_star ** (0.5 * a3)
    ln_norm = special.gammaln(mu3)

    def f(w):
        if w <= 0.0:
            return 0.0
        v = (w / lam3) ** (2.0 / a3)
        den = k["b1"] - k["b2"] * nu * v
        dens = math.exp((mu3 - 1.0) * math.log(w) - w - ln_norm)
        if den <= 0.0:
            return dens
        z = nu * (k["b3"] * v + k["b4"]) / den
        return cdf_product(cfg["hop1_fading"], cfg["hop2_fading"], z) * dens

    hi = min(w_star, _gamma_span(mu3))
    pts = sorted({p for p in (0.1 * mu3, mu3, 3.0 * mu3, 0.5 * w_star, 0.9 * w_star,
                              0.99 * w_star) if 0.0 < p < hi})
    val, _ = integrate.quad(f, 0.0, hi, points=pts or None, **_OUTER)
    tail = float(special.gammaincc(mu3, w_star))
    return min(1.0, max(0.0, tail + val))


def _sampled_outage(cfg, mode: str, n: int, seed: int):
    """(p_hat, stderr) of the defining SNR event from numpy gamma draws."""
    rng = np.random.default_rng(seed)
    k = constants(cfg)

    def power(branch):
        g = rng.gamma(branch["mu"], 1.0, n)
        return (g / _rate(branch)) ** (2.0 / branch["alpha"])

    z = power(cfg["hop1_fading"]) * power(cfg["hop2_fading"])
    v = power(cfg["lbi_fading"])
    if mode == "df":
        snr = np.minimum(1.0 / (k["kappa"] * v),
                         k["kappa"] * cfg["source_power"] * z / (k["path"] * cfg["noise_dest_var"]))
    else:
        snr = k["b1"] * z / (k["b2"] * v * z + k["b3"] * v + k["b4"])
    p = float(np.count_nonzero(snr < k["nu"])) / n
    return p, math.sqrt(p * (1.0 - p) / n)


def _selftest_config(mu1, mu2, mu3, alpha, power, rate, lbi_r_hat):
    def br(mu, r_hat=1.0):
        return {"alpha": alpha, "mu": mu, "r_hat": r_hat}
    return {
        "source_power": power, "hop1_distance": 5.0, "hop2_distance": 5.0,
        "hop1_pathloss": 2.0, "hop2_pathloss": 2.0,
        "hop1_fading": br(mu1), "hop2_fading": br(mu2), "lbi_fading": br(mu3, lbi_r_hat),
        "noise_antenna_var": 5e-5, "noise_conversion_var": 5e-5, "noise_dest_var": 1e-4,
        "eh_efficiency": 1.0, "eh_time_fraction": 0.5, "target_rate": rate,
    }


def selftest():
    """Check the oracle against closed forms, mpmath and direct sampling.

    Returns a list of (name, ok, detail).
    """
    import mpmath

    out = []
    ray = {"alpha": 2.0, "mu": 1.0, "r_hat": 1.0}
    # double Rayleigh: F_Z(z) = 1 - 2 sqrt(z) K_1(2 sqrt(z))
    for z in (1e-3, 0.3, 2.0, 20.0):
        ref = 1.0 - 2.0 * math.sqrt(z) * float(special.kv(1, 2.0 * math.sqrt(z)))
        got = cdf_product(ray, ray, z)
        out.append((f"double-rayleigh z={z:g}", abs(got - ref) <= 1e-10, f"{got - ref:.1e}"))

    # mpmath: F_Z from the product density (Bessel-K form), 20 digits
    mpmath.mp.dps = 20
    for mu1, mu2, alpha, z in ((0.7, 1.9, 2.0, 0.8), (1.3, 2.3, 3.0, 2.5)):
        lam1, lam2 = mpmath.mpf(mu1), mpmath.mpf(mu2)  # r_hat = 1
        sig = mpmath.mpf(mu1 + mu2) / 2
        norm = 2 * (lam1 * lam2) ** sig / (mpmath.gamma(mu1) * mpmath.gamma(mu2))
        x_end = mpmath.mpf(z) ** (mpmath.mpf(alpha) / 2)  # integrate in t = zeta**(alpha/2)
        ref = norm * mpmath.quad(
            lambda t: t ** (sig - 1) * mpmath.besselk(mu1 - mu2, 2 * mpmath.sqrt(lam1 * lam2 * t)),
            [0, x_end])
        got = cdf_product({"alpha": alpha, "mu": mu1, "r_hat": 1.0},
                          {"alpha": alpha, "mu": mu2, "r_hat": 1.0}, z)
        out.append((f"mpmath mu={mu1}/{mu2} alpha={alpha}", abs(got - float(ref)) <= 1e-10,
                    f"{got - float(ref):.1e}"))

    # the two engines against sampling of the defining SNR event
    n = 400_000
    for cfg in (_selftest_config(1.0, 1.0, 1.0, 2.0, 10.0, 0.5, 1.0),
                _selftest_config(0.8, 2.3, 2.0, 2.5, 2.0, 1.5, 0.1)):
        for mode, engine in (("df", outage_df), ("af", outage_af)):
            p, se = _sampled_outage(cfg, mode, n, seed=20240817)
            got = engine(cfg)
            ok = abs(got - p) <= 5.0 * se + 1.0 / n
            out.append((f"sampled {mode} mu={cfg['hop1_fading']['mu']}", ok,
                        f"{(got - p) / max(se, 1e-300):+.2f} se"))
    return out


if __name__ == "__main__":
    results = selftest()
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    raise SystemExit(0 if all(ok for _, ok, _ in results) else 1)
