"""Scalar special functions backing the fading analytics.

Self-contained double-precision evaluators, each paired with an independent
cross-check in the test suite:

* ``reg_lower_gamma``  regularized lower incomplete gamma P(s, x),
                       power series below the s+1 crossover, Lentz
                       continued fraction above it
* ``bessel_k``         modified Bessel function of the second kind for real
                       order, the tests' reference: an integral by adaptive
                       quadrature.  The engines read K off Chebyshev tables
                       of orders in [0, 1.5] (``_k_table``, in Clenshaw order)
                       fitted to Steed's continued fraction (``_bessel_k_scaled``)
                       on each order's first use and shared by every pair.
* ``_g2131_eval``      the one Meijer G instance needed here: the kernel that
                       closes the CDF F_Z of a product of two gamma-power
                       variates, returned as F_Z itself.  Evaluated by its
                       ascending residue series, the confluent logarithmic
                       series at an integer gap and otherwise the two branches
                       paired term by term, free of cancellation however near
                       an integer the gap (each series with its prefactors,
                       x^sigma and 1 / (Gamma(mu1) Gamma(mu2)) in one log
                       scale), up to argument 12, and past it as 1 - S,
                       with S = P(X1 X2 > x) by shape reduction
                       (``_kernel_tail``): one route per argument.  Each
                       shape mu = f + n is stepped down to its fractional
                       part f (at an integer gap, the smaller shape's f for
                       both), which leaves unit-step Bessel-ladder sums and,
                       for two non-integer shapes, a residual with both
                       shapes in (0, 1) summed by a fixed Gauss-Laguerre
                       rule.  The ladders start from two tables and the
                       residual reads its one order off a third, each
                       table's bound joining the error.  An integer shape
                       (the Rayleigh, Weibull and integer-m Nakagami
                       presets) leaves one finite Erlang sum.

Accuracy targets are part of the contract: ``bessel_k`` holds 1e-10 relative
for order in [0, 20] and argument in [1e-8, 700]; ``_g2131_eval`` holds
1e-8 relative on its restricted parameter pattern for argument in
[1e-10, 1e4], its paired series 1e-10 relative from the least normal double
to argument 6 for shapes from 0.5, and it returns its own error estimate, inf
where it reached no value.  The kernel takes hop shapes up to MAX_SHAPE.  ``shape_pair``
memoises each pair's state, at most _PAIRS_MAX pairs, and ``_k_table`` each
order's table, at most _K_TABLES_MAX orders; no value depends on either memo.

ln Gamma is libm's ``math.lgamma``, as exp and log are: within (6.5 + 2 |ln
Gamma|) EPS of mpmath on [1e-4, 401] (glibc 2.36), inside the 47 + 2 |ln
Gamma| ulp that every error estimate here budgets per ln Gamma.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DomainError
from .quadrature import QuadratureSettings, integrate_adaptive

EPS = sys.float_info.epsilon
# exp(x) at or below this is at most the least subnormal double: taken as 0
EXP_UNDERFLOW = -745.0
EULER_GAMMA = 0.5772156649015328606065120900824024
_LN2 = 0.6931471805599453094172321214581766


# ----------------------------------------------------------------------
# gamma family

def _sin_pi(x: float) -> float:
    """sin(pi x) with the argument reduced before multiplication by pi."""
    r = x - round(x)
    s = math.sin(math.pi * r)
    return s if (round(x) % 2 == 0) else -s


_HARMONIC = [0.0]


def _digamma_int(n: int) -> float:
    """psi(n) for integer n >= 1 via harmonic numbers."""
    while len(_HARMONIC) < n:
        _HARMONIC.append(_HARMONIC[-1] + 1.0 / len(_HARMONIC))
    return -EULER_GAMMA + _HARMONIC[n - 1]


def reg_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s).

    Power series for x < s + 1, continued fraction for the upper tail
    otherwise; both share the prefactor exp(-x + s ln x - ln Gamma(s)).
    """
    if not s > 0.0:
        raise DomainError(f"reg_lower_gamma requires s > 0, got {s}")
    if x < 0.0:
        raise DomainError(f"reg_lower_gamma requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    lnpre = -x + s * math.log(x) - math.lgamma(s)
    pre = math.exp(lnpre) if lnpre > EXP_UNDERFLOW else 0.0
    if x < s + 1.0:
        ap = s
        term = 1.0 / s
        total = term
        for _ in range(10000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * EPS:
                break
        return min(1.0, max(0.0, pre * total))
    # Lentz continued fraction for Q(s, x)
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            break
    return min(1.0, max(0.0, 1.0 - pre * h))


# ----------------------------------------------------------------------
# modified Bessel function of the second kind

def _bessel_k_cf2(mu: float, x: float):
    """Steed continued fraction for (K_mu, K_{mu+1}) at x > 2, |mu| <= 0.5.

    Returns values scaled by e^x.
    """
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    i = 1.0   # a float, so that a -= 2 (i - 1) and c / i stay float arithmetic
    for _ in range(2, 500):
        a -= i + i
        i += 1.0
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < EPS:
            break
    h = a1 * h
    rk = math.sqrt(math.pi / (2.0 * x)) / s
    rk1 = rk * (mu + x + 0.5 - h) / x
    return rk, rk1


def _k_upward(mu: float, rk: float, rk1: float, x: float, n: int):
    """[e^x K_{mu+i}(x), i < n] from the pair at mu and mu + 1, |mu| <= 0.5, n >= 1.

    The recurrence K_{v+1} = K_{v-1} + (2 v / x) K_v is stable upward for K
    and holds alike for e^x K.
    """
    two_over_x = 2.0 / x
    ladder = [rk]
    for i in range(1, n):
        rk, rk1 = rk1, (mu + i) * two_over_x * rk1 + rk
        ladder.append(rk)
    return ladder


def _bessel_k_scaled(nu: float, x: float) -> float:
    """e^x K_nu(x) for nu >= 0, x > 2: one continued fraction and the upward recurrence.

    Only ``_k_table`` calls it, to fit its series; the engines read K off those.
    """
    if not x > 2.0:
        raise DomainError(f"the continued-fraction K takes x > 2, got {x}")
    n_up = int(nu + 0.5)
    mu = nu - n_up
    rk, rk1 = _bessel_k_cf2(mu, x)
    return _k_upward(mu, rk, rk1, x, n_up + 1)[-1]


# rel_tol above the 50 EPS roundoff floor of each Gauss-Kronrod panel
_K_QUADRATURE = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-13)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), x > 0: the reference K.

    Int_0^inf e^{-x cosh t} cosh(nu t) dt (DLMF 10.32.9) by ``integrate_adaptive``,
    sharing no code with the engines' K.  The exponent phi(t) = nu t - x (cosh t - 1)
    is taken relative to its peak phi* at t* = asinh(nu / x) and e^{phi* - x} is
    applied as a log: K is inf past the double range and 0 below it.  Its
    relative error grows as nu t* EPS, the rounding of the exponent's parts.
    """
    if not x > 0.0:
        raise DomainError(f"bessel_k requires x > 0, got {x}")
    if x == math.inf:
        return 0.0
    nu = abs(nu)
    r = math.hypot(nu, x)   # x cosh(t*) = -phi''(t*)
    # asinh(nu / x) without the quotient, which overflows at subnormal x
    t_peak = math.log(nu + r) - math.log(x)
    top = nu * (t_peak - nu / (r + x))   # phi*, as x (cosh t* - 1) = r - x = nu^2 / (r + x)
    if top - x < -800.0:   # K <= e^{phi* - x} t_max underflows, however phi is rounded
        return 0.0

    def f(t):
        sh = math.sinh(0.5 * t)   # x (cosh t - 1) = 2 x sh^2, inf rather than nan at huge x
        return math.exp(nu * t - 2.0 * (x * sh * sh) - top) * 0.5 * (1.0 + math.exp(-2.0 * nu * t))

    # phi(t* + s) <= phi* - r (cosh s - 1) <= phi* - r (e^s / 2 - 1), which is phi* - 40 at t_max
    t_max = t_peak + _LN2 + math.log(40.0 + r) - math.log(r)
    width = 3.0 / math.sqrt(r)   # three widths of the peak
    try:   # sinh overflows only past t = 1420, which takes nu / x > e^1400, where K is inf
        val = integrate_adaptive(f, 0.0, t_max, _K_QUADRATURE,
                                 breakpoints=(t_peak - width, t_peak, t_peak + width))[0]
        return math.exp(math.log(val) + top - x)
    except OverflowError:   # K past the double range
        return math.inf


# ----------------------------------------------------------------------
# restricted Meijer G: the product-of-gamma-powers CDF kernel
#
# The target object is
#
#     G(x) = G^{2,1}_{1,3}(x | 1-s ; b, -b, -s),    b = delta/2,
#
# whose pair of ascending-series exponents is +-delta/2 and whose third
# lower parameter is -s.  It satisfies the kernel identity
#
#     G(x) = 2 x^{-s} Integral_0^x v^{s-1} K_delta(2 sqrt(v)) dv,
#
# which the tests' reference quadratures use directly.  For large argument
# the package takes F_Z = x^s G / (Gamma(mu1) Gamma(mu2)) as 1 - S instead,
# with S the shape-reduced survival of ``_kernel_tail``.

_X_SERIES_MAX = 12.0   # beyond this the ascending series cancel too hard

# zeta(2k + 1), k = 1 .. 7, for _ln_gamma_ratio's series
_ZETA_ODD = (1.2020569031595942854, 1.0369277551433699263, 1.0083492773819228268,
             1.0020083928260822144, 1.0004941886041194646, 1.0001227133475784891,
             1.0000305882363070205)


def _noise_integer(v: float, scale: float):
    """round(v) when v is that integer up to float noise, else None.

    The noise is 2 EPS scale, with ``scale`` the size of the shapes v was
    formed from: a difference of shapes typed as decimals, such as
    2.2 - 1.2 = 1.0000000000000002, misses its integer by an ulp of them.
    """
    n = round(v)
    return n if abs(v - n) <= 2.0 * EPS * scale else None


def _scaled(s: ShapePair, ln_top: float, lnx: float, total: float, err: float):
    """(F_Z, abs error) from a series sum ``total`` taken relative to exp(ln_top).

    exp(ln_top) x^sigma / (Gamma(mu1) Gamma(mu2)) is applied as one exp,
    after the terms combine.  ``err`` is the sum's error in EPS units; the
    exponent's roundoff and the ln Gamma error of s.ln_norm (a budget of 47 +
    2 |ln Gamma| ulp per shape, over libm's measured worst) count once, on
    the value.  A value in or below the subnormal range is off by up to (1 +
    |total|) half-spacings there, which the error adds; it is absorbed by
    any error above about 1e-290.
    """
    ln_xs = s.sigma * lnx
    scale = math.exp(ln_top + ln_xs - s.ln_norm)
    value = scale * total
    # 94 ulp for the two ln Gamma floors, 4 for the exp and the products, and 1
    # for 2 |ln_norm| against 2 (|ln Gamma(mu1)| + |ln Gamma(mu2)|): ln Gamma > -0.1216
    lost = 99.0 + 2.0 * (abs(ln_top) + abs(ln_xs) + abs(s.ln_norm))
    return value, (scale * err + lost * abs(value)) * EPS + (1.0 + abs(total)) * 5e-324


def _pole_sum(poles, lnx: float, top: float):
    """sum sign exp(c + e ln x - top) / div over the (sign, c, e, div) poles, and its top term."""
    total = mag = 0.0
    for sign, c, e, div in poles:
        t = sign * math.exp(c + e * lnx - top)
        t /= div
        total += t
        mag = t if t > mag else -t if -t > mag else mag
    return total, mag


# _ln_gamma_ratio's relative error bound, in EPS units
_LN_GAMMA_RATIO_ERR = 64.0


def _ln_gamma_ratio(e: float) -> float:
    """ln Gamma(1 + e) - ln Gamma(1 - e), |e| <= 1/2, within _LN_GAMMA_RATIO_ERR EPS of its size.

    Below |e| = 0.1, where 1 +- e rounds, the odd part of DLMF 5.7.3: -2 (gamma e
    + sum_k zeta(2k+1) e^{2k+1} / (2k+1)), k <= 7, the next term below 1e-17 of it.
    """
    if abs(e) >= 0.1:   # each ln Gamma a few EPS off near its zero at 1
        return math.lgamma(1.0 + e) - math.lgamma(1.0 - e)
    e2 = e * e
    total = 0.0
    for k in range(7, 0, -1):   # Horner in e^2
        total = total * e2 + _ZETA_ODD[k - 1] / (2 * k + 1)
    return -2.0 * e * (EULER_GAMMA + e2 * total)


def _series_weights(s: ShapePair, x: float):
    """(``ShapePair.weights`` grown to 16 terms past kd, kd), kd the last k <= k_decay."""
    # k > kd is k > k_decay = 2 sqrt(x) + 4, past which the term ratio is < 1,
    # compared in ints; kd is the series' cap, 600, where no k < 600 exceeds
    # k_decay.  Every series loop on the benchmark plans stops within 13 terms
    # of kd; a loop that reaches the last weight grows them to the cap and reads on
    k_decay = 2.0 * math.sqrt(x) + 4.0
    kd = int(k_decay) if k_decay < 600.0 else 600
    weights = s.weights
    if len(weights) < kd + 16:
        sigma, delta, d = s.sigma, s.delta, s.d
        for j in range(len(weights), min(kd + 16, 600)):
            if s.route == "log":
                c = sigma + j + d / 2.0
                weights.append((_digamma_int(j + 1) + _digamma_int(d + j + 1), 1.0 / c, c,
                                float((j + 1) * (d + j + 1))))
                continue
            # K_j and its roundoff: one ulp per log1p and partial sum of the
            # one-signed q, A's budget, and the atanh's and K_j's own
            e, a = delta - d, s.head[3]
            q = (weights[-1][4] + math.log1p(e / (j + d)) - math.log1p(-e / j) if j
                 else math.fsum(math.log1p(e / i) for i in range(1, d + 1)))
            at = 2.0 * math.atanh(e / (2.0 * (sigma + 0.5 * d + j)))
            kj = a + q + at
            weights.append((sigma + delta / 2.0 + j, float((j + 1) * (j + 1 + delta)), kj,
                            (d + 2 * j + 1) * abs(q) + (_LN_GAMMA_RATIO_ERR + 2.0) * abs(a)
                            + 4.0 * abs(at) + abs(kj), q))
    return weights, kd


def _g_series_noninteger(s: ShapePair, x: float):
    """F_Z by the ascending series of G at a non-integer gap delta = d + e, |e| <= 1/2.

    G = Gamma(delta) x^{-delta/2} S_- + Gamma(-delta) x^{delta/2} S_+, S_+- = sum_k
    x^k / (k! (1 +- delta)_k (sigma +- delta/2 + k)), whose branches cancel
    about 1/|e|-fold.  As Temme's K_nu pairs I_-nu with I_nu, S_- keeps its d
    poles k < d, of Gamma(delta) / (1 - delta)_k = (-1)^k Gamma(delta - k),
    and its term d + j is folded into S_+'s term t_j: the two sum to -t_j
    expm1(D_j) times S_+'s prefactor, where D_j = -e ln x + K_j and K_j =
    [ln Gamma(1+e) - ln Gamma(1-e)] + sum_{i<=j+d} log1p(e/i) - sum_{i<=j}
    log1p(-e/i) + 2 atanh(e / (2 (sigma + d/2 + j))), built once per pair.
    Gamma(-delta) expm1(D_j) stays exact as e -> 0.  The prefactors are logs
    (ln |Gamma(-delta)| by reflection) relative to the larger.  The error
    counts the sum's roundoff, each prefactor's (ln Gamma at 47 + 2 |ln
    Gamma| ulp, the rounding of 1 + delta, the exponent's parts) on its own
    terms, and D_j's, |t_j| e^{D_j} times its parts.  Returns (value, abs error).
    """
    sigma, delta, d = s.sigma, s.delta, s.d
    e = delta - d
    if s.head is None:
        sin = _sin_pi(-delta)   # Gamma(-delta) Gamma(1 + delta) = pi / sin(-pi delta)
        ln_sin = math.log(math.pi / abs(sin))
        lg1, lg = math.lgamma(1.0 + delta), math.lgamma(delta)
        poles = [(-1.0 if k % 2 else 1.0, math.lgamma(delta - k) - math.lgamma(k + 1.0),
                  k - delta / 2.0, sigma - delta / 2.0 + k) for k in range(d)]
        s.head = (ln_sin - lg1, math.copysign(1.0, sin), lg, _ln_gamma_ratio(e), poles,
                  51.0 + 2.0 * (abs(ln_sin) + abs(lg1)) + (1.0 + delta) * math.log(2.0 + delta),
                  # two ln Gamma per pole, by log-convexity each below |lg| + 1/4
                  95.0 + 2.0 * abs(lg))
    ln_minus, sign, ln_plus, _, poles, u_pairs, u_poles = s.head   # A is in the weights
    lnx = math.log(x)
    half = 0.5 * delta * lnx
    l1, l2 = ln_minus + half, ln_plus - half
    top = max(l1, l2)
    pre_pairs = -sign * math.exp(l1 - top)
    poles, mag_poles = _pole_sum(poles, lnx, top) if poles else (0.0, 0.0)
    elx = e * lnx
    lx_err = 2.0 * abs(elx)
    pairs = mag_pairs = d_err = 0.0
    weights, kd = _series_weights(s, x)
    term = 1.0
    for j, (cp, kd_next, kj, k_err, _) in enumerate(weights):
        t = term / cp
        em = math.expm1(kj - elx)
        w = t * em
        pairs += w
        size = abs(w)
        if size > mag_pairs:
            mag_pairs = size
        d_err += t * (em + 1.0) * (k_err + lx_err)   # t > 0
        if j > kd:
            if abs(w * pre_pairs) < abs(poles + pre_pairs * pairs) * EPS:
                break
            if j + 1 == len(weights):   # short of the cap: the loop reads on
                _series_weights(s, math.inf)
        term *= x / kd_next   # the step to term j + 1
    value = poles + pre_pairs * pairs
    mag_pairs *= abs(pre_pairs)
    err = ((32.0 + 2.0 * max(j, d)) * (max(mag_poles, mag_pairs) + abs(value))
           + (u_pairs + 2.0 * abs(half) + abs(l1 - top)) * mag_pairs
           + (u_poles + 2.0 * abs(half) + abs(l2 - top)) * mag_poles + abs(pre_pairs) * d_err)
    return _scaled(s, top, lnx, value, err)


def _g_series_integer(s: ShapePair, x: float):
    """F_Z by the confluent (logarithmic) series of G for integer gap d >= 0.

    The collided poles contribute digamma and ln x terms; the d leading
    poles below the collision stay simple.  The prefactors x^{d/2} / d! and
    (d-1-j)! x^{j-d/2} / j! enter as logs, with exact log-factorials, taken
    relative to the larger of the main term's and pole 0's.  Returns (value, err).
    """
    d = s.d
    if s.head is None:
        ln_fact = [math.log(math.factorial(n)) for n in range(d + 1)]
        s.head = (ln_fact[d],
                  [(-1.0 if j % 2 else 1.0, ln_fact[d - 1 - j] - ln_fact[j],
                    j - d / 2.0, s.sigma + j - d / 2.0) for j in range(d)])
    ln_fact_d, poles = s.head
    lnx = math.log(x)
    ln_main = 0.5 * d * lnx - ln_fact_d
    # the scale is the main term's or pole 0's: no pole exceeds pole 0 by more
    # than sum_j x^j / j!^2 < e^{2 sqrt x}, so no term leaves the double range
    top = max(ln_main, poles[0][1] + poles[0][2] * lnx) if poles else ln_main
    total, mag = _pole_sum(poles, lnx, top) if poles else (0.0, 0.0)
    term = (-1.0 if d % 2 else 1.0) * math.exp(ln_main - top)
    weights, kd = _series_weights(s, x)
    for k, (psi, inv_c, c, kd_next) in enumerate(weights):
        contrib = term * (psi - lnx + inv_c) / c
        total += contrib
        size = abs(contrib)
        if size > mag:
            mag = size
        if k > kd:
            if size < abs(total) * EPS:
                break
            if k + 1 == len(weights):   # short of the cap: the loop reads on
                _series_weights(s, math.inf)
        term *= x / kd_next   # the step to term k + 1
    return _scaled(s, top, lnx, total, (32.0 + 2.0 * k) * (mag + abs(total)))


def _laguerre_pair(n: int, z: float):
    """(L_n(z), L_{n-1}(z)) by the three-term recurrence."""
    p1, p2 = 1.0, 0.0
    for j in range(1, n + 1):
        p1, p2 = ((2 * j - 1 - z) * p1 - (j - 1) * p2) / j, p1
    return p1, p2


def _gauss_laguerre(n: int):
    """Nodes and weights of the n-point Gauss-Laguerre rule, Int_0^inf e^-s f(s) ds.

    Newton on the recurrence of L_n, started from the usual asymptotic
    guesses for each root (Numerical Recipes, gaulag, alpha = 0); the
    weight of root z is z / (n L_{n-1}(z))^2.
    """
    nodes, weights = [], []
    z = 0.0
    for i in range(n):
        if i == 0:
            z = 3.0 / (1.0 + 2.4 * n)
        elif i == 1:
            z += 15.0 / (1.0 + 2.5 * n)
        else:
            z += (1.0 + 2.55 * (i - 1)) / (1.9 * (i - 1)) * (z - nodes[i - 2])
        for _ in range(100):
            ln, ln1 = _laguerre_pair(n, z)
            # z L_n'(z) = n (L_n - L_{n-1})
            step = ln * z / (n * (ln - ln1))
            z -= step
            # convergence is quadratic, so this step left z exact to roundoff
            if abs(step) <= 1e-10 * z:
                break
        nodes.append(z)
        weights.append(z / (n * _laguerre_pair(n, z)[1]) ** 2)
    return tuple(nodes), tuple(weights)


# the residual's rule, built once at import
_LAGUERRE_20 = _gauss_laguerre(20)

# relative error of the 20-point rule on the residual, both shapes in (0, 1)
# and x0 >= 6; certified against mpmath in the tests
_RESIDUAL_RULE_ERR = 1e-13

# the engines' K tables: their terms, their variable y = _K_TABLE_SCALE / t - 1
# = 2u - 1 with u = 2 sqrt(6) / t, which maps the tail's t in [2 sqrt(6), inf)
# onto y in (-1, 1], and their memo, order -> (series, bound), at most
# _K_TABLES_MAX orders
_K_TABLE_TERMS = 16
_K_TABLE_T_MIN = 2.0 * math.sqrt(6.0)
_K_TABLE_SCALE = 2.0 * _K_TABLE_T_MIN
_K_TABLES: dict = {}
_K_TABLES_MAX = 256


def _clenshaw(table, y: float) -> float:
    """sum_j c_j T_j(y) by Clenshaw's recurrence, for a table (c_0, (c_{n-1}, .., c_1))."""
    b1 = b2 = 0.0
    y2 = y + y
    for a in table[1]:
        b1, b2 = y2 * b1 - b2 + a, b1
    return y * b1 - b2 + table[0]


def _k_table(nu: float):
    """Chebyshev series in y of g = sqrt(t) e^t K_nu(t), nu in [0, 1.5], and its relative bound.

    g is smooth in u = 2 sqrt(6) / t on [0, 1] and tends to sqrt(pi / 2) as t
    grows.  The series interpolates ``_bessel_k_scaled`` at the
    _K_TABLE_TERMS Chebyshev nodes y = cos(pi (k + 1/2) / n), as SLATEC's
    BESK0E and BESK1E take e^x K in 1/x above 2.  Its bound is twice the
    largest relative deviation from ``_bessel_k_scaled`` at the interleaved
    points cos(pi k / n), y = 1 (t = 2 sqrt(6)) included, where the error of
    an interpolant peaks, plus the two trailing coefficients, which estimate
    the truncation, plus 8 EPS for the continued fraction's own error
    (measured below 5 EPS against mpmath).  A table depends on its order
    alone: it is built on the order's first use, from 2 n continued
    fractions, and kept in _K_TABLES for every shape pair, the oldest order
    dropped first.  Returns (series, bound), the series in ``_clenshaw``'s order.
    """
    table = _K_TABLES.get(nu)
    if table is not None:
        return table
    n = _K_TABLE_TERMS

    def g(y):
        t = _K_TABLE_SCALE / (y + 1.0)
        return math.sqrt(t) * _bessel_k_scaled(nu, t)

    values = [g(math.cos(math.pi * (k + 0.5) / n)) for k in range(n)]
    coeffs = [2.0 / n * math.fsum(v * math.cos(math.pi * j * (k + 0.5) / n)
                                  for k, v in enumerate(values)) for j in range(n)]
    coeffs[0] *= 0.5
    series = (coeffs[0], tuple(coeffs[:0:-1]))   # in the order _clenshaw takes them
    deviation = 0.0
    for k in range(n):
        y = math.cos(math.pi * k / n)
        ref = g(y)
        deviation = max(deviation, abs(_clenshaw(series, y) - ref) / ref)
    trailing = (abs(coeffs[-1]) + abs(coeffs[-2])) / min(values)
    if len(_K_TABLES) >= _K_TABLES_MAX:
        del _K_TABLES[next(iter(_K_TABLES))]   # the oldest
    table = _K_TABLES[nu] = (series, 2.0 * deviation + trailing + 8.0 * EPS)
    return table


def _k_ladder(nu: float, t: float, n: int):
    """[e^t K_{nu+j}(t), j < n] for nu >= 0, t >= 2 sqrt(6), and its relative bound.

    The starting pair e^t K_m, e^t K_{m+1}, m = nu - round(nu) in [-1/2,
    1/2], comes off the tables of orders |m| and m + 1 and ``_k_upward``
    climbs from it.  Each step adds positive multiples of the two, so every
    value keeps the larger of the two tables' bounds, which is returned.
    Below 2 sqrt(6) the tables would extrapolate past y = 1.
    """
    if not t >= _K_TABLE_T_MIN:
        raise DomainError(f"the tabled K takes t >= 2 sqrt(6), got {t}")
    n_up = int(nu + 0.5)
    mu = nu - n_up
    (lo, lo_err), (hi, hi_err) = _k_table(abs(mu)), _k_table(mu + 1.0)
    y = _K_TABLE_SCALE / t - 1.0
    root = math.sqrt(t)
    ladder = _k_upward(mu, _clenshaw(lo, y) / root, _clenshaw(hi, y) / root, t, n_up + n)
    return ladder[n_up:], max(lo_err, hi_err)


# the largest hop shape: e^t K_200(t) is e^683 at the smallest tail argument,
# t0 = 2 sqrt(6), and order 207 leaves the double range there
MAX_SHAPE = 200.0

# shape_pair's memo, (mu1, mu2) -> ShapePair, and its bound in pairs
_PAIRS: dict = {}
_PAIRS_MAX = 256


class ReducedShape(NamedTuple):
    """mu = f + n, n an integer and f in [0, 1); f = 0 for an integer up to float noise."""

    mu: float
    f: float
    n: int
    ln_gamma_mu: float
    ln_gamma_f: float   # inf for f = 0, where 1 / Gamma(f) = 0


class ShapePair:
    """The two shapes of F_Z's kernel and the state every argument shares."""

    # delta = |mu1 - mu2| is the Bessel order of the kernel and sigma =
    # (mu1 + mu2) / 2.  The series route is chosen once, as ``_g2131_eval``
    # documents; ``d`` is the integer gap of the log-series, and the nearest
    # integer to the gap for the paired series.  The route's terms that do
    # not depend on x are built on first use, its per-k weights 16 terms past
    # where the terms start to decay, further only as far as k reaches
    # (``_series_weights``), so that each series loop iterates a built list.
    # The complement's x-free terms are built with the pair (``tail``).
    def __init__(self, mu1: float, mu2: float):
        self.delta = delta = abs(mu1 - mu2)
        self.sigma = sigma = 0.5 * (mu1 + mu2)
        d = _noise_integer(delta, sigma + delta)
        self.d = round(delta) if d is None else d
        self.route = "log" if d is not None else "two"
        # log-series: (ln d!, [(sign, ln ((d-1-j)! / j!), exponent, divisor)] of
        # the d simple poles); paired series: (ln |Gamma(-delta)|, its sign,
        # ln Gamma(delta), ln Gamma(1+e) - ln Gamma(1-e), its d poles alike,
        # and the two prefactors' error budgets in EPS units)
        self.head = None
        # log-series [(psi(k+1) + psi(d+k+1), 1 / c, c, (k+1) (d+k+1))], c = sigma + k + d/2;
        # paired series [(sigma + delta/2 + j, (j+1) (j+1+delta), K_j, its roundoff, q_j)]
        self.weights = []
        r1, r2 = sorted((_reduced(mu1), _reduced(mu2)))
        if d is not None:   # the larger shape as the smaller's f and n + d: one ladder order c = 0
            r2 = r1._replace(mu=r2.mu, n=r1.n + d, ln_gamma_mu=r2.ln_gamma_mu)
        self.ln_norm = r1.ln_gamma_mu + r2.ln_gamma_mu   # ln Gamma(mu1) + ln Gamma(mu2)
        # reduced first: an integer shape if any, else the smaller f
        self.a, self.b = a, b = (r1, r2) if (r1.f, r1.n) <= (r2.f, r2.n) else (r2, r1)
        # _kernel_tail's terms that do not depend on x0, in its order: c, the up
        # ladder's length (0 for none), the down ladder's order and length, the
        # first sum's length, exponent, ln Gamma(mu_b), f and ln Gamma(f_a + 1),
        # the budgets of its magnitude and of the terms' error, and for two
        # non-integer shapes (a.f > 0, so b.f > 0) the second sum's and the residual's
        c, p = b.f - a.f, a.f + b.f - 1.0
        self.tail = (c, b.n + 1 if a.n or b.n else 0, 1.0 - c, max(a.n - b.n - 1, 0), a.n,
                     b.mu + a.f, b.ln_gamma_mu, a.f, a.ln_gamma_f + math.log(a.f) if a.f else 0.0,
                     abs(b.ln_gamma_mu) + 24.0, 16.0 + 4.0 * (a.mu + b.mu),
                     (a.f + b.f, a.ln_gamma_f, b.f, b.ln_gamma_f + math.log(b.f), b.n,
                      abs(a.ln_gamma_f) + abs(b.ln_gamma_f),
                      (1.0 - p) * _LN2 - a.ln_gamma_f - b.ln_gamma_f, p - 0.5) if a.f else None)
        self.clamp = None   # set by the first fading.product_arg_clamp search


def _reduced(mu: float) -> ReducedShape:
    n = _noise_integer(mu, mu)
    if n is not None:
        return ReducedShape(mu, 0.0, n, math.lgamma(mu), math.inf)
    n = math.floor(mu)
    return ReducedShape(mu, mu - n, n, math.lgamma(mu), math.lgamma(mu - n))


def shape_pair(mu1: float, mu2: float) -> ShapePair:
    """The per-pair state of F_Z's kernel, built once per shape pair and memoised."""
    pair = _PAIRS.get((mu1, mu2))
    if pair is None:
        if not max(mu1, mu2) <= MAX_SHAPE:
            raise DomainError(
                f"hop shapes {mu1:g} and {mu2:g}: the analytic product CDF takes "
                f"shapes up to {MAX_SHAPE:g}, past which its Bessel terms leave "
                f"the double range")
        if len(_PAIRS) >= _PAIRS_MAX:
            del _PAIRS[next(iter(_PAIRS))]   # the oldest
        pair = _PAIRS[mu1, mu2] = ShapePair(mu1, mu2)
    return pair


def _bessel_sum(e: float, half_ln: float, ln_pre: float, f: float, g: float, ladder):
    """sum_k exp((e + k) half_ln + ln_pre - g_k) ladder[k], g_k = g + ln((f+1) .. (f+k)).

    Returns the sum and the magnitude its largest exponent's parts reach,
    those of its last term, k = len(ladder) - 1.
    """
    total = 0.0
    for k, value in enumerate(ladder):
        if k:
            g += math.log(f + k)
        total += math.exp((e + k) * half_ln + ln_pre - g) * value
    return total, (e + len(ladder) - 1) * half_ln + abs(ln_pre) + abs(g)


def _kernel_tail(pair: ShapePair, x0: float):
    """S(x0) = P(X_a X_b > x0) for unit-rate gammas of the pair's shapes, x0 >= 6.

    Shape reduction: Q(s + 1, y) = Q(s, y) + y^s e^{-y} / Gamma(s + 1) (DLMF
    8.8.6), taken n_a times in X_a and then n_b times in X_b, and
    E[X^{-s} e^{-x/X}] = 2 x^{(mu-s)/2} K_{mu-s}(2 sqrt x) / Gamma(mu) for
    X ~ Gamma(mu) (DLMF 10.32.10) give, with t0 = 2 sqrt(x0),

        S = sum_{k<n_a} 2 x0^{(mu_b+f_a+k)/2} K_{mu_b-f_a-k}(t0) / (Gamma(mu_b) Gamma(f_a+k+1))
          + sum_{k<n_b} 2 x0^{(f_a+f_b+k)/2} K_{f_a-f_b-k}(t0) / (Gamma(f_a) Gamma(f_b+k+1))
          + P(Y_a Y_b > x0),   Y ~ Gamma(f).

    An integer shape a (f_a = 0) leaves the first sum alone, the Erlang sum
    of the Rayleigh, Weibull and Nakagami-m presets.  With c = f_b - f_a in
    [0, 1) every order is c + j off one ``_k_ladder``, but for the first
    sum's orders past its crossing of 0 (mu 1.5 / 3), which take a second
    ladder at 1 - c.  A ladder starts from two Chebyshev tables
    (``_k_table``) of orders in [0, 1.5], shared by every pair.  Each term is
    exp of its log parts times e^{t0} K, in range up to MAX_SHAPE.  The
    residual has both shapes in (0, 1); in t = t0 + s it is 2^{2-2r} e^{-t0}
    / (Gamma(f_a) Gamma(f_b)) Int_0^inf e^{-s} t^{2r-1} (e^t K_c(t)) ds with
    r = (f_a + f_b) / 2, which a fixed 20-point Gauss-Laguerre rule
    (Abramowitz & Stegun 25.4.45) sums to within _RESIDUAL_RULE_ERR.  Every
    node takes sqrt(t) e^t K_c(t) off the table of order c.

    The error is twice the roundoff of the largest exponent, whose parts
    reach ``mag``, plus the error of its ln Gamma parts (a budget of 47 + 2
    |ln Gamma| ulp each, over libm's measured worst, counted in ``mag``), 4
    EPS per unit of mu_a + mu_b for the terms and ladder steps, the ladders'
    table bounds on the sums, and the rule's and the table's bounds on the
    residual.  Returns (S, abs error).
    """
    c, n_up, c_down, n_down, n_a, e_a, ln_b, f_a, g_a, u_a, budget, residual = pair.tail
    t0 = 2.0 * math.sqrt(x0)
    half_ln = 0.5 * math.log(x0)
    # the first sum's n_a orders c + n_b - k: down the ladder at c, past 0 up the one at 1 - c
    up, up_err = _k_ladder(c, t0, n_up) if n_up else ([], 0.0)
    down, down_err = _k_ladder(c_down, t0, n_down) if n_down else ([], 0.0)
    ladder = (up[::-1] + down)[:n_a]
    first, mag = _bessel_sum(e_a, half_ln, -t0 - ln_b, f_a, g_a, ladder)
    mag += u_a
    ladder_err = max(up_err, down_err)
    if residual is None:
        value = 2.0 * first
        return value, ((budget + 2.0 * mag) * EPS + ladder_err) * value
    e_b, ln_a, f_b, g_b, n_b, lg, ln_pre, q = residual   # t^p e^t K_c(t) = t^q g, q = p - 1/2
    second, mag_b = _bessel_sum(e_b, half_ln, -t0 - ln_a, f_b, g_b, up[:n_b])
    mag = max(mag + abs(ln_a) + 24.0, mag_b + lg + 48.0)
    ln_pre -= t0
    table, table_err = _k_table(c)
    nodes, weights = _LAGUERRE_20
    res = 0.0
    for s, w in zip(nodes, weights):
        t = t0 + s
        res += w * math.exp(q * math.log(t) + ln_pre) * _clenshaw(table, _K_TABLE_SCALE / t - 1.0)
    mag_res = abs(q) * math.log(t0 + nodes[-1]) + abs(ln_pre) + lg + 48.0
    sums = 2.0 * (first + second)
    err = (((budget + 2.0 * mag) * EPS + ladder_err) * sums
           + (_RESIDUAL_RULE_ERR + table_err + (40.0 + 2.0 * mag_res) * EPS) * res)
    return sums + res, err


def _g_complement(pair: ShapePair, x: float):
    """Large-argument path: F_Z = 1 - S(x), (value, abs error).

    S is ``_kernel_tail``'s normalised survival, so neither x^sigma nor
    Gamma(mu1) Gamma(mu2) is formed.  1 - S keeps the absolute accuracy of
    S plus one rounding; where F_Z is tiny it has no relative accuracy.
    """
    tail, err = _kernel_tail(pair, x)
    value = 1.0 - tail
    return value, err + EPS * abs(value)


def _g_kernel_quadrature(delta: float, sigma: float, x: float):
    """Direct kernel integral G(x), (value, abs error, converged): the tests' reference.

    No route calls it; the tests hold the paired series at near-integer gaps
    to it.  In v = x e^{-s} the kernel identity reads G(x) = 2 Int_0^inf
    e^{-sigma s} K_delta(2 sqrt(x) e^{-s/2}) ds, free of the log singularity
    of K_0 at v = 0 and of x^{-sigma}, cut where e^{-(sigma - delta/2) s} is e^{-50}.
    """
    r = 2.0 * math.sqrt(x)

    def f(s):
        return math.exp(-sigma * s) * bessel_k(delta, r * math.exp(-0.5 * s))

    s_max = 50.0 / (sigma - 0.5 * delta)
    bps = [s_max * b for b in (0.01, 0.05, 0.2)]
    settings = QuadratureSettings(abs_tol=1e-300, rel_tol=5e-12, max_subdivisions=1500)
    val, err, ok = integrate_adaptive(f, 0.0, s_max, settings, breakpoints=bps)
    value = 2.0 * val
    return value, 2.0 * err + 8.0 * EPS * abs(value), ok


def _g2131_eval(pair: ShapePair, x: float):
    """F_Z at kernel argument x: x^sigma G(x) / (Gamma(mu1) Gamma(mu2)).

    One route per argument: past _X_SERIES_MAX ``_g_complement``'s 1 - S,
    and below it the pair's series, the log-series for a gap within a few
    ulps of an integer (2.2 - 1.2) and the paired series for every other
    gap, however near an integer.  Every route returns (value, abs error)
    with x^sigma / (Gamma(mu1) Gamma(mu2)) inside its log scale.  A series
    term past the double range leaves no value: (inf, inf).
    """
    if x > _X_SERIES_MAX:
        return _g_complement(pair, x)
    try:
        return (_g_series_integer if pair.route == "log" else _g_series_noninteger)(pair, x)
    except OverflowError:
        return math.inf, math.inf
