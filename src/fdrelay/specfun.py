"""Scalar special functions backing the fading analytics.

Self-contained double-precision evaluators, each paired with an independent
cross-check in the test suite:

* ``ln_gamma``         log-gamma via a shifted Stirling series
* ``reg_lower_gamma``  regularized lower incomplete gamma P(s, x),
                       power series below the s+1 crossover, Lentz
                       continued fraction above it
* ``bessel_k``         modified Bessel function of the second kind for real
                       order, uniform Temme series for x <= 2 crossed with a
                       Steed continued fraction beyond it
* ``_g2131_eval``      the one Meijer G instance needed here: the kernel that
                       closes the CDF of a product of two gamma-power
                       variates.  Evaluated by its ascending residue series
                       (two hypergeometric-type branches), by the confluent
                       logarithmic series when the branch exponents collide,
                       by interpolation in the gap across both series when
                       they nearly collide, and by a Bessel-kernel tail
                       integral for large argument.  For an integer smaller
                       shape (the Rayleigh, Weibull and integer-m Nakagami
                       presets) that tail is a finite Erlang sum of Bessel
                       terms; otherwise a fixed Gauss-Laguerre rule sums it.

Accuracy targets are part of the contract: ``bessel_k`` holds 1e-10 relative
for order in [0, 20] and argument in [1e-8, 700]; ``_g2131_eval`` holds
1e-8 relative on its restricted parameter pattern for argument in
[1e-10, 1e4] and returns its own error estimate with a converged flag.  All
functions are pure and reentrant.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .quadrature import QuadratureSettings, integrate_adaptive, integrate_to_infinity

EPS = 2.220446049250313e-16
EULER_GAMMA = 0.5772156649015328606065120900824024
_LN_SQRT_2PI = 0.9189385332046727417803297364056176

# Stirling series coefficients B_{2n} / (2n (2n-1)) for ln Gamma
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6)


def _zeta_int(k: int, n_direct: int = 28) -> float:
    """Riemann zeta at integer k >= 2, Euler-Maclaurin tail correction."""
    s = float(k)
    total = sum(n ** -s for n in range(1, n_direct))
    total += n_direct ** (1.0 - s) / (s - 1.0) + 0.5 * n_direct ** -s
    rising = s
    npow = n_direct ** (-s - 1.0)
    fact = 2.0
    for j, b in enumerate(_BERNOULLI, start=1):
        if j > 1:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
            npow /= n_direct * n_direct
            fact *= (2 * j - 1) * (2 * j)
        total += b / fact * rising * npow
    return total


# zeta(2) .. zeta(39), enough for the Temme coefficients at |mu| <= 0.5
_ZETAS = tuple(_zeta_int(k) for k in range(2, 40))


# ----------------------------------------------------------------------
# gamma family

def ln_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Arguments below 12 are shifted up by the recurrence before applying the
    Stirling series, which keeps exp(ln_gamma(x)) within ~1e-13 relative of
    Gamma(x) across [0.5, 50].
    """
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    shift = 0.0
    y = x
    while y < 12.0:
        shift += math.log(y)
        y += 1.0
    z = 1.0 / (y * y)
    ser = 0.0
    for c in reversed(_STIRLING):
        ser = ser * z + c
    return (y - 0.5) * math.log(y) - y + _LN_SQRT_2PI + ser / y - shift


def gamma_fn(x: float) -> float:
    """Gamma(x) for real non-pole x, reflection formula for x < 0."""
    if x > 0.0:
        if x > 171.61:
            return math.inf
        return math.exp(ln_gamma(x))
    if x == math.floor(x):
        raise DomainError(f"Gamma pole at x = {x}")
    # Gamma(x) Gamma(1-x) = pi / sin(pi x)
    return math.pi / (_sin_pi(x) * math.exp(ln_gamma(1.0 - x)))


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
    lnpre = -x + s * math.log(x) - ln_gamma(s)
    pre = math.exp(lnpre) if lnpre > -745.0 else 0.0
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

def _temme_coefficients(mu: float):
    """Stable gam1, gam2 and the reciprocal gammas for |mu| <= 0.5.

    Writes 1/Gamma(1 +- mu) = E exp(+-w) with E and w even/odd zeta series
    in mu, so gam1 = -E sinh(w)/mu survives mu -> 0 without cancellation.
    """
    even_sum = 0.0
    w = EULER_GAMMA * mu
    p = mu * mu
    k = 2
    for z in _ZETAS:
        if k % 2 == 0:
            even_sum += z * p / k
        else:
            w += z * p / k
        p *= mu
        k += 1
        if abs(p) < 1e-40:
            break
    # below 1e-150 w/mu equals EULER_GAMMA to double precision, while
    # dividing by a subnormal mu would lose every digit of the quotient
    w_over_mu = w / mu if abs(mu) > 1e-150 else EULER_GAMMA
    e_fac = math.exp(-even_sum)
    sinhc = math.sinh(w) / w if w != 0.0 else 1.0
    gam1 = -e_fac * sinhc * w_over_mu
    gam2 = e_fac * math.cosh(w)
    inv_gamma_1p = e_fac * math.exp(w)   # 1 / Gamma(1 + mu)
    inv_gamma_1m = e_fac * math.exp(-w)  # 1 / Gamma(1 - mu)
    return gam1, gam2, inv_gamma_1p, inv_gamma_1m


def _bessel_k_series(mu: float, x: float):
    """Temme series for (K_mu, K_{mu+1}) at x <= 2, |mu| <= 0.5. Unscaled."""
    x2 = 0.5 * x
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if abs(pimu) > 1e-15 else 1.0
    d = -math.log(x2)
    e = mu * d
    fact2 = math.sinh(e) / e if abs(e) > 1e-15 else 1.0
    gam1, gam2, inv_g1p, inv_g1m = _temme_coefficients(mu)
    ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
    total = ff
    ee = math.exp(e)
    p = 0.5 * ee / inv_g1p
    q = 0.5 / (ee * inv_g1m)
    c = 1.0
    x2sq = x2 * x2
    total1 = p
    for i in range(1, 500):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c *= x2sq / i
        p /= (i - mu)
        q /= (i + mu)
        delta = c * ff
        total += delta
        total1 += c * (p - i * ff)
        if abs(delta) < abs(total) * EPS:
            break
    return total, total1 * (2.0 / x)


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
    for i in range(2, 500):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
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


def _k_upward(mu: float, rk: float, rk1: float, x: float, n_up: int, orders: int | None):
    """K at order mu + n_up from the pair at mu and mu + 1, |mu| <= 0.5.

    The recurrence K_{v+1} = K_{v-1} + (2 v / x) K_v is stable upward for K
    and holds alike for e^x K.  With ``orders`` = n, the list of the n orders
    mu + n_up .. mu + n_up + n - 1 instead.
    """
    top = n_up if orders is None else n_up + orders - 1
    two_over_x = 2.0 / x
    ladder = []
    for i in range(1, top + 1):
        if i > n_up:
            ladder.append(rk)
        rk, rk1 = rk1, (mu + i) * two_over_x * rk1 + rk
    if orders is None:
        return rk
    ladder.append(rk)
    return ladder


def _bessel_k_scaled(nu: float, x: float, orders: int | None = None):
    """e^x K_nu(x) for nu >= 0, x > 0.

    With ``orders`` = n, the list e^x K_{nu+j}(x), j = 0 .. n-1, off one
    continued fraction and one upward recurrence.
    """
    n_up = int(nu + 0.5)
    mu = nu - n_up
    if x <= 2.0:
        rk, rk1 = _bessel_k_series(mu, x)
        scale = math.exp(x)
        rk *= scale
        rk1 *= scale
    else:
        rk, rk1 = _bessel_k_cf2(mu, x)
    return _k_upward(mu, rk, rk1, x, n_up, orders)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    Order symmetry K_nu = K_{-nu} is applied internally.  Underflows to 0
    for very large x instead of raising.
    """
    if not x > 0.0:
        raise DomainError(f"bessel_k requires x > 0, got {x}")
    nu = abs(nu)
    if x > 740.0:
        # e^-x below the normal range once the polynomial factors are applied
        scaled = _bessel_k_scaled(nu, x)
        ln_val = math.log(scaled) - x
        return math.exp(ln_val) if ln_val > -745.0 else 0.0
    if x <= 2.0:
        n_up = int(nu + 0.5)
        mu = nu - n_up
        return _k_upward(mu, *_bessel_k_series(mu, x), x, n_up, None)
    return _bessel_k_scaled(nu, x) * math.exp(-x)


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
# which the large-argument complement and the tests' reference quadrature
# use directly.

_X_SERIES_MAX = 12.0   # beyond this the ascending series cancel too hard
_NEAR_INTEGER = 1e-4   # branch-collision guard for the two-series form
_INTERP_STEP = 1e-2    # node spacing in the gap for the near-integer band


def _noise_integer(v: float, scale: float):
    """round(v) when v is that integer up to float noise, else None.

    The noise is 2 EPS scale, with ``scale`` the size of the shapes v was
    formed from: a difference of shapes typed as decimals, such as
    2.2 - 1.2 = 1.0000000000000002, misses its integer by an ulp of them.
    """
    n = round(v)
    return n if abs(v - n) <= 2.0 * EPS * scale else None


def _g_series_noninteger(delta: float, sigma: float, x: float):
    """Two-branch ascending series, requires delta away from the integers.

    Returns (value, abs error estimate, True).
    """
    delta = abs(delta)
    if delta == 0.0:
        raise ValueError("delta must be nonzero for the two-branch series")
    g_minus = gamma_fn(-delta)
    g_plus = gamma_fn(delta)
    k_decay = 2.0 * math.sqrt(x) + 4.0  # past this the term ratio is < 1

    def branch(b_h, pochh_shift):
        # sum_k x^k / (k! (1 + 2 b_h)_k) * weight_k, weight = 1/(sigma+b_h+k)
        total = 0.0
        term = 1.0
        max_mag = 0.0
        used = 0
        for k in range(0, 600):
            if k > 0:
                term *= x / (k * (k + pochh_shift))
            w = term / (sigma + b_h + k)
            total += w
            max_mag = max(max_mag, abs(w))
            used = k
            if k > k_decay and abs(w) < abs(total) * EPS:
                break
        return total, max_mag, used

    s1, m1, u1 = branch(delta / 2.0, delta)
    s2, m2, u2 = branch(-delta / 2.0, -delta)
    t1 = g_minus * x ** (delta / 2.0)
    t2 = g_plus * x ** (-delta / 2.0)
    value = t1 * s1 + t2 * s2
    # roundoff accumulates over the term count and across the branch
    # cancellation, so the estimate scales with both
    mag = abs(t1) * m1 + abs(t2) * m2
    err = (32.0 + 2.0 * max(u1, u2)) * EPS * (mag + abs(value))
    return value, err, True


def _g_series_integer(d: int, sigma: float, x: float):
    """Confluent (logarithmic) series for integer branch separation d >= 0.

    The collided poles contribute digamma and ln x terms; the d leading
    poles below the collision stay simple.  Returns (value, err, True).
    """
    lnx = math.log(x)
    total = 0.0
    mag = 0.0
    for j in range(d):
        t = ((-1.0) ** j) * math.factorial(d - 1 - j) / math.factorial(j) \
            * x ** (j - d / 2.0)
        t /= (sigma + j - d / 2.0)
        total += t
        mag = max(mag, abs(t))
    sign = -1.0 if d % 2 else 1.0
    xp = x ** (d / 2.0)
    term = 1.0 / math.factorial(d)
    k_decay = 2.0 * math.sqrt(x) + 4.0
    used = 0
    for k in range(0, 600):
        if k > 0:
            term *= x / (k * (d + k))
        psi_part = _digamma_int(k + 1) + _digamma_int(d + k + 1) - lnx
        c = sigma + k + d / 2.0
        contrib = sign * xp * term * (psi_part + 1.0 / c) / c
        total += contrib
        mag = max(mag, abs(contrib))
        used = k
        if k > k_decay and abs(contrib) < abs(total) * EPS:
            break
    err = (32.0 + 2.0 * used) * EPS * (mag + abs(total))
    return total, err, True


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


# the tail rule and the smaller rule whose difference from it is the error
_LAGUERRE_20 = _gauss_laguerre(20)
_LAGUERRE_16 = _gauss_laguerre(16)


def _kernel_tail(delta: float, sigma: float, x0: float):
    """T(x0) = 2 Int_{x0}^inf v^{sigma-1} K_delta(2 sqrt v) dv, x0 >= 4.

    When the smaller shape m = sigma - delta/2 is a positive integer, up to
    the float noise ``_noise_integer`` allows, one gamma factor of the
    product is Erlang(m) and the tail is the finite sum

        T = Gamma(m) sum_{k<m} (2/k!) x0^{(m+delta+k)/2} K_{m+delta-k}(t0),

    with t0 = 2 sqrt(x0), whose m Bessel orders come off one ladder.  This
    serves the Rayleigh, Weibull and integer-m Nakagami presets.  Each term
    is exp(((m+delta+k)/2) ln x0 - t0 - ln k!) (e^{t0} K), which neither
    overflows nor underflows before the term does.  The error is twice the
    roundoff of that exponent, whose parts reach ``mag`` in magnitude, plus
    4 EPS per term and per recurrence step.

    Otherwise, in t = 2 sqrt(v) = t0 + s the tail is

        2^{2 - 2 sigma} e^{-t0} Int_0^inf e^{-s} t^{2 sigma - 1} (e^t K_delta(t)) ds,

    whose factor after e^{-s} is smooth and grows slowly, so a fixed
    20-point Gauss-Laguerre rule (Abramowitz & Stegun 25.4.45) sums it to
    near double precision.  ``t^{2 sigma - 1} e^{-t0}`` is taken as one
    exponential, which neither overflows nor underflows before the product
    does.  The error is the distance to the 16-point rule plus the roundoff
    of that exponent, whose argument reaches ``t0`` in magnitude.

    When that error exceeds 1e-12 relative, the tail is integrated
    adaptively instead.  This happens when 2 sigma is large against t0, so
    that the mass sits beyond the last Laguerre node (sigma >= 20 at
    x0 = 12); no shape in the documented range 0.5 to 8 gets there.
    Returns (value, abs error, converged); zero beyond t0 = 800, where
    e^{-t0} is below the double range.
    """
    t0 = 2.0 * math.sqrt(x0)
    if t0 > 800.0:
        return 0.0, 0.0, True
    m = _noise_integer(sigma - 0.5 * delta, sigma + delta)
    if m is not None and m >= 1:
        # e^{t0} K at the orders delta + 1 .. delta + m
        ladder = _bessel_k_scaled(delta + 1.0, t0, m)
        half_ln = 0.5 * math.log(x0)
        total = 0.0
        ln_fact = 0.0
        mag = 0.0
        for k in range(m):
            if k:
                ln_fact += math.log(k)
            a = (m + delta + k) * half_ln
            total += math.exp(a - t0 - ln_fact) * ladder[m - 1 - k]
            mag = max(mag, a + t0 + ln_fact)
        value = 2.0 * math.factorial(m - 1) * total
        err = (16.0 + 4.0 * (m + delta) + 2.0 * mag) * EPS * value
        return value, err, True
    p = 2.0 * sigma - 1.0
    scale = 2.0 ** (2.0 - 2.0 * sigma)

    def rule(nodes, weights):
        total = 0.0
        for s, w in zip(nodes, weights):
            t = t0 + s
            total += w * math.exp(p * math.log(t) - t0) * _bessel_k_scaled(delta, t)
        return total

    val = rule(*_LAGUERRE_20)
    exponent = t0 + abs(p) * math.log(t0 + _LAGUERRE_20[0][-1])
    err = abs(val - rule(*_LAGUERRE_16)) + (20.0 + exponent) * EPS * val
    if err <= 1e-12 * val:
        return scale * val, scale * err, True

    def f(t):
        if t > 800.0:
            return 0.0
        return math.exp(p * math.log(t) - t) * _bessel_k_scaled(delta, t)

    settings = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=400)
    val, err, ok = integrate_to_infinity(f, t0, settings,
                                         breakpoints=(t0 + 2.0, t0 + 8.0, t0 + 25.0, t0 + 60.0))
    return scale * val, scale * err, ok


def _g_complement(delta: float, sigma: float, x: float):
    """Large-argument path: G = x^{-s} (Gamma(s+d/2) Gamma(s-d/2) - tail).

    ``full`` carries the roundoff of its two ln_gamma terms as relative
    error.  Each is bounded by 64 EPS + 2 EPS |ln Gamma| (against mpmath
    over 0.5 to 400 the error reaches 47 EPS + 2 EPS |ln Gamma|); 8 EPS
    more covers exp, the subtraction and x^{-s}.  The tail's own error is
    certified where it is computed.
    """
    ln_hi = ln_gamma(sigma + delta / 2.0)
    ln_lo = ln_gamma(sigma - delta / 2.0)
    full = math.exp(ln_hi + ln_lo)
    tail, terr, ok = _kernel_tail(delta, sigma, x)
    xs = x ** (-sigma)
    value = xs * (full - tail)
    full_err = (136.0 + 2.0 * (abs(ln_hi) + abs(ln_lo))) * EPS * full
    err = xs * (full_err + terr)
    return value, err, ok


def _g_kernel_quadrature(delta: float, sigma: float, x: float):
    """Direct kernel integral, (value, abs error, converged).

    The independent kernel-integral reference for the near-integer band,
    which ``_g2131_eval`` serves by ``_g_near_integer``.  In v = x e^{-s}
    the kernel identity reads

        G(x) = 2 Int_0^inf e^{-sigma s} K_delta(2 sqrt(x) e^{-s/2}) ds,

    free of the log singularity of K_0 at v = 0 and of x^{-sigma}.  The
    integrand decays as e^{-(sigma - delta/2) s}, so it is cut where that
    factor is e^{-50}.
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


def _lagrange(nodes, values, t: float):
    """(interpolant, Lebesgue constant) at t of the polynomial through the nodes."""
    total = 0.0
    lebesgue = 0.0
    for i, ti in enumerate(nodes):
        w = 1.0
        for j, tj in enumerate(nodes):
            if j != i:
                w *= (t - tj) / (ti - tj)
        total += w * values[i]
        lebesgue += abs(w)
    return total, lebesgue


def _g_near_integer(delta: float, sigma: float, x: float):
    """G for a gap 0 < |delta - d| < _NEAR_INTEGER off the integer d, x <= 12.

    G is analytic and even in delta, so its value at delta is interpolated
    from the log-series at d and the two-branch series at d + k h,
    k = +-1 .. +-3, where the branch cancellation costs only about 1/h in
    relative accuracy.  For d = 0 the interpolation runs in delta^2 on the
    nodes 0, h, ..., 6h.  The error is the distance between the 7-node and
    the inner 5-node interpolant plus the largest node error times the
    Lebesgue constant at delta.  The interpolation error grows with |ln x|
    through x^{+-delta/2}: about 1e-10 relative at x = 1e-10 and 2e-8 at
    x = 1e-25 for gaps up to 6 and shapes from 0.5.
    """
    d = int(round(delta))
    h = _INTERP_STEP
    ks = range(7) if d == 0 else range(-3, 4)
    evals = [_g_series_integer(d, sigma, x) if k == 0
             else _g_series_noninteger(d + k * h, sigma, x) for k in ks]
    values = [e[0] for e in evals]
    if d == 0:
        nodes, t, inner = [(k * h) ** 2 for k in ks], delta * delta, slice(0, 5)
    else:
        nodes, t, inner = [d + k * h for k in ks], delta, slice(1, 6)
    p7, lebesgue = _lagrange(nodes, values, t)
    p5, _ = _lagrange(nodes[inner], values[inner], t)
    err = abs(p7 - p5) + lebesgue * max(e[1] for e in evals)
    return p7, err, all(e[2] for e in evals)


def _g2131_eval(delta: float, sigma: float, x: float):
    """Route the restricted G; every route returns (value, abs error, converged).

    A gap within a few ulps of an integer (2.2 - 1.2) takes the log-series,
    and a gap from there to _NEAR_INTEGER off an integer is interpolated
    across the gap.  A series term past the double range, such as
    x^{-delta/2} for a gap above about 20 at small x, leaves no value:
    (inf, inf, False).
    """
    delta = abs(delta)
    if x > _X_SERIES_MAX:
        return _g_complement(delta, sigma, x)
    d_int = _noise_integer(delta, sigma + delta)
    try:
        if d_int is not None:
            result = _g_series_integer(d_int, sigma, x)
        elif abs(delta - round(delta)) < _NEAR_INTEGER:
            result = _g_near_integer(delta, sigma, x)
        else:
            result = _g_series_noninteger(delta, sigma, x)
    except OverflowError:
        return math.inf, math.inf, False
    value, err, _ = result
    if err > 3e-9 * abs(value) and x >= 6.0:
        # series cancellation is marginal here; the complement route is
        # well conditioned once the CDF mass below x is non-negligible
        complement = _g_complement(delta, sigma, x)
        if complement[2] and complement[1] < err:
            return complement
    return result
