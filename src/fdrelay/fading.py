"""Generalized two-parameter fading distributions.

The envelope of one branch follows the alpha-mu family: ``(r/r_hat)^alpha``
is gamma distributed with shape ``mu`` after scaling by ``mu``.  The module
provides the squared-envelope (power) density and CDF, the CDF F_Z of a
product of two independent powers (``_cdf_product_meijer``, the one F_Z
entry, with its error estimate), and an exact envelope sampler.

Special cases by parameter choice: Rayleigh (alpha=2, mu=1), Nakagami-m
(alpha=2, mu=m), Weibull (mu=1), one-sided Gaussian (alpha=2, mu=1/2).

The power-distribution rate constant is ``lam = mu / r_hat**alpha`` (the
exponent is alpha, not alpha/2), a convention the normalization tests
enforce.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import DomainError
from .specfun import (
    EPS,
    EXP_UNDERFLOW,
    reg_lower_gamma,
    ShapePair,
    shape_pair,
    _g2131_eval,
    _kernel_tail,
    # the clamp is kept in each memoised shape pair, so clearing the memo
    # under this name makes the next clamp search cold
    _PAIRS as _CLAMP_CACHE,
)

_MIN_NORMAL = sys.float_info.min   # the least positive normal double
# 1 - F_Z past the clamp: the search's threshold and the clamped value's error
_CLAMP_TAIL = 1e-14


@dataclass(frozen=True)
class AlphaMuParams:
    """One fading branch: nonlinearity exponent, shape, and alpha-root mean.

    ``r_hat`` is the alpha-th root of E[r**alpha] in linear amplitude units;
    ``mu`` is the inverse normalized variance of r**alpha.
    """

    alpha: float
    mu: float
    r_hat: float = 1.0
    ln_gamma_mu: float = field(init=False, repr=False, compare=False)  # ln Gamma(mu)
    # lam = mu / r_hat**alpha, the gamma rate of (envelope)**alpha; inf when
    # r_hat**alpha underflows and 0 when it overflows, where the branch power
    # is 0 or inf in double precision
    rate: float = field(init=False, repr=False, compare=False)
    half_alpha: float = field(init=False, repr=False, compare=False)   # alpha / 2
    # ln(alpha/2) + mu ln(rate), the leading sum of pdf_power's exponent
    ln_pdf_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not self.mu >= 0.5:
            raise DomainError(f"mu must be >= 0.5, got {self.mu}")
        if not self.r_hat > 0.0:
            raise DomainError(f"r_hat must be positive, got {self.r_hat}")
        try:
            scale = self.r_hat ** self.alpha
        except OverflowError:
            rate = 0.0
        else:
            rate = self.mu / scale if scale > 0.0 else math.inf
        try:
            ln_pdf_norm = math.log(0.5 * self.alpha) + self.mu * math.log(rate)
        except ValueError:   # alpha / 2 or the rate is 0 in double precision
            ln_pdf_norm = -math.inf
        for name, value in (("ln_gamma_mu", math.lgamma(self.mu)), ("rate", rate),
                            ("half_alpha", 0.5 * self.alpha), ("ln_pdf_norm", ln_pdf_norm)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ProductDistParams:
    """Product of the squared envelopes of two branches with equal alpha."""

    hop1: AlphaMuParams
    hop2: AlphaMuParams
    lam12: float = field(init=False)    # lam1 * lam2
    shapes: ShapePair = field(init=False, repr=False, compare=False)  # the kernel's per-pair state

    def __post_init__(self):
        if self.hop1.alpha != self.hop2.alpha:
            raise DomainError(
                f"closed-form product requires equal alphas, got "
                f"{self.hop1.alpha} and {self.hop2.alpha}")
        object.__setattr__(self, "shapes", shape_pair(self.hop1.mu, self.hop2.mu))
        object.__setattr__(self, "lam12", self.hop1.rate * self.hop2.rate)


# ----------------------------------------------------------------------
# single branch

def pdf_power(p: AlphaMuParams, x: float) -> float:
    """Density of the squared envelope at x > 0."""
    if not x > 0.0:
        raise DomainError(f"pdf_power requires x > 0, got {x}")
    ln_f = (p.ln_pdf_norm + (p.half_alpha * p.mu - 1.0) * math.log(x) - p.ln_gamma_mu
            - p.rate * x ** p.half_alpha)
    return math.exp(ln_f) if ln_f > EXP_UNDERFLOW else 0.0


def cdf_power(p: AlphaMuParams, x: float) -> float:
    """CDF of the squared envelope, the regularized gamma at mu * (sqrt(x)/r_hat)**alpha."""
    if x < 0.0:
        raise DomainError(f"cdf_power requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    try:
        w = (math.sqrt(x) / p.r_hat) ** p.alpha
    except OverflowError:   # past the double range, where the CDF is 1
        w = math.inf
    return reg_lower_gamma(p.mu, p.mu * w)


def sample_envelope(p: AlphaMuParams, rng, size=None):
    """Draw envelope samples through the gamma-power transform.

    ``r = r_hat * (g / mu)**(1/alpha)`` with g a unit-scale gamma variate of
    shape mu.  Exact for every parameter combination and independent of the
    analytic CDF, which keeps the sampler usable as a test oracle.  ``rng``
    is a numpy Generator owned by the caller; pass ``size`` for an array.
    """
    g = rng.gamma(p.mu, 1.0, size)
    return p.r_hat * (g / p.mu) ** (1.0 / p.alpha)


# ----------------------------------------------------------------------
# product of two powers (equal alpha)

def product_arg_clamp(pp: ProductDistParams) -> float:
    """Smallest kernel argument x beyond which 1 - F_Z < _CLAMP_TAIL.

    The survival 1 - F_Z is the kernel tail S; found once per shape pair by
    expanding search and kept in the pair's state.
    """
    pair = pp.shapes
    if pair.clamp is None:
        x = 40.0
        for _ in range(40):
            if _kernel_tail(pair, x)[0] < _CLAMP_TAIL:
                break
            x *= 1.6
        pair.clamp = x
    return pair.clamp


def _cdf_product_meijer(pp: ProductDistParams, z: float):
    """(value, abs error) of F_Z(z), the CDF of the product of the two hop powers.

    The one F_Z entry: the kernel ``_g2131_eval`` at x = lam12 z^{alpha/2},
    clamped to [0, 1].  The error is inf exactly where no value was reached,
    and the value is then the kernel's best.  The two clamped ends are exact
    to their error: past the pair's clamp, and where x or z^{alpha/2} falls
    below the least normal double.  There they keep too few bits to take F_Z
    at, and F_Z is at most its value at max(lam12, 1) times that double.
    """
    try:
        y = z ** pp.hop1.half_alpha
    except OverflowError:   # z^{alpha/2} past the double range, where F_Z is exactly 1
        y = math.inf
    lam12 = pp.lam12
    x = lam12 * y
    pair = pp.shapes
    clamp = pair.clamp
    if clamp is None:
        clamp = product_arg_clamp(pp)
    if x < _MIN_NORMAL or y < _MIN_NORMAL:
        # F_Z increases, and the exact x < max(lam12, 1) times the least normal double;
        # 8 EPS covers the rounding of y and of that product
        x = (lam12 if lam12 > 1.0 else 1.0) * (_MIN_NORMAL * (1.0 + 8.0 * EPS))
        if x >= clamp:
            return 0.0, 1.0
        value, err = _g2131_eval(pair, x)
        return 0.0, value + err
    if x >= clamp:
        return 1.0, _CLAMP_TAIL
    value, err = _g2131_eval(pair, x)
    if not (-math.inf < value < math.inf and err < math.inf):
        # a kernel value or error that is not finite bounds nothing
        err = math.inf
    # min(1, max(0, value)) by comparisons, nan to 0 as there
    return (value if value < 1.0 else 1.0) if value > 0.0 else 0.0, err
