import math

import pytest

from fdrelay.quadrature import (
    QuadratureSettings,
    gauss_kronrod,
    integrate_adaptive,
    integrate_to_infinity,
)


def test_settings_validation():
    with pytest.raises(ValueError):
        QuadratureSettings(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSettings(rel_tol=-1e-9)
    with pytest.raises(ValueError):
        QuadratureSettings(max_subdivisions=5)


def test_kronrod_polynomial_exactness():
    # the 15-point extension integrates polynomials up to degree 22 exactly
    val, err = gauss_kronrod(lambda x: x ** 18, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 19.0, rel=1e-14)
    val, _ = gauss_kronrod(lambda x: 5 * x ** 4 - 3 * x ** 2 + 1, -2.0, 3.0)
    exact = (3.0 ** 5 + 2.0 ** 5) - (3.0 ** 3 + 2.0 ** 3) + 5.0
    assert val == pytest.approx(exact, rel=1e-14)


def test_adaptive_smooth():
    val, err, ok = integrate_adaptive(math.sin, 0.0, math.pi)
    assert ok
    assert val == pytest.approx(2.0, abs=1e-12)


def test_adaptive_endpoint_singularity():
    val, err, ok = integrate_adaptive(
        lambda x: 1.0 / math.sqrt(x), 0.0, 1.0,
        QuadratureSettings(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=4000))
    assert ok
    assert val == pytest.approx(2.0, abs=1e-9)


def test_adaptive_narrow_peak_with_breakpoints():
    # mass at 1e-4 on a [0, 10] interval: the seed panels make it visible
    def f(x):
        return math.exp(-((x - 1e-4) / 1e-5) ** 2 / 2.0)

    exact = 1e-5 * math.sqrt(2.0 * math.pi)
    val, _, ok = integrate_adaptive(f, 0.0, 10.0, breakpoints=(5e-5, 1e-4, 2e-4, 1e-2))
    assert ok
    assert val == pytest.approx(exact, rel=1e-8)


def test_adaptive_budget_exhaustion_flag():
    settings = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-16, max_subdivisions=10)
    val, err, ok = integrate_adaptive(lambda x: math.exp(-x * x), 0.0, 1.0, settings)
    assert not ok
    assert val == pytest.approx(0.7468241328124271, rel=1e-8)


def test_integrate_to_infinity_decaying():
    val, _, ok = integrate_to_infinity(lambda x: math.exp(-x), 0.0)
    assert ok
    assert val == pytest.approx(1.0, abs=1e-10)
    val, _, ok = integrate_to_infinity(lambda x: x * math.exp(-x * x / 2.0), 1.0)
    assert ok
    assert val == pytest.approx(math.exp(-0.5), rel=1e-10)


def test_zero_width_interval():
    val, err, ok = integrate_adaptive(math.sin, 1.3, 1.3)
    assert (val, err, ok) == (0.0, 0.0, True)


def test_interval_at_roundoff_resolution_keeps_its_panel():
    # [1, 1 + ulp] cannot be bisected: the interval keeps the panel it was
    # scored with, and the budget runs out without evaluating it again
    b = math.nextafter(1.0, 2.0)
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 if x == 1.0 else 1e10

    settings = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=20)
    val, err, ok = integrate_adaptive(f, 1.0, b, settings)
    first, first_err = gauss_kronrod(f, 1.0, b)
    assert not ok
    assert (val, err) == (first, first_err)
    assert len(calls) == 2 * 15
