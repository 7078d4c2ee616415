"""Special-function kernels: log-gamma, Kummer series, Laguerre, Hermite."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anyon1d import specfun
from anyon1d.core import ConvergenceError
from anyon1d.specfun import (
    duplication_residual,
    hermite,
    hermite_kummer_residual,
    kummer_asymptotic,
    kummer_series,
    laguerre,
    log_gamma,
    log_kummer_polynomial,
)

mpmath.mp.dps = 40


def test_log_gamma_reference_points():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    assert math.isclose(log_gamma(0.5), math.log(math.sqrt(math.pi)),
                        rel_tol=1e-15)
    assert math.isclose(log_gamma(1.5), math.log(math.sqrt(math.pi) / 2.0),
                        rel_tol=1e-14)
    assert math.isclose(log_gamma(0.5), 0.57236494, abs_tol=5e-9)
    assert math.isclose(log_gamma(1.5), -0.12078224, abs_tol=5e-9)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-3.5)


def test_log_gamma_relative_accuracy_over_working_range():
    # Dense sweep including the zeros of ln Gamma at z = 1 and z = 2,
    # where naive library calls lose relative accuracy.
    zs = np.concatenate([
        np.logspace(math.log10(0.1), math.log10(200.0), 400),
        1.0 + np.linspace(-0.06, 0.06, 41),
        2.0 + np.linspace(-0.06, 0.06, 41),
    ])
    worst = 0.0
    for z in zs.tolist():
        if z <= 0:
            continue
        exact = mpmath.loggamma(z)
        got = log_gamma(z)
        if exact == 0:
            assert got == 0.0
            continue
        worst = max(worst, abs((got - float(exact)) / float(exact)))
    assert worst <= 1e-13


def test_duplication_residual_examples():
    assert duplication_residual(1.0) <= 1e-14
    assert duplication_residual(0.5) <= 1e-14
    assert duplication_residual(2.37) < 1e-12


@given(z=st.floats(min_value=1e-3, max_value=50.0,
                   allow_nan=False, allow_infinity=False))
def test_duplication_residual_property(z):
    assert duplication_residual(z) < 1e-12


def test_kummer_series_examples():
    assert kummer_series(3.7, 2.1, 0.0) == 1.0
    assert kummer_series(-1.0, 0.5, 1.0) == -1.0
    assert math.isclose(kummer_series(-2.0, 1.5, 1.0), -1.0 / 15.0,
                        rel_tol=1e-14)


def test_kummer_series_rejects_nonpositive_integer_b():
    with pytest.raises(ValueError):
        kummer_series(0.3, 0.0, 1.0)
    with pytest.raises(ValueError):
        kummer_series(0.3, -3.0, 1.0)


def test_kummer_series_reports_nonconvergence():
    with pytest.raises(ConvergenceError):
        kummer_series(1.0, 2.0, 1e5)


def test_kummer_series_terminates_for_negative_integer_a():
    # A degree-n polynomial even where the non-terminating tail would
    # dwarf everything; compare against the explicit monomial sum.
    for n, b, y in [(3, 0.5, 40.0), (5, 1.5, 300.0), (2, 0.25, 1e6)]:
        expected = 0.0
        term = 1.0
        for k in range(n + 1):
            expected += term
            term *= (-n + k) / ((b + k) * (k + 1.0)) * y
        assert math.isclose(kummer_series(float(-n), b, y), expected,
                            rel_tol=1e-12)


def test_kummer_series_matches_reference_under_cancellation():
    # Large negative arguments cancel catastrophically in float64; the
    # series must still come back close to the true value.
    for a, b, y in [(3.2, 1.5, -30.0), (0.7, 0.4, -25.0), (5.5, 2.25, -18.0)]:
        exact = float(mpmath.hyp1f1(a, b, y))
        assert math.isclose(kummer_series(a, b, y), exact, rel_tol=1e-12)


@given(
    a=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    b=st.floats(min_value=0.25, max_value=12.0, allow_nan=False),
    y=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
)
def test_kummer_transformation_property(a, b, y):
    lhs = kummer_series(a, b, y)
    rhs = math.exp(y) * kummer_series(b - a, b, -y)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


@given(
    a=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    b=st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
    y=st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
)
def test_kummer_derivative_property(a, b, y):
    h = 6e-6 * max(1.0, abs(y))
    fd = (kummer_series(a, b, y + h) - kummer_series(a, b, y - h)) / (2.0 * h)
    exact = (a / b) * kummer_series(a + 1.0, b + 1.0, y)
    assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_log_kummer_polynomial_matches_series():
    for n in (0, 1, 4, 9):
        for b in (0.5, 1.5):
            for y in (0.3, 7.0, 120.0):
                logmag, sign = log_kummer_polynomial(n, b, y)
                direct = kummer_series(float(-n), b, y)
                assert sign in (-1.0, 0.0, 1.0)
                value = sign * math.exp(logmag)
                assert math.isclose(value, direct, rel_tol=1e-11)
    assert log_kummer_polynomial(0, 0.5, 5.0) == (0.0, 1.0)


def test_kummer_asymptotic_equals_exponential_when_a_is_b():
    got = kummer_asymptotic(0.7, 0.7, 35.0)
    assert math.isclose(got.value, math.exp(35.0), rel_tol=1e-13)
    assert got.imag == 0.0


def test_kummer_asymptotic_polynomial_case():
    # Terminating case: F(-1, b, y) = 1 - y/b, single-valued, so the
    # asymptotic form reproduces it exactly and reports no phase.
    got = kummer_asymptotic(-1.0, 0.8, 100.0)
    exact = 1.0 - 100.0 / 0.8
    assert math.isclose(got.value, exact, rel_tol=1e-10)
    assert got.imag == 0.0
    assert abs(got.value / exact - 1.0) < 1e-2


def test_kummer_asymptotic_agrees_with_series():
    got = kummer_asymptotic(0.3, 0.8, 40.0)
    exact = kummer_series(0.3, 0.8, 40.0)
    assert math.isclose(got.value, exact, rel_tol=1e-6)
    # The branch phase for non-integer a is reported, not dropped.
    assert got.imag != 0.0


def test_kummer_asymptotic_threshold():
    with pytest.raises(ValueError):
        kummer_asymptotic(0.3, 0.8, 10.0)
    got = kummer_asymptotic(0.3, 0.8, 10.0, y_min=10.0)
    assert math.isfinite(got.value)


def test_laguerre_examples():
    assert laguerre(0, -0.5, 2.0) == 1.0
    assert math.isclose(laguerre(1, -0.5, 2.0), -1.5, rel_tol=1e-15)
    ys = np.linspace(0.1, 5.0, 7)
    vals = laguerre(2, 0.5, ys)
    for y, v in zip(ys.tolist(), vals.tolist()):
        expected = 0.5 * (0.5 + 1.0) * (0.5 + 2.0) - (0.5 + 2.0) * y + 0.5 * y * y
        assert math.isclose(v, expected, rel_tol=1e-13)


def test_laguerre_kummer_connection():
    # F(-n, 2 nu, y) equals the Laguerre polynomial up to the standard
    # ratio of gamma factors.
    for nu in (0.25, 0.75):
        two_nu = 2.0 * nu
        for n in range(11):
            ratio = math.exp(log_gamma(two_nu) + log_gamma(n + 1.0)
                             - log_gamma(n + two_nu))
            for y in (0.2, 1.0, 6.0, 19.0):
                lhs = kummer_series(float(-n), two_nu, y)
                rhs = laguerre(n, two_nu - 1.0, y) * ratio
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_hermite_examples():
    assert hermite(0, 0.37) == 1.0
    assert hermite(1, 0.37) == 0.74
    assert hermite(2, 1.5) == 7.0
    assert hermite(3, 2.0) == 40.0
    zs = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(hermite(2, zs), 4.0 * zs * zs - 2.0)


def test_hermite_kummer_residual_examples():
    assert hermite_kummer_residual(0, 0.0, 3.3) == 0.0
    assert hermite_kummer_residual(1, 0.0, 1.0) == 0.0
    assert hermite_kummer_residual(1, 0.5, 4.0) == 0.0


@given(
    n=st.integers(min_value=0, max_value=10),
    s=st.sampled_from([0.0, 0.5]),
    y=st.floats(min_value=1e-3, max_value=25.0, allow_nan=False),
)
def test_hermite_kummer_identity_property(n, s, y):
    big_n = int(2 * n + 2 * s)
    scale = abs(hermite(big_n, math.sqrt(y)))
    assert hermite_kummer_residual(n, s, y) <= 1e-9 * max(scale, 1.0)
