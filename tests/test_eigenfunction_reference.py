"""Both eigenfunctions against mpmath at 50 digits, deep into the tails.

The sweep runs to N = 400 on u in [0, 45] and to n = 100 with y = beta x
up to 5000, well past the classical turning points, so every state is
followed from its oscillating region deep into its tail, to exact
underflow wherever the window reaches it.
"""

import warnings

import mpmath
import numpy as np
import pytest

from anyon1d import anyon, oscillator
from anyon1d.core import PhysicalParams

UNIT = PhysicalParams(1.0, 1.0, alpha=1.0, omega=1.0)
DIGITS = 50
PEAK_TOL = 1e-12
RELATIVE_TOL = 1e-10
# Relative accuracy is required wherever the value is comfortably normal.
RELATIVE_FLOOR = 1e-280
# Values below half the smallest subnormal round to 0.0 in double precision.
ROUNDS_TO_ZERO = mpmath.mpf(2) ** -1075


def _oscillator_reference(big_n, u):
    z = mpmath.mpf(u)
    log_norm = (0.25 * mpmath.log(1 / mpmath.pi) + 0.5 * mpmath.log(2)
                - 0.5 * (big_n * mpmath.log(2) + mpmath.loggamma(big_n + 1)))
    return mpmath.exp(log_norm - z * z / 2) * mpmath.hermite(big_n, z)


def _anyon_reference(n, nu, x):
    nu = mpmath.mpf(nu)
    lam = n + nu
    y = 2 / lam * mpmath.mpf(x)
    log_c = (-mpmath.log(lam) - mpmath.loggamma(2 * nu)
             + 0.5 * (mpmath.loggamma(n + 2 * nu) - mpmath.loggamma(n + 1)))
    return mpmath.exp(log_c - y / 2) * y ** nu * mpmath.hyp1f1(-n, 2 * nu, y)


def _sweep(evaluate, reference, xs):
    """Evaluate on the array and point by point, then compare to mpmath."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = evaluate(xs)
        scalars = [evaluate(x) for x in xs.tolist()]
    assert np.all(np.isfinite(values))
    assert scalars == values.tolist()

    with mpmath.workdps(DIGITS):
        refs = [reference(x) for x in xs.tolist()]
    exact = np.array([float(r) for r in refs])
    peak = np.max(np.abs(exact))
    assert np.max(np.abs(values - exact)) <= PEAK_TOL * peak
    normal = np.abs(exact) > RELATIVE_FLOOR
    assert np.all(np.abs(values[normal] - exact[normal])
                  <= RELATIVE_TOL * np.abs(exact[normal]))
    underflow = np.array([abs(r) < ROUNDS_TO_ZERO for r in refs])
    assert np.all(values[underflow] == 0.0)
    return underflow


@pytest.mark.parametrize("big_n", [0, 1, 8, 77, 150, 200, 301, 400])
def test_oscillator_matches_mpmath_into_the_tail(big_n):
    us = np.linspace(0.0, 45.0, 181)
    underflow = _sweep(lambda u: oscillator.wavefunction(big_n, UNIT, u),
                       lambda u: _oscillator_reference(big_n, u), us)
    # up to N = 77 the state has underflowed by u = 45; from N = 150 the
    # end of the window still holds values between 1e-302 and 1e-162
    assert underflow[-1] == (big_n <= 77)


@pytest.mark.parametrize("nu", [0.25, 0.75])
@pytest.mark.parametrize("n", [0, 3, 10, 50, 100])
def test_anyon_matches_mpmath_into_the_tail(n, nu):
    turn = 4.0 * (n + nu)
    ys = np.concatenate([np.linspace(1e-3, 2.0 * turn + 40.0, 100),
                         np.geomspace(2.0 * turn + 60.0, 5000.0, 40)])
    xs = ys / anyon.beta(n, nu, UNIT)
    underflow = _sweep(lambda x: anyon.wavefunction(n, nu, UNIT, x),
                       lambda x: _anyon_reference(n, nu, x), xs)
    assert underflow[-1]


@pytest.mark.parametrize("nu", [0.25, 0.75])
def test_extended_wavefunction_accepts_arrays(nu):
    ys = np.concatenate([np.linspace(-400.0, -0.05, 60), np.linspace(0.05, 400.0, 60)])
    for n in (0, 7, 50):
        values = anyon.extended_wavefunction(n, nu, UNIT, ys)
        assert values.dtype == complex
        assert np.all(np.isfinite(values))
        assert values.tolist() == [anyon.extended_wavefunction(n, nu, UNIT, y)
                                   for y in ys.tolist()]


def test_domain_ends_underflow_and_beyond_them_raise():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x_max = 1e150 / anyon.beta(100, 0.75, UNIT)
        assert anyon.wavefunction(100, 0.75, UNIT, np.array([x_max])).tolist() == [0.0]
        assert oscillator.wavefunction(400, UNIT, 1e150) == 0.0
        assert anyon.extended_wavefunction(100, 0.25, UNIT, -1e150) == 0.0
    for bad in (np.nan, np.inf, 1e200):
        with pytest.raises(ValueError, match="x must lie"):
            anyon.wavefunction(3, 0.25, UNIT, bad)
        with pytest.raises(ValueError, match="u must lie"):
            oscillator.wavefunction(3, UNIT, np.array([1.0, bad]))
        with pytest.raises(ValueError):
            anyon.extended_wavefunction(3, 0.25, UNIT, np.array([1.0, -bad]))
