"""Special-function kernels: log-gamma, Kummer series, Laguerre, Hermite."""

import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anyon1d import anyon, duality, oscillator, specfun, verification
from anyon1d.core import NU_VALUES, S_VALUES, ConvergenceError, PhysicalParams, make_state
from anyon1d.specfun import (
    duplication_residual,
    hermite,
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


def test_log_gamma_refuses_an_argument_past_the_float_range():
    # math.lgamma overflows above 2.5599833278516383e305, where
    # log Gamma(z) passes the largest float; the callers below take
    # admissible inputs that reach it.
    limit = 2.5599833278516383e305
    assert math.isfinite(log_gamma(2.5e305))
    assert math.isfinite(log_gamma(limit))
    for z in (math.nextafter(limit, math.inf), 3e305, 1e308):
        with pytest.raises(ValueError, match=r"log_gamma argument z.*2\.5599833278516383e\+305"):
            log_gamma(z)
    with pytest.raises(ValueError, match="log_gamma argument z"):
        anyon.log_normalization(10 ** 306, 0.25, PhysicalParams(1.0, 1.0, alpha=1.0))
    with pytest.raises(ValueError, match="log_gamma argument z"):
        duality.constant_equality_residual(2 * 10 ** 305, 0.25)
    with pytest.raises(ValueError, match="log_gamma argument z"):
        duplication_residual(2e305)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-3.5)
    for bad in (True, "2.5", math.inf, math.nan):
        with pytest.raises(ValueError, match="log_gamma argument z"):
            log_gamma(bad)


def test_log_gamma_relative_accuracy_over_working_range():
    # Dense sweep including the zeros of ln Gamma at z = 1 and z = 2.
    # Within 0.06 of them the error is absolute: relative accuracy is
    # lost there, and every caller exponentiates or differences the
    # result.  Elsewhere it is relative.
    zs = np.concatenate([
        np.logspace(math.log10(0.1), math.log10(200.0), 400),
        1.0 + np.linspace(-0.06, 0.06, 41),
        2.0 + np.linspace(-0.06, 0.06, 41),
    ])
    worst_abs = worst_rel = 0.0
    for z in zs.tolist():
        exact = float(mpmath.loggamma(z))
        error = abs(log_gamma(z) - exact)
        if min(abs(z - 1.0), abs(z - 2.0)) <= 0.06:
            worst_abs = max(worst_abs, error)
        else:
            worst_rel = max(worst_rel, error / abs(exact))
    assert worst_abs <= 1e-14
    assert worst_rel <= 1e-13


def test_duplication_residual_examples():
    assert duplication_residual(1.0) <= 1e-14
    assert duplication_residual(0.5) <= 1e-14
    assert duplication_residual(2.37) < 1e-12


@given(z=st.floats(min_value=1e-3, max_value=50.0,
                   allow_nan=False, allow_infinity=False))
def test_duplication_residual_property(z):
    assert duplication_residual(z) < 1e-12


def test_kummer_series_examples():
    assert kummer_series(-3.0, 2.1, 0.0) == 1.0
    assert kummer_series(0.0, 2.1, 5.0) == 1.0
    assert kummer_series(-1.0, 0.5, 1.0) == -1.0
    assert math.isclose(kummer_series(-2.0, 1.5, 1.0), -1.0 / 15.0,
                        rel_tol=1e-14)


def test_kummer_series_returns_an_exact_zero():
    # F(-2, 3, 2) = 1 - 4/3 + 1/3 = 0, though 4/3 and 1/3 are not floats
    assert kummer_series(-2.0, 3.0, 2.0) == 0.0
    assert _same_bits(kummer_series([-1.0, -2.0, 0.0], 3.0, 2.0),
                      np.array([1.0 / 3.0, 0.0, 1.0]))
    # F(-1, -1/2, -1/2) = 1 + 2y = 0 at b < 0 is +0.0 too, as float(Fraction(0))
    assert math.copysign(1.0, kummer_series(-1.0, -0.5, -0.5)) == 1.0


def test_kummer_series_rejects_nonpositive_integer_b():
    with pytest.raises(ValueError):
        kummer_series(-2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        kummer_series(-2.0, -3.0, 1.0)
    for b in (-math.inf, math.nan, True):
        with pytest.raises(ValueError, match="lower parameter b"):
            kummer_series(-2.0, b, 1.0)


def test_kummer_series_takes_only_the_polynomial_case():
    # a = -n for n = 0 .. 200, the largest degree of an eigenfunction's
    # confluent form; anything else is refused by name, the degree past
    # 200 included
    assert math.isfinite(kummer_series(-200.0, 0.5, 1e-3))
    for a, first in [(0.3, "0.3"), (1.0, "1.0"), (-2.5, "-2.5"), (-201.0, "-201.0"),
                     (201.0, "201.0"), ([-1.0, -2.5, 0.3], "-2.5"), ([-1.0, 0.3, -2.5], "0.3")]:
        with pytest.raises(ValueError, match=r"^upper parameter a must be an integer in "
                                             rf"\[-200, 0\], got {first}$"):
            kummer_series(a, 0.5, 1.0)


@pytest.mark.parametrize("b", [0.5, 1.7, 3.0])
def test_kummer_series_at_the_largest_degree_matches_mpmath(b):
    # y at the smallest subnormal, small, moderate, and tiny below zero:
    # each value is the float nearest the 80-digit reference
    with mpmath.workdps(80):
        for y in (5e-324, 1e-3, 30.0, -1e-300):
            assert kummer_series(-200.0, b, y) == float(mpmath.hyp1f1(-200, b, y))


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
    # At positive y the terms alternate in sign: the largest term of
    # F(-60, 1/2, 30) is 1.3e25 times the sum, so float64 keeps no digit
    # of it; the series must still come back close to the true value.
    assert math.isclose(kummer_series(-60.0, 0.5, 30.0), 70815.8754952494, rel_tol=1e-14)
    with mpmath.workdps(80):
        for a, b, y in [(-60.0, 0.5, 30.0), (-40.0, 1.5, 25.0), (-25.0, 0.25, 12.5)]:
            exact = float(mpmath.hyp1f1(a, b, y))
            assert math.isclose(kummer_series(a, b, y), exact, rel_tol=1e-12)


def test_kummer_series_keeps_a_sum_whose_terms_cancel_46_digits():
    # The largest term is 2.1e46 times F(-100, 1/2, 150) = -3.9e32; the
    # exact sum loses no digit to it.
    assert kummer_series(-100.0, 0.5, 150.0) == -3.912998600778173e+32


@given(
    n=st.integers(min_value=1, max_value=10),
    b=st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
    y=st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
)
def test_kummer_derivative_property(n, b, y):
    # F'(-n, b, y) = (-n/b) F(-(n - 1), b + 1, y)
    h = 6e-6 * max(1.0, abs(y))
    fd = (kummer_series(-float(n), b, y + h) - kummer_series(-float(n), b, y - h)) / (2.0 * h)
    exact = (-n / b) * kummer_series(-(n - 1.0), b + 1.0, y)
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


def test_log_kummer_polynomial_takes_degrees_up_to_200():
    logmag, sign = log_kummer_polynomial(200, 0.5, 1e-3)
    assert math.isfinite(logmag) and sign == 1.0
    # F(-200, 1/2, 1e300) is about e^137295, far past the float range
    with mpmath.workdps(80):
        exact = float(mpmath.log(abs(mpmath.hyp1f1(-200, 0.5, 1e300))))
    assert log_kummer_polynomial(200, 0.5, 1e300) == (pytest.approx(exact, rel=1e-15), 1.0)
    with pytest.raises(ValueError, match=r"^n must be an integer in \[0, 200\], got 201"):
        log_kummer_polynomial(201, 0.5, 1e-3)


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


@pytest.mark.parametrize("call, match", [
    (lambda: hermite(3, math.nan), "z must lie in"),
    (lambda: hermite(400, 45.0), "degree N = 400 overflows .* z = 45.0"),
    (lambda: laguerre(3, 0.5, math.inf), "y must lie in"),
    (lambda: laguerre(100, 0.5, 1e6), "degree n = 100 overflows .* y = 1000000.0"),
    (lambda: hermite(150, np.array([1.0, -100.0, 100.0])),
     "degree N = 150 overflows .* z = -100.0"),
    (lambda: laguerre(100, 0.5, np.array([1.0, 1e6])),
     "degree n = 100 overflows .* y = 1000000.0"),
    (lambda: laguerre(2, 0.5, [1.0, math.nan]), "y must lie in"),
], ids=["hermite-nan", "hermite-overflow", "laguerre-inf", "laguerre-overflow",
        "hermite-array-overflow", "laguerre-array-overflow", "laguerre-array-nan"])
def test_reference_polynomials_never_return_nan_or_inf(call, match):
    # pyproject turns a numpy RuntimeWarning into an error, so an array
    # that overflows must be refused without one
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("alpha", [True, math.inf, -math.inf, math.nan, "0.5", None, -1.0],
                         ids=["bool", "inf", "-inf", "nan", "str", "none", "-1"])
def test_laguerre_refuses_an_alpha_outside_its_domain(alpha):
    # A bool used to be read as 1 (laguerre(2, True, 1.0) gave 0.5), an
    # infinite alpha raised an overflow that blamed y, and a str or None
    # raised TypeError.
    with pytest.raises(ValueError, match="alpha"):
        laguerre(2, alpha, 1.0)


def test_reference_polynomials_take_any_finite_real():
    assert hermite(3, -2.0) == -40.0
    assert laguerre(1, -0.5, -2.0) == 2.5
    assert math.isclose(laguerre(2, 0.5, -1e150), 5e299, rel_tol=1e-15)
    assert type(hermite(2, np.float64(1.5))) is float
    assert math.isclose(hermite(150, 0.0), -math.factorial(150) / math.factorial(75),
                        rel_tol=1e-13)


def _hermite_link_defect(n, s, y):
    """|H_N(sqrt y) - (-1)^n (N!/n!) (2 sqrt y)^(2s) F(-n, 2s + 1/2, y)|,
    N = 2n + 2s, at one y: the link of the identities suite, one point
    at a time."""
    big_n = make_state(n, s).N
    root = math.sqrt(y)
    pref = math.factorial(big_n) / math.factorial(n) * (-1.0) ** n
    if s == 0.5:
        pref *= 2.0 * root
    return abs(hermite(big_n, root) - pref * kummer_series(-float(n), 2.0 * s + 0.5, y))


def test_hermite_kummer_residual_examples():
    assert _hermite_link_defect(0, 0.0, 3.3) == 0.0
    assert _hermite_link_defect(1, 0.0, 1.0) == 0.0
    assert _hermite_link_defect(1, 0.5, 4.0) == 0.0


@given(
    n=st.integers(min_value=0, max_value=10),
    s=st.sampled_from([0.0, 0.5]),
    y=st.floats(min_value=1e-3, max_value=25.0, allow_nan=False),
)
def test_hermite_kummer_identity_property(n, s, y):
    big_n = int(2 * n + 2 * s)
    scale = abs(hermite(big_n, math.sqrt(y)))
    assert _hermite_link_defect(n, s, y) <= 1e-9 * max(scale, 1.0)


# Array calls: every point must get the bits it gets alone.

def _one_at_a_time(f, *arrays):
    """f at each point of the broadcast arrays, one number per call."""
    columns = [a.ravel() for a in np.broadcast_arrays(*(np.asarray(a, float) for a in arrays))]
    values = [f(*point) for point in zip(*(c.tolist() for c in columns))]
    return np.array(values).reshape(np.broadcast(*arrays).shape)


def _same_bits(got, expected):
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_kummer_series_arrays_match_one_number_calls():
    # degrees 0 to 60 in one call, broadcast over b and y, with
    # cancelling points (high degrees at positive y)
    a = np.array([-3.0, -12.0, -0.0, -25.0, -10.0, -40.0, -60.0])[:, None, None]
    b = np.array([0.5, 1.5, 2.25])[None, :, None]
    y = np.array([-25.0, -5.0, 0.0, 0.3, 7.0, 28.0])
    got = kummer_series(a, b, y)
    assert got.shape == (7, 3, 6) and got.dtype == float
    assert _same_bits(got, _one_at_a_time(kummer_series, a, b, y))
    # one number, a numpy scalar or a 0-d array included, gives a float;
    # a list gives an array
    assert type(kummer_series(-40.0, 1.5, 28.0)) is float
    assert type(kummer_series(np.float64(-40.0), 1.5, np.array(28.0))) is float
    assert _same_bits(kummer_series([-40.0, -2.0], 1.5, 28.0),
                      np.array([kummer_series(-40.0, 1.5, 28.0), kummer_series(-2.0, 1.5, 28.0)]))
    assert kummer_series(np.array([]), 0.5, 1.0).shape == (0,)


def _exact_terms(a, b, y):
    """The terms t_0 = 1, t_(k+1) = t_k (a + k) y / ((b + k)(k + 1)) of
    F(a, b, y) as exact Fractions of the floats a, b and y."""
    n, b, y = -int(a), Fraction(b), Fraction(y)
    terms = [Fraction(1)]
    for k in range(n):
        terms.append(terms[-1] * (k - n) * y / ((b + k) * (k + 1)))
    return terms


def _reference_kummer(a, b, y):
    """F(a, b, y) as float() of the exact forward sum of its terms."""
    return float(sum(_exact_terms(a, b, y)))


def _polynomial_draws():
    """(a, b, y) of random degrees up to 60, then a grid of low degrees."""
    rng = random.Random(77)
    draws = [(-float(rng.randrange(0, 61)), rng.uniform(0.3, 8.0), rng.uniform(-30.0, 60.0))
             for _ in range(400)]
    return draws + [(-float(n), b, y) for n in range(12) for b in (0.5, 1.5)
                    for y in (-20.0, 0.7, 6.25, 25.0)]


def test_kummer_series_equals_the_one_point_reference_sums():
    draws = _polynomial_draws()
    a, b, y = np.array(draws).T
    got = kummer_series(a, b, y)
    assert _same_bits(got, np.array([_reference_kummer(*d) for d in draws]))


@pytest.mark.parametrize("a, b, y, first, match", [
    # F(-2, 1/2, 1e200) is about 1.3e400, its last term past the floats too
    ([-1.0, -2.0, -100.0], [1.5, 0.5, 0.5], [2.0, 1e200, 150.0], 1,
     r"sum exceeds the float range \(a=-2\.0, b=0\.5, y=1e\+200\)"),
    # F(-200, 1/2, -2380) is about 3.64e308: every term is finite (the
    # largest is about 4.1e307), but the sum is not a float
    ([-1.0, -200.0, -2.0], [1.5, 0.5, 0.5], [2.0, -2380.0, 1e200], 1,
     r"sum exceeds the float range \(a=-200\.0, b=0\.5, y=-2380\.0\)"),
], ids=["overflow", "sum_out_of_range"])
def test_kummer_series_names_the_first_failing_point(a, b, y, first, match):
    # a point past the float range raises the one-number error and no
    # warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=match):
            kummer_series(a, b, y)
        with pytest.raises(ConvergenceError, match=match):
            kummer_series(a[first], b[first], y[first])


# b and y are read before a, so the a = 0.3 of the b and y rows, itself
# outside a's domain, does not mask the error each names
@pytest.mark.parametrize("a, b, y, match", [
    (0.3, [0.5, -2.0, 0.0], 1.0, "lower parameter b must not be a nonpositive integer, got -2.0"),
    (0.3, [0.5, math.nan], 1.0, "lower parameter b must lie in .* got lower parameter b = nan"),
    ([-1.0, math.inf], 0.5, 1.0, "upper parameter a must lie in .* got upper parameter a = inf"),
    (0.3, 0.5, [1.0, -math.inf, math.nan], "argument y must lie in .* got argument y = -inf"),
    (0.3, 0.5, [True, False], "argument y must be real"),
    ([-1.0, -2.0], 0.5, [1.0, 2.0, 3.0], "shape mismatch"),
])
def test_kummer_series_domain_errors_name_the_first_bad_point(a, b, y, match):
    with pytest.raises(ValueError, match=match):
        kummer_series(a, b, y)


def test_log_gamma_arrays_match_one_number_calls():
    # points near the zeros z = 1 and z = 2, their neighbours on either
    # side, and others up to the limit
    limit = 2.5599833278516383e305
    near = [z + d for z in (1.0, 2.0) for d in (-0.06, -0.03, 0.0, 0.01, 0.06)]
    edges = [math.nextafter(z, t) for z in near for t in (0.0, math.inf)]
    zs = np.array(near + edges + [1e-300, 0.1, 0.5, 3.7, 50.0, 1e10, 2.5e305, limit])
    got = log_gamma(zs.reshape(2, -1))
    assert got.shape == (2, 19)
    assert _same_bits(got, _one_at_a_time(log_gamma, zs).reshape(2, -1))
    assert type(log_gamma(np.float64(1.0))) is float
    assert _same_bits(log_gamma([1.0, 2.0]), np.array([0.0, 0.0]))


@pytest.mark.parametrize("z, match", [
    ([1.0, -1.0, 0.0], r"log_gamma argument z must lie in \(0, .* got log_gamma argument z = -1\.0"),
    ([1.0, math.nan], "log_gamma argument z = nan"),
    ([1.0, 3e305, 1e306], r"at most 2\.5599833278516383e\+305.* got 3e\+305"),
    (["1.0"], "log_gamma argument z must be real"),
])
def test_log_gamma_domain_errors_name_the_first_bad_point(z, match):
    with pytest.raises(ValueError, match=match):
        log_gamma(z)


def test_duplication_and_hermite_link_arrays_match_one_number_calls():
    rng = random.Random(5)
    zs = np.array([rng.uniform(1e-9, 50.0) for _ in range(300)] + [0.5, 1.0, 1e5, 1.2e305])
    assert _same_bits(duplication_residual(zs), _one_at_a_time(duplication_residual, zs))
    with pytest.raises(ValueError, match=r"log_gamma argument z = 2e\+305"):
        duplication_residual([1.0, 2e305, 3e305])
    # the two sides of the Hermite link, on the points of the identities suite
    ys = np.linspace(0.25, 25.0, 37)
    for n in (0, 3, 10):
        for s in S_VALUES:
            big_n = make_state(n, s).N
            got = hermite(big_n, np.sqrt(ys))
            assert _same_bits(got, _one_at_a_time(lambda y: hermite(big_n, math.sqrt(y)), ys))
            got = kummer_series(-float(n), 2.0 * s + 0.5, ys)
            assert _same_bits(got, _one_at_a_time(
                lambda y: kummer_series(-float(n), 2.0 * s + 0.5, y), ys))


def test_cancelling_draws_are_correctly_rounded():
    # The random polynomial draws at y > 0 whose alternating terms cancel
    # more than 2.5 digits: the largest term exceeds 300 times the sum.
    def cancels(a, b, y):
        terms = _exact_terms(a, b, y)
        return max(map(abs, terms)) > 300 * abs(sum(terms))

    draws = np.array([d for d in _polynomial_draws() if d[2] > 0.0 and cancels(*d)])
    assert len(draws) >= 120
    got = kummer_series(*draws.T)
    with mpmath.workdps(80):
        for (a, b, y), value in zip(draws.tolist(), got.tolist()):
            assert value == float(mpmath.hyp1f1(a, b, y))


# The six special-function residuals of `anyon1d verify --suite
# identities`, as the one-number loops of the suite gave them.
IDENTITY_RESIDUALS = {
    "gamma duplication, 1e4 random z in (0, 50]": 1.1368683772161603e-13,
    "Hermite vs confluent closed form, n <= 10, y in (0, 25]": 2.8294244232539473e-12,
    "anyon eigenfunction vs C_n y^nu e^(-y/2) F(-n, 2nu, y), n <= 10": 3.62199711481257e-15,
    "oscillator eigenfunction vs its confluent form, N <= 21": 4.091041985258849e-15,
    "confluent polynomial vs Laguerre, n <= 10": 2.64382529027243e-14,
    "parity extension phase ratio e^(i pi nu)": 0.0,
}


def _eigenfunction_defects(dn=0, swap=False, db=0.0):
    """Per-state residuals of the identities suite's two eigenfunction
    rows, one point at a time: max |direct - confluent| / max |direct|
    for each (n, nu), then for each (n, s).  The confluent side takes F
    at degree n + dn, at the other nu or s where swap, and at b + db."""
    unit = PhysicalParams(mass=1.0, hbar=1.0, alpha=1.0, omega=1.0)
    anyon_rows = []
    for n in range(11):
        for nu in NU_VALUES:
            beta = anyon.beta(n, nu, unit)
            log_c = anyon.log_normalization(n, nu, unit)
            b = 2.0 * (1.0 - nu if swap else nu) + db
            error = scale = 0.0
            for y in np.linspace(0.5, 40.0, 40).tolist():
                direct = anyon.wavefunction(n, nu, unit, y / beta)
                confluent = (np.exp(log_c + nu * np.log(y) - 0.5 * y)
                             * kummer_series(-float(n + dn), b, y))
                error, scale = max(error, abs(direct - confluent)), max(scale, abs(direct))
            anyon_rows.append(error / scale)
    oscillator_rows = []
    for n in range(11):
        for s in S_VALUES:
            big_n = make_state(n, s).N
            log_c = (0.5 * math.log(2.0) - 0.25 * math.log(math.pi) - 0.5 * big_n * math.log(2.0)
                     + 0.5 * log_gamma(big_n + 1.0) - log_gamma(n + 1.0))
            b = 2.0 * (0.5 - s if swap else s) + 0.5 + db
            error = scale = 0.0
            for u in np.linspace(0.1, 7.0, 40).tolist():
                direct = oscillator.wavefunction(big_n, unit, u)
                confluent = ((-1.0) ** n * np.exp(log_c - 0.5 * u * u)
                             * (2.0 * u if s == 0.5 else 1.0)
                             * kummer_series(-float(n + dn), b, u * u))
                error, scale = max(error, abs(direct - confluent)), max(scale, abs(direct))
            oscillator_rows.append(error / scale)
    return anyon_rows, oscillator_rows


def _identity_residuals_one_point_at_a_time():
    """The identities suite's residuals from one-number calls, in its
    order: the loops the suite ran before it took arrays."""
    rng = random.Random(20240816)
    dup = max(duplication_residual(rng.uniform(1e-9, 50.0)) for _ in range(10_000))

    link = 0.0
    for n in range(11):
        for s in S_VALUES:
            big_n = make_state(n, s).N
            for y in np.linspace(0.25, 25.0, 100).tolist():
                scale = abs(hermite(big_n, math.sqrt(y)))
                link = max(link, _hermite_link_defect(n, s, y) / max(scale, 1.0))

    anyon_rows, oscillator_rows = _eigenfunction_defects()

    cross = 0.0
    for n in range(11):
        for nu in NU_VALUES:
            for y in np.linspace(0.5, 20.0, 40).tolist():
                f = kummer_series(-float(n), 2.0 * nu, y)
                conv = math.exp(log_gamma(n + 1.0) + log_gamma(2.0 * nu)
                                - log_gamma(n + 2.0 * nu))
                lag = laguerre(n, 2.0 * nu - 1.0, y) * conv
                cross = max(cross, abs(f - lag) / max(abs(f), abs(lag), 1e-300))

    unit = PhysicalParams(mass=1.0, hbar=1.0, alpha=1.0, omega=1.0)
    phase = 0.0
    for nu in NU_VALUES:
        for y in (0.5, 1.0, 2.5, 7.0):
            got = (anyon.extended_wavefunction(3, nu, unit, -y)
                   / anyon.extended_wavefunction(3, nu, unit, y))
            phase = max(phase, abs(got - complex(math.cos(math.pi * nu), math.sin(math.pi * nu))))
    return [dup, link, max(anyon_rows), max(oscillator_rows), cross, phase]


def test_identities_suite_makes_one_kummer_series_call_per_row(monkeypatch):
    calls = []

    def counted(a, b, y):
        calls.append((a, b, y))
        return kummer_series(a, b, y)

    monkeypatch.setattr(specfun, "kummer_series", counted)
    verification.suite_identities()
    # the Hermite link, the two eigenfunction rows and the Laguerre
    # cross-check
    assert len(calls) == 4


def test_eigenfunction_rows_tell_a_wrong_confluent_form():
    # controls, each far past the rows' 1e-12: F one degree too high
    # misses at every state, by at least 1.27 ...
    for rows in _eigenfunction_defects(dn=1):
        assert min(rows) > 1.27
    # ... F at the other nu (or s) by up to 37.6 (at n = 0, F = 1 for
    # any b), and F at b + 1e-6 by up to 4.9e-6
    for rows in _eigenfunction_defects(swap=True):
        assert max(rows) > 37.0
    for rows in _eigenfunction_defects(db=1e-6):
        assert max(rows) > 4.5e-6


def test_identities_suite_equals_its_one_point_loops():
    rows = verification.suite_identities()
    assert {r.check_name: r.residual for r in rows} == IDENTITY_RESIDUALS
    assert [r.residual for r in rows] == _identity_residuals_one_point_at_a_time()


# The eigenfunction kernel checks for overflow once per period of steps.
# The reference is the kernel as it stood when it checked every step;
# both rules must give the same bits.

def _per_step_recurrence(coefficients, x, log_start):
    """_scaled_recurrence with the overflow check after every step, and
    its count of divisions by _BIG."""
    prev = 0.0
    cur = 1.0
    rescales = 0
    for a, b, c in coefficients:
        prev, cur = cur, (a + b * x) * cur - c * prev
        big = abs(cur) > specfun._BIG
        # 1 + _BIG rounds to _BIG, so grow is exactly 1 or _BIG
        grow = 1.0 + big * specfun._BIG
        prev = prev / grow
        cur = cur / grow
        rescales = rescales + big
    half = np.exp(0.5 * (log_start + rescales * specfun._LN_BIG))
    return cur * half * half, rescales


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _sweep():
    """(evaluator, grid) over the eigenfunctions at unit constants: each
    grid reaches a multiple of the state's classical turning point."""
    unit = PhysicalParams(1.0, 1.0, alpha=1.0, omega=1.0)
    for N in [*range(30), *range(50, 401, 50)]:
        for reach in (1.5, 4.0, 12.0, 60.0):
            yield (lambda u, N=N: oscillator.wavefunction(N, unit, u),
                   np.linspace(0.0, reach * math.sqrt(2 * N + 1), 401))
    for n in [*range(20), *range(30, 101, 10)]:
        for nu in NU_VALUES:
            turning = 2.0 * (n + nu) ** 2
            for reach in (1.5, 12.0, 200.0):
                yield (lambda x, n=n, nu=nu: anyon.wavefunction(n, nu, unit, x),
                       np.linspace(1e-3, reach * turning, 401))
            # an even count leaves y = 0 out of the symmetric grid
            yield (lambda y, n=n, nu=nu: anyon.extended_wavefunction(n, nu, unit, y),
                   np.linspace(-50.0 * (n + 1), 50.0 * (n + 1), 400))


def test_periodic_overflow_check_gives_the_per_step_bits(monkeypatch):
    sweep = list(_sweep())
    periodic = [f(grid) for f, grid in sweep]
    singles = [[f(u) for u in grid[::37].tolist()] for f, grid in sweep]
    for module in (anyon, oscillator):
        monkeypatch.setattr(module, "_scaled_recurrence",
                            lambda *args: _per_step_recurrence(*args)[0])
    for (f, grid), got, alone in zip(sweep, periodic, singles):
        expected = f(grid)
        assert np.array_equal(_bits(got.real), _bits(expected.real))
        assert np.array_equal(_bits(got.imag), _bits(expected.imag))
        # one number takes its own period, and still the bits of the array
        assert np.array_equal(_bits(np.real(alone)), _bits(got.real[::37]))
        assert np.array_equal(_bits(np.imag(alone)), _bits(got.imag[::37]))


def test_periodic_overflow_check_near_the_argument_bound():
    # Past about 1.2e75 one step can grow a term by nearly _BIG, so the
    # period is 1; at 1e75 it is 2.
    x = np.array([1e75, 2e75, 1e100, 1e149, 5e149, specfun.RECURRENCE_ARG_MAX])
    assert specfun._check_period(1e75) == 2
    assert [specfun._check_period(v) for v in x[1:].tolist()] == [1] * 5
    for N in (1, 5, 40, 400):
        steps = oscillator._hermite_coefficients(N)
        # f_N is close to the product of the b_k x, so this start makes it about 1
        log_start = -sum(np.log(b * x) for _, b, _ in steps)
        expected, rescales = _per_step_recurrence(steps, x, log_start)
        assert np.all(np.isfinite(expected)) and np.all(expected != 0.0)
        # a term passes _BIG at least once every three steps
        assert rescales.min() >= N // 3
        assert np.array_equal(_bits(specfun._scaled_recurrence(steps, x, log_start)),
                              _bits(expected))
        alone = [specfun._scaled_recurrence(steps, v, s)
                 for v, s in zip(x.tolist(), log_start.tolist())]
        assert np.array_equal(_bits(alone), _bits(expected))


def test_periodic_overflow_check_sees_a_term_that_passes_big_and_falls_back():
    # At x = 0 the bound 1.5 x + 4 gives a period of 250 steps.  Steps
    # that grow by 3.9 carry the term past _BIG at step 255, inside the
    # second period; halving brings it back below _BIG before that
    # period's check at step 500.  Checking every step divides once, so
    # a check on the period's last term alone would not divide, and the
    # result would take other bits.
    assert specfun._check_period(0.0) == 250
    steps = [(3.9, 1.0, 0.0)] * 255 + [(0.5, 1.0, 0.0)] * 20 + [(1.0, 1.0, 0.0)] * 245
    x = np.zeros(3)
    log_start = np.array([0.0, -300.0, -700.0])
    expected, rescales = _per_step_recurrence(steps, x, log_start)
    assert rescales.tolist() == [1, 1, 1]
    # with log_start = 0 the value is the unscaled term, below _BIG at the check
    assert 0.0 < expected[0] < specfun._BIG
    assert np.array_equal(_bits(specfun._scaled_recurrence(steps, x, log_start)),
                          _bits(expected))
    alone = [specfun._scaled_recurrence(steps, 0.0, s) for s in log_start.tolist()]
    assert np.array_equal(_bits(alone), _bits(expected))
