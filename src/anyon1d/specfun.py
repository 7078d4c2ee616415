"""Special functions: log-gamma, the confluent hypergeometric
function, the classical orthogonal polynomials tied to it, and the
log-scaled three-term recurrence behind both eigenfunctions.

The confluent series is summed term by term with a recurrence on the
term ratio, by one loop that runs in floats or in decimals; when the
float sum loses too many digits to cancellation (alternating series at
negative argument) the same loop is re-run in 60-digit decimal
arithmetic, so callers get close to full double precision or an error.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext

import numpy as np

from .core import (ConvergenceError, check_finite, check_index, check_points, check_positive,
                   make_state)

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)

# Series cap shared by the convergent and asymptotic expansions.
_MAX_TERMS = 10_000

# Stagnation threshold of the float pass: a term below this fraction of
# the partial sum twice in a row means the sum has converged.
_STAGNATION = 1e-17

# When the largest intermediate (term or partial sum) exceeds the final
# sum by this factor, enough digits cancelled that the float result is
# suspect and the decimal pass takes over.
_ESCALATE_RATIO = 300.0

# The 60-digit pass stops at this fraction of the partial sum, and
# refuses its sum once the largest intermediate exceeds it by
# _DECIMAL_CANCEL: fewer than about 18 of its digits would be left.
_DECIMAL_FLOOR = Decimal("1e-30")
_DECIMAL_CANCEL = Decimal("1e40")

# The scaled recurrence divides its terms by _BIG, a power of two so the
# division is exact, whenever one exceeds it.  One step multiplies a term
# by less than 1.5 x + 4, which stays below _BIG for arguments up to
# RECURRENCE_ARG_MAX; every eigenfunction is exactly 0.0 long before.
_BIG = 2.0 ** 500
_LN_BIG = 500.0 * _LN2
RECURRENCE_ARG_MAX = 1e150

# The largest float z with log Gamma(z) below the largest float.
_LOG_GAMMA_ARG_MAX = 2.5599833278516383e305

_EULER = 0.5772156649015328606065121
# zeta(2) .. zeta(18), for the log-gamma series near its zeros
_ZETA = (
    1.6449340668482264365, 1.2020569031595942854, 1.0823232337111381916,
    1.0369277551433699263, 1.0173430619844491397, 1.0083492773819228268,
    1.0040773561979443394, 1.0020083928260822144, 1.0009945751278180853,
    1.0004941886041194646, 1.0002460865533080483, 1.0001227133475784891,
    1.0000612481350587048, 1.0000305882363070205, 1.0000152822594086519,
    1.0000076371976378998, 1.0000038172932649998,
)


def log_gamma(z: float) -> float:
    """Natural log of the gamma function for 0 < z <= _LOG_GAMMA_ARG_MAX.

    Near z = 1 and z = 2, where log gamma crosses zero and the library
    routine loses relative accuracy, a short Taylor series in the
    distance from the zero keeps the relative error at machine level.
    Past _LOG_GAMMA_ARG_MAX, log Gamma(z) exceeds the largest float and
    ValueError names z and the limit.
    """
    check_positive(z, "log_gamma argument z")
    if z > _LOG_GAMMA_ARG_MAX:
        raise ValueError(f"log_gamma argument z must be at most {_LOG_GAMMA_ARG_MAX!r}, "
                         f"past which log Gamma(z) overflows the floats, got {z!r}")
    if abs(z - 1.0) <= 0.06:
        return _log_gamma_near_zero(z - 1.0, 0.0)
    if abs(z - 2.0) <= 0.06:
        return _log_gamma_near_zero(z - 2.0, 1.0)
    return math.lgamma(z)


def _log_gamma_near_zero(t: float, shift: float) -> float:
    # log Gamma(1+shift+t) = (shift-euler)*t + sum_{k>=2} (-1)^k (zeta(k)-shift) t^k / k
    # about the zeros z = 1 (shift 0) and z = 2 (shift 1); subtracting
    # 0.0 is exact, so shift 0 gives the bits of the plain series
    acc = 0.0
    for k in range(len(_ZETA) + 1, 1, -1):
        acc = -t * acc + (_ZETA[k - 2] - shift) / k
    return t * ((shift - _EULER) + t * acc)


def duplication_residual(z: float) -> float:
    """Absolute defect of the gamma duplication identity at z.

    Compares log Gamma(2z) against
    (2z-1) log 2 - (1/2) log pi + log Gamma(z) + log Gamma(z + 1/2),
    all in log space so the comparison stays meaningful at large z.
    """
    lhs = log_gamma(2.0 * z)
    rhs = (2.0 * z - 1.0) * _LN2 - 0.5 * _LNPI + log_gamma(z) + log_gamma(z + 0.5)
    return abs(lhs - rhs)


def _sinpi(z: float) -> float:
    """sin(pi*z) with exact argument reduction by integers."""
    r = z - 2.0 * round(0.5 * z)  # r in [-1, 1], z - r an even integer
    return math.sin(math.pi * r)


def _nonpositive_int(a: float) -> int | None:
    """Return n when a == -n for an integer n >= 0, else None."""
    if a <= 0 and a == round(a):
        return int(-a)
    return None


def _log_gamma_signed(z: float) -> tuple[float, float]:
    """(log |Gamma(z)|, sign of Gamma(z)) for any non-pole real z."""
    if z > 0:
        return log_gamma(z), 1.0
    if _nonpositive_int(z) is not None:
        raise ValueError(f"gamma pole at z = {z}")
    # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
    s = _sinpi(z)
    return _LNPI - math.log(abs(s)) - log_gamma(1.0 - z), math.copysign(1.0, s)


def _log_rgamma_signed(z: float) -> tuple[float, float]:
    """(log |1/Gamma(z)|, sign), with sign 0 at the poles of Gamma."""
    if _nonpositive_int(z) is not None:
        return 0.0, 0.0
    lg, sg = _log_gamma_signed(z)
    return -lg, sg


def _check_b(b: float) -> None:
    check_finite(b, "lower parameter b")
    if _nonpositive_int(b) is not None:
        raise ValueError(
            f"lower parameter b must not be a nonpositive integer, got {b}")


def kummer_series(a: float, b: float, y: float) -> float:
    """Confluent hypergeometric function F(a, b, y) by direct summation.

    The sum 1 + (a/b) y + a(a+1)/(b(b+1)) y^2/2! + ... terminates after
    n + 1 terms when a = -n, giving the polynomial case exactly.
    Otherwise it stops once two consecutive terms fall below 1e-17 of
    the partial sum, and fails with ConvergenceError past 10000 terms.
    Heavy cancellation triggers a second pass of the same loop in
    60-digit decimals, which stops at 1e-30 of the partial sum.  When
    even that pass loses more than 40 of its digits (its largest term
    exceeds 1e40 times the sum) no digit of the result is known, and it
    raises ConvergenceError.  A decimal sum of exactly 0 comes back as
    0.0: terms that cancel exactly, as in F(-1, 1/2, 1/2), do so in
    every arithmetic.
    """
    _check_b(b)
    check_finite(a, "upper parameter a")
    check_finite(y, "argument y")
    value, peak = _confluent_sum(a, b, y, _STAGNATION)
    if not math.isfinite(value) or peak > _ESCALATE_RATIO * max(abs(value), 5e-324):
        with localcontext() as ctx:
            ctx.prec = 60
            total, peak = _confluent_sum(Decimal(a), Decimal(b), Decimal(y), _DECIMAL_FLOOR)
        if total and peak > _DECIMAL_CANCEL * abs(total):
            raise ConvergenceError(
                f"confluent series cancels past 60 digits (a={a}, b={b}, y={y})")
        value = float(total)
    return value


def _confluent_sum(a, b, y, floor):
    """(sum, peak) of F(a, b, y) = sum_k t_k, with t_0 = 1 and
    t_(k+1) = t_k (a + k) y / ((b + k)(k + 1)).

    Runs in the arithmetic of its arguments: floats, or Decimals under
    the caller's context.  It stops after the n + 1 terms of a
    polynomial (a = -n), or else once two consecutive terms fall below
    floor times the partial sum.  peak is the largest term or partial
    sum, so peak / |sum| is the factor lost to cancellation.
    """
    n_stop = _nonpositive_int(a)
    term = total = peak = y ** 0
    quiet = 0
    k = 0
    while n_stop is None or k < n_stop:
        if k >= _MAX_TERMS:
            raise ConvergenceError(
                f"confluent series did not settle within {_MAX_TERMS} terms "
                f"(a={a}, b={b}, y={y})")
        term *= (a + k) * y / ((b + k) * (k + 1))
        # 0 for a finite term, NaN for inf or NaN; a Decimal overflow raises
        if term - term:
            raise ConvergenceError(
                f"confluent series terms overflowed (a={a}, b={b}, y={y})")
        total += term
        k += 1
        mag_t = abs(term)
        mag_s = abs(total)
        if mag_s > peak:
            peak = mag_s
        if mag_t > peak:
            peak = mag_t
        if n_stop is None:
            if mag_t < floor * mag_s:
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
    return total, peak


def log_kummer_polynomial(n: int, b: float, y: float) -> tuple[float, float]:
    """(log |F(-n, b, y)|, sign) for the terminating case with b > 0, y > 0.

    The n + 1 terms are summed in 60-digit decimals, whose exponent range
    is wide enough that no rescaling is needed even where y**n overflows
    binary floats.
    """
    check_index(n, "n")
    if not b > 0:
        raise ValueError("log_kummer_polynomial needs b > 0")
    if not y > 0:
        raise ValueError("log_kummer_polynomial needs y > 0")
    with localcontext() as ctx:
        ctx.prec = 60
        ctx.Emax = 10 ** 9
        ctx.Emin = -(10 ** 9)
        total, _ = _confluent_sum(Decimal(-n), Decimal(b), Decimal(y), _DECIMAL_FLOOR)
        if total == 0:
            return -math.inf, 0.0
        sign = 1.0 if total > 0 else -1.0
        return float(abs(total).ln()), sign


# Below this argument the asymptotic expansion of F is meaningless.
_ASYMPTOTIC_Y_MIN = 30.0


def kummer_asymptotic(a: float, b: float, y: float) -> complex:
    """Large-y expansion of F(a, b, y) with optimally truncated series.

    Sums both asymptotic series (the y^(-a) branch and the e^y y^(a-b)
    branch) until the terms start growing, the standard truncation at
    the smallest term.  The real part of the result collects the
    algebraic branch y^(-a) cos(pi a) term plus the exponentially large
    e^y term, and is the value of F; the imaginary part is what the
    (-y)^(-a) branch contributes for non-integer a.  Rejects a
    non-finite a, a b that kummer_series rejects, and y below 30, where
    the expansion is meaningless.
    """
    check_finite(a, "upper parameter a")
    _check_b(b)
    check_positive(y, "argument y")
    if y < _ASYMPTOTIC_Y_MIN:
        raise ValueError(
            f"y = {y} is below the asymptotic threshold {_ASYMPTOTIC_Y_MIN}")

    lgb = _log_gamma_signed(b)
    lny = math.log(y)

    # branch 1: Gamma(b)/Gamma(b-a) (-y)^(-a) sum_k (a)_k (a-b+1)_k / (k! (-y)^k)
    rg, rg_sign = _log_rgamma_signed(b - a)
    if rg_sign == 0.0:
        alg_real = alg_imag = 0.0
    else:
        s1 = _truncated_sum(lambda k: (a + k) * (a - b + 1.0 + k), -1.0 / y)
        mag = math.exp(lgb[0] + rg - a * lny) * s1 * lgb[1] * rg_sign
        n_int = a == round(a)
        if n_int:
            alg_real = mag * (-1.0) ** (int(a) & 1)
            alg_imag = 0.0
        else:
            # principal branch: (-y)^(-a) = y^(-a) exp(-i pi a)
            alg_real = mag * math.cos(math.pi * a)
            alg_imag = -mag * _sinpi(a)

    # branch 2: Gamma(b)/Gamma(a) e^y y^(a-b) sum_k (b-a)_k (1-a)_k / (k! y^k)
    rg, rg_sign = _log_rgamma_signed(a)
    if rg_sign == 0.0:
        exp_part = 0.0
    else:
        s2 = _truncated_sum(lambda k: (b - a + k) * (1.0 - a + k), 1.0 / y)
        exponent = lgb[0] + rg + y + (a - b) * lny
        if exponent > 709.0:
            raise OverflowError(
                f"exponential branch overflows double precision (exponent {exponent:.1f})")
        exp_part = math.exp(exponent) * s2 * lgb[1] * rg_sign

    return complex(alg_real + exp_part, alg_imag)


def _truncated_sum(numerator, ratio_base: float) -> float:
    """Sum 1 + sum_k t_k with t_{k+1} = t_k * numerator(k)/(k+1) * ratio_base,
    stopping at the smallest term (optimal truncation) or on convergence."""
    total = 1.0
    term = 1.0
    prev = math.inf
    for k in range(400):
        term = term * numerator(k) / (k + 1.0) * ratio_base
        if term == 0.0:
            break
        if abs(term) > prev:
            break
        total += term
        prev = abs(term)
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def _polynomial(recurrence, x, name: str, degree: str, order: int):
    """recurrence(x) at any finite real x, one number or an array (see
    core.check_points).

    Raises ValueError naming the degree (degree = order) and the first
    point where the recurrence overflows the float range, on an array
    without a numpy warning.  One number stays a Python float, so the
    scalar call runs the recurrence in exact floats.
    """
    x, scalar = check_points(x, name, -sys.float_info.max)
    if scalar:
        value = recurrence(x)
        if math.isfinite(value):
            return value
        first = x
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            value = recurrence(x)
        bad = ~np.isfinite(value)
        if not bad.any():
            return value
        first = float(x.flat[np.argmax(bad)])
    raise ValueError(f"the recurrence at degree {degree} = {order} overflows the "
                     f"float range at {name} = {first!r}")


def laguerre(n: int, alpha: float, y):
    """Generalized Laguerre polynomial L_n^(alpha)(y), alpha > -1.

    Three-term recurrence at any finite real y, a float or a numpy
    array; raises ValueError where the value overflows (see _polynomial).
    """
    check_index(n, "degree n")
    if not alpha > -1.0:
        raise ValueError(f"laguerre parameter must exceed -1, got {alpha}")

    def recurrence(y):
        p_prev = 1.0 + 0.0 * y  # promotes to the dtype/shape of y
        if n == 0:
            return p_prev
        p = 1.0 + alpha - y
        for k in range(1, n):
            p, p_prev = (((2.0 * k + 1.0 + alpha - y) * p - (k + alpha) * p_prev)
                         / (k + 1.0)), p
        return p

    return _polynomial(recurrence, y, "y", "n", n)


def hermite(N: int, z):
    """Physicists' Hermite polynomial H_N(z) with positive leading term.

    Recurrence H_{k+1} = 2 z H_k - 2 k H_{k-1} at any finite real z, a
    float or a numpy array; raises ValueError where the value overflows
    (see _polynomial).
    """
    check_index(N, "degree N")

    def recurrence(z):
        h_prev = 1.0 + 0.0 * z
        if N == 0:
            return h_prev
        h = 2.0 * z
        for k in range(1, N):
            h, h_prev = 2.0 * z * h - 2.0 * k * h_prev, h
        return h

    return _polynomial(recurrence, z, "z", "N", N)


def _scaled_recurrence(coefficients, x, log_start):
    """f_n(x) of f_{k+1} = (a_k + b_k x) f_k - c_k f_{k-1} with
    f_0 = exp(log_start) and f_{-1} = 0, for 0 <= x <= RECURRENCE_ARG_MAX.

    coefficients holds (a_k, b_k, c_k) for k = 0 .. n-1.  The terms run
    as f_k / exp(scale), starting from 1 with scale = log_start; when a
    term exceeds _BIG both live terms are divided by it and scale grows
    by ln _BIG.  exp(scale) is applied last, in two halves so that a
    large term meets a tiny factor without underflowing early: nothing
    overflows, and the result underflows to 0.0 only where the true
    value does.  x and log_start are floats or arrays of one shape, and the
    same float operations run on either, so a point gives the same bits
    alone or inside an array.
    """
    prev = 0.0
    cur = 1.0
    rescales = 0
    for a, b, c in coefficients:
        prev, cur = cur, (a + b * x) * cur - c * prev
        big = abs(cur) > _BIG
        # 1 + _BIG rounds to _BIG, so grow is exactly 1 or _BIG
        grow = 1.0 + big * _BIG
        prev = prev / grow
        cur = cur / grow
        rescales = rescales + big
    half = np.exp(0.5 * (log_start + rescales * _LN_BIG))
    return cur * half * half


def hermite_kummer_residual(n: int, s: float, y: float) -> float:
    """Defect of the closed-form link between Hermite and confluent values.

    Evaluates |H_{2n+2s}(sqrt y) - (-1)^n ((2n+2s)!/n!) (2 sqrt y)^(2s)
    F(-n, 2s + 1/2, y)| at y > 0, where s is 0 or 1/2.
    """
    big_n = make_state(n, s).N
    check_positive(y, "argument y")
    root = math.sqrt(y)
    lhs = hermite(big_n, root)
    pref = math.factorial(big_n) / math.factorial(n)
    if n % 2:
        pref = -pref
    if s == 0.5:
        pref *= 2.0 * root
    rhs = pref * kummer_series(-float(n), 2.0 * s + 0.5, y)
    return abs(lhs - rhs)
