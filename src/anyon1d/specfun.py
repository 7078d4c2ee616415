"""Special functions: log-gamma, the confluent hypergeometric
function, the classical orthogonal polynomials tied to it, and the
log-scaled three-term recurrence behind both eigenfunctions.

The confluent series is written against plain floats.  It is
summed term by term with a recurrence on the term ratio; when the sum
loses too many digits to cancellation (alternating series at negative
argument) the same recurrence is re-run in 60-digit decimal arithmetic,
so callers always get close to full double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .core import ConvergenceError, check_index, check_s

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

# The scaled recurrence divides its terms by _BIG, a power of two so the
# division is exact, whenever one exceeds it.  One step multiplies a term
# by less than 1.5 x + 4, which stays below _BIG for arguments up to
# RECURRENCE_ARG_MAX; every eigenfunction is exactly 0.0 long before.
_BIG = 2.0 ** 500
_LN_BIG = 500.0 * _LN2
RECURRENCE_ARG_MAX = 1e150

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
    """Natural log of the gamma function for z > 0.

    Near z = 1 and z = 2, where log gamma crosses zero and the library
    routine loses relative accuracy, a short Taylor series in the
    distance from the zero keeps the relative error at machine level.
    """
    if not (isinstance(z, (int, float)) and math.isfinite(z) and z > 0):
        raise ValueError(f"log_gamma requires a finite z > 0, got {z!r}")
    t = z - 1.0
    if abs(t) <= 0.06:
        return _log_gamma_near_one(t)
    t = z - 2.0
    if abs(t) <= 0.06:
        return _log_gamma_near_two(t)
    return math.lgamma(z)


def _log_gamma_near_one(t: float) -> float:
    # log Gamma(1+t) = -euler*t + sum_{k>=2} (-1)^k zeta(k) t^k / k
    acc = 0.0
    for k in range(len(_ZETA) + 1, 1, -1):
        acc = -t * acc + _ZETA[k - 2] / k
    return t * (-_EULER + t * acc)


def _log_gamma_near_two(t: float) -> float:
    # log Gamma(2+t) = (1-euler)*t + sum_{k>=2} (-1)^k (zeta(k)-1) t^k / k
    acc = 0.0
    for k in range(len(_ZETA) + 1, 1, -1):
        acc = -t * acc + (_ZETA[k - 2] - 1.0) / k
    return t * ((1.0 - _EULER) + t * acc)


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
    if _nonpositive_int(b) is not None:
        raise ValueError(
            f"lower parameter b must not be a nonpositive integer, got {b}")
    if not math.isfinite(b):
        raise ValueError(f"lower parameter b must be finite, got {b!r}")


def kummer_series(a: float, b: float, y: float) -> float:
    """Confluent hypergeometric function F(a, b, y) by direct summation.

    The sum 1 + (a/b) y + a(a+1)/(b(b+1)) y^2/2! + ... terminates after
    n + 1 terms when a = -n, giving the polynomial case exactly.
    Otherwise it stops once two consecutive terms fall below 1e-17 of
    the partial sum, and fails with ConvergenceError past 10000 terms.
    Heavy cancellation triggers a second pass in 60-digit decimals.
    """
    _check_b(b)
    if not (math.isfinite(a) and math.isfinite(y)):
        raise ValueError("kummer_series needs finite a and y")
    value, peak = _kummer_float(a, b, y)
    if not math.isfinite(value) or peak > _ESCALATE_RATIO * max(abs(value), 5e-324):
        value = _kummer_decimal(a, b, y)
    return value


def _kummer_float(a: float, b: float, y: float) -> tuple[float, float]:
    n_stop = _nonpositive_int(a)
    term = 1.0
    total = 1.0
    peak = 1.0
    quiet = 0
    k = 0
    while True:
        if n_stop is not None and k >= n_stop:
            return total, peak
        if k >= _MAX_TERMS:
            raise ConvergenceError(
                f"confluent series did not settle within {_MAX_TERMS} terms "
                f"(a={a}, b={b}, y={y})")
        term *= (a + k) * y / ((b + k) * (k + 1.0))
        if not math.isfinite(term):
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
            if mag_t < _STAGNATION * mag_s:
                quiet += 1
                if quiet >= 2:
                    return total, peak
            else:
                quiet = 0


def _kummer_decimal(a: float, b: float, y: float) -> float:
    # same recurrence, 60 decimal digits; threshold loosened accordingly
    n_stop = _nonpositive_int(a)
    with localcontext() as ctx:
        ctx.prec = 60
        da, db, dy = Decimal(a), Decimal(b), Decimal(y)
        floor = Decimal("1e-45")
        term = Decimal(1)
        total = Decimal(1)
        peak = Decimal(1)
        quiet = 0
        k = 0
        while True:
            if n_stop is not None and k >= n_stop:
                return float(total)
            if k >= _MAX_TERMS:
                raise ConvergenceError(
                    f"confluent series did not settle within {_MAX_TERMS} terms "
                    f"(a={a}, b={b}, y={y})")
            term = term * (da + k) * dy / ((db + k) * (k + 1))
            total += term
            k += 1
            if abs(term) > peak:
                peak = abs(term)
            if abs(total) > peak:
                peak = abs(total)
            if n_stop is None:
                if abs(term) < floor * peak:
                    quiet += 1
                    if quiet >= 2:
                        return float(total)
                else:
                    quiet = 0


def log_kummer_polynomial(n: int, b: float, y: float) -> tuple[float, float]:
    """(log |F(-n, b, y)|, sign) for the terminating case with b > 0, y > 0.

    Terms are combined at the scale of the largest one, so the result
    stays finite even where y**n itself would overflow.
    """
    check_index(n, "n")
    if not b > 0:
        raise ValueError("log_kummer_polynomial needs b > 0")
    if not y > 0:
        raise ValueError("log_kummer_polynomial needs y > 0")
    lny = math.log(y)
    lgn = log_gamma(n + 1.0)
    lgb = log_gamma(b)
    logs = []
    for k in range(n + 1):
        # |(-n)_k| = n!/(n-k)!,  (b)_k = Gamma(b+k)/Gamma(b)
        logs.append(lgn - log_gamma(n - k + 1.0)
                    - (log_gamma(b + k) - lgb)
                    - log_gamma(k + 1.0) + k * lny)
    m = max(logs)
    acc = math.fsum((-1.0) ** k * math.exp(lt - m)
                    for k, lt in enumerate(logs))
    # The rescaled peak term is 1, so a small accumulated sum means the
    # alternating terms cancelled; redo those cases in wide decimals.
    if abs(acc) * _ESCALATE_RATIO < 1.0:
        return _log_kummer_decimal(n, b, y)
    return m + math.log(abs(acc)), math.copysign(1.0, acc)


def _log_kummer_decimal(n: int, b: float, y: float) -> tuple[float, float]:
    # Decimal exponents are wide enough that no rescaling is needed even
    # where y**n overflows binary floats.
    with localcontext() as ctx:
        ctx.prec = 60
        ctx.Emax = 10 ** 9
        ctx.Emin = -(10 ** 9)
        db, dy = Decimal(b), Decimal(y)
        term = Decimal(1)
        total = Decimal(1)
        for k in range(n):
            term = term * ((k - n) * dy) / ((db + k) * (k + 1))
            total += term
        if total == 0:
            return -math.inf, 0.0
        sign = 1.0 if total > 0 else -1.0
        return float(abs(total).ln()), sign


@dataclass(frozen=True)
class KummerAsymptotics:
    """Large-argument value of F(a, b, y) in the real-part convention.

    value collects the algebraic branch y^(-a) cos(pi a) term plus the
    exponentially large e^y term; imag carries the imaginary part that
    the (-y)^(-a) branch contributes for non-integer a.
    """

    value: float
    imag: float


def kummer_asymptotic(a: float, b: float, y: float, *, y_min: float = 30.0) -> KummerAsymptotics:
    """Large-y expansion of F(a, b, y) with optimally truncated series.

    Sums both asymptotic series (the y^(-a) branch and the e^y y^(a-b)
    branch) until the terms start growing, the standard truncation at
    the smallest term.  Rejects y below y_min since the expansion is
    meaningless there.
    """
    _check_b(b)
    if not y > 0:
        raise ValueError(f"kummer_asymptotic requires y > 0, got {y}")
    if y < y_min:
        raise ValueError(
            f"y = {y} is below the asymptotic threshold y_min = {y_min}")

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

    return KummerAsymptotics(value=alg_real + exp_part, imag=alg_imag)


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


def laguerre(n: int, alpha: float, y):
    """Generalized Laguerre polynomial L_n^(alpha)(y), alpha > -1.

    Three-term recurrence; y may be a float or a numpy array.
    """
    check_index(n, "degree n")
    if not alpha > -1.0:
        raise ValueError(f"laguerre parameter must exceed -1, got {alpha}")
    p_prev = 1.0 + 0.0 * y  # promotes to the dtype/shape of y
    if n == 0:
        return p_prev
    p = 1.0 + alpha - y
    for k in range(1, n):
        p, p_prev = (((2.0 * k + 1.0 + alpha - y) * p - (k + alpha) * p_prev)
                     / (k + 1.0)), p
    return p


def hermite(N: int, z):
    """Physicists' Hermite polynomial H_N(z) with positive leading term.

    Recurrence H_{k+1} = 2 z H_k - 2 k H_{k-1}; z may be a numpy array.
    """
    check_index(N, "degree N")
    h_prev = 1.0 + 0.0 * z
    if N == 0:
        return h_prev
    h = 2.0 * z
    for k in range(1, N):
        h, h_prev = 2.0 * z * h - 2.0 * k * h_prev, h
    return h


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
    check_s(s)
    if not y > 0:
        raise ValueError(f"y must be positive, got {y}")
    check_index(n, "n")
    root = math.sqrt(y)
    big_n = 2 * n + int(2 * s)
    lhs = hermite(big_n, root)
    pref = math.factorial(big_n) / math.factorial(n)
    if n % 2:
        pref = -pref
    if s == 0.5:
        pref *= 2.0 * root
    rhs = pref * kummer_series(-float(n), 2.0 * s + 0.5, y)
    return abs(lhs - rhs)
