"""Special functions: log-gamma, the confluent hypergeometric
polynomial, the classical orthogonal polynomials tied to it, and the
log-scaled three-term recurrence behind both eigenfunctions.

The confluent polynomial F(-n, b, y) is summed exactly: b and y are
read as the rationals their floats hold, the n + 1 terms are summed by
Horner's rule on Python integers, and one integer division rounds the
sum to the nearest float.  Cancellation between its alternating terms
at y > 0 costs no digit, and no threshold picks a second path.
log_gamma, kummer_series, duplication_residual, laguerre and hermite
take one number or an array, and each point of an array gets the bits
it gets alone, so a caller checks an identity on many parameter sets
with one call (the Hermite link H_(2n+2s)(sqrt y) ~ F(-n, 2s + 1/2, y)
of verification's identities suite is one kummer_series call on a
column of (a, b)).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import ConvergenceError, check_index, check_number, check_points

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)

# The largest degree n of the confluent polynomial F(-n, b, y): the
# confluent form of an eigenfunction reaches n = 200 (oscillator levels
# N = 2n + 2s <= 400; anyon levels n <= 100).
_MAX_DEGREE = 200

# The scaled recurrence divides its terms by _BIG, a power of two so the
# division is exact, when one has exceeded it.  One step multiplies the
# larger of the two live terms by at most |a + b x| + |c| < 1.5 x + 4
# (the Laguerre and Hermite steps of anyon and oscillator both stay under
# it), so the check runs once every _check_period(x) steps, the most steps
# in which terms at most _BIG stay below _BIG**2.  One step stays below
# _BIG for arguments up to RECURRENCE_ARG_MAX; every eigenfunction is
# exactly 0.0 long before.
_BIG = 2.0 ** 500
_LN_BIG = 500.0 * _LN2
RECURRENCE_ARG_MAX = 1e150

# The largest float z with log Gamma(z) below the largest float.
_LOG_GAMMA_ARG_MAX = 2.5599833278516383e305

def log_gamma(z):
    """Natural log of the gamma function for 0 < z <= _LOG_GAMMA_ARG_MAX.

    z is one number or an array (see core.check_points); one number
    gives math.lgamma(z), an array an array of its shape with the bits
    each point gives alone.  Near its zeros at z = 1 and z = 2 the error
    is absolute, within about 1.3e-15, not relative: every caller
    exponentiates or differences the result.  NaN, infinity and z <= 0
    raise ValueError naming the first such point; past
    _LOG_GAMMA_ARG_MAX, log Gamma(z) exceeds the largest float and
    ValueError names the first such z and the limit.
    """
    z, scalar = check_points(z, "log_gamma argument z", 0.0, open_low=True)
    past = z > _LOG_GAMMA_ARG_MAX
    if past if scalar else past.any():
        first = z if scalar else float(z.flat[np.argmax(past)])
        raise ValueError(f"log_gamma argument z must be at most {_LOG_GAMMA_ARG_MAX!r}, "
                         f"past which log Gamma(z) overflows the floats, got {first!r}")
    # array path: 95 us for one number, not 0.75 us; +30 ms a verify pass (2-core host)
    if scalar:
        return math.lgamma(z)
    return np.fromiter(map(math.lgamma, z.ravel().tolist()), float, z.size).reshape(z.shape)


def duplication_residual(z):
    """Absolute defect of the gamma duplication identity at z.

    Compares log Gamma(2z) against
    (2z-1) log 2 - (1/2) log pi + log Gamma(z) + log Gamma(z + 1/2),
    all in log space so the comparison stays meaningful at large z.
    z is one number or an array (see core.check_points) in
    0 < z <= _LOG_GAMMA_ARG_MAX / 2, where log Gamma(2z) is a float;
    anything else raises ValueError naming the first such z.
    """
    z, _ = check_points(z, "log_gamma argument z", 0.0, 0.5 * _LOG_GAMMA_ARG_MAX,
                        open_low=True)
    lhs = log_gamma(2.0 * z)
    rhs = (2.0 * z - 1.0) * _LN2 - 0.5 * _LNPI + log_gamma(z) + log_gamma(z + 0.5)
    return abs(lhs - rhs)


def kummer_series(a, b, y):
    """Confluent hypergeometric polynomial F(-n, b, y), a = -n, summed
    exactly and rounded once.

    a is 0, -1, ..., -200; b and y are finite reals, b not a nonpositive
    integer.  Each is one number or an array (see core.check_points),
    and they broadcast against each other.  Any other a, b or y raises
    ValueError naming the first such point.  Three numbers give a float,
    anything else an array of the broadcast shape, with the bits each
    point gives alone.  Each value is the float nearest the true
    F(-n, b, y) (see _exact_confluent), so cancellation between the
    alternating terms at y > 0 costs no digit and an exact zero such as
    F(-2, 3, 2) = 1 - 4/3 + 1/3 is 0.0.  A sum whose magnitude exceeds
    the largest float, about 1.8e308, raises ConvergenceError naming the
    first such point (a, b, y) in array order.  The exact sum costs
    O(n^2) times the bits of b and y: at n = 200 one point took at most
    1.4 ms for 1e-6 <= |y| <= 4n + 4 and b in [0.3, 8], and up to about
    0.1 s for b or y near the bottom of the float range or y near its
    top (shared 2-core host).
    """
    b, b_scalar = check_points(b, "lower parameter b", -sys.float_info.max)
    pole = (b <= 0) & (b == np.floor(b))
    if np.count_nonzero(pole):
        raise ValueError("lower parameter b must not be a nonpositive integer, "
                         f"got {float(np.ravel(b)[np.argmax(pole)])!r}")
    y, y_scalar = check_points(y, "argument y", -sys.float_info.max)
    a, a_scalar = check_points(a, "upper parameter a", -sys.float_info.max)
    degree = (a < -_MAX_DEGREE) | (a > 0) | (a != np.floor(a))
    if np.count_nonzero(degree):
        raise ValueError(f"upper parameter a must be an integer in [-{_MAX_DEGREE}, 0], "
                         f"got {float(np.ravel(a)[np.argmax(degree)])!r}")
    shape = np.broadcast(a, b, y).shape
    points = np.empty((3,) + shape)
    points[0], points[1], points[2] = a, b, y
    values = []
    for a, b, y in zip(*points.reshape(3, -1).tolist()):
        num, den = _exact_confluent(-int(a), b, y)
        try:
            values.append(num / den)
        except OverflowError:
            raise ConvergenceError("confluent series sum exceeds the float range "
                                   f"(a={a}, b={b}, y={y})") from None
    if a_scalar and b_scalar and y_scalar:
        return values[0]
    return np.array(values, dtype=float).reshape(shape)


def _exact_confluent(n: int, b: float, y: float) -> tuple[int, int]:
    """Integers (num, den), den > 0, whose quotient is exactly F(-n, b, y).

    b = p/q and y = u/v are the rationals the two floats hold, and
    Horner's rule acc <- 1 + r_k acc, k = n - 1, ..., 0, with the term
    ratio r_k = (k - n) y / ((b + k)(k + 1)), runs on the numerator and
    denominator of acc.  Python's int / int rounds the quotient
    correctly, to the nearest float, or raises OverflowError past the
    float range.
    """
    p, q = b.as_integer_ratio()
    u, v = y.as_integer_ratio()
    num = den = 1
    for k in range(n - 1, -1, -1):
        den *= (p + k * q) * (k + 1) * v
        num = den + (k - n) * q * u * num
    return (num, den) if den > 0 else (-num, -den)


def log_kummer_polynomial(n: int, b: float, y: float) -> tuple[float, float]:
    """(log |F(-n, b, y)|, sign) for the terminating case with
    0 <= n <= 200, b > 0, y > 0, each one number (see core.check_index
    and core.check_number).

    The exact sum of kummer_series (see _exact_confluent) has no
    exponent range to leave, so it holds even where F(-n, b, y) is past
    the float range; its log is that of a quotient scaled near 1 by a
    power of two, within rounding of the true log.  An exact zero gives
    (-inf, 0.0).
    """
    n = check_index(n, "n", high=_MAX_DEGREE)
    b = check_number(b, "lower parameter b", 0.0, open_low=True)
    y = check_number(y, "argument y", 0.0, open_low=True)
    num, den = _exact_confluent(n, b, y)
    if num == 0:
        return -math.inf, 0.0
    shift = num.bit_length() - den.bit_length()
    ratio = abs(num) / (den << shift) if shift >= 0 else (abs(num) << -shift) / den
    return math.log(ratio) + shift * _LN2, (1.0 if num > 0 else -1.0)


def _polynomial(recurrence, x, name: str, degree: str, order: int):
    """recurrence(x) at any finite real x, one number or an array (see
    core.check_points).

    Raises ValueError naming the degree (degree = order) and the first
    point where the recurrence overflows the float range, on an array
    without a numpy warning.  One number stays a Python float, so the
    scalar call runs the recurrence in exact floats.
    """
    x, scalar = check_points(x, name, -sys.float_info.max)
    # with np.errstate: 10.9 us a laguerre(6, ...), not 3.2; +35 ms an oracle_solve pass
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

    alpha is one real number (see core.check_number).  Three-term
    recurrence at any finite real y, a float or a numpy array; raises
    ValueError where the value overflows (see _polynomial).
    """
    n = check_index(n, "degree n")
    alpha = check_number(alpha, "parameter alpha", -1.0, open_low=True)

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
    N = check_index(N, "degree N")

    def recurrence(z):
        h_prev = 1.0 + 0.0 * z
        if N == 0:
            return h_prev
        h = 2.0 * z
        for k in range(1, N):
            h, h_prev = 2.0 * z * h - 2.0 * k * h_prev, h
        return h

    return _polynomial(recurrence, z, "z", "N", N)


def _check_period(x) -> int:
    """Steps between overflow checks of _scaled_recurrence on
    0 <= x <= RECURRENCE_ARG_MAX: the largest P with
    (1.5 max x + 4)**P <= _BIG, which is 1 past about x = 1.2e75."""
    # one number without numpy's call overhead
    top = x if type(x) is float else float(np.max(x, initial=0.0))
    return int(500.0 / math.log2(1.5 * top + 4.0))


def _scaled_recurrence(coefficients, x, log_start):
    """f_n(x) of f_{k+1} = (a_k + b_k x) f_k - c_k f_{k-1} with
    f_0 = exp(log_start) and f_{-1} = 0, for 0 <= x <= RECURRENCE_ARG_MAX.

    coefficients holds (a_k, b_k, c_k) for k = 0 .. n-1.  The terms run
    as f_k / exp(scale), starting from 1 with scale = log_start.  Every
    P = _check_period(x) steps, and at the last step, each point whose
    term exceeded _BIG at any step since the last check has both live
    terms divided by _BIG and its scale grown by ln _BIG; a flag per
    point, set when |f_k| > _BIG, is that test on the running peak of
    |f_k|.  exp(scale) is applied last, in two halves so that a large
    term meets a tiny factor without underflowing early: nothing
    overflows, and the result underflows to 0.0 only where the true
    value does.  x and log_start are floats or arrays of one shape, and
    the same float operations run on either, so a point gives the same
    bits alone or inside an array.

    Checking every step gives the same bits.  At a check both live terms
    are at most _BIG, and one step grows the larger by less than
    1.5 x + 4, so within P steps every term stays below _BIG**2: none
    overflows, and a check every step would divide at most once, at the
    first term past _BIG.  Dividing by a power of two is exact, so it
    commutes with the steps between that term and the periodic check,
    and both rules leave the same terms and the same count of divisions,
    the number of times the running maximum of |f_k| passed a power
    _BIG**m.  A check on the period's last term alone would miss a term
    that passed _BIG and fell back.  P comes from the largest x, so one
    number takes its own period, and the bits it has inside an array.
    Near RECURRENCE_ARG_MAX one step can grow a term by nearly _BIG, so
    P = 1 and every step is checked.
    """
    period = _check_period(x)
    prev = 0.0
    cur = 1.0
    rescales = 0
    for start in range(0, len(coefficients), period):
        big = False
        for a, b, c in coefficients[start:start + period]:
            prev, cur = cur, (a + b * x) * cur - c * prev
            big |= abs(cur) > _BIG
        # 1 + _BIG rounds to _BIG, so grow is exactly 1 or _BIG
        grow = 1.0 + big * _BIG
        prev = prev / grow
        cur = cur / grow
        rescales = rescales + big
    half = np.exp(0.5 * (log_start + rescales * _LN_BIG))
    return cur * half * half
