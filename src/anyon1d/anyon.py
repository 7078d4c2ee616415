"""Bound states of the attractive -alpha/x potential with an extra
inverse-square term fixed by the statistics parameter nu.

On the half line x > 0 the potential is

    V(x) = -alpha/x - hbar^2 nu (1 - nu) / (2 m x^2),   nu in {1/4, 3/4},

and the bound spectrum is epsilon_n = -m alpha^2 / (2 hbar^2 (n + nu)^2).
Eigenfunctions are hydrogen-like: with y = beta x and
beta = 2 m alpha / (hbar^2 (n + nu)),

    Phi_n(x) = C_n y^nu e^(-y/2) F(-n, 2 nu, y),

normalized so the integral of Phi_n^2 over (0, inf) in x equals 1.
The parity-extended variant lives on the full y line with a fixed
phase twist between the half lines.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .core import PhysicalParams, check_index, check_nu, check_points
from .specfun import RECURRENCE_ARG_MAX, _scaled_recurrence, log_gamma

# Largest radial index of the wavefunctions: the highest level their
# mpmath reference sweep checks.  Each level caches n coefficient
# triples, so an unbounded n would cost unbounded time and memory.
LEVEL_MAX = 100


def potential(x, nu: float, p: PhysicalParams):
    """V(x) = -alpha/x - hbar^2 nu(1-nu)/(2 m x^2) at the position x
    (see core.check_points).

    Domain: finite x > 0 at which V(x) is a finite float.  Near the
    origin x^2 underflows or V overflows first; with unit constants V is
    finite down to x = 2.3e-155.  Any other x, NaN and infinity
    included, raises ValueError naming the first offending x.

    Note nu(1-nu) = 3/16 for both allowed nu: the two towers live in the
    same potential and differ only through the boundary behavior at 0.
    """
    nu = check_nu(nu)
    alpha = p.require_alpha()
    xs, scalar = check_points(x, "x", 0.0, open_low=True)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # np.divide: for one point the denominator is a float, which may
        # underflow to 0.0
        v = -alpha / xs - np.divide(p.hbar ** 2 * nu * (1.0 - nu), 2.0 * p.mass * xs * xs)
    bad = ~np.isfinite(v)
    if np.any(bad):
        first = xs if scalar else float(xs[bad][0])
        raise ValueError(f"x must be finite and > 0 with V(x) finite, got x = {first!r}")
    return float(v) if scalar else v


def energy(n: int, nu: float, p: PhysicalParams) -> float:
    """epsilon_n = -m alpha^2 / (2 hbar^2 (n + nu)^2)."""
    nu, n = check_nu(nu), check_index(n, "radial index n")
    alpha = p.require_alpha()
    lam = n + nu
    return -p.mass * alpha * alpha / (2.0 * p.hbar ** 2 * lam * lam)


def beta(n: int, nu: float, p: PhysicalParams) -> float:
    """Inverse length scale of state (n, nu): beta = 2 m alpha / (hbar^2 (n+nu))."""
    nu, n = check_nu(nu), check_index(n, "radial index n")
    return 2.0 * p.mass * p.require_alpha() / (p.hbar ** 2 * (n + nu))


def log_normalization(n: int, nu: float, p: PhysicalParams) -> float:
    """log of C_n = (sqrt(m alpha)/hbar) (n+nu)^-1 Gamma(2 nu)^-1
    sqrt(Gamma(n + 2 nu)/n!)."""
    nu, n = check_nu(nu), check_index(n, "radial index n")
    alpha = p.require_alpha()
    return (0.5 * math.log(p.mass * alpha) - math.log(p.hbar)
            - math.log(n + nu) - log_gamma(2.0 * nu)
            + 0.5 * (log_gamma(n + 2.0 * nu) - log_gamma(n + 1.0)))


@functools.lru_cache(maxsize=64)
def _laguerre_coefficients(n: int, nu: float) -> tuple[tuple, float]:
    """Steps of l_{k+1} = [(2k+1+a-y) l_k - sqrt(k(k+a)) l_{k-1}] / sqrt((k+1)(k+1+a))
    with a = 2 nu - 1, and 0.5 log Gamma(2 nu), the log of the start
    l_0's Gamma factor.

    Cached because a norm integral evaluates one state once per
    refinement round, and the identities suite evaluates
    extended_wavefunction one number at a time.
    """
    a = 2.0 * nu - 1.0
    steps = []
    for k in range(n):
        d = math.sqrt((k + 1.0) * (k + 1.0 + a))
        steps.append(((2.0 * k + 1.0 + a) / d, -1.0 / d, math.sqrt(k * (k + a)) / d))
    return tuple(steps), 0.5 * log_gamma(2.0 * nu)


def _shape(n: int, nu: float, y, log_y, log_factor: float):
    """exp(log_factor) sqrt(y) l_n(y) for 0 < y <= RECURRENCE_ARG_MAX,
    given log_y = log y.

    l_k(y) = sqrt(k!/Gamma(k + 2 nu)) y^(nu - 1/2) e^(-y/2) L_k^(2nu-1)(y)
    are the unit-norm Laguerre functions, so sqrt(y) l_n(y) is the
    y^nu e^(-y/2) F(-n, 2 nu, y) shape with integral of y l_n^2 equal to
    2 (n + nu).  Works on a float or an array y.  y enters the power
    only through log_y, so a y that is subnormal or 0.0 as a float (the
    recurrence needs only y << 1 there) keeps every digit of y^nu.
    """
    steps, half_log_gamma = _laguerre_coefficients(n, nu)
    log_start = log_factor - half_log_gamma + nu * log_y - 0.5 * y
    return _scaled_recurrence(steps, y, log_start)


def wavefunction(n: int, nu: float, p: PhysicalParams, x):
    """Normalized bound-state wavefunction Phi_n at the position x > 0
    (see core.check_points).

    Phi_n(x) = sqrt(m alpha)/(hbar (n + nu)) sqrt(y) l_n(y) with y = beta x
    (see _shape).  Defined for n <= LEVEL_MAX and 0 < y <= 1e150; y may
    fall below the floats (log y is log beta + log x), and far in the
    tail the value underflows to exactly 0.0, which is part of the
    contract.
    """
    n, nu = check_index(n, "radial index n", high=LEVEL_MAX), check_nu(nu)
    b = beta(n, nu, p)  # validates alpha
    x, scalar = check_points(x, "x", 0.0, RECURRENCE_ARG_MAX / b, open_low=True)
    log_factor = (0.5 * math.log(p.mass * p.require_alpha()) - math.log(p.hbar)
                  - math.log(n + nu))
    values = _shape(n, nu, b * x, math.log(b) + np.log(x), log_factor)
    return float(values) if scalar else values


def extended_wavefunction(n: int, nu: float, p: PhysicalParams, y):
    """Parity-extended eigenfunction on the full y line (y = beta x).

    Built from the half-line shape phi(|y|) with a constant phase on the
    negative side and an overall 1/sqrt(2):

        Phi(y) = phi(y)/sqrt(2)                 for y > 0,
        Phi(y) = e^(i pi nu) phi(-y)/sqrt(2)    for y < 0,

    where phi is normalized to unit L2 norm in the y variable, so the
    full-line norm is again 1.  The ratio Phi(-y)/Phi(y) is exactly the
    phase e^(i pi nu).  y = 0 is the singular point of the potential
    and is rejected, as are |y| > 1e150 and n > LEVEL_MAX.  One point
    (see core.check_points) gives a complex, an array a complex array.
    """
    nu, n = check_nu(nu), check_index(n, "radial index n", high=LEVEL_MAX)
    p.require_alpha()
    y, scalar = check_points(y, "y", -RECURRENCE_ARG_MAX, RECURRENCE_ARG_MAX)
    size = abs(y)
    if not (size > 0 if scalar else np.all(size > 0)):
        raise ValueError("y must not be 0: y = 0 is the singular point")
    # phi = sqrt(y) l_n(y) / sqrt(2 (n + nu)); with the 1/sqrt(2) that is
    # a factor 1/(2 sqrt(n + nu))
    r = _shape(n, nu, size, np.log(size), -0.5 * math.log(4.0 * (n + nu)))
    twist = cmath.exp(1j * math.pi * nu)
    if scalar:
        return complex(r, 0.0) if y > 0 else twist * float(r)
    return np.where(y > 0, r, twist * r)
