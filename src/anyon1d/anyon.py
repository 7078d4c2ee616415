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
from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams, check_index, check_nu
from .specfun import RECURRENCE_ARG_MAX, _scaled_recurrence, log_gamma


def potential(x, nu: float, p: PhysicalParams):
    """V(x) = -alpha/x - hbar^2 nu(1-nu)/(2 m x^2) for x > 0 (scalar or array).

    Note nu(1-nu) = 3/16 for both allowed nu: the two towers live in the
    same potential and differ only through the boundary behavior at 0.
    """
    check_nu(nu)
    alpha = p.require_alpha()
    if not np.all(np.greater(x, 0)):
        raise ValueError(f"x must be positive, got {x}")
    return -alpha / x - p.hbar ** 2 * nu * (1.0 - nu) / (2.0 * p.mass * x * x)


def energy(n: int, nu: float, p: PhysicalParams) -> float:
    """epsilon_n = -m alpha^2 / (2 hbar^2 (n + nu)^2)."""
    check_nu(nu)
    check_index(n, "radial index n")
    alpha = p.require_alpha()
    lam = n + nu
    return -p.mass * alpha * alpha / (2.0 * p.hbar ** 2 * lam * lam)


def beta(n: int, nu: float, p: PhysicalParams) -> float:
    """Inverse length scale of state (n, nu): beta = 2 m alpha / (hbar^2 (n+nu))."""
    check_nu(nu)
    check_index(n, "radial index n")
    return 2.0 * p.mass * p.require_alpha() / (p.hbar ** 2 * (n + nu))


def log_normalization(n: int, nu: float, p: PhysicalParams) -> float:
    """log of C_n = (sqrt(m alpha)/hbar) (n+nu)^-1 Gamma(2 nu)^-1
    sqrt(Gamma(n + 2 nu)/n!)."""
    check_nu(nu)
    check_index(n, "radial index n")
    alpha = p.require_alpha()
    return (0.5 * math.log(p.mass * alpha) - math.log(p.hbar)
            - math.log(n + nu) - log_gamma(2.0 * nu)
            + 0.5 * (log_gamma(n + 2.0 * nu) - log_gamma(n + 1.0)))


def normalization_constant(n: int, nu: float, p: PhysicalParams) -> float:
    return math.exp(log_normalization(n, nu, p))


@functools.lru_cache(maxsize=64)
def _laguerre_coefficients(n: int, a: float) -> tuple:
    """Steps of l_{k+1} = [(2k+1+a-y) l_k - sqrt(k(k+a)) l_{k-1}] / sqrt((k+1)(k+1+a)).

    Cached because quadrature evaluates one state at thousands of single
    points.
    """
    steps = []
    for k in range(n):
        d = math.sqrt((k + 1.0) * (k + 1.0 + a))
        steps.append(((2.0 * k + 1.0 + a) / d, -1.0 / d, math.sqrt(k * (k + a)) / d))
    return tuple(steps)


def _shape(n: int, nu: float, y, log_factor: float):
    """exp(log_factor) sqrt(y) l_n(y) for 0 < y <= RECURRENCE_ARG_MAX.

    l_k(y) = sqrt(k!/Gamma(k + 2 nu)) y^(nu - 1/2) e^(-y/2) L_k^(2nu-1)(y)
    are the unit-norm Laguerre functions, so sqrt(y) l_n(y) is the
    y^nu e^(-y/2) F(-n, 2 nu, y) shape with integral of y l_n^2 equal to
    2 (n + nu).  Works on a float or an array y.
    """
    log_start = log_factor - 0.5 * log_gamma(2.0 * nu) + nu * np.log(y) - 0.5 * y
    return _scaled_recurrence(_laguerre_coefficients(n, 2.0 * nu - 1.0), y, log_start)


def wavefunction(n: int, nu: float, p: PhysicalParams, x):
    """Normalized bound-state wavefunction Phi_n at x > 0 (scalar or array).

    Phi_n(x) = sqrt(m alpha)/(hbar (n + nu)) sqrt(y) l_n(y) with y = beta x
    (see _shape).  Defined for 0 < y <= 1e150; far in the tail the value
    underflows to exactly 0.0, which is part of the contract.
    """
    b = beta(n, nu, p)  # validates n, nu, alpha
    x_max = RECURRENCE_ARG_MAX / b
    array = isinstance(x, np.ndarray)
    x = x.astype(float) if array else float(x)
    inside = np.all((x > 0) & (x <= x_max)) if array else 0 < x <= x_max
    if not inside:
        raise ValueError(f"x must lie in (0, {x_max:.6g}]")
    log_factor = (0.5 * math.log(p.mass * p.require_alpha()) - math.log(p.hbar)
                  - math.log(n + nu))
    values = _shape(n, nu, b * x, log_factor)
    return values if array else float(values)


def extended_wavefunction(n: int, nu: float, p: PhysicalParams, y):
    """Parity-extended eigenfunction on the full y line (y = beta x).

    Built from the half-line shape phi(|y|) with a constant phase on the
    negative side and an overall 1/sqrt(2):

        Phi(y) = phi(y)/sqrt(2)                 for y > 0,
        Phi(y) = e^(i pi nu) phi(-y)/sqrt(2)    for y < 0,

    where phi is normalized to unit L2 norm in the y variable, so the
    full-line norm is again 1.  The ratio Phi(-y)/Phi(y) is exactly the
    phase e^(i pi nu).  y = 0 is the singular point of the potential
    and is rejected, as is |y| > 1e150.  y may be a float (complex
    result) or a real array (complex array).
    """
    beta(n, nu, p)  # validates n, nu, alpha
    array = isinstance(y, np.ndarray)
    if isinstance(y, complex) or (array and np.iscomplexobj(y)):
        raise ValueError("y must be a real number")
    y = y.astype(float) if array else float(y)
    size = abs(y)
    inside = (np.all((size > 0) & (size <= RECURRENCE_ARG_MAX)) if array
              else 0 < size <= RECURRENCE_ARG_MAX)
    if not inside:
        raise ValueError(f"y must satisfy 0 < |y| <= {RECURRENCE_ARG_MAX:g}; "
                         "y = 0 is the singular point")
    # phi = sqrt(y) l_n(y) / sqrt(2 (n + nu)); with the 1/sqrt(2) that is
    # a factor 1/(2 sqrt(n + nu))
    r = _shape(n, nu, size, -0.5 * math.log(4.0 * (n + nu)))
    twist = cmath.exp(1j * math.pi * nu)
    if array:
        return np.where(y > 0, r, twist * r)
    return complex(r, 0.0) if y > 0 else twist * float(r)


@dataclass(frozen=True)
class BranchSelection:
    """Why one origin exponent survives for a given nu.

    retained_exponent is the power of the kept solution Phi ~ y^nu at
    the origin; rejected_exponent is the power of the discarded second
    solution of the reduced equation (the factor multiplying
    y^nu e^(-y/2)), which behaves like y^(1 - 2 nu).
    """

    nu: float
    retained_exponent: float
    rejected_exponent: float
    reason: str
    detail: str
    quantization: str


def boundary_selection_report(nu: float) -> BranchSelection:
    """Report which solution branch survives at the origin and why."""
    check_nu(nu)
    if nu == 0.75:
        reason = "singular second solution"
        detail = (
            "writing Phi = y^nu e^(-y/2) Q(y), the second solution carries "
            "Q ~ y^(1-2nu) = y^(-1/2), which diverges at the origin and is "
            "discarded; the surviving branch must then terminate, which pins "
            "the spectrum to lambda = n + nu.")
    else:
        reason = "incompatible double quantization"
        detail = (
            "both origin behaviors are finite here, but keeping both would "
            "demand lambda - 1/4 and lambda - 3/4 to be nonnegative integers "
            "at once, impossible since they differ by 1/2; requiring a "
            "nonvanishing regular part Q(0) != 0 removes the second branch "
            "and leaves the single tower lambda = n + nu.")
    return BranchSelection(
        nu=nu,
        retained_exponent=nu,
        rejected_exponent=1.0 - 2.0 * nu,
        reason=reason,
        detail=detail,
        quantization="lambda = n + nu",
    )
