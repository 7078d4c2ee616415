"""Dictionary between the half-line oscillator and the anyon problem.

The change of variable u -> x = u^2 with the substitution
Psi = C u^(2s) Psi_bar, Phi = x^nu Psi_bar turns the oscillator
eigenproblem at frequency omega and energy E into the attractive
-alpha/x problem at coupling alpha = E/4 and energy eps = -m omega^2/8.
Level N = 2n + 2s of the oscillator lands on radial state n of the
nu = s + 1/4 tower, and the frequency is pinned to the quantized value
omega_n = 2 alpha / (hbar (n + nu)).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import anyon, oracle, oscillator
from .core import Grid, PhysicalParams, check_number, check_points, make_state, state_from_nu
from .specfun import RECURRENCE_ARG_MAX, log_gamma

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)

# relative slack when checking that a caller-supplied omega equals the
# quantized dual frequency; anything beyond a few ulp is a real mismatch
_OMEGA_RTOL = 1e-12


def _mapped(value: float, name: str, arg: float) -> float:
    """value, or ValueError naming the argument whose map overflowed."""
    if math.isinf(value):
        raise ValueError(f"{name} = {arg!r} maps past the float range")
    return value


def to_anyon_params(E: float, omega: float, p: PhysicalParams) -> tuple[float, float]:
    """(alpha, epsilon) = (E/4, -m omega^2 / 8) for oscillator data (E, omega).

    Raises ValueError naming omega when epsilon overflows.
    """
    E = check_number(E, "oscillator energy E", 0.0, open_low=True)
    omega = check_number(omega, "frequency omega", 0.0, open_low=True)
    return 0.25 * E, _mapped(-p.mass * omega * omega / 8.0, "frequency omega", omega)


def to_oscillator_params(alpha: float, epsilon: float, p: PhysicalParams) -> tuple[float, float]:
    """(E, omega) = (4 alpha, sqrt(-8 epsilon / m)); inverse of to_anyon_params.

    Raises ValueError naming alpha or epsilon when its image overflows.
    """
    alpha = check_number(alpha, "coupling alpha", 0.0, open_low=True)
    epsilon = check_number(epsilon, "bound-state energy epsilon")
    if not epsilon < 0:
        raise ValueError(f"bound-state energy epsilon must be negative, got {epsilon!r}")
    return (_mapped(4.0 * alpha, "coupling alpha", alpha),
            _mapped(math.sqrt(-8.0 * epsilon / p.mass), "bound-state energy epsilon", epsilon))


def dual_frequency(n: int, nu: float, p: PhysicalParams) -> float:
    """Quantized oscillator frequency of anyon state (n, nu):
    omega_n = 2 alpha / (hbar (n + nu))."""
    alpha = p.require_alpha()
    state = state_from_nu(n, nu)
    return 2.0 * alpha / (p.hbar * (state.n + state.nu))


def map_oscillator_to_anyon(n: int, s: float, p: PhysicalParams, x):
    """Anyon eigenfunction built from its oscillator partner.

    Phi_n(x) = (-1)^n / 2 * sqrt(m omega / (hbar (n + nu)))
               * x^(1/4) * Psi_N(sqrt(x)),

    with N = 2n + 2s <= oscillator.LEVEL_MAX and nu = s + 1/4, at the
    position 0 < x <= (RECURRENCE_ARG_MAX / sqrt(m omega/hbar))^2, the
    square of the oscillator's bound on u = sqrt(x), or any finite x > 0
    if that square is past the float range (see core.check_points).  Both alpha and omega must be set on p, and
    omega must equal the quantized dual frequency of state (n, nu);
    anything else is an error rather than a silent recompute.
    """
    state = make_state(n, s)
    omega = p.require_omega()
    expected = dual_frequency(state.n, state.nu, p)
    if abs(omega - expected) > _OMEGA_RTOL * expected:
        raise ValueError(
            f"omega = {omega!r} is not the dual frequency of state "
            f"(n={state.n}, nu={state.nu}); expected {expected!r}. "
            "Set omega = dual_frequency(n, nu, p); it is not recomputed silently.")
    # u_max ** 2 would raise OverflowError past the float range
    u_max = RECURRENCE_ARG_MAX / math.sqrt(p.mass * omega / p.hbar)
    x, scalar = check_points(x, "x", 0.0, min(u_max * u_max, sys.float_info.max),
                             open_low=True)
    pref = 0.5 * math.sqrt(p.mass * omega / (p.hbar * (state.n + state.nu)))
    if state.n % 2:
        pref = -pref
    values = pref * np.power(x, 0.25) * oscillator.wavefunction(state.N, p, np.sqrt(x))
    return float(values) if scalar else values


def constant_equality_residual(n: int, nu: float) -> float:
    """Relative defect between the two closed forms of the normalization.

    The oscillator route gives
        C~ = (sqrt(m alpha)/hbar) 2^-(n - nu + 1/4)
             sqrt(Gamma(2n + 2 nu + 1/2)) / (pi^(1/4) n! (n + nu))
    and the direct route is anyon.log_normalization, the constant of the
    anyon eigenfunction; the gamma duplication identity makes them equal.
    The comparison is done in log space and is independent of m, alpha,
    hbar, so both routes run with unit constants.
    """
    state = state_from_nu(n, nu)
    n, nu = state.n, state.nu
    log_tilde = (-(n - nu + 0.25) * _LN2 + 0.5 * log_gamma(2.0 * n + 2.0 * nu + 0.5)
                 - 0.25 * _LNPI - log_gamma(n + 1.0) - math.log(n + nu))
    log_direct = anyon.log_normalization(n, nu, PhysicalParams(1.0, 1.0, alpha=1.0))
    return abs(math.expm1(log_tilde - log_direct))


def reduction_chain_residual(n: int, s: float, p: PhysicalParams, grid: Grid) -> float:
    """Run the oscillator state through the variable change and test the result.

    Builds Phi on the grid with map_oscillator_to_anyon at the dual
    constants alpha = E/4 and omega, then returns the finite-difference
    residual of the attractive problem at that alpha and
    eps = -m omega^2/8.
    """
    state = make_state(n, s)
    omega = p.require_omega()
    if grid.x_min <= 0:
        raise ValueError("grid must not touch x = 0 on the anyon side")
    alpha, eps = to_anyon_params(oscillator.energy(state.N, p), omega, p)
    dual = PhysicalParams(p.mass, p.hbar, alpha=alpha, omega=omega)
    xs = grid.points()
    return oracle.ode_residual(
        xs, map_oscillator_to_anyon(state.n, state.s, dual, xs),
        lambda x: anyon.potential(x, state.nu, dual), eps, p)
