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
from dataclasses import dataclass

import numpy as np

from . import anyon, oracle, oscillator
from .core import Grid, PhysicalParams, QuantumState, make_state, state_from_nu
from .specfun import log_gamma

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)

# relative slack when checking that a caller-supplied omega equals the
# quantized dual frequency; anything beyond a few ulp is a real mismatch
_OMEGA_RTOL = 1e-12


def to_anyon_params(E: float, omega: float, p: PhysicalParams) -> tuple[float, float]:
    """(alpha, epsilon) = (E/4, -m omega^2 / 8) for oscillator data (E, omega)."""
    if not (math.isfinite(E) and E > 0):
        raise ValueError(f"oscillator energy must be positive, got {E}")
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"frequency omega must be positive, got {omega}")
    return 0.25 * E, -p.mass * omega * omega / 8.0


def to_oscillator_params(alpha: float, epsilon: float, p: PhysicalParams) -> tuple[float, float]:
    """(E, omega) = (4 alpha, sqrt(-8 epsilon / m)); inverse of to_anyon_params."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"coupling alpha must be positive, got {alpha}")
    if not (math.isfinite(epsilon) and epsilon < 0):
        raise ValueError(f"bound-state energy must be negative, got {epsilon}")
    return 4.0 * alpha, math.sqrt(-8.0 * epsilon / p.mass)


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

    with N = 2n + 2s and nu = s + 1/4.  Both alpha and omega must be set
    on p, and omega must equal the quantized dual frequency of state
    (n, nu); anything else is an error rather than a silent recompute.
    """
    state = make_state(n, s)
    omega = p.require_omega()
    expected = dual_frequency(state.n, state.nu, p)
    if abs(omega - expected) > _OMEGA_RTOL * expected:
        raise ValueError(
            f"omega = {omega!r} is not the dual frequency of state "
            f"(n={state.n}, nu={state.nu}); expected {expected!r}. "
            "Set omega = dual_frequency(n, nu, p); it is not recomputed silently.")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("x must be positive on the anyon side")
    u = np.sqrt(arr)
    pref = 0.5 * math.sqrt(p.mass * omega / (p.hbar * (state.n + state.nu)))
    if state.n % 2:
        pref = -pref
    values = pref * arr ** 0.25 * oscillator.wavefunction(state.N, p, u)
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(values)
    return values


def reduction_constant(n: int, s: float, p: PhysicalParams) -> float:
    """The positive constant C with |C|^2 = 2 <u^2>_N = 4 (n + nu) hbar / (m omega).

    This is the normalization of the substitution Psi = C u^(2s) Psi_bar.
    """
    state = make_state(n, s)
    omega = p.require_omega()
    return 2.0 * math.sqrt((state.n + state.nu) * p.hbar / (p.mass * omega))


def constant_equality_residual(n: int, nu: float) -> float:
    """Relative defect between the two closed forms of the normalization.

    The oscillator route gives
        C~ = (sqrt(m alpha)/hbar) 2^-(n - nu + 1/4)
             sqrt(Gamma(2n + 2 nu + 1/2)) / (pi^(1/4) n! (n + nu))
    and the direct route gives the constant of the anyon eigenfunction;
    the gamma duplication identity makes them equal.  The comparison is
    done in log space and is independent of m, alpha, hbar.
    """
    state = state_from_nu(n, nu)
    lam = state.n + state.nu
    log_tilde = (-(n - state.nu + 0.25) * _LN2
                 + 0.5 * log_gamma(2.0 * n + 2.0 * state.nu + 0.5)
                 - 0.25 * _LNPI - log_gamma(n + 1.0) - math.log(lam))
    log_direct = (-math.log(lam) - log_gamma(2.0 * state.nu)
                  + 0.5 * (log_gamma(n + 2.0 * state.nu) - log_gamma(n + 1.0)))
    return abs(math.expm1(log_tilde - log_direct))


def reduction_chain_residual(n: int, s: float, p: PhysicalParams, grid: Grid,
                             *, energy_scale: float = 1.0) -> float:
    """Run the oscillator state through the variable change and test the result.

    Builds Psi_bar = Psi_N(sqrt(x)) / (C x^s) and Phi = x^nu Psi_bar on the
    grid, then returns the finite-difference residual of the attractive
    problem at alpha = E/4 and eps = -m omega^2/8.  energy_scale != 1
    deliberately detunes eps for sensitivity checks.
    """
    state = make_state(n, s)
    omega = p.require_omega()
    if grid.x_min <= 0:
        raise ValueError("grid must not touch x = 0 on the anyon side")
    energy = oscillator.energy(state.N, p)
    c_red = reduction_constant(n, s, p)
    xs = grid.points()
    psi = oscillator.wavefunction(state.N, p, np.sqrt(xs))
    psi_bar = psi / (c_red * xs ** s)
    phi = xs ** state.nu * psi_bar
    alpha, eps = to_anyon_params(energy, omega, p)
    dual = PhysicalParams(p.mass, p.hbar, alpha=alpha)
    return oracle.ode_residual(
        xs, phi, lambda x: anyon.potential(x, state.nu, dual),
        eps * energy_scale, p)


@dataclass(frozen=True)
class DualityPair:
    """One matched pair of states with every dictionary entry spelled out."""

    state: QuantumState
    params: PhysicalParams      # carries both alpha and the dual omega
    oscillator_energy: float
    anyon_energy: float

    def __post_init__(self):
        alpha = self.params.require_alpha()
        omega = self.params.require_omega()
        lam = self.state.n + self.state.nu
        checks = (
            ("alpha = E/4", self.oscillator_energy, 4.0 * alpha),
            ("eps = -m omega^2/8", self.anyon_energy,
             -self.params.mass * omega * omega / 8.0),
            ("omega = 2 alpha/(hbar (n+nu))", omega,
             2.0 * alpha / (self.params.hbar * lam)),
        )
        for label, got, expected in checks:
            if abs(got - expected) > 1e-12 * max(abs(got), abs(expected)):
                raise ValueError(
                    f"inconsistent duality data, {label}: {got!r} vs {expected!r}")

    @classmethod
    def from_oscillator(cls, n: int, s: float, p: PhysicalParams) -> DualityPair:
        """Pair determined by the oscillator side (omega set on p)."""
        state = make_state(n, s)
        omega = p.require_omega()
        energy = oscillator.energy(state.N, p)
        alpha, eps = to_anyon_params(energy, omega, p)
        return cls(state=state,
                   params=PhysicalParams(p.mass, p.hbar, alpha=alpha, omega=omega),
                   oscillator_energy=energy, anyon_energy=eps)

    @classmethod
    def from_anyon(cls, n: int, nu: float, p: PhysicalParams) -> DualityPair:
        """Pair determined by the anyon side (alpha set on p)."""
        state = state_from_nu(n, nu)
        alpha = p.require_alpha()
        eps = anyon.energy(state.n, state.nu, p)
        energy, omega = to_oscillator_params(alpha, eps, p)
        return cls(state=state,
                   params=PhysicalParams(p.mass, p.hbar, alpha=alpha, omega=omega),
                   oscillator_energy=energy, anyon_energy=eps)
