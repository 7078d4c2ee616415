"""Half-line harmonic oscillator states.

Wavefunctions are the textbook Hermite-Gaussian eigenfunctions, carried
on u >= 0 with an extra sqrt(2) so the half-line norm is 1.  The even
(N = 2n) and odd (N = 2n + 1) towers are the s = 0 and s = 1/2 inputs
of the duality map.
"""

from __future__ import annotations

import functools
import math

from .core import PhysicalParams, check_index, check_points
from .specfun import RECURRENCE_ARG_MAX, _scaled_recurrence

# Largest level of the wavefunctions: the highest level their mpmath
# reference sweep checks.  Each level caches N coefficient triples, so an
# unbounded N would cost unbounded time and memory.
LEVEL_MAX = 400


def energy(N: int, p: PhysicalParams) -> float:
    """E_N = hbar omega (N + 1/2)."""
    N = check_index(N, "level N")
    return p.hbar * p.require_omega() * (N + 0.5)


@functools.lru_cache(maxsize=64)
def _hermite_coefficients(N: int) -> tuple:
    """Steps of psi_{k+1} = sqrt(2/(k+1)) z psi_k - sqrt(k/(k+1)) psi_{k-1}.

    Cached because a norm integral evaluates one level once per
    refinement round.
    """
    return tuple((0.0, math.sqrt(2.0 / (k + 1.0)), math.sqrt(k / (k + 1.0)))
                 for k in range(N))


def wavefunction(N: int, p: PhysicalParams, u):
    """Half-line normalized eigenfunction at the position u >= 0 (see
    core.check_points).

    Psi_N(u) = sqrt(2) (m w / hbar)^(1/4) psi_N(u sqrt(m w / hbar)), with
    psi_N(z) = (2^N N! sqrt(pi))^(-1/2) H_N(z) exp(-z^2/2) the unit-norm
    Hermite functions, so that the integral of Psi_N^2 over [0, inf)
    equals 1.  Defined for N <= LEVEL_MAX and 0 <= z <= 1e150; far in
    the tail the value underflows to exactly 0.0.
    """
    N = check_index(N, "level N", high=LEVEL_MAX)
    omega = p.require_omega()
    scale = math.sqrt(p.mass * omega / p.hbar)
    u, scalar = check_points(u, "u", 0.0, RECURRENCE_ARG_MAX / scale)
    z = u * scale
    log_norm = 0.5 * math.log(2.0) + 0.25 * math.log(p.mass * omega / (math.pi * p.hbar))
    values = _scaled_recurrence(_hermite_coefficients(N), z, log_norm - 0.5 * z * z)
    return float(values) if scalar else values


def mean_square_displacement(N: int, p: PhysicalParams) -> float:
    """<u^2> in level N of the full-line oscillator: (N + 1/2) hbar / (m w)."""
    N = check_index(N, "level N")
    return (N + 0.5) * p.hbar / (p.mass * p.require_omega())
