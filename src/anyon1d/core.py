"""Shared value types and validation for the oscillator/anyon pair.

The two systems are tied together by one set of physical constants
(mass, hbar) plus one side-specific input each: the oscillator
frequency omega and the attractive coupling alpha.  Quantum numbers
travel as a single state object so the exact relations nu = s + 1/4
and N = 2n + 2s hold by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Allowed statistics labels.  s is the spin label of the reduced
# oscillator problem, nu the exponent of the wavefunction at the origin.
S_VALUES = (0.0, 0.5)
NU_VALUES = (0.25, 0.75)


class ConvergenceError(RuntimeError):
    """An iterative numerical routine failed to reach its target."""


def check_index(value, name: str) -> None:
    """Raise ValueError naming the argument unless value is an int >= 0.

    bool is rejected although it subclasses int.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def check_nu(nu) -> None:
    if nu not in NU_VALUES:
        raise ValueError(f"nu must be 1/4 or 3/4, got {nu!r}")


def check_s(s) -> None:
    if s not in S_VALUES:
        raise ValueError(f"s must be 0 or 1/2, got {s!r}")


def _positive_number(value, name: str) -> None:
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not ok or not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of the problem.

    mass and hbar are always required and must be positive.  alpha (the
    coupling of the attractive -alpha/x term) and omega (the oscillator
    frequency) are optional because each operation needs only one side;
    whichever is present must be positive.
    """

    mass: float
    hbar: float
    alpha: float | None = None
    omega: float | None = None

    def __post_init__(self):
        validate_params(self)

    def require_alpha(self) -> float:
        if self.alpha is None:
            raise ValueError("coupling alpha is required for this operation but is not set")
        return self.alpha

    def require_omega(self) -> float:
        if self.omega is None:
            raise ValueError("frequency omega is required for this operation but is not set")
        return self.omega

    def with_omega(self, omega: float) -> PhysicalParams:
        return PhysicalParams(self.mass, self.hbar, alpha=self.alpha, omega=omega)

    def with_alpha(self, alpha: float) -> PhysicalParams:
        return PhysicalParams(self.mass, self.hbar, alpha=alpha, omega=self.omega)


def validate_params(p: PhysicalParams) -> None:
    """Check positivity of every physical constant that is set.

    Raises ValueError naming the offending field.
    """
    _positive_number(p.mass, "mass")
    _positive_number(p.hbar, "hbar")
    if p.alpha is not None:
        _positive_number(p.alpha, "coupling alpha")
    if p.omega is not None:
        _positive_number(p.omega, "frequency omega")


@dataclass(frozen=True)
class QuantumState:
    """Quantum numbers of one bound state.

    n is the radial index (number of nodes of the anyon-side
    wavefunction on the half line), s is 0 or 1/2, and the derived
    members are exact: nu = s + 1/4 and N = 2n + 2s, the level of the
    partner oscillator state.
    """

    n: int
    s: float
    nu: float = field(init=False)
    N: int = field(init=False)

    def __post_init__(self):
        check_index(self.n, "radial index n")
        check_s(self.s)
        # 0.25 and 0.5 are exact in binary, so these hold with no roundoff
        object.__setattr__(self, "nu", self.s + 0.25)
        object.__setattr__(self, "N", 2 * self.n + int(2 * self.s))


def make_state(n: int, s: float) -> QuantumState:
    """Build a validated QuantumState from the radial index and spin label."""
    if isinstance(s, int) and not isinstance(s, bool):
        s = float(s)
    return QuantumState(n=n, s=s)


def state_from_nu(n: int, nu: float) -> QuantumState:
    """Same as make_state but keyed on the origin exponent nu = s + 1/4."""
    check_nu(nu)
    return make_state(n, nu - 0.25)


@dataclass(frozen=True)
class Grid:
    """Uniform sampling grid [x_min, x_max] with count points inclusive."""

    x_min: float
    x_max: float
    count: int

    def __post_init__(self):
        if not isinstance(self.count, int) or self.count < 3:
            raise ValueError(f"grid count must be an integer >= 3, got {self.count!r}")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid endpoints must be finite")
        if not self.x_min < self.x_max:
            raise ValueError(
                f"grid needs x_min < x_max, got [{self.x_min}, {self.x_max}]")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.count - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.count)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check; passed is derived, never set by hand."""

    check_name: str
    residual: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not self.residual >= 0:
            raise ValueError(f"residual must be nonnegative, got {self.residual}")
        object.__setattr__(self, "passed", self.residual <= self.tolerance)
