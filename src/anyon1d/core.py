"""Shared value types and validation for the oscillator/anyon pair.

The two systems are tied together by one set of physical constants
(mass, hbar) plus one side-specific input each: the oscillator
frequency omega and the attractive coupling alpha.  Quantum numbers
travel as a single state object so the exact relations nu = s + 1/4
and N = 2n + 2s hold by construction.
Each argument reader returns what it read: check_index an int, check_nu
and check_s a float label, check_number a float, check_points positions.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

# Allowed statistics labels.  s is the spin label of the reduced
# oscillator problem, nu the exponent of the wavefunction at the origin.
S_VALUES = (0.0, 0.5)
NU_VALUES = (0.25, 0.75)


class ConvergenceError(RuntimeError):
    """An iterative numerical routine failed to reach its target."""


def _shown(value, form=repr) -> str:
    """form(value) for an error message, cut to 60 characters; an int past
    the float range as its sign, leading digits and digit count, since
    str() of a long int is quadratic and refused past 4300 digits."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        skipped = int(abs(value).bit_length() * math.log10(2)) - 20
        lead = str(abs(value) // 10 ** skipped)     # 20 or 21 digits
        return f"{'-' * (value < 0)}{lead[:20]}... ({skipped + len(lead)} digits)"
    try:
        text = form(value)
    except Exception:       # a list holding an int past 4300 digits
        return f"a {type(value).__name__} that cannot be shown"
    return text if len(text) <= 60 else text[:60] + "..."


def check_index(value, name: str, low: int = 0, high: int | None = None) -> int:
    """Return value, an int or a numpy integer but no bool, as a Python int if
    it lies in [low, high] (>= low if high is None); else raise ValueError."""
    if type(value) is int or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low <= value and (high is None or value <= high):
            return int(value)
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ValueError(f"{name} must be an integer {bound}, got {_shown(value)}")


def _check_label(value, name: str, allowed: tuple, spelled: str) -> float:
    # compared before the conversion, so that Fraction("0.2500000000000000000001")
    # is refused; Decimal is no numbers.Real, and bool is one; a signalling
    # Decimal NaN raises InvalidOperation on ==, so it is refused before that
    if type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool)
                                or isinstance(value, Decimal) and not value.is_snan()):
        if value in allowed:
            return float(value)
    raise ValueError(f"{name} must be {spelled}, got {_shown(value, str)}")


def check_nu(nu) -> float:
    """Return the origin exponent nu, a real number equal to 1/4 or 3/4, as a float."""
    return _check_label(nu, "nu", NU_VALUES, "1/4 or 3/4")


def check_s(s) -> float:
    """Return the spin label s, a real number equal to 0 or 1/2, as a float."""
    return _check_label(s, "s", S_VALUES, "0 or 1/2")


def check_points(x, name: str, low: float, high: float = sys.float_info.max, *,
                 open_low: bool = False):
    """Convert and check the position argument x; return (points, scalar).

    x is one real number (an int, a float or a numpy real scalar, not a
    bool) or anything numpy reads as an array of real numbers, lists
    included.  One number, a 0-d array included, comes back as a Python
    float with scalar True; anything else as a float64 array with scalar
    False.  Every point must lie in [low, high], or in (low, high] with
    open_low.  Complex, str, bool or object input, NaN and any point
    outside the range raise ValueError naming the argument and the first
    offending point; a ragged nesting raises ValueError naming the
    argument.
    """
    # One int or float is checked without numpy.  The one-number callers
    # that remain are check_number, the phase-ratio check of the
    # identities suite (anyon.extended_wavefunction), the benchmark's
    # one-float Laguerre norm integrand (specfun.laguerre, its y and,
    # through check_number, its alpha), and the scalar specfun.log_gamma
    # calls of anyon, duality and the verify suites.  bool and the numpy
    # scalars fail this exact type test and go the array way.
    # Through numpy: 6.0 us a call, not 0.31 us; +50 ms an oracle_solve pass (2-core host).
    if type(x) is float or type(x) is int:
        if (low < x if open_low else low <= x) and x <= high:
            return float(x), True
        first = x
    else:
        try:
            points = np.asarray(x)
        except ValueError:
            raise ValueError(f"{name} must be real numbers of one rectangular "
                             f"shape, got a ragged sequence") from None
        if points.dtype.kind not in "iuf":
            first = points.ravel()[:1].tolist()[0] if points.size else x
            raise ValueError(f"{name} must be real, got {name} = {_shown(first)}")
        points = points.astype(float, copy=False)
        inside = (low < points) if open_low else (low <= points)
        inside &= points <= high
        if inside.all():
            return (float(points), True) if points.ndim == 0 else (points, False)
        first = float(points.flat[np.argmin(inside)])
    interval = f"{'(' if open_low else '['}{low:.6g}, {high:.6g}]"
    raise ValueError(f"{name} must lie in {interval}, got {name} = {_shown(first)}")


def check_number(value, name: str, low: float = -sys.float_info.max,
                 high: float = sys.float_info.max, *, open_low: bool = False) -> float:
    """Read value by check_points' rule as one number in [low, high]
    (every finite float by default), or (low, high] with open_low, and
    return it as a Python float for the caller to compute with, so that
    no numpy dtype such as float32 reaches its arithmetic.  A list or an
    array, even of one number, raises ValueError naming the argument."""
    number, scalar = check_points(value, name, low, high, open_low=open_low)
    if not scalar:
        raise ValueError(f"{name} must be one real number, got an array of shape "
                         f"{number.shape}")
    return number


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of the problem.

    mass and hbar are always required.  alpha (the coupling of the
    attractive -alpha/x term) and omega (the oscillator frequency) are
    optional because each operation needs only one side.  validate_params
    reads each constant that is set, by check_number, as a Python float.
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


# The closed forms multiply up to three of mass, hbar, alpha and omega
# (m alpha^2, m omega^2, hbar^2, m omega/hbar), so with each constant in
# this range every such product is a finite, normal float and hbar^2
# cannot underflow.  The anyon energies also divide m alpha^2 by hbar^2,
# so that energy scale is held to the same range.
_MAGNITUDE_RANGE = (1e-100, 1e100)


def validate_params(p: PhysicalParams) -> None:
    """Read every physical constant of p through check_number and store
    the Python float it returns on p.

    mass and hbar, and alpha and omega when set, must lie in
    _MAGNITUDE_RANGE, and so must the anyon energy scale
    m alpha^2/hbar^2 when alpha is set.  Raises ValueError naming the
    offending field.
    """
    for attr, name in (("mass", "mass"), ("hbar", "hbar"),
                       ("alpha", "coupling alpha"), ("omega", "frequency omega")):
        value = getattr(p, attr)
        if value is not None or attr in ("mass", "hbar"):
            object.__setattr__(p, attr, check_number(value, name, *_MAGNITUDE_RANGE))
    if p.alpha is not None:
        check_number(p.mass * p.alpha * p.alpha / p.hbar ** 2,
                     "the energy scale m alpha^2/hbar^2 of coupling alpha", *_MAGNITUDE_RANGE)


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
        object.__setattr__(self, "n", check_index(self.n, "radial index n"))
        object.__setattr__(self, "s", check_s(self.s))
        # 0.25 and 0.5 are exact in binary, so these hold with no roundoff
        object.__setattr__(self, "nu", self.s + 0.25)
        object.__setattr__(self, "N", 2 * self.n + int(2 * self.s))


def make_state(n: int, s: float) -> QuantumState:
    """Build a validated QuantumState from the radial index and spin label."""
    return QuantumState(n=n, s=s)


def state_from_nu(n: int, nu: float) -> QuantumState:
    """Same as make_state but keyed on the origin exponent nu = s + 1/4."""
    return make_state(n, check_nu(nu) - 0.25)


# Points of one grid: 10**7 floats are 80 MB per array, and a CSV grid
# of 10**6 points already takes about 2 s.
_GRID_COUNT_MAX = 10 ** 7


@dataclass(frozen=True)
class Grid:
    """Uniform sampling grid [x_min, x_max] with count points inclusive,
    3 <= count <= 10**7; check_number reads the ends as Python floats."""

    x_min: float
    x_max: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "count",
                           check_index(self.count, "grid count", low=3, high=_GRID_COUNT_MAX))
        object.__setattr__(self, "x_min", check_number(self.x_min, "grid x_min"))
        object.__setattr__(self, "x_max", check_number(self.x_max, "grid x_max"))
        if not self.x_min < self.x_max:
            raise ValueError(
                f"grid needs x_min < x_max, got [{self.x_min}, {self.x_max}]")

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.count)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check; passed is derived, never set by hand.
    The residual may be inf, so that a check that diverged fails."""

    check_name: str
    residual: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "residual", check_number(self.residual, "residual", 0, math.inf))
        object.__setattr__(self, "tolerance",
                           check_number(self.tolerance, "tolerance", 0.0, open_low=True))
        object.__setattr__(self, "passed", self.residual <= self.tolerance)
