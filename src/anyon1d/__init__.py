"""One-dimensional oscillator / Coulomb-anyon duality toolkit.

Analytic spectra and wavefunctions for the half-line harmonic oscillator
and the attractive -alpha/x potential with an inverse-square statistics
term, the exact dictionary between them, and independent numerical
oracles (quadrature, finite differences, Sturm bisection, shooting)
that cross-check every closed form.
"""

from . import anyon, duality, oracle, oscillator, specfun, verification
from .core import (
    ConvergenceError,
    Grid,
    PhysicalParams,
    QuantumState,
    VerificationReport,
    make_state,
    state_from_nu,
    validate_params,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "Grid",
    "PhysicalParams",
    "QuantumState",
    "VerificationReport",
    "anyon",
    "duality",
    "make_state",
    "oracle",
    "oscillator",
    "specfun",
    "state_from_nu",
    "validate_params",
    "verification",
    "__version__",
]
