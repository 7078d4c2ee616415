"""Named verification suites.

Each suite runs a fixed, deterministic battery of checks and returns a
list of VerificationReport rows.  The same batteries back the command
line `verify` command and the acceptance tests.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import anyon, duality, oracle, oscillator, specfun
from .core import NU_VALUES, S_VALUES, Grid, PhysicalParams, VerificationReport

_UNIT = PhysicalParams(mass=1.0, hbar=1.0, alpha=1.0, omega=1.0)


def _report(name: str, residual: float, tolerance: float,
            override: float | None) -> VerificationReport:
    return VerificationReport(check_name=name, residual=float(residual),
                              tolerance=override if override else tolerance)


def suite_identities(tol: float | None = None) -> list[VerificationReport]:
    """Special-function identities: duplication, Hermite link, Kummer
    transformation, asymptotics, and the Laguerre cross-check."""
    out = []

    rng = random.Random(20240816)
    worst = max(specfun.duplication_residual(rng.uniform(1e-9, 50.0))
                for _ in range(10_000))
    out.append(_report("gamma duplication, 1e4 random z in (0, 50]", worst, 1e-12, tol))

    ys = np.linspace(0.25, 25.0, 100)
    worst = 0.0
    for n in range(11):
        for s in S_VALUES:
            for y in ys:
                scale = abs(specfun.hermite(2 * n + int(2 * s), math.sqrt(y)))
                r = specfun.hermite_kummer_residual(n, s, float(y))
                worst = max(worst, r / max(scale, 1.0))
    out.append(_report("Hermite vs confluent closed form, n <= 10, y in (0, 25]",
                       worst, 1e-9, tol))

    rng = random.Random(77)
    worst = 0.0
    for _ in range(200):
        a = rng.uniform(-8.0, 8.0)
        b = rng.uniform(0.3, 8.0)
        y = rng.uniform(-30.0, 30.0)
        lhs = specfun.kummer_series(a, b, y)
        rhs = math.exp(y) * specfun.kummer_series(b - a, b, -y)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    out.append(_report("Kummer transformation, 200 random (a, b, y), |y| <= 30",
                       worst, 1e-10, tol))

    asym = specfun.kummer_asymptotic(0.3, 0.8, 40.0)
    direct = specfun.kummer_series(0.3, 0.8, 40.0)
    out.append(_report("large-y asymptotics vs series at (0.3, 0.8, 40)",
                       abs(asym.value - direct) / abs(direct), 1e-6, tol))

    worst = 0.0
    for n in range(11):
        for nu in NU_VALUES:
            for y in np.linspace(0.5, 20.0, 40):
                f = specfun.kummer_series(-float(n), 2.0 * nu, float(y))
                lag = specfun.laguerre(n, 2.0 * nu - 1.0, float(y))
                conv = math.exp(specfun.log_gamma(n + 1.0)
                                + specfun.log_gamma(2.0 * nu)
                                - specfun.log_gamma(n + 2.0 * nu))
                r = abs(f - lag * conv) / max(abs(f), abs(lag * conv), 1e-300)
                worst = max(worst, r)
    out.append(_report("confluent polynomial vs Laguerre, n <= 10", worst, 1e-12, tol))

    worst = 0.0
    for nu in NU_VALUES:
        for y in (0.5, 1.0, 2.5, 7.0):
            got = anyon.extended_wavefunction(3, nu, _UNIT, -y) \
                / anyon.extended_wavefunction(3, nu, _UNIT, y)
            worst = max(worst, abs(got - complex(math.cos(math.pi * nu),
                                                 math.sin(math.pi * nu))))
    out.append(_report("parity extension phase ratio e^(i pi nu)", worst, 1e-12, tol))

    return out


def suite_normalization(tol: float | None = None) -> list[VerificationReport]:
    """Unit norms and second moments against the quadrature oracle."""
    out = []

    worst = 0.0
    for nu in NU_VALUES:
        for n in range(11):
            p = _UNIT.with_omega(duality.dual_frequency(n, nu, _UNIT))
            norm = oracle.quadrature(
                lambda x: anyon.wavefunction(n, nu, p, x) ** 2, 0.0, math.inf,
                tol=1e-10)
            worst = max(worst, abs(norm - 1.0))
    out.append(_report("anyon norm over (0, inf), n <= 10, both nu", worst, 1e-8, tol))

    worst = 0.0
    for big_n in range(9):
        norm = oracle.quadrature(
            lambda u: oscillator.wavefunction(big_n, _UNIT, u) ** 2, 0.0, math.inf,
            tol=1e-12)
        worst = max(worst, abs(norm - 1.0))
    out.append(_report("oscillator half-line norm, N <= 8", worst, 1e-10, tol))

    worst = 0.0
    for big_n in (0, 1, 3, 6):
        got = oracle.quadrature(
            lambda u: u * u * oscillator.wavefunction(big_n, _UNIT, u) ** 2,
            0.0, math.inf, tol=1e-12)
        expected = oscillator.mean_square_displacement(big_n, _UNIT)
        worst = max(worst, abs(got - expected) / expected)
    out.append(_report("oscillator <u^2> vs closed form", worst, 1e-9, tol))

    worst = 0.0
    for nu in NU_VALUES:
        p = _UNIT.with_omega(duality.dual_frequency(2, nu, _UNIT))
        norm = oracle.quadrature(
            lambda y: abs(anyon.extended_wavefunction(2, nu, p, y)) ** 2,
            -math.inf, math.inf, tol=1e-10)
        worst = max(worst, abs(norm - 1.0))
    out.append(_report("parity extension full-line norm", worst, 1e-8, tol))

    return out


def suite_duality(tol: float | None = None) -> list[VerificationReport]:
    """The dictionary itself: spectra, constants, wavefunction map, chain."""
    out = []

    worst = 0.0
    for nu in NU_VALUES:
        for n in range(21):
            eps = anyon.energy(n, nu, _UNIT)
            omega = duality.dual_frequency(n, nu, _UNIT)
            worst = max(worst, abs(eps - (-_UNIT.mass * omega * omega / 8.0))
                        / abs(eps))
    out.append(_report("spectrum dictionary eps = -m omega_n^2/8, n <= 20",
                       worst, 1e-14, tol))

    worst = max(duality.constant_equality_residual(n, nu)
                for nu in NU_VALUES for n in range(21))
    out.append(_report("normalization constant equality, n <= 20", worst, 1e-11, tol))

    worst = 0.0
    xs = np.linspace(0.01, 15.0, 1500)
    for n in range(6):
        for s in S_VALUES:
            nu = s + 0.25
            p = _UNIT.with_omega(duality.dual_frequency(n, nu, _UNIT))
            direct = anyon.wavefunction(n, nu, p, xs)
            mapped = duality.map_oscillator_to_anyon(n, s, p, xs)
            worst = max(worst, float(np.max(np.abs(mapped - direct))
                                     / np.max(np.abs(direct))))
    out.append(_report("wavefunction map vs direct form on [0.01, 15]",
                       worst, 1e-8, tol))

    grid = Grid(0.05, 18.0, 7001)
    worst = max(duality.reduction_chain_residual(n, s, _UNIT, grid)
                for n in (0, 2) for s in S_VALUES)
    out.append(_report("variable-change chain solves the dual equation",
                       worst, 1e-5, tol))

    worst = 0.0
    for n in (0, 3):
        for nu in NU_VALUES:
            alpha, eps = 1.0, anyon.energy(n, nu, _UNIT)
            e_osc, omega = duality.to_oscillator_params(alpha, eps, _UNIT)
            alpha2, eps2 = duality.to_anyon_params(e_osc, omega, _UNIT)
            worst = max(worst, abs(alpha2 - alpha), abs(eps2 - eps) / abs(eps))
    out.append(_report("parameter map round trip", worst, 1e-14, tol))

    return out


def suite_oracle(tol: float | None = None) -> list[VerificationReport]:
    """Closed forms against the independent numerical solvers."""
    out = []

    worst = 0.0
    for nu in NU_VALUES:
        brackets = oracle.scan_level_brackets(nu, _UNIT, 3)
        for n, bracket in enumerate(brackets):
            cfg = oracle.shooting_config_for_level(nu, _UNIT, n, bracket)
            got = oracle.shoot_anyon_energy(cfg, _UNIT, n)
            expected = anyon.energy(n, nu, _UNIT)
            worst = max(worst, abs(got - expected) / abs(expected))
    out.append(_report("shooting eigenvalues vs closed form, n <= 3, both nu",
                       worst, 1e-5, tol))

    levels = oracle.fd_oscillator_spectrum(_UNIT, 10.0, 2001, 5)
    worst = abs(levels[0] - oscillator.energy(0, _UNIT))
    out.append(_report("box eigensolver ground state (L=10, 2001 points)",
                       worst, 1e-4, tol))
    spacing = max(abs((b - a) - _UNIT.hbar * _UNIT.require_omega())
                  for a, b in zip(levels, levels[1:]))
    out.append(_report("box eigensolver level spacing hbar omega", spacing, 1e-3, tol))

    got = oracle.quadrature(lambda u: math.exp(-u * u), -math.inf, math.inf,
                            tol=1e-12)
    out.append(_report("quadrature: full-line Gaussian vs sqrt(pi)",
                       abs(got - math.sqrt(math.pi)), 1e-10, tol))

    worst = 0.0
    for nu in NU_VALUES:
        for n in (0, 1, 4, 8):
            two_nu = 2.0 * nu
            val = oracle.quadrature(
                lambda y: math.exp(-y) * y ** two_nu
                * specfun.laguerre(n, two_nu - 1.0, y) ** 2,
                0.0, math.inf, tol=1e-10)
            closed = (2.0 * (n + nu)
                      * math.exp(specfun.log_gamma(n + two_nu)
                                 - specfun.log_gamma(n + 1.0)))
            worst = max(worst, abs(val - closed) / closed)
    out.append(_report("quadrature: Laguerre norm integral vs closed form",
                       worst, 1e-8, tol))

    def anyon_residual(n, nu, grid, detune=1.0):
        p = _UNIT.with_omega(duality.dual_frequency(n, nu, _UNIT))
        xs = grid.points()
        phi = anyon.wavefunction(n, nu, p, xs)
        eps = detune * anyon.energy(n, nu, p)
        return oracle.ode_residual(xs, phi, lambda x: anyon.potential(x, nu, p),
                                   eps, p)

    def osc_residual(big_n, detune=1.0):
        us = Grid(0.1, 6.0, 5901).points()
        psi = oscillator.wavefunction(big_n, _UNIT, us)
        pot = lambda u: 0.5 * _UNIT.mass * _UNIT.require_omega() ** 2 * u * u
        return oracle.ode_residual(us, psi, pot,
                                   detune * oscillator.energy(big_n, _UNIT),
                                   _UNIT)

    # Base residuals use the canonical windows: x in [0.05, 20] for the
    # anyon states and u in [0.1, 6] for the oscillator.  The spacing
    # 1e-3 keeps the fourth-order truncation error of the stencil well
    # below tolerance even at the steep x^(nu - 6) left edge.
    worst = 0.0
    for nu in NU_VALUES:
        for n in (0, 1, 3, 5):
            worst = max(worst, anyon_residual(n, nu, Grid(0.05, 20.0, 19951)))
    for big_n in (0, 1, 5):
        worst = max(worst, osc_residual(big_n))

    # The detuning control needs windows that track the classically
    # allowed region of each state: on the canonical window the residual
    # normalization is dominated by the 1/x^2 edge, which mutes the
    # response of high-n states whose |epsilon| shrinks like 1/n^2.
    perturbed_min = osc_residual(0, detune=1.01)
    for big_n in (1, 5):
        perturbed_min = min(perturbed_min, osc_residual(big_n, detune=1.01))
    perturbed_min = min(perturbed_min,
                        anyon_residual(0, 0.25, Grid(0.1, 10.0, 9901),
                                       detune=1.01))
    for nu in NU_VALUES:
        for n in (0, 1, 3, 5):
            x_turn = 2.0 * (n + nu) ** 2 * _UNIT.hbar ** 2 / (
                _UNIT.mass * _UNIT.require_alpha())
            window = Grid(max(0.25 * x_turn, 0.1), max(1.1 * x_turn, 10.0),
                          4001)
            worst = max(worst, anyon_residual(n, nu, window))
            perturbed_min = min(perturbed_min,
                                anyon_residual(n, nu, window, detune=1.01))
    out.append(_report("differential equation residual of closed forms",
                       worst, 1e-6, tol))
    # sensitivity control: a 1 percent energy error must NOT pass; the
    # report inverts the scale so "residual below tolerance" means the
    # control stayed loud
    out.append(_report("residual sensitivity control (1 percent detuning)",
                       1e-3 / perturbed_min, 1.0, tol))

    return out


SUITES = {
    "identities": suite_identities,
    "normalization": suite_normalization,
    "duality": suite_duality,
    "oracle": suite_oracle,
}


def run_suites(names, tol: float | None = None) -> list[VerificationReport]:
    """Run the named suites (or all of them) and concatenate the reports."""
    if isinstance(names, str):
        names = [names]
    expanded = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise ValueError(
                f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    reports = []
    seen = set()
    for name in expanded:
        if name in seen:
            continue
        seen.add(name)
        reports.extend(SUITES[name](tol))
    return reports
