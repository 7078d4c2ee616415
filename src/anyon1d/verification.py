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
from .core import NU_VALUES, S_VALUES, Grid, PhysicalParams, VerificationReport, make_state

_UNIT = PhysicalParams(mass=1.0, hbar=1.0, alpha=1.0, omega=1.0)


def suite_identities() -> list[VerificationReport]:
    """Special-function identities: duplication, the Hermite link, both
    eigenfunctions against their confluent closed forms, the Laguerre
    cross-check and the parity phase."""
    out = []

    # One array call per row of inputs; each point gets the bits it
    # gets alone, so the worst residuals are those of per-point loops.
    rng = random.Random(20240816)
    zs = np.array([rng.uniform(1e-9, 50.0) for _ in range(10_000)])
    worst = np.max(specfun.duplication_residual(zs))
    out.append(VerificationReport("gamma duplication, 1e4 random z in (0, 50]", worst, 1e-12))

    ys = np.linspace(0.25, 25.0, 100)
    states = [make_state(n, s) for n in range(11) for s in S_VALUES]
    # H_N(sqrt y) = (-1)^n (N!/n!) (2 sqrt y)^(2s) F(-n, 2s + 1/2, y), in one
    # call: a column of (a, b) = (-n, 2s + 1/2) against the row ys
    a, b, pref, s = np.array([(-float(st.n), 2.0 * st.s + 0.5,
                               math.factorial(st.N) / math.factorial(st.n) * (-1.0) ** st.n, st.s)
                              for st in states]).T[:, :, None]
    root = np.sqrt(ys)
    lhs = np.array([specfun.hermite(st.N, root) for st in states])
    # (2 sqrt y)^(2s) is 1 or 2 sqrt y, exactly
    rhs = pref * np.where(s == 0.5, 2.0 * root, 1.0) * specfun.kummer_series(a, b, ys)
    worst = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0))
    out.append(VerificationReport("Hermite vs confluent closed form, n <= 10, y in (0, 25]",
                                  worst, 1e-9))

    ys = np.linspace(0.5, 40.0, 40)
    levels = [(n, nu) for n in range(11) for nu in NU_VALUES]
    # Phi_n(y / beta) = C_n y^nu e^(-y/2) F(-n, 2 nu, y), in one call: a
    # column of (a, b) = (-n, 2 nu) against the row ys
    a, b, nu, log_c = np.array([(-float(n), 2.0 * nu, nu,
                                 anyon.log_normalization(n, nu, _UNIT))
                                for n, nu in levels]).T[:, :, None]
    direct = np.array([anyon.wavefunction(n, nu, _UNIT, ys / anyon.beta(n, nu, _UNIT))
                       for n, nu in levels])
    confluent = np.exp(log_c + nu * np.log(ys) - 0.5 * ys) * specfun.kummer_series(a, b, ys)
    worst = np.max(np.max(np.abs(direct - confluent), axis=1) / np.max(np.abs(direct), axis=1))
    out.append(VerificationReport(
        "anyon eigenfunction vs C_n y^nu e^(-y/2) F(-n, 2nu, y), n <= 10", worst, 1e-12))

    us = np.linspace(0.1, 7.0, 40)
    # Psi_N(u) = (-1)^n e^(c - u^2/2) (2u)^(2s) F(-n, 2s + 1/2, u^2), with
    # c = ln(sqrt 2 pi^(-1/4)) - (N ln 2 + ln N!)/2 + ln(N!/n!), in one
    # call: a column of (a, b) = (-n, 2s + 1/2) against the row u^2
    a, b, sign, log_c, s = np.array([
        (-float(st.n), 2.0 * st.s + 0.5, (-1.0) ** st.n,
         0.5 * math.log(2.0) - 0.25 * math.log(math.pi) - 0.5 * st.N * math.log(2.0)
         + 0.5 * specfun.log_gamma(st.N + 1.0) - specfun.log_gamma(st.n + 1.0), st.s)
        for st in states]).T[:, :, None]
    direct = np.array([oscillator.wavefunction(st.N, _UNIT, us) for st in states])
    # (2u)^(2s) is 1 or 2u, exactly
    confluent = (sign * np.exp(log_c - 0.5 * us * us) * np.where(s == 0.5, 2.0 * us, 1.0)
                 * specfun.kummer_series(a, b, us * us))
    worst = np.max(np.max(np.abs(direct - confluent), axis=1) / np.max(np.abs(direct), axis=1))
    out.append(VerificationReport("oscillator eigenfunction vs its confluent form, N <= 21",
                                  worst, 1e-12))

    ys = np.linspace(0.5, 20.0, 40)
    # one call: a column of (a, b) = (-n, 2 nu) against the row ys
    a, b = np.array([(-float(n), 2.0 * nu) for n, nu in levels]).T[:, :, None]
    f = specfun.kummer_series(a, b, ys)
    lag = np.array([specfun.laguerre(n, 2.0 * nu - 1.0, ys) * math.exp(
                        specfun.log_gamma(n + 1.0) + specfun.log_gamma(2.0 * nu)
                        - specfun.log_gamma(n + 2.0 * nu))
                    for n, nu in levels])
    r = np.abs(f - lag) / np.maximum(np.maximum(np.abs(f), np.abs(lag)), 1e-300)
    worst = np.max(r)
    out.append(VerificationReport("confluent polynomial vs Laguerre, n <= 10", worst, 1e-12))

    worst = 0.0
    for nu in NU_VALUES:
        for y in (0.5, 1.0, 2.5, 7.0):
            got = anyon.extended_wavefunction(3, nu, _UNIT, -y) \
                / anyon.extended_wavefunction(3, nu, _UNIT, y)
            worst = max(worst, abs(got - complex(math.cos(math.pi * nu),
                                                 math.sin(math.pi * nu))))
    out.append(VerificationReport("parity extension phase ratio e^(i pi nu)", worst, 1e-12))

    return out


def suite_normalization() -> list[VerificationReport]:
    """Unit norms and second moments against the quadrature oracle."""
    out = []

    worst = 0.0
    for nu in NU_VALUES:
        for n in range(11):
            norm = oracle.integrate(
                lambda x: anyon.wavefunction(n, nu, _UNIT, x) ** 2, 0.0, math.inf,
                tol=1e-10)
            worst = max(worst, abs(norm - 1.0))
    out.append(VerificationReport("anyon norm over (0, inf), n <= 10, both nu", worst, 1e-8))

    worst = 0.0
    for big_n in range(9):
        norm = oracle.integrate(
            lambda u: oscillator.wavefunction(big_n, _UNIT, u) ** 2, 0.0, math.inf,
            tol=1e-12)
        worst = max(worst, abs(norm - 1.0))
    out.append(VerificationReport("oscillator half-line norm, N <= 8", worst, 1e-10))

    worst = 0.0
    for big_n in (0, 1, 3, 6):
        got = oracle.integrate(
            lambda u: u * u * oscillator.wavefunction(big_n, _UNIT, u) ** 2,
            0.0, math.inf, tol=1e-12)
        expected = oscillator.mean_square_displacement(big_n, _UNIT)
        worst = max(worst, abs(got - expected) / expected)
    out.append(VerificationReport("oscillator <u^2> vs closed form", worst, 1e-9))

    worst = 0.0
    for nu in NU_VALUES:
        norm = oracle.integrate(
            lambda y: abs(anyon.extended_wavefunction(2, nu, _UNIT, y)) ** 2,
            -math.inf, math.inf, tol=1e-10)
        worst = max(worst, abs(norm - 1.0))
    out.append(VerificationReport("parity extension full-line norm", worst, 1e-8))

    return out


def suite_duality() -> list[VerificationReport]:
    """The dictionary itself: spectra, constants, wavefunction map, chain."""
    out = []

    worst = 0.0
    for nu in NU_VALUES:
        for n in range(21):
            eps = anyon.energy(n, nu, _UNIT)
            omega = duality.dual_frequency(n, nu, _UNIT)
            worst = max(worst, abs(eps - (-_UNIT.mass * omega * omega / 8.0))
                        / abs(eps))
    out.append(VerificationReport("spectrum dictionary eps = -m omega_n^2/8, n <= 20",
                                  worst, 1e-14))

    worst = max(duality.constant_equality_residual(n, nu)
                for nu in NU_VALUES for n in range(21))
    out.append(VerificationReport("normalization constant equality, n <= 20", worst, 1e-11))

    worst = 0.0
    xs = np.linspace(0.01, 15.0, 1500)
    for n in range(6):
        for s in S_VALUES:
            nu = s + 0.25
            p = _UNIT.with_omega(duality.dual_frequency(n, nu, _UNIT))
            direct = anyon.wavefunction(n, nu, p, xs)
            mapped = duality.map_oscillator_to_anyon(n, s, p, xs)
            worst = max(worst, np.max(np.abs(mapped - direct)) / np.max(np.abs(direct)))
    out.append(VerificationReport("wavefunction map vs direct form on [0.01, 15]",
                                  worst, 1e-8))

    grid = Grid(0.05, 18.0, 7001)
    worst = max(duality.reduction_chain_residual(n, s, _UNIT, grid)
                for n in (0, 2) for s in S_VALUES)
    out.append(VerificationReport("variable-change chain solves the dual equation",
                                  worst, 1e-5))

    worst = 0.0
    for n in (0, 3):
        for nu in NU_VALUES:
            alpha, eps = 1.0, anyon.energy(n, nu, _UNIT)
            e_osc, omega = duality.to_oscillator_params(alpha, eps, _UNIT)
            alpha2, eps2 = duality.to_anyon_params(e_osc, omega, _UNIT)
            worst = max(worst, abs(alpha2 - alpha), abs(eps2 - eps) / abs(eps))
    out.append(VerificationReport("parameter map round trip", worst, 1e-14))

    return out


def suite_oracle() -> list[VerificationReport]:
    """Closed forms against the independent numerical solvers."""
    out = []

    worst = 0.0
    for nu in NU_VALUES:
        brackets = oracle.scan_level_brackets(nu, _UNIT, 3)
        for n, bracket in enumerate(brackets):
            got = oracle.shoot_anyon_energy(oracle.ShootingConfig(nu, bracket), _UNIT, n)
            expected = anyon.energy(n, nu, _UNIT)
            worst = max(worst, abs(got - expected) / abs(expected))
    out.append(VerificationReport("shooting eigenvalues vs closed form, n <= 3, both nu",
                                  worst, 1e-5))

    levels = oracle.fd_oscillator_spectrum(_UNIT, 10.0, 2002, 5)
    worst = abs(levels[0] - oscillator.energy(0, _UNIT))
    out.append(VerificationReport("box eigensolver ground state (L=10, 2002 points)",
                                  worst, 1e-4))
    spacing = max(abs((b - a) - _UNIT.hbar * _UNIT.require_omega())
                  for a, b in zip(levels, levels[1:]))
    out.append(VerificationReport("box eigensolver level spacing hbar omega", spacing, 1e-3))

    got = oracle.integrate(lambda u: np.exp(-u * u), -math.inf, math.inf,
                           tol=1e-12)
    out.append(VerificationReport("quadrature: full-line Gaussian vs sqrt(pi)",
                                  abs(got - math.sqrt(math.pi)), 1e-10))

    worst = 0.0
    for nu in NU_VALUES:
        for n in (0, 1, 4, 8):
            two_nu = 2.0 * nu
            val = oracle.integrate(
                lambda y: np.exp(-y) * y ** two_nu
                * specfun.laguerre(n, two_nu - 1.0, y) ** 2,
                0.0, math.inf, tol=1e-10)
            closed = (2.0 * (n + nu)
                      * math.exp(specfun.log_gamma(n + two_nu)
                                 - specfun.log_gamma(n + 1.0)))
            worst = max(worst, abs(val - closed) / closed)
    out.append(VerificationReport("quadrature: Laguerre norm integral vs closed form",
                                  worst, 1e-8))

    def anyon_residual(n, nu, grid, detune=1.0):
        xs = grid.points()
        phi = anyon.wavefunction(n, nu, _UNIT, xs)
        eps = detune * anyon.energy(n, nu, _UNIT)
        return oracle.ode_residual(xs, phi, lambda x: anyon.potential(x, nu, _UNIT),
                                   eps, _UNIT)

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
    out.append(VerificationReport("differential equation residual of closed forms",
                                  worst, 1e-6))
    # sensitivity control: a 1 percent energy error must NOT pass; the
    # report inverts the scale so "residual below tolerance" means the
    # control stayed loud, above 1e-3
    out.append(VerificationReport("residual sensitivity control (1 percent detuning)",
                                  1e-3 / perturbed_min, 1.0))

    return out


SUITES = {
    "identities": suite_identities,
    "normalization": suite_normalization,
    "duality": suite_duality,
    "oracle": suite_oracle,
}


def run_suites(names) -> list[VerificationReport]:
    """Run the named suites (or all of them) and concatenate the reports.

    names is one name or a list of them, each a key of SUITES or 'all';
    a suite named twice runs once.  Every check keeps its own tolerance.
    """
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
    for name in dict.fromkeys(expanded):    # each suite once, in order
        reports.extend(SUITES[name]())
    return reports
