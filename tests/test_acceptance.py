"""Top-level acceptance battery.

Each test covers one headline guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line with the observed worst
residual, so a verbose run doubles as a verification report.
"""

import dataclasses
import math
import random

import numpy as np

from anyon1d import anyon, duality, oracle, oscillator, specfun
from anyon1d.core import Grid, PhysicalParams

BASE = PhysicalParams(1.0, 1.0, alpha=1.0)
NUS = (0.25, 0.75)


def report(label: str, worst: float, tol: float, *, above: bool = False):
    ok = worst > tol if above else worst <= tol
    word = "above" if above else "vs tolerance"
    print(f"{'PASS' if ok else 'FAIL'} {label}: worst {worst:.6e} {word} {tol:.0e}")
    assert ok


def test_criterion_1_spectrum_duality():
    worst = 0.0
    for nu in NUS:
        for n in range(21):
            eps = anyon.energy(n, nu, BASE)
            omega = duality.dual_frequency(n, nu, BASE)
            quantized = -BASE.mass * omega * omega / 8.0
            worst = max(worst, abs(eps - quantized) / abs(eps))
    report("spectrum duality, n <= 20, both nu", worst, 1e-14)


def test_criterion_2_shooting_oracle_spectrum():
    sample = np.linspace(0.3, 12.0, 7)
    same = [anyon.potential(x, 0.25, BASE) == anyon.potential(x, 0.75, BASE)
            for x in sample]
    assert all(same)

    worst = 0.0
    for nu in NUS:
        brackets = oracle.scan_level_brackets(nu, BASE, 3)
        for n in range(4):
            cfg = oracle.shooting_config_for_level(nu, BASE, n, brackets[n])
            got = oracle.shoot_anyon_energy(cfg, BASE, n)
            expected = anyon.energy(n, nu, BASE)
            worst = max(worst, abs(got - expected) / abs(expected))

    cfg_q = oracle.shooting_config_for_level(0.25, BASE, 0, (-10.0, -0.5))
    cfg_t = oracle.shooting_config_for_level(0.75, BASE, 0, (-10.0, -0.5))
    assert dataclasses.replace(cfg_q, nu=0.75) == cfg_t
    eps_q = oracle.shoot_anyon_energy(cfg_q, BASE, 0)
    eps_t = oracle.shoot_anyon_energy(cfg_t, BASE, 0)
    worst = max(worst, abs(eps_q + 8.0) / 8.0,
                abs(eps_t + 8.0 / 9.0) / (8.0 / 9.0))
    report("shooting eigenvalues, n <= 3, shared potential", worst, 1e-5)


def test_criterion_3_finite_difference_oracle():
    unit = PhysicalParams(1.0, 1.0, omega=1.0)
    fine = oracle.fd_oscillator_spectrum(unit, 10.0, 2001, 1)[0]
    coarse = oracle.fd_oscillator_spectrum(unit, 10.0, 1001, 1)[0]
    ratio = abs(coarse - 0.5) / abs(fine - 0.5)
    assert 3.5 <= ratio <= 4.5
    report(f"finite-difference ground state (order ratio {ratio:.2f})",
           abs(fine - 0.5), 1e-4)


def test_criterion_4_normalization():
    worst_anyon = 0.0
    for nu in NUS:
        p = BASE
        for n in range(11):
            q = p.with_omega(duality.dual_frequency(n, nu, p))
            norm = oracle.quadrature(
                lambda x: anyon.wavefunction(n, nu, q, x) ** 2,
                0.0, math.inf, tol=1e-11)
            worst_anyon = max(worst_anyon, abs(norm - 1.0))
    worst_osc = 0.0
    unit = PhysicalParams(1.0, 1.0, omega=1.0)
    for big_n in range(9):
        norm = oracle.quadrature(
            lambda u: oscillator.wavefunction(big_n, unit, u) ** 2,
            0.0, math.inf, tol=1e-12)
        worst_osc = max(worst_osc, abs(norm - 1.0))
    report("anyon norms, n <= 10", worst_anyon, 1e-8)
    report("oscillator norms, N <= 8", worst_osc, 1e-10)


def test_criterion_5_wavefunction_map():
    xs = np.linspace(0.01, 15.0, 600)
    worst = 0.0
    for n in range(6):
        for s in (0.0, 0.5):
            nu = s + 0.25
            p = BASE.with_omega(duality.dual_frequency(n, nu, BASE))
            mapped = duality.map_oscillator_to_anyon(n, s, p, xs)
            direct = anyon.wavefunction(n, nu, p, xs)
            scale = np.max(np.abs(direct))
            worst = max(worst, float(np.max(np.abs(mapped - direct))) / scale)
    report("square-root map vs direct eigenfunctions", worst, 1e-8)


def test_criterion_6_constant_equality():
    worst = 0.0
    for nu in NUS:
        for n in range(21):
            worst = max(worst, duality.constant_equality_residual(n, nu))
    report("normalization constants, two routes, n <= 20", worst, 1e-11)


def test_criterion_7_identity_suite():
    worst_link = 0.0
    for n in range(11):
        for s in (0.0, 0.5):
            for y in np.arange(0.1, 25.01, 0.1):
                scale = abs(specfun.hermite(2 * n + int(2 * s), math.sqrt(y)))
                rel = specfun.hermite_kummer_residual(n, s, float(y)) / max(scale, 1.0)
                worst_link = max(worst_link, rel)
    report("Hermite-Kummer link, n <= 10, y in (0, 25]", worst_link, 1e-9)

    rng = random.Random(20260816)
    worst_dup = max(specfun.duplication_residual(rng.uniform(1e-6, 50.0))
                    for _ in range(10 ** 4))
    report("gamma duplication on 10^4 random points", worst_dup, 1e-12)

    worst_tr = 0.0
    for _ in range(500):
        a = rng.uniform(-8.0, 8.0)
        b = rng.uniform(0.25, 12.0)
        y = rng.uniform(-30.0, 30.0)
        lhs = specfun.kummer_series(a, b, y)
        rhs = math.exp(y) * specfun.kummer_series(b - a, b, -y)
        worst_tr = max(worst_tr,
                       abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    report("Kummer transformation, |y| <= 30", worst_tr, 1e-10)


def _anyon_residual(n, nu, grid, detune=1.0):
    p = BASE.with_omega(duality.dual_frequency(n, nu, BASE))
    xs = grid.points()
    phi = anyon.wavefunction(n, nu, p, xs)
    eps = detune * anyon.energy(n, nu, p)
    return oracle.ode_residual(xs, phi, lambda x: anyon.potential(x, nu, p),
                               eps, p)


def _osc_residual(big_n, detune=1.0):
    unit = PhysicalParams(1.0, 1.0, omega=1.0)
    us = Grid(0.1, 6.0, 5901).points()
    psi = oscillator.wavefunction(big_n, unit, us)
    pot = lambda u: 0.5 * u * u
    return oracle.ode_residual(us, psi, pot,
                               detune * oscillator.energy(big_n, unit), unit)


def test_criterion_8_ode_residuals_and_sensitivity():
    worst = 0.0
    for nu in NUS:
        for n in range(6):
            worst = max(worst, _anyon_residual(n, nu, Grid(0.05, 20.0, 19951)))
    for big_n in range(9):
        worst = max(worst, _osc_residual(big_n))
    report("eigenfunction ODE residuals", worst, 1e-6)

    # Detuning must be loud on windows that track each state's classically
    # allowed region; far outside it the normalizing drive term is dominated
    # by the centrifugal edge and a 1% energy shift is structurally muted.
    quietest = _anyon_residual(0, 0.25, Grid(0.1, 10.0, 9901), detune=1.01)
    for big_n in (0, 1, 5):
        quietest = min(quietest, _osc_residual(big_n, detune=1.01))
    for nu in NUS:
        for n in (0, 1, 3, 5):
            lam = n + nu
            x_turn = 2.0 * lam * lam
            window = Grid(max(0.25 * x_turn, 0.1), max(1.1 * x_turn, 10.0), 4001)
            quietest = min(quietest, _anyon_residual(n, nu, window, detune=1.01))
    report("1% detuning response", quietest, 1e-3, above=True)


def test_criterion_9_parity_extension():
    worst_phase = 0.0
    worst_norm = 0.0
    for nu in NUS:
        phase = complex(math.cos(math.pi * nu), math.sin(math.pi * nu))
        for n in (0, 1, 4):
            for y in (0.3, 1.7, 5.0):
                ratio = (anyon.extended_wavefunction(n, nu, BASE, -y)
                         / anyon.extended_wavefunction(n, nu, BASE, y))
                worst_phase = max(worst_phase, abs(ratio - phase))
            norm = oracle.quadrature(
                lambda y: abs(anyon.extended_wavefunction(n, nu, BASE, y)) ** 2,
                -math.inf, math.inf, tol=1e-11)
            worst_norm = max(worst_norm, abs(norm - 1.0))
    report("parity phase", worst_phase, 1e-12)
    report("full-line norm", worst_norm, 1e-8)
