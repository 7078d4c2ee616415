"""Independent numerical machinery: quadrature, residuals, eigensolvers."""

import dataclasses
import math

import numpy as np
import pytest

from anyon1d import anyon, duality, oracle, oscillator
from anyon1d.core import ConvergenceError, Grid, PhysicalParams

UNIT = PhysicalParams(1.0, 1.0, alpha=1.0, omega=1.0)


def test_quadrature_polynomial():
    got = oracle.quadrature(lambda y: y * y, 0.0, 1.0, tol=1e-12)
    assert abs(got - 1.0 / 3.0) <= 1e-12


def test_quadrature_orientation_and_degenerate_range():
    assert oracle.quadrature(lambda y: y, 1.0, 1.0) == 0.0
    forward = oracle.quadrature(lambda y: y * y, 0.0, 1.0, tol=1e-12)
    backward = oracle.quadrature(lambda y: y * y, 1.0, 0.0, tol=1e-12)
    assert backward == -forward


def test_quadrature_full_line_gaussian():
    got = oracle.quadrature(lambda u: math.exp(-u * u), -math.inf, math.inf,
                            tol=1e-12)
    assert abs(got - math.sqrt(math.pi)) <= 1e-10


def test_quadrature_semi_infinite_exponential():
    got = oracle.quadrature(math.exp, -math.inf, 0.0, tol=1e-12)
    assert abs(got - 1.0) <= 1e-12


def test_quadrature_endpoint_power_singularity():
    # Fractional-power behavior at the left endpoint, of the kind the
    # origin exponents x^(2 nu) produce in norm integrands.
    got = oracle.quadrature(lambda x: x ** 0.5, 0.0, 1.0, tol=1e-12)
    assert abs(got - 2.0 / 3.0) <= 1e-11
    got = oracle.quadrature(lambda x: x ** 1.5, 0.0, 1.0, tol=1e-12)
    assert abs(got - 0.4) <= 1e-12


def test_quadrature_laguerre_norm_closed_form():
    from anyon1d import specfun

    for nu in (0.25, 0.75):
        two_nu = 2.0 * nu
        for n in range(9):
            got = oracle.quadrature(
                lambda y: math.exp(-y) * y ** two_nu
                * specfun.laguerre(n, two_nu - 1.0, y) ** 2,
                0.0, math.inf, tol=1e-10)
            closed = 2.0 * (n + nu) * math.exp(
                specfun.log_gamma(n + two_nu) - specfun.log_gamma(n + 1.0))
            assert abs(got - closed) <= 1e-8 * closed


def test_quadrature_reports_nonconvergence():
    with pytest.raises(ConvergenceError):
        oracle.quadrature(lambda y: 1.0, 0.0, math.inf, tol=1e-10)


def test_ode_residual_reference_state():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    q = p.with_omega(duality.dual_frequency(0, 0.25, p))
    xs = Grid(0.1, 10.0, 9901).points()
    phi = anyon.wavefunction(0, 0.25, q, xs)
    eps = anyon.energy(0, 0.25, q)
    pot = lambda x: anyon.potential(x, 0.25, q)
    assert oracle.ode_residual(xs, phi, pot, eps, q) <= 1e-6
    assert oracle.ode_residual(xs, phi, pot, 1.01 * eps, q) >= 1e-3
    # complex samples with a constant phase give the same residual, up
    # to the rounding that dominates it
    twisted = np.exp(0.75j * np.pi) * phi
    assert math.isclose(oracle.ode_residual(xs, twisted, pot, eps, q),
                        oracle.ode_residual(xs, phi, pot, eps, q), rel_tol=1e-3)


def test_ode_residual_input_validation():
    pot = lambda x: 0.0
    xs = 0.1 * np.arange(1, 10)
    with pytest.raises(ValueError, match="trivial function"):
        oracle.ode_residual(xs, np.zeros(9), pot, -1.0, UNIT)
    with pytest.raises(ValueError, match="at least 7"):
        oracle.ode_residual(xs[:3], np.ones(3), pot, -1.0, UNIT)
    with pytest.raises(ValueError, match="one length"):
        oracle.ode_residual(xs, np.ones(8), pot, -1.0, UNIT)
    uneven = np.array([0.1, 0.2, 0.35, 0.4, 0.5, 0.6, 0.7])
    with pytest.raises(ValueError, match="uniform"):
        oracle.ode_residual(uneven, np.ones(7), pot, -1.0, UNIT)
    with pytest.raises(ValueError, match="trivial drive"):
        oracle.ode_residual(xs, np.ones(9), pot, 0.0, UNIT)


def test_fd_spectrum_ground_state_and_spacing():
    levels = oracle.fd_oscillator_spectrum(UNIT, 10.0, 2001, 5)
    assert abs(levels[0] - 0.5) <= 1e-4
    for k, (a, b) in enumerate(zip(levels, levels[1:])):
        assert abs((b - a) - 1.0) <= 1e-3


def test_fd_spectrum_second_order_convergence():
    coarse = oracle.fd_oscillator_spectrum(UNIT, 10.0, 1001, 1)[0]
    fine = oracle.fd_oscillator_spectrum(UNIT, 10.0, 2001, 1)[0]
    ratio = abs(coarse - 0.5) / abs(fine - 0.5)
    assert 3.5 <= ratio <= 4.5


def test_fd_spectrum_input_validation():
    with pytest.raises(ValueError):
        oracle.fd_oscillator_spectrum(UNIT, 10.0, 50, 1)
    with pytest.raises(ValueError):
        oracle.fd_oscillator_spectrum(UNIT, 10.0, 2001, 0)
    with pytest.raises(ValueError):
        oracle.fd_oscillator_spectrum(UNIT, 10.0, 2001, 21)
    with pytest.raises(ValueError):
        oracle.fd_oscillator_spectrum(UNIT, -1.0, 2001, 1)


def test_shooting_config_validation():
    good = dict(nu=0.25, x_start=1e-4, x_match=0.1, x_end=30.0, step=1e-5,
                energy_bracket=(-9.0, -7.0))
    oracle.ShootingConfig(**good)
    with pytest.raises(ValueError, match="nu"):
        oracle.ShootingConfig(**{**good, "nu": 0.5})
    with pytest.raises(ValueError):
        oracle.ShootingConfig(**{**good, "x_match": 1e-5})
    with pytest.raises(ValueError):
        oracle.ShootingConfig(**{**good, "step": 0.0})
    with pytest.raises(ValueError):
        oracle.ShootingConfig(**{**good, "energy_bracket": (-7.0, -9.0)})
    with pytest.raises(ValueError):
        oracle.ShootingConfig(**{**good, "energy_bracket": (-7.0, 1.0)})
    with pytest.raises(ValueError):
        oracle.ShootingConfig(**{**good, "tolerance": -1e-9})


def _level_config(nu: float, n: int) -> oracle.ShootingConfig:
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    brackets = oracle.scan_level_brackets(nu, p, n)
    return oracle.shooting_config_for_level(nu, p, n, brackets[n])


def test_shooting_reproduces_lowest_levels():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    for nu in (0.25, 0.75):
        for n in range(3):
            cfg = _level_config(nu, n)
            got = oracle.shoot_anyon_energy(cfg, p, n)
            expected = anyon.energy(n, nu, p)
            assert abs(got - expected) <= 1e-5 * abs(expected)


def test_shooting_boundary_exponent_is_the_only_difference():
    # Same bracket, same potential, same grid geometry: only the origin
    # exponent differs, and it alone selects which tower the eigenvalue
    # comes from.
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    bracket = (-10.0, -0.5)
    cfg_q = oracle.shooting_config_for_level(0.25, p, 0, bracket)
    cfg_t = oracle.shooting_config_for_level(0.75, p, 0, bracket)
    fields_q = dataclasses.asdict(cfg_q)
    fields_t = dataclasses.asdict(cfg_t)
    assert fields_q.pop("nu") == 0.25
    assert fields_t.pop("nu") == 0.75
    assert fields_q == fields_t

    eps_q = oracle.shoot_anyon_energy(cfg_q, p, 0)
    eps_t = oracle.shoot_anyon_energy(cfg_t, p, 0)
    assert abs(eps_q - (-8.0)) <= 1e-5 * 8.0
    assert abs(eps_t - (-8.0 / 9.0)) <= 1e-5 * (8.0 / 9.0)


def test_shooting_rejects_empty_bracket():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    cfg = _level_config(0.25, 0)
    empty = dataclasses.replace(cfg, energy_bracket=(-7.0, -6.0))
    with pytest.raises(ValueError, match="does not straddle"):
        oracle.shoot_anyon_energy(empty, p, 0)


def test_shooting_checks_node_count():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    cfg = _level_config(0.25, 0)
    with pytest.raises(ConvergenceError, match="nodes"):
        oracle.shoot_anyon_energy(cfg, p, 1)


def test_shooting_start_point_insensitivity():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    cfg = _level_config(0.25, 0)
    eps = oracle.shoot_anyon_energy(cfg, p, 0)
    halved = dataclasses.replace(cfg, x_start=0.5 * cfg.x_start,
                                 step=0.5 * cfg.step)
    eps_halved = oracle.shoot_anyon_energy(halved, p, 0)
    assert abs(eps_halved - eps) <= 1e-6 * abs(eps)


def test_shooting_is_deterministic():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    cfg = _level_config(0.75, 1)
    first = oracle.shoot_anyon_energy(cfg, p, 1)
    second = oracle.shoot_anyon_energy(cfg, p, 1)
    assert first == second


def test_scan_level_brackets_contain_the_spectrum():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    for nu in (0.25, 0.75):
        brackets = oracle.scan_level_brackets(nu, p, 4)
        assert len(brackets) == 5
        for n, (lo, hi) in enumerate(brackets):
            eps = anyon.energy(n, nu, p)
            assert lo < eps < hi
