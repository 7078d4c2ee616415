"""Half-line oscillator: energies, normalized wavefunctions, moments."""

import math

import numpy as np
import pytest

from anyon1d import oracle, oscillator
from anyon1d.core import Grid, PhysicalParams


def test_energy_examples():
    assert oscillator.energy(0, PhysicalParams(1.0, 1.0, omega=1.0)) == 0.5
    assert oscillator.energy(7, PhysicalParams(1.0, 1.0, omega=2.0)) == 15.0
    assert oscillator.energy(1, PhysicalParams(1.0, 2.0, omega=3.0)) == 9.0


def test_energy_requires_omega():
    with pytest.raises(ValueError, match="frequency omega"):
        oscillator.energy(0, PhysicalParams(1.0, 1.0, alpha=1.0))


def test_wavefunction_at_origin():
    p = PhysicalParams(1.0, 1.0, omega=1.0)
    assert oscillator.wavefunction(1, p, 0.0) == 0.0
    expected = math.sqrt(2.0) * math.pi ** -0.25
    assert math.isclose(oscillator.wavefunction(0, p, 0.0), expected,
                        rel_tol=1e-15)


def test_wavefunction_rejects_negative_positions():
    p = PhysicalParams(1.0, 1.0, omega=1.0)
    with pytest.raises(ValueError):
        oscillator.wavefunction(0, p, -0.1)
    with pytest.raises(ValueError):
        oscillator.wavefunction(0, p, np.array([0.5, -0.5]))


def test_wavefunction_array_matches_scalar():
    p = PhysicalParams(2.0, 0.7, omega=3.0)
    us = np.linspace(0.0, 4.0, 17)
    vals = oscillator.wavefunction(4, p, us)
    for u, v in zip(us.tolist(), vals.tolist()):
        assert v == oscillator.wavefunction(4, p, u)


def test_wavefunction_sign_convention():
    # Leading Hermite coefficient positive: the outermost lobe is
    # positive for every N.
    p = PhysicalParams(1.0, 1.0, omega=1.0)
    for big_n in range(9):
        u_far = math.sqrt(2.0 * big_n + 1.0) + 1.0
        assert oscillator.wavefunction(big_n, p, u_far) > 0.0


def test_half_line_normalization():
    p = PhysicalParams(1.0, 1.0, omega=1.0)
    for big_n in range(9):
        norm = oracle.quadrature(
            lambda u: oscillator.wavefunction(big_n, p, u) ** 2,
            0.0, math.inf, tol=1e-12)
        assert abs(norm - 1.0) <= 1e-10


def test_orthogonality_within_parity_class():
    p = PhysicalParams(1.0, 1.0, omega=1.0)
    for big_n in range(0, 9):
        for big_m in range(big_n + 2, 9, 2):
            overlap = oracle.quadrature(
                lambda u: oscillator.wavefunction(big_n, p, u)
                * oscillator.wavefunction(big_m, p, u),
                0.0, math.inf, tol=1e-12)
            assert abs(overlap) <= 1e-8


def test_schroedinger_residual_on_interior_window():
    p = PhysicalParams(1.0, 1.0, omega=1.0)
    us = Grid(0.1, 6.0, 5901).points()
    for big_n in (0, 3, 6):
        psi = oscillator.wavefunction(big_n, p, us)
        res = oracle.ode_residual(us, psi, lambda u: 0.5 * u * u,
                                  oscillator.energy(big_n, p), p)
        assert res <= 1e-6


def test_mean_square_displacement():
    assert oscillator.mean_square_displacement(
        0, PhysicalParams(1.0, 1.0, omega=1.0)) == 0.5
    assert oscillator.mean_square_displacement(
        3, PhysicalParams(1.0, 1.0, omega=1.0)) == 3.5
    assert oscillator.mean_square_displacement(
        0, PhysicalParams(1.0, 1.0, omega=8.0)) == 1.0 / 16.0


def test_mean_square_displacement_matches_quadrature():
    p = PhysicalParams(1.0, 1.0, omega=1.0)
    for big_n in (0, 3):
        moment = oracle.quadrature(
            lambda u: u * u * oscillator.wavefunction(big_n, p, u) ** 2,
            0.0, math.inf, tol=1e-12)
        assert math.isclose(moment,
                            oscillator.mean_square_displacement(big_n, p),
                            rel_tol=1e-9)


def test_displacement_identity_is_exact():
    # 2 <u^2> mu omega / hbar = 4 (n + nu) holds as float identity for
    # power-of-two-friendly parameters.
    for omega in (1.0, 8.0, 0.5):
        p = PhysicalParams(1.0, 1.0, omega=omega)
        for n in range(6):
            for s in (0.0, 0.5):
                big_n = int(2 * n + 2 * s)
                nu = s + 0.25
                lhs = 2.0 * oscillator.mean_square_displacement(big_n, p) * omega
                assert lhs == 4.0 * (n + nu)
