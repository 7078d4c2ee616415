"""Coulomb plus inverse-square system: potential, spectrum, eigenfunctions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anyon1d import anyon, oracle
from anyon1d.core import PhysicalParams

UNIT = PhysicalParams(1.0, 1.0, alpha=1.0)


def test_potential_value():
    assert anyon.potential(1.0, 0.25, UNIT) == -1.0 - 3.0 / 32.0
    assert anyon.potential(1.0, 0.25, UNIT) == -1.09375


@given(x=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_both_exponents_share_one_potential(x):
    # nu (1 - nu) = 3/16 for both allowed exponents, so the potentials
    # agree exactly; only the origin boundary condition distinguishes
    # the two towers.
    assert anyon.potential(x, 0.25, UNIT) == anyon.potential(x, 0.75, UNIT)


def test_potential_vanishes_from_below_at_infinity():
    v = anyon.potential(1e9, 0.25, UNIT)
    assert -1e-8 < v < 0.0


def test_potential_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        anyon.potential(0.0, 0.25, UNIT)
    with pytest.raises(ValueError):
        anyon.potential(-1.0, 0.75, UNIT)


def test_energy_examples():
    assert anyon.energy(0, 0.25, UNIT) == -8.0
    assert math.isclose(anyon.energy(0, 0.75, UNIT), -8.0 / 9.0,
                        rel_tol=1e-15)
    assert math.isclose(anyon.energy(1, 0.75, UNIT), -1.0 / (2.0 * 1.75 ** 2),
                        rel_tol=1e-15)
    assert math.isclose(anyon.energy(1, 0.25, UNIT), -0.32, rel_tol=1e-15)


def test_spectrum_ordering_and_interlacing():
    eps_q = [anyon.energy(n, 0.25, UNIT) for n in range(14)]
    eps_t = [anyon.energy(n, 0.75, UNIT) for n in range(14)]
    for a, b in zip(eps_q, eps_q[1:]):
        assert a < b < 0.0
    for a, b in zip(eps_q, eps_t):
        assert a < b < 0.0
    for n in range(13):
        assert eps_q[n] < eps_t[n] < eps_q[n + 1]
    assert abs(anyon.energy(4000, 0.25, UNIT)) < 1e-7


def test_beta_is_the_inverse_length_of_the_state():
    for nu in (0.25, 0.75):
        for n in range(4):
            lam = n + nu
            eps = anyon.energy(n, nu, UNIT)
            assert math.isclose(anyon.beta(n, nu, UNIT), 2.0 / lam,
                                rel_tol=1e-15)
            assert math.isclose(anyon.beta(n, nu, UNIT),
                                math.sqrt(-8.0 * eps), rel_tol=1e-14)


def test_ground_state_constant():
    expected = 4.0 * math.pi ** -0.25
    assert math.isclose(anyon.normalization_constant(0, 0.25, UNIT), expected,
                        rel_tol=1e-14)


def test_wavefunction_small_x_behavior():
    for nu in (0.25, 0.75):
        for n in (0, 2):
            c = anyon.normalization_constant(n, nu, UNIT)
            b = anyon.beta(n, nu, UNIT)
            x = 1e-9
            ratio = anyon.wavefunction(n, nu, UNIT, x) / x ** nu
            assert math.isclose(ratio, c * b ** nu, rel_tol=1e-7)
            assert anyon.wavefunction(n, nu, UNIT, 1e-6) > 0.0


def test_wavefunction_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        anyon.wavefunction(0, 0.25, UNIT, 0.0)
    with pytest.raises(ValueError):
        anyon.wavefunction(0, 0.25, UNIT, np.array([1.0, -2.0]))


def test_wavefunction_array_matches_scalar():
    xs = np.linspace(0.05, 30.0, 23)
    vals = anyon.wavefunction(3, 0.75, UNIT, xs)
    for x, v in zip(xs.tolist(), vals.tolist()):
        assert v == anyon.wavefunction(3, 0.75, UNIT, x)


def test_normalization_in_x():
    for nu in (0.25, 0.75):
        for n in range(11):
            norm = oracle.quadrature(
                lambda x: anyon.wavefunction(n, nu, UNIT, x) ** 2,
                0.0, math.inf, tol=1e-11)
            assert abs(norm - 1.0) <= 1e-8


def test_orthogonality_at_fixed_nu():
    for nu in (0.25, 0.75):
        for n in range(0, 7):
            for m in range(n + 1, 7):
                overlap = oracle.quadrature(
                    lambda x: anyon.wavefunction(n, nu, UNIT, x)
                    * anyon.wavefunction(m, nu, UNIT, x),
                    0.0, math.inf, tol=1e-11)
                assert abs(overlap) <= 1e-7


def test_far_tail_underflows_to_exact_zero():
    # Far enough out that the true value is below the smallest
    # subnormal, the sampled value is exactly 0.0 by contract.
    b = anyon.beta(0, 0.25, UNIT)
    x = 1600.0 / b
    assert anyon.wavefunction(0, 0.25, UNIT, x) == 0.0


def test_deep_tail_matches_ground_state_form():
    # Around y = 700, where e^(-y/2) alone nears the smallest normal
    # float, the value must still follow the analytic ground-state form
    # C y^nu e^(-y/2) to full relative precision.
    b = anyon.beta(0, 0.25, UNIT)
    log_c = anyon.log_normalization(0, 0.25, UNIT)
    xs = np.array([696.0, 698.0, 700.0, 702.0, 704.0]) / b
    vals = anyon.wavefunction(0, 0.25, UNIT, xs)
    assert np.all(vals > 0.0)
    ys = b * xs
    expected = np.exp(log_c + 0.25 * np.log(ys) - 0.5 * ys)
    assert np.allclose(vals, expected, rtol=1e-12)


def test_extended_wavefunction_parity():
    p = UNIT
    for nu in (0.25, 0.75):
        phase = cmath.exp(1j * math.pi * nu)
        for n in (0, 1, 3):
            for y in (0.3, 1.7, 9.0):
                plus = anyon.extended_wavefunction(n, nu, p, y)
                minus = anyon.extended_wavefunction(n, nu, p, -y)
                assert abs(abs(minus) - abs(plus)) <= 1e-15 * abs(plus)
                if plus != 0:
                    assert abs(minus / plus - phase) <= 1e-12


def test_extended_wavefunction_rejects_origin():
    with pytest.raises(ValueError):
        anyon.extended_wavefunction(0, 0.25, UNIT, 0.0)


def test_extended_wavefunction_full_line_norm():
    for nu in (0.25, 0.75):
        for n in (0, 2):
            norm = oracle.quadrature(
                lambda y: abs(anyon.extended_wavefunction(n, nu, UNIT, y)) ** 2,
                -math.inf, math.inf, tol=1e-11)
            assert abs(norm - 1.0) <= 1e-8


def test_boundary_selection_report():
    rep = anyon.boundary_selection_report(0.75)
    assert rep.retained_exponent == 0.75
    assert rep.reason == "singular second solution"
    assert rep.rejected_exponent == -0.5
    assert rep.quantization == "lambda = n + nu"

    rep = anyon.boundary_selection_report(0.25)
    assert rep.retained_exponent == 0.25
    assert rep.reason == "incompatible double quantization"
    assert rep.rejected_exponent == 0.5
    assert rep.quantization == "lambda = n + nu"

    with pytest.raises(ValueError):
        anyon.boundary_selection_report(0.3)
