"""Two-way dictionary between the oscillator and the attractive system."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anyon1d import anyon, duality, oracle, oscillator, specfun
from anyon1d.core import Grid, PhysicalParams, make_state, state_from_nu

UNIT = PhysicalParams(1.0, 1.0, alpha=1.0)


def test_to_anyon_params_examples():
    p = PhysicalParams(1.0, 1.0, omega=8.0)
    assert duality.to_anyon_params(4.0, 8.0, p) == (1.0, -8.0)
    q = PhysicalParams(1.0, 1.0, omega=2.0)
    assert duality.to_anyon_params(2.0, 2.0, q) == (0.5, -0.5)
    with pytest.raises(ValueError):
        duality.to_anyon_params(-4.0, 8.0, p)
    with pytest.raises(ValueError):
        duality.to_anyon_params(4.0, 0.0, p)
    for bad in (True, "2", math.inf):
        with pytest.raises(ValueError, match="oscillator energy E"):
            duality.to_anyon_params(bad, 1.0, p)
        with pytest.raises(ValueError, match="frequency omega"):
            duality.to_anyon_params(4.0, bad, p)


def test_to_oscillator_params_validation():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    assert duality.to_oscillator_params(1.0, -8.0, p) == (4.0, 8.0)
    for bad in (0.0, -1.0, True, "1", math.inf):
        with pytest.raises(ValueError, match="coupling alpha"):
            duality.to_oscillator_params(bad, -8.0, p)
    for bad in (0.0, 1.0, True, "-8", -math.inf, math.nan):
        with pytest.raises(ValueError, match="bound-state energy epsilon"):
            duality.to_oscillator_params(1.0, bad, p)


@given(
    energy=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    omega=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
def test_parameter_round_trip(energy, omega):
    p = PhysicalParams(1.0, 1.0, omega=omega)
    alpha, eps = duality.to_anyon_params(energy, omega, p)
    back_e, back_w = duality.to_oscillator_params(alpha, eps, p)
    assert math.isclose(back_e, energy, rel_tol=1e-15)
    assert math.isclose(back_w, omega, rel_tol=1e-15)


def test_parameter_maps_never_return_an_infinity():
    with pytest.raises(ValueError, match="frequency omega"):
        duality.to_anyon_params(1.0, 1e200, PhysicalParams(1.0, 1.0))
    with pytest.raises(ValueError, match="bound-state energy epsilon"):
        duality.to_oscillator_params(1e300, -1e300, PhysicalParams(1e-100, 1.0))
    with pytest.raises(ValueError, match="coupling alpha"):
        duality.to_oscillator_params(1e308, -1.0, PhysicalParams(1.0, 1.0))


def test_dual_frequency_examples():
    assert duality.dual_frequency(0, 0.25, UNIT) == 8.0
    assert math.isclose(duality.dual_frequency(1, 0.75, UNIT), 8.0 / 7.0,
                        rel_tol=1e-15)


def test_map_matches_closed_form_ground_state():
    # n = 0, s = 0: the mapped Gaussian becomes the exponential ground
    # state of the attractive problem under u^2 = x.
    p = UNIT.with_omega(duality.dual_frequency(0, 0.25, UNIT))
    b = anyon.beta(0, 0.25, UNIT)
    c = math.exp(anyon.log_normalization(0, 0.25, UNIT))
    xs = np.linspace(0.01, 12.0, 400)
    mapped = duality.map_oscillator_to_anyon(0, 0.0, p, xs)
    closed = c * (b * xs) ** 0.25 * np.exp(-0.5 * b * xs)
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(mapped - closed)) <= 1e-10 * scale


def test_map_agrees_with_direct_eigenfunction():
    for n, s in [(0, 0.0), (1, 0.5), (3, 0.0), (5, 0.5)]:
        nu = s + 0.25
        p = UNIT.with_omega(duality.dual_frequency(n, nu, UNIT))
        xs = np.linspace(0.01, 15.0, 600)
        mapped = duality.map_oscillator_to_anyon(n, s, p, xs)
        direct = anyon.wavefunction(n, nu, p, xs)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(mapped - direct)) <= 1e-8 * scale


def test_map_is_positive_near_origin():
    for n in range(4):
        for s in (0.0, 0.5):
            nu = s + 0.25
            p = UNIT.with_omega(duality.dual_frequency(n, nu, UNIT))
            assert duality.map_oscillator_to_anyon(n, s, p, 1e-6) > 0.0


def test_map_rejects_detuned_frequency():
    good = duality.dual_frequency(2, 0.25, UNIT)
    p = UNIT.with_omega(1.05 * good)
    with pytest.raises(ValueError, match="not recomputed silently"):
        duality.map_oscillator_to_anyon(2, 0.0, p, 1.0)


def test_map_rejects_nonpositive_x():
    p = UNIT.with_omega(duality.dual_frequency(0, 0.25, UNIT))
    with pytest.raises(ValueError):
        duality.map_oscillator_to_anyon(0, 0.0, p, 0.0)


def test_map_names_x_past_its_upper_bound():
    # x maps to u = sqrt(x), which the oscillator reads up to
    # u_max = RECURRENCE_ARG_MAX / sqrt(m omega/hbar); the bound on x is
    # u_max^2, and the message names x, the argument the caller gave
    p = UNIT.with_omega(duality.dual_frequency(0, 0.25, UNIT))
    scale = math.sqrt(p.mass * p.omega / p.hbar)
    u_max = specfun.RECURRENCE_ARG_MAX / scale
    x_max = u_max * u_max
    assert math.isfinite(duality.map_oscillator_to_anyon(0, 0.0, p, x_max))
    for bad in (1e301, [1.0, 1e301]):
        with pytest.raises(ValueError, match=r"^x must lie in \(0, .*got x = 1e\+301$"):
            duality.map_oscillator_to_anyon(0, 0.0, p, bad)
    # at the smallest m omega/hbar, u_max^2 is past the float range and
    # every finite x is read, while an infinite one is still refused by name
    tiny = PhysicalParams(1e-100, 1e100, alpha=1e100)
    tiny = tiny.with_omega(duality.dual_frequency(0, 0.25, tiny))
    assert duality.map_oscillator_to_anyon(0, 0.0, tiny, 1e308) == 0.0
    with pytest.raises(ValueError, match=r"^x must lie in \(0, .*got x = inf$"):
        duality.map_oscillator_to_anyon(0, 0.0, tiny, math.inf)


def test_constant_equality_examples():
    assert duality.constant_equality_residual(0, 0.25) < 1e-14
    assert duality.constant_equality_residual(5, 0.75) < 1e-12


def test_reduction_chain_residual():
    grid = Grid(0.1, 10.0, 9901)
    for n, s in [(0, 0.0), (2, 0.5)]:
        nu = s + 0.25
        p = UNIT.with_omega(duality.dual_frequency(n, nu, UNIT))
        assert duality.reduction_chain_residual(n, s, p, grid) <= 1e-5


def test_reduction_chain_detects_wrong_eigenvalue():
    # The detuning window tracks each state's classically allowed
    # region; far inside it the residual normalization is dominated by
    # the singular part of the potential, which would mute the probe.
    cases = [(0, 0.0, Grid(0.1, 10.0, 9901)),
             (2, 0.5, Grid(3.78, 16.6, 4001))]
    # The detuned control feeds the same mapped function to the residual
    # at 1.01 eps.
    for n, s, grid in cases:
        nu = s + 0.25
        p = UNIT.with_omega(duality.dual_frequency(n, nu, UNIT))
        assert duality.reduction_chain_residual(n, s, p, grid) <= 1e-5
        alpha, eps = duality.to_anyon_params(oscillator.energy(make_state(n, s).N, p), p.omega, p)
        dual = PhysicalParams(p.mass, p.hbar, alpha=alpha, omega=p.omega)
        xs = grid.points()
        assert oracle.ode_residual(
            xs, duality.map_oscillator_to_anyon(n, s, dual, xs),
            lambda x: anyon.potential(x, nu, dual), 1.01 * eps, p) > 1e-3


def test_reduction_chain_rejects_grid_touching_zero():
    p = UNIT.with_omega(duality.dual_frequency(0, 0.25, UNIT))
    with pytest.raises(ValueError):
        duality.reduction_chain_residual(0, 0.0, p, Grid(0.0, 10.0, 101))


def test_parameter_maps_from_both_sides():
    eps = anyon.energy(1, 0.75, UNIT)
    energy, omega = duality.to_oscillator_params(1.0, eps, UNIT)
    assert state_from_nu(1, 0.75).N == 3
    assert energy == 4.0
    assert math.isclose(omega, 8.0 / 7.0, rel_tol=1e-15)
    assert math.isclose(eps, -1.0 / (2.0 * 1.75 ** 2), rel_tol=1e-15)

    p = PhysicalParams(1.0, 1.0, omega=8.0 / 7.0)
    alpha, back = duality.to_anyon_params(
        oscillator.energy(make_state(1, 0.5).N, p), 8.0 / 7.0, p)
    assert math.isclose(alpha, 1.0, rel_tol=1e-14)
    assert math.isclose(back, eps, rel_tol=1e-14)


def test_quantization_swap_through_the_maps_composes_to_identity():
    for nu in (0.25, 0.75):
        for n in range(21):
            eps = anyon.energy(n, nu, UNIT)
            _, omega = duality.to_oscillator_params(1.0, eps, UNIT)
            p = PhysicalParams(1.0, 1.0, omega=omega)
            energy = oscillator.energy(make_state(n, nu - 0.25).N, p)
            alpha, back = duality.to_anyon_params(energy, omega, p)
            assert math.isclose(alpha, 1.0, rel_tol=1e-14)
            assert math.isclose(back, eps, rel_tol=1e-14)
