"""Quantum-number bookkeeping, parameter validation, grids, and report types."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anyon1d.core import (
    Grid,
    PhysicalParams,
    VerificationReport,
    make_state,
    state_from_nu,
    validate_params,
)


def test_make_state_examples():
    assert make_state(0, 0.0).nu == 0.25
    assert make_state(0, 0.0).N == 0
    assert make_state(0, 0.5).nu == 0.75
    assert make_state(0, 0.5).N == 1
    state = make_state(3, 0.5)
    assert state.nu == 0.75
    assert state.N == 7


@given(n=st.integers(min_value=0, max_value=10_000),
       s=st.sampled_from([0.0, 0.5]))
def test_quantum_numbers_are_exact(n, s):
    state = make_state(n, s)
    # 1/4 and 1/2 are exact binary fractions, so these hold with == .
    assert state.nu - state.s == 0.25
    assert state.N - 2 * state.n - 2 * state.s == 0
    assert state.n + state.nu == n + s + 0.25


def test_make_state_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_state(-1, 0.0)
    with pytest.raises(ValueError):
        make_state(0, 0.3)
    with pytest.raises(ValueError):
        make_state(0, 1.0)


def test_state_from_nu():
    assert state_from_nu(2, 0.25).s == 0.0
    assert state_from_nu(2, 0.75).s == 0.5
    assert state_from_nu(2, 0.75).N == 5
    with pytest.raises(ValueError):
        state_from_nu(2, 0.3)


def test_validate_params_accepts_unit_system():
    validate_params(PhysicalParams(1.0, 1.0, omega=1.0))
    validate_params(PhysicalParams(2.5, 0.5, alpha=3.0))


def test_validate_params_names_offending_field():
    with pytest.raises(ValueError, match="mass"):
        PhysicalParams(-1.0, 1.0, omega=1.0)
    with pytest.raises(ValueError, match="hbar"):
        PhysicalParams(1.0, 0.0, omega=1.0)
    with pytest.raises(ValueError, match="coupling"):
        PhysicalParams(1.0, 1.0, alpha=0.0)
    with pytest.raises(ValueError, match="frequency"):
        PhysicalParams(1.0, 1.0, omega=-2.0)


def test_require_side_parameters():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    assert p.require_alpha() == 1.0
    with pytest.raises(ValueError, match="frequency omega"):
        p.require_omega()
    q = p.with_omega(4.0)
    assert q.require_omega() == 4.0
    assert q.require_alpha() == 1.0
    with pytest.raises(ValueError, match="coupling alpha"):
        PhysicalParams(1.0, 1.0, omega=1.0).require_alpha()


def test_grid_spacing_and_points():
    grid = Grid(0.5, 2.5, 5)
    assert grid.spacing == 0.5
    pts = grid.points()
    assert pts.shape == (5,)
    assert pts[0] == 0.5
    assert pts[-1] == 2.5
    assert np.allclose(np.diff(pts), 0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        Grid(2.0, 1.0, 5)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Grid(0.0, math.inf, 5)
    # The half-line constraint is enforced where wavefunctions are
    # sampled, so grids may start at zero or cover negative positions
    # (the parity-extended function lives on the full line).
    Grid(0.0, 1.0, 3)
    Grid(-2.0, 2.0, 8)


def test_verification_report_pass_is_derived():
    assert VerificationReport("check", 1e-9, 1e-6).passed
    assert VerificationReport("check", 1e-6, 1e-6).passed
    assert not VerificationReport("check", 2e-6, 1e-6).passed
    with pytest.raises(ValueError):
        VerificationReport("check", -1e-9, 1e-6)
    with pytest.raises(ValueError):
        VerificationReport("check", 1e-9, 0.0)
