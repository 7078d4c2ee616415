"""Quantum-number bookkeeping, parameter validation, grids, and report types."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyon1d import anyon, duality, oscillator
from anyon1d.core import (
    NU_VALUES,
    Grid,
    PhysicalParams,
    VerificationReport,
    check_finite,
    check_index,
    check_points,
    check_positive,
    make_state,
    state_from_nu,
    validate_params,
)


def test_check_index_bounds():
    check_index(0, "k")
    check_index(10 ** 30, "k")
    check_index(3, "k", low=3, high=7)
    check_index(7, "k", low=3, high=7)
    for bad in (2, 8, True, 3.0, "4", None):
        with pytest.raises(ValueError, match=r"^k must be an integer in \[3, 7\], got "):
            check_index(bad, "k", low=3, high=7)
    for bad in (-1, False, 0.0):
        with pytest.raises(ValueError, match=r"^k must be an integer >= 0, got "):
            check_index(bad, "k")


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


def test_check_positive_takes_finite_positive_numbers_only():
    check_positive(1, "x")
    check_positive(2.5, "x")
    for bad in (0, -1.0, math.nan, math.inf, True, "1", None):
        with pytest.raises(ValueError, match="x must be a positive finite number"):
            check_positive(bad, "x")


@pytest.mark.parametrize("huge", [10 ** 400, -10 ** 400, 2 ** 1024],
                         ids=["10^400", "-10^400", "2^1024"])
def test_ints_past_the_float_range_are_not_finite(huge):
    # math.isfinite converts an int to float first and raised
    # OverflowError for these; every caller now gets the ValueError that
    # names its argument.
    with pytest.raises(ValueError, match="x must be a finite number"):
        check_finite(huge, "x")
    with pytest.raises(ValueError, match="x must be a positive finite number"):
        check_positive(huge, "x")
    with pytest.raises(ValueError, match="mass must be a positive finite number"):
        PhysicalParams(huge, 1.0, omega=1.0)
    with pytest.raises(ValueError, match="frequency omega must be a positive finite number"):
        PhysicalParams(1.0, 1.0, omega=huge)
    check_finite(int(sys.float_info.max), "x")
    check_finite(-int(sys.float_info.max), "x")


_ANYON = PhysicalParams(1.0, 1.0, alpha=1.0)
_DUAL = _ANYON.with_omega(duality.dual_frequency(0, 0.25, _ANYON))

# Every evaluator that takes a position, with the name its messages use.
POSITION_EVALUATORS = {
    "anyon.wavefunction": (lambda x: anyon.wavefunction(0, 0.25, _ANYON, x), "x"),
    "anyon.extended_wavefunction":
        (lambda y: anyon.extended_wavefunction(0, 0.25, _ANYON, y), "y"),
    "anyon.potential": (lambda x: anyon.potential(x, 0.25, _ANYON), "x"),
    "oscillator.wavefunction": (lambda u: oscillator.wavefunction(0, _DUAL, u), "u"),
    "duality.map_oscillator_to_anyon":
        (lambda x: duality.map_oscillator_to_anyon(0, 0.0, _DUAL, x), "x"),
}


@pytest.mark.parametrize("evaluator", sorted(POSITION_EVALUATORS))
def test_position_arguments_follow_one_rule(evaluator):
    evaluate, name = POSITION_EVALUATORS[evaluator]
    # bad input and the first offending point its message names
    for bad, first in (("1.5", "'1.5'"), (True, "True"), (1 + 0j, "(1+0j)"),
                       (np.array([1 + 2j, 2.0]), "(1+2j)"),
                       ([0.5, math.nan], "nan")):
        with pytest.raises(ValueError, match=re.escape(f"got {name} = {first}")):
            evaluate(bad)
    listed = evaluate([[0.5, 1.0]])
    array = evaluate(np.array([[0.5, 1.0]]))
    assert isinstance(listed, np.ndarray) and listed.shape == (1, 2)
    assert listed.tobytes() == array.tobytes()
    point = evaluate(np.array(0.5))
    assert type(point) is (complex if evaluator == "anyon.extended_wavefunction" else float)
    assert point == evaluate(0.5)


def test_check_points_returns_a_float_or_a_float_array():
    assert check_points(2, "x", 0.0, 3.0) == (2.0, True)
    assert type(check_points(np.float32(0.5), "x", 0.0, 1.0)[0]) is float
    points, scalar = check_points([1, 2], "x", 1.0, 2.0)
    assert not scalar and points.dtype == np.float64 and points.tolist() == [1.0, 2.0]
    empty, scalar = check_points([], "x", 0.0, 1.0)
    assert not scalar and empty.size == 0
    for bad, message in ((0.0, "x must lie in (0, 1], got x = 0.0"),
                         (np.array([0.5, 2.0]), "x must lie in (0, 1], got x = 2.0"),
                         (math.inf, "x must lie in (0, 1], got x = inf"),
                         (10 ** 400, "x must lie in (0, 1], got x = 1000"),
                         (None, "x must be real, got x = None"),
                         (np.array([True]), "x must be real, got x = True")):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_points(bad, "x", 0.0, 1.0, open_low=True)


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


def _finite(value):
    assert np.all(np.isfinite(value)), value
    return value


def _built_or_named_value_error(build):
    """build()'s result, or None for a ValueError that names one of the
    physical constants; any other exception fails the test."""
    try:
        return build()
    except ValueError as err:
        assert re.search(r"\b(mass|hbar|alpha|omega)\b", str(err)), err
        return None


# powers of ten over 1e-200..1e200, and the edges of the accepted range
_MAGNITUDE = (st.floats(-200, 200).map(lambda e: 10.0 ** e)
              | st.sampled_from([1e-200, 1e-100, 1e100, 1e200]))


@settings(max_examples=400)
@given(mass=_MAGNITUDE, hbar=_MAGNITUDE, alpha=_MAGNITUDE, omega=_MAGNITUDE,
       n=st.integers(0, 100), nu=st.sampled_from(NU_VALUES),
       t=st.floats(0.01, 50.0))
def test_parameter_magnitudes_give_finite_values_or_a_named_value_error(
        mass, hbar, alpha, omega, n, nu, t):
    # Parameters that are accepted give finite closed forms; the dual
    # parameters the maps derive may themselves be rejected by name.
    s, big_n = nu - 0.25, 2 * n + int(2 * (nu - 0.25))
    p = _built_or_named_value_error(lambda: PhysicalParams(mass, hbar, alpha=alpha))
    if p is not None:
        eps = _finite(anyon.energy(n, nu, p))
        b = _finite(anyon.beta(n, nu, p))
        _finite(anyon.wavefunction(n, nu, p, t / b))
        _finite(anyon.extended_wavefunction(n, nu, p, -t))
        _finite(duality.dual_frequency(n, nu, p))
        _, dual_omega = _finite(duality.to_oscillator_params(alpha, eps, p))
        _built_or_named_value_error(
            lambda: PhysicalParams(mass, hbar, alpha=alpha, omega=dual_omega))
    q = _built_or_named_value_error(lambda: PhysicalParams(mass, hbar, omega=omega))
    if q is not None:
        energy = _finite(oscillator.energy(big_n, q))
        u = t * math.sqrt(_finite(oscillator.mean_square_displacement(0, q)))
        _finite(oscillator.wavefunction(big_n, q, u))
        dual_alpha, _ = _finite(duality.to_anyon_params(energy, omega, q))
        both = _built_or_named_value_error(
            lambda: PhysicalParams(mass, hbar, alpha=dual_alpha, omega=omega))
        if both is not None:
            x = t / _finite(anyon.beta(n, nu, both))
            _finite(duality.map_oscillator_to_anyon(n, s, both, x))


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
    with pytest.raises(ValueError, match="grid x_min"):
        Grid("a", 1.0, 5)
    with pytest.raises(ValueError, match="grid x_max"):
        Grid(0.0, True, 5)
    with pytest.raises(ValueError, match="grid count"):
        Grid(0.0, 1.0, True)
    with pytest.raises(ValueError, match="grid count"):
        Grid(0.0, 1.0, 5.0)
    # The half-line constraint is enforced where wavefunctions are
    # sampled, so grids may start at zero or cover negative positions
    # (the parity-extended function lives on the full line).
    Grid(0.0, 1.0, 3)
    Grid(-2.0, 2.0, 8)


def test_grid_count_is_bounded():
    # A 10**6-point grid is a 2 s CSV; 10**9 points would be 8 GB arrays.
    assert Grid(0.0, 1.0, 10 ** 7).count == 10 ** 7
    for count in (10 ** 7 + 1, 10 ** 13):
        with pytest.raises(ValueError, match=r"grid count must be an integer in \[3, 10000000\]"):
            Grid(0.0, 1.0, count)


def test_verification_report_pass_is_derived():
    assert VerificationReport("check", 1e-9, 1e-6).passed
    assert VerificationReport("check", 1e-6, 1e-6).passed
    assert not VerificationReport("check", 2e-6, 1e-6).passed
    with pytest.raises(ValueError):
        VerificationReport("check", -1e-9, 1e-6)
    with pytest.raises(ValueError):
        VerificationReport("check", 1e-9, 0.0)
