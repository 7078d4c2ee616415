"""Quantum-number bookkeeping, parameter validation, grids, and report types."""

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyon1d import anyon, duality, oracle, oscillator, specfun
from anyon1d.core import (
    NU_VALUES,
    Grid,
    PhysicalParams,
    QuantumState,
    VerificationReport,
    check_index,
    check_nu,
    check_number,
    check_points,
    check_s,
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
    # a positive constant is read by check_number over (0, max float]
    for good in (1, 2.5, np.int64(1), np.float32(2.5)):
        number = check_number(good, "x", 0.0, open_low=True)
        assert type(number) is float and number == good
    for bad in (0, -1.0, math.nan, math.inf, True, "1", None):
        with pytest.raises(ValueError, match=r"^x must (lie in \(0, |be real, got x = )"):
            check_number(bad, "x", 0.0, open_low=True)


@pytest.mark.parametrize("huge", [10 ** 400, -10 ** 400, 2 ** 1024],
                         ids=["10^400", "-10^400", "2^1024"])
def test_ints_past_the_float_range_are_not_finite(huge):
    # an int compares with the float range ends exactly, so one past them
    # is refused by name, with no OverflowError from a float conversion
    with pytest.raises(ValueError, match=r"^x must lie in \[-1.79769e\+308, "):
        check_number(huge, "x")
    with pytest.raises(ValueError, match=r"^x must lie in \(0, "):
        check_number(huge, "x", 0.0, open_low=True)
    with pytest.raises(ValueError, match=r"^mass must lie in \[1e-100, 1e\+100\]"):
        PhysicalParams(huge, 1.0, omega=1.0)
    with pytest.raises(ValueError, match=r"^frequency omega must lie in \[1e-100, 1e\+100\]"):
        PhysicalParams(1.0, 1.0, omega=huge)
    assert check_number(int(sys.float_info.max), "x") == sys.float_info.max
    assert check_number(-int(sys.float_info.max), "x") == -sys.float_info.max


@pytest.mark.parametrize("call, start", [
    (lambda: check_number(10 ** 400, "x"), "x must lie in "),
    (lambda: PhysicalParams(10 ** 5000, 1.0), "mass must lie in "),
    (lambda: check_index(10 ** 5000, "n", high=5), "n must be an integer in [0, 5], got "),
    (lambda: check_nu(10 ** 5000), "nu must be 1/4 or 3/4, got "),
    (lambda: make_state(0, 10 ** 5000), "s must be 0 or 1/2, got "),
    (lambda: check_points("a" * 100_000, "x", 0.0), "x must be real, got x = 'aaa"),
    (lambda: check_index("a" * 100_000, "n"), "n must be an integer >= 0, got 'aaa"),
    (lambda: check_index([10 ** 5000], "n"), "n must be an integer >= 0, got "),
    (lambda: check_nu([10 ** 5000]), "nu must be 1/4 or 3/4, got "),
], ids=["check_number-10^400", "PhysicalParams-10^5000", "check_index-10^5000",
        "check_nu-10^5000", "make_state-10^5000", "check_points-long-str",
        "check_index-long-str", "check_index-list-10^5000", "check_nu-list-10^5000"])
def test_a_rejected_value_is_shown_in_bounded_length(call, start):
    # A long int is never converted by str() (slow, and refused past 4300
    # digits) nor by float() (OverflowError), and no repr is echoed whole.
    with pytest.raises(ValueError) as err:
        call()
    message = str(err.value)
    assert message.startswith(start)
    assert len(message) <= 200, len(message)


@pytest.mark.parametrize("huge, shown, digits", [
    (10 ** 400, "1000", 401), (-10 ** 400, "-1000", 401), (-7 * 10 ** 5000, "-7000", 5001),
    (2 ** 1024, "17976931348623159077", 309), (10 ** 400 - 1, "9999", 400)],
    ids=["10^400", "-10^400", "-7x10^5000", "2^1024", "10^400-1"])
def test_an_int_past_the_float_range_is_shown_by_sign_and_digit_count(huge, shown, digits):
    with pytest.raises(ValueError, match=re.escape(f"got x = {shown}")) as err:
        check_number(huge, "x")
    assert str(err.value).endswith(f"({digits} digits)")


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


def _gaussian(x):
    return np.exp(-x * x)


_RESIDUAL_XS = np.linspace(0.05, 18.0, 101)
_RESIDUAL_PHI = anyon.wavefunction(0, 0.25, _ANYON, _RESIDUAL_XS)
_UNIT_OMEGA = PhysicalParams(1.0, 1.0, omega=1.0)

# Every public scalar parameter: a call that reads it, the name its
# messages use, and a value in its domain that float32 holds exactly,
# integer-valued where an integer is a natural input.
SCALAR_PARAMETERS = {
    "PhysicalParams.mass": (
        lambda v: (PhysicalParams(v, 1.0, alpha=1.0),
                   anyon.energy(2, 0.25, PhysicalParams(v, 1.0, alpha=1.0))), "mass", 2),
    "PhysicalParams.hbar": (
        lambda v: (PhysicalParams(1.0, v, omega=1.0),
                   oscillator.energy(2, PhysicalParams(1.0, v, omega=1.0))), "hbar", 2),
    "PhysicalParams.alpha": (
        lambda v: (PhysicalParams(1.0, 1.0, alpha=v),
                   anyon.energy(2, 0.25, PhysicalParams(1.0, 1.0, alpha=v))),
        "coupling alpha", 2),
    "PhysicalParams.omega": (
        lambda v: (PhysicalParams(1.0, 1.0, omega=v),
                   oscillator.energy(2, PhysicalParams(1.0, 1.0, omega=v))),
        "frequency omega", 2),
    "Grid.x_min": (lambda v: (Grid(v, 3.0, 5), Grid(v, 3.0, 5).points().tolist()),
                   "grid x_min", 1),
    "Grid.x_max": (lambda v: (Grid(0.0, v, 5), Grid(0.0, v, 5).points().tolist()),
                   "grid x_max", 3),
    "duality.to_anyon_params.E": (
        lambda v: duality.to_anyon_params(v, 2.0, _UNIT_OMEGA), "oscillator energy E", 4),
    "duality.to_anyon_params.omega": (
        lambda v: duality.to_anyon_params(4.0, v, _UNIT_OMEGA), "frequency omega", 2),
    "duality.to_oscillator_params.alpha": (
        lambda v: duality.to_oscillator_params(v, -8.0, _ANYON), "coupling alpha", 2),
    "duality.to_oscillator_params.epsilon": (
        lambda v: duality.to_oscillator_params(1.0, v, _ANYON),
        "bound-state energy epsilon", -8),
    "oracle.integrate.tol": (
        lambda v: oracle.integrate(_gaussian, 0.5, 2.0, v), "tolerance", 2.0 ** -30),
    "oracle.integrate.a": (
        lambda v: oracle.integrate(_gaussian, v, 2.0), "lower limit a", 1),
    "oracle.integrate.b": (
        lambda v: oracle.integrate(_gaussian, 0.5, v), "upper limit b", 2),
    "oracle.ode_residual.epsilon": (
        lambda v: oracle.ode_residual(_RESIDUAL_XS, _RESIDUAL_PHI,
                                      lambda x: anyon.potential(x, 0.25, _ANYON), v, _ANYON),
        "energy epsilon", -8),
    "oracle.fd_oscillator_spectrum.box_halfwidth": (
        lambda v: oracle.fd_oscillator_spectrum(_UNIT_OMEGA, v, 100, 2), "box halfwidth", 8),
    "oracle.ShootingConfig.lo": (
        lambda v: oracle.ShootingConfig(0.25, (v, -4.0)), "energy bracket lower end", -10),
    "oracle.ShootingConfig.hi": (
        lambda v: oracle.ShootingConfig(0.25, (-10.0, v)), "energy bracket upper end", -4),
    "specfun.log_kummer_polynomial.b": (
        lambda v: specfun.log_kummer_polynomial(3, v, 1.5), "lower parameter b", 2),
    "specfun.log_kummer_polynomial.y": (
        lambda v: specfun.log_kummer_polynomial(3, 0.5, v), "argument y", 2),
    "specfun.laguerre.alpha": (
        lambda v: specfun.laguerre(2, v, 1.5), "parameter alpha", 1),
    "VerificationReport.residual": (
        lambda v: VerificationReport("a check", v, 1.0), "residual", 2),
    "VerificationReport.tolerance": (
        lambda v: VerificationReport("a check", 0.5, v), "tolerance", 1),
}


@pytest.mark.parametrize("site", sorted(SCALAR_PARAMETERS))
def test_scalar_parameters_follow_one_rule(site):
    call, name, good = SCALAR_PARAMETERS[site]
    # a numpy real scalar gives the same result, types and reprs included,
    # as the Python float it holds
    kinds = [np.float64, np.float32] + ([np.int64] if good == int(good) else [])
    for kind in kinds:
        value = kind(good)
        assert repr(call(value)) == repr(call(float(value))), kind
    # integrate's ends may be infinite, and a diverged check's residual
    infinite = {"oracle.integrate.a": (math.inf, -math.inf),
                "oracle.integrate.b": (math.inf, -math.inf),
                "VerificationReport.residual": (math.inf,)}.get(site, ())
    bad_values = [True, np.bool_(True), "1", None, math.nan, [1.0], np.array([1.0, 2.0])]
    bad_values += [end for end in (math.inf, -math.inf) if end not in infinite]
    for bad in bad_values:
        with pytest.raises(ValueError, match=re.escape(name)):
            call(bad)


def _dual(n, nu):
    return _ANYON.with_omega(duality.dual_frequency(n, nu, _ANYON))


_SHOT = oracle.ShootingConfig(0.25, (-10.0, -4.0))     # holds level 0 alone
_CHAIN_GRID = Grid(0.1, 10.0, 201)

# Every public integer parameter: a call that reads it, the name its
# messages use, and a value in its domain that np.uint8 holds.
INDEX_PARAMETERS = {
    "anyon.energy.n": (lambda v: anyon.energy(v, 0.25, _ANYON), "radial index n", 2),
    "anyon.beta.n": (lambda v: anyon.beta(v, 0.25, _ANYON), "radial index n", 2),
    "anyon.log_normalization.n": (
        lambda v: anyon.log_normalization(v, 0.25, _ANYON), "radial index n", 2),
    "anyon.wavefunction.n": (
        lambda v: anyon.wavefunction(v, 0.25, _ANYON, [0.5, 3.0]).tolist(), "radial index n", 2),
    "anyon.extended_wavefunction.n": (
        lambda v: anyon.extended_wavefunction(v, 0.25, _ANYON, -1.5), "radial index n", 2),
    "oscillator.energy.N": (lambda v: oscillator.energy(v, _UNIT_OMEGA), "level N", 2),
    "oscillator.wavefunction.N": (
        lambda v: oscillator.wavefunction(v, _UNIT_OMEGA, [0.5, 3.0]).tolist(), "level N", 2),
    "oscillator.mean_square_displacement.N": (
        lambda v: oscillator.mean_square_displacement(v, _UNIT_OMEGA), "level N", 2),
    "duality.dual_frequency.n": (
        lambda v: duality.dual_frequency(v, 0.25, _ANYON), "radial index n", 2),
    "duality.map_oscillator_to_anyon.n": (
        lambda v: duality.map_oscillator_to_anyon(v, 0.0, _dual(2, 0.25), 1.5),
        "radial index n", 2),
    "duality.constant_equality_residual.n": (
        lambda v: duality.constant_equality_residual(v, 0.75), "radial index n", 2),
    "duality.reduction_chain_residual.n": (
        lambda v: duality.reduction_chain_residual(v, 0.0, _dual(2, 0.25), _CHAIN_GRID),
        "radial index n", 2),
    "specfun.log_kummer_polynomial.n": (
        lambda v: specfun.log_kummer_polynomial(v, 0.5, 1.5), "n", 2),
    "specfun.laguerre.n": (lambda v: specfun.laguerre(v, 1.0, 1.5), "degree n", 2),
    "specfun.hermite.N": (lambda v: specfun.hermite(v, 1.5), "degree N", 2),
    "oracle.fd_oscillator_spectrum.points": (
        lambda v: oracle.fd_oscillator_spectrum(_UNIT_OMEGA, 8.0, v, 2), "point count", 100),
    "oracle.fd_oscillator_spectrum.count": (
        lambda v: oracle.fd_oscillator_spectrum(_UNIT_OMEGA, 8.0, 100, v),
        "eigenvalue count", 2),
    "oracle.shoot_anyon_energy.n": (
        lambda v: oracle.shoot_anyon_energy(_SHOT, _ANYON, v), "node count n", 0),
    "oracle.scan_level_brackets.n_max": (
        lambda v: oracle.scan_level_brackets(0.25, _ANYON, v), "n_max", 2),
    "Grid.count": (lambda v: Grid(0.0, 1.0, v), "grid count", 5),
    "QuantumState.n": (lambda v: QuantumState(v, 0.5), "radial index n", 2),
    "make_state.n": (lambda v: make_state(v, 0.5), "radial index n", 2),
    "state_from_nu.n": (lambda v: state_from_nu(v, 0.75), "radial index n", 2),
}


@pytest.mark.parametrize("site", sorted(INDEX_PARAMETERS))
def test_index_parameters_follow_one_rule(site):
    call, name, good = INDEX_PARAMETERS[site]
    # a numpy integer gives the same result, types and reprs included,
    # as the int it holds
    for kind in (np.int64, np.int32, np.uint8):
        assert repr(call(kind(good))) == repr(call(good)), kind
    for bad in (True, np.bool_(True), 2.0, "1", None, [1], np.array([1, 2])):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer"):
            call(bad)


# Every public statistics label, nu or s: a call that reads it, the
# label's name and an allowed value.
LABEL_PARAMETERS = {
    "anyon.potential.nu": (lambda v: anyon.potential(1.5, v, _ANYON), "nu", 0.75),
    "anyon.energy.nu": (lambda v: anyon.energy(2, v, _ANYON), "nu", 0.75),
    "anyon.beta.nu": (lambda v: anyon.beta(2, v, _ANYON), "nu", 0.75),
    "anyon.log_normalization.nu": (lambda v: anyon.log_normalization(2, v, _ANYON), "nu", 0.75),
    "anyon.wavefunction.nu": (
        lambda v: anyon.wavefunction(5, v, _ANYON, [0.5, 3.0]).tolist(), "nu", 0.75),
    "anyon.extended_wavefunction.nu": (
        lambda v: anyon.extended_wavefunction(2, v, _ANYON, -1.5), "nu", 0.75),
    "duality.dual_frequency.nu": (lambda v: duality.dual_frequency(2, v, _ANYON), "nu", 0.75),
    "duality.map_oscillator_to_anyon.s": (
        lambda v: duality.map_oscillator_to_anyon(2, v, _dual(2, 0.75), 1.5), "s", 0.5),
    "duality.constant_equality_residual.nu": (
        lambda v: duality.constant_equality_residual(2, v), "nu", 0.75),
    "duality.reduction_chain_residual.s": (
        lambda v: duality.reduction_chain_residual(2, v, _dual(2, 0.75), _CHAIN_GRID), "s", 0.5),
    "oracle.ShootingConfig.nu": (lambda v: oracle.ShootingConfig(v, (-10.0, -4.0)), "nu", 0.75),
    "oracle.shooting_config_for_level.nu": (
        lambda v: oracle.shooting_config_for_level(v, _ANYON, 0, (-10.0, -4.0)), "nu", 0.75),
    "oracle.scan_level_brackets.nu": (
        lambda v: oracle.scan_level_brackets(v, _ANYON, 2), "nu", 0.75),
    "QuantumState.s": (lambda v: QuantumState(2, v), "s", 0.5),
    "make_state.s": (lambda v: make_state(2, v), "s", 0.5),
    "state_from_nu.nu": (lambda v: state_from_nu(2, v), "nu", 0.75),
}


@pytest.mark.parametrize("site", sorted(LABEL_PARAMETERS))
def test_label_parameters_follow_one_rule(site):
    call, name, good = LABEL_PARAMETERS[site]
    # every exact spelling of an allowed label gives the same result,
    # types and reprs included, as the Python float
    for kind in (np.float32, np.float64, Fraction, Decimal):
        assert repr(call(kind(good))) == repr(call(good)), kind
    # one that only rounds to it is refused, and so is a bool
    near = (Fraction(good) + Fraction(1, 10 ** 22), Decimal(good) + Decimal("1e-22"),
            math.nextafter(good, 1.0))
    # a signalling Decimal NaN raises InvalidOperation on ==, and must be
    # refused by name as a quiet one is
    for bad in (False, True, np.bool_(False), np.bool_(True), str(good), None, math.nan,
                Decimal("NaN"), Decimal("sNaN"), [good], np.array([good]), *near):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(bad)


def test_readers_return_python_values():
    assert type(check_index(np.int64(3), "k")) is int
    assert type(check_nu(Fraction(3, 4))) is float
    assert type(check_s(0)) is float


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
    assert not VerificationReport("check", math.inf, 1e-6).passed
    with pytest.raises(ValueError):
        VerificationReport("check", -1e-9, 1e-6)
    with pytest.raises(ValueError):
        VerificationReport("check", 1e-9, 0.0)
