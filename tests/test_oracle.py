"""Independent numerical machinery: quadrature, residuals, eigensolvers."""

import ast
import functools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from anyon1d import anyon, duality, oracle
from anyon1d.core import NU_VALUES, ConvergenceError, Grid, PhysicalParams

UNIT = PhysicalParams(1.0, 1.0, alpha=1.0, omega=1.0)

# Shooting eigenvalues with mass = hbar = alpha = 1, n = 0..12, as the
# scalar step-by-step RK4 integrator gave them before the propagator
# products replaced it.
SHOOTING_LEVELS = {
    0.25: [-8.000000528788707, -0.32000000409651824, -0.09876543232829946,
           -0.04733727790885933, -0.027681660643262888, -0.018140589343927226,
           -0.012799999816707708, -0.009512484980325392, -0.007346189029460052,
           -0.005843681406183987, -0.0047590718863550485, -0.003950617201717544,
           -0.003331944950413749],
    0.75: [-0.8888888887609462, -0.16326530559041585, -0.06611570192190028,
           -0.0355555550978283, -0.022160664478748135, -0.01512287307807822,
           -0.010973936689907895, -0.008324661634867102, -0.006530612103790436,
           -0.005259697451513502, -0.0043266629607003814, -0.003621548125722652,
           -0.003075740025513468],
}


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


# Values on [0, 1] at tol 1e-12, recorded while every range was still
# graded toward both ends. A finite range keeps those initial cells, so
# its value must not move by a bit.
FINITE_QUADRATURES = [
    (lambda y: y * y, 0.3333333333333333),
    (lambda x: x ** 0.5, 0.6666666666666666),
    (lambda x: x ** 1.5, 0.39999999999999997),
]
# Integrand evaluations of exp(-x) over (0, inf) at tol 1e-12 while the
# truncation point was graded as well: 56 initial cells.
TWO_SIDED_TAIL_EVALS = 921


@pytest.mark.parametrize("f, recorded", FINITE_QUADRATURES, ids=["x^2", "x^0.5", "x^1.5"])
def test_finite_range_quadrature_is_bit_identical(f, recorded):
    assert oracle.quadrature(f, 0.0, 1.0, tol=1e-12) == recorded


def test_truncated_range_is_graded_toward_its_finite_end_only():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return math.exp(-x)

    got = oracle.quadrature(f, 0.0, math.inf, tol=1e-12)
    assert abs(got - 1.0) <= 1e-12
    assert calls <= 0.6 * TWO_SIDED_TAIL_EVALS


def test_quadrature_rejects_a_bad_tolerance():
    for tol in (0.0, -1e-10, True, "1e-10", math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            oracle.quadrature(lambda y: y, 0.0, 1.0, tol=tol)


def test_quadrature_rejects_bad_endpoints():
    # A NaN endpoint used to drop out of the initial cells and give 0.0,
    # and True was taken as 1.
    for a in (math.nan, True, "0"):
        with pytest.raises(ValueError, match="lower limit a"):
            oracle.quadrature(lambda y: y, a, 1.0)
    for b in (math.nan, True, "1"):
        with pytest.raises(ValueError, match="upper limit b"):
            oracle.quadrature(lambda y: y, 0.0, b)
    # the infinite ends stay allowed, numpy floats included
    assert oracle.quadrature(math.exp, np.float64(-math.inf), np.float64(0.0),
                             tol=1e-12) == oracle.quadrature(math.exp, -math.inf, 0.0,
                                                             tol=1e-12)


def test_quadrature_never_evaluates_an_endpoint():
    seen = []

    def f(x):
        seen.append(x)
        return 1.0 / x

    # Refinement toward the non-integrable 1/x at 0 halves the first cell
    # until 1/x overflows at a node; halving on would reach the cell
    # [0, 5e-324], whose Gauss-Kronrod nodes round onto 0.
    with pytest.raises(ValueError, match=r"not finite on the quadrature cell \[0\.0, "):
        oracle.quadrature(f, 0.0, 1.0)
    assert min(seen) > 0.0
    # A range one ulp wide has no room for the nodes of its one cell.
    seen.clear()
    with pytest.raises(ConvergenceError, match="cannot be refined further"):
        oracle.quadrature(f, 1.0, 1.0 + 2.0 ** -52)
    assert seen == []


def test_quadrature_rejects_a_non_finite_integrand_at_once():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return math.nan

    with pytest.raises(ValueError, match="not finite"):
        oracle.quadrature(f, 0.0, 1.0)
    assert calls == 15


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_quadrature_rejects_a_non_finite_tail_probe(sign):
    # NaN past |x| = 5 must not read as "not decayed yet": the first
    # probe there is refused by name instead of doubling the cut 60 times
    probes = []

    def f(x):
        probes.append(x)
        return math.nan if abs(x) > 5.0 else math.exp(-abs(x))

    ends = (0.0, math.inf) if sign > 0 else (-math.inf, 0.0)
    with pytest.raises(ValueError, match="not finite at the tail probe"):
        oracle.quadrature(f, *ends)
    assert probes[3:] == [sign * 2.0, sign * 2.74, sign * 3.86, sign * 4.0, sign * 5.48]


def test_quadrature_messages_name_the_callers_point():
    # (-inf, b] is integrated as t -> f(-t), but a message names the x
    # the caller's f saw, not the mirrored t.
    with pytest.raises(ValueError, match=r"tail probe -5\.48$"):
        oracle.quadrature(lambda x: math.nan if x < -5.0 else math.exp(x), -math.inf, 0.0)
    with pytest.raises(ValueError, match=r"cell \[-3\.86, -1\.93\]$"):
        oracle.quadrature(lambda x: math.nan if -3.5 < x < -3.0 else math.exp(x),
                          -math.inf, 0.0)
    with pytest.raises(ValueError, match=r"cell \[1\.93, 3\.86\]$"):
        oracle.quadrature(lambda x: math.nan if 3.0 < x < 3.5 else math.exp(-x),
                          0.0, math.inf)
    with pytest.raises(ConvergenceError, match=r"past -1\.153e\+18 "):
        oracle.quadrature(lambda x: 1.0, -math.inf, 0.0)


def test_tail_cutoff_refuses_a_nan_in_any_probe():
    for bad in range(3):
        calls = []

        def f(x):
            calls.append(x)
            return math.nan if len(calls) == bad + 1 else 0.0

        with pytest.raises(ValueError, match="not finite"):
            oracle.quadrature(f, 0.0, math.inf)
        assert len(calls) == bad + 1


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
    for eps in (math.nan, -math.inf, True, "-1"):
        with pytest.raises(ValueError, match="energy epsilon"):
            oracle.ode_residual(xs, np.ones(9), pot, eps, UNIT)
    with pytest.raises(ValueError, match="trivial drive"):
        oracle.ode_residual(xs, np.ones(9), pot, 0.0, UNIT)
    # A non-finite sample used to give a NaN residual with no warning.
    holed = xs.copy()
    holed[4] = math.nan
    with pytest.raises(ValueError, match="xs"):
        oracle.ode_residual(holed, np.ones(9), pot, -1.0, UNIT)
    for bad in (math.nan, math.inf, -math.inf, complex(math.nan, 0.0),
                complex(1.0, math.inf)):
        values = np.ones(9, dtype=type(bad))
        values[4] = bad
        with pytest.raises(ValueError, match="values"):
            oracle.ode_residual(xs, values, pot, -1.0, UNIT)
    spike = lambda x: np.where(x > 0.45, math.inf, 0.0)
    with pytest.raises(ValueError, match="potential"):
        oracle.ode_residual(xs, np.ones(9), spike, -1.0, UNIT)


def test_fd_spectrum_second_order_convergence():
    coarse = oracle.fd_oscillator_spectrum(UNIT, 10.0, 1001, 1)[0]
    fine = oracle.fd_oscillator_spectrum(UNIT, 10.0, 2001, 1)[0]
    ratio = abs(coarse - 0.5) / abs(fine - 0.5)
    assert 3.5 <= ratio <= 4.5


def test_fd_spectrum_at_non_unit_constants():
    # The verify rows' bounds, with hbar != 1 and a box of 10 oscillator
    # lengths.
    q = PhysicalParams(2.5, 0.3, omega=1.3)
    quantum = q.hbar * q.omega
    box = 10.0 * math.sqrt(q.hbar / (q.mass * q.omega))
    levels = oracle.fd_oscillator_spectrum(q, box, 2001, 5)
    assert abs(levels[0] - 0.5 * quantum) <= 1e-4 * quantum
    assert max(abs((b - a) - quantum) for a, b in zip(levels, levels[1:])) <= 1e-3 * quantum


def test_fd_spectrum_input_validation():
    with pytest.raises(ValueError):
        oracle.fd_oscillator_spectrum(UNIT, 10.0, 50, 1)
    with pytest.raises(ValueError):
        oracle.fd_oscillator_spectrum(UNIT, 10.0, 2001, 0)
    with pytest.raises(ValueError):
        oracle.fd_oscillator_spectrum(UNIT, 10.0, 2001, 21)
    with pytest.raises(ValueError):
        oracle.fd_oscillator_spectrum(UNIT, -1.0, 2001, 1)


def test_fd_spectrum_domain_edges():
    assert len(oracle.fd_oscillator_spectrum(UNIT, 10.0, 100, 20)) == 20
    with pytest.raises(ValueError, match="point count"):
        oracle.fd_oscillator_spectrum(UNIT, 10.0, 99, 1)
    for box in (0.0, math.nan, math.inf, "10"):
        with pytest.raises(ValueError, match="box halfwidth"):
            oracle.fd_oscillator_spectrum(UNIT, box, 2001, 1)


LARGE_QUANTUM = PhysicalParams(1.0, 1e100, omega=1e100)


@pytest.mark.parametrize("p, box, points, message", [
    (UNIT, 1e-160, 2001, "box halfwidth"),      # 1/h^2 overflows
    (UNIT, 1e-100, 2001, "box halfwidth"),      # the squared coupling overflows
    (UNIT, 1e300, 2001, "box halfwidth"),       # x^2/2 at the wall overflows
    (LARGE_QUANTUM, 1e60, 2001, "box halfwidth"),  # a level times hbar omega overflows
    (UNIT, 10.0, 10 ** 6 + 1, "point count"),
])
def test_fd_spectrum_refuses_a_box_outside_the_floats_at_once(p, box, points, message):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        oracle.fd_oscillator_spectrum(p, box, points, 1)
    assert time.perf_counter() - start < 1.0


def test_fd_spectrum_near_the_box_domain_edges():
    # A box of 1e-70 oscillator lengths is a bare particle in a box: the
    # levels are (1 - cos(k pi/(points - 1)))/h^2 of the discrete
    # Laplacian.  At 1e70 the matrix is nearly diagonal and its levels
    # are finite and increasing.
    small = oracle.fd_oscillator_spectrum(UNIT, 1e-70, 2001, 3)
    h = 2e-70 / 2000
    box_levels = [(1.0 - math.cos(k * math.pi / 2000)) / (h * h) for k in (1, 2, 3)]
    assert all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(small, box_levels))
    large = oracle.fd_oscillator_spectrum(UNIT, 1e70, 2001, 3)
    assert all(math.isfinite(level) and level > 0.0 for level in large)
    assert large == sorted(large)


def test_fd_spectrum_rejects_bool_arguments():
    with pytest.raises(ValueError, match="eigenvalue count"):
        oracle.fd_oscillator_spectrum(UNIT, 10.0, 2001, True)
    with pytest.raises(ValueError, match="box halfwidth"):
        oracle.fd_oscillator_spectrum(UNIT, True, 2001, 1)
    with pytest.raises(ValueError, match="point count"):
        oracle.fd_oscillator_spectrum(UNIT, 10.0, True, 1)


def _sturm_count_reference(diag, offsq, lam):
    count = 0
    q = 1.0
    first = True
    for d in diag:
        q = d - lam if first else d - lam - offsq / q
        first = False
        if abs(q) < 1e-290:
            q = -1e-290
        if q < 0.0:
            count += 1
    return count


def _fd_spectrum_reference(p, box_halfwidth, points, count):
    """Each level bisected on its own from the full Gershgorin interval."""
    h = 2.0 * box_halfwidth / (points - 1)
    xs = np.linspace(-box_halfwidth + h, box_halfwidth - h, points - 2)
    kinetic = p.hbar ** 2 / (p.mass * h * h)
    diag_arr = kinetic + 0.5 * p.mass * p.omega ** 2 * xs * xs
    off = -0.5 * kinetic
    diag = diag_arr.tolist()
    lo0 = float(diag_arr.min()) - 2.0 * abs(off)
    hi0 = float(diag_arr.max()) + 2.0 * abs(off)
    out = []
    for k in range(1, count + 1):
        lo, hi = lo0, hi0
        while True:
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-13 * max(1.0, abs(mid)):
                break
            if _sturm_count_reference(diag, off * off, mid) >= k:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return out


@pytest.mark.parametrize("points, count", [(2001, 5), (4433, 20)])
def test_fd_spectrum_shared_probes_change_no_bit(points, count):
    assert (oracle.fd_oscillator_spectrum(UNIT, 10.0, points, count)
            == _fd_spectrum_reference(UNIT, 10.0, points, count))


def _box_matrix(points, box_halfwidth=10.0):
    h = 2.0 * box_halfwidth / (points - 1)
    xs = np.linspace(-box_halfwidth + h, box_halfwidth - h, points - 2)
    kinetic = 1.0 / (h * h)
    return kinetic + 0.5 * xs * xs, -0.5 * kinetic


def _sector_count_reference(diag, couplings, lam):
    """Sturm count over every row of the tridiagonal with the given
    diagonal and coupling products couplings[i] between rows i, i + 1."""
    count = 0
    q = 1.0
    for i, d in enumerate(diag):
        q = d - lam if i == 0 else d - lam - couplings[i - 1] / q
        if abs(q) < 1e-290:
            q = -1e-290
        if q < 0.0:
            count += 1
    return count


@pytest.mark.parametrize("points, box", [(2001, 10.0), (2002, 10.0), (101, 7.3), (100, 7.3)])
def test_stopped_sector_count_equals_full_sweep(points, box):
    diag, off = _box_matrix(points, box)
    offsq = off * off
    half = diag.size // 2
    if diag.size % 2:        # centre node x = 0 exists
        even = (diag[half:].tolist(), [2.0 * offsq] + [offsq] * (diag.size - half))
        odd = (diag[half + 1:].tolist(), [offsq] * (diag.size - half))
    else:
        right = diag[half:].tolist()
        even = ([right[0] + off] + right[1:], [offsq] * half)
        odd = ([right[0] - off] + right[1:], [offsq] * half)
    sectors = oracle._parity_sectors(diag, off)
    assert [sectors[0].diag, sectors[1].diag] == [even[0], odd[0]]
    lo0 = float(diag.min()) - 2.0 * abs(off)
    hi0 = float(diag.max()) + 2.0 * abs(off)
    levels = oracle.fd_oscillator_spectrum(UNIT, box, points, 20)
    near = [level * (1.0 + t) for level in levels
            for t in (-1e-12, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-12)]
    near += [math.nextafter(level, d) for level in levels for d in (-math.inf, math.inf)]
    lams = np.linspace(lo0, hi0, 41).tolist() + np.linspace(0.0, 25.0, 101).tolist() + near
    for lam in lams:
        got = [sector._sweep(lam) for sector in sectors]
        want = [_sector_count_reference(d, c, lam) for d, c in (even, odd)]
        assert got == want, lam
    # the sectors split the full count wherever the full count is clear
    for lam in np.linspace(0.01, 25.0, 37).tolist():
        assert (sum(sector._sweep(lam) for sector in sectors)
                == _sturm_count_reference(diag.tolist(), offsq, lam))


@pytest.mark.parametrize("points, count", [(100, 20), (2002, 5), (4434, 20)])
def test_fd_spectrum_even_point_count(points, count):
    # An even point count has no centre node; the sectors then start at
    # d_c + off and d_c - off.  The reference bisects the full matrix, so
    # the levels agree to the Sturm count's backward error.
    diag, off = _box_matrix(points)
    lo0 = float(diag.min()) - 2.0 * abs(off)
    hi0 = float(diag.max()) + 2.0 * abs(off)
    bound = 8.0 * np.finfo(float).eps * max(abs(lo0), abs(hi0))
    got = oracle.fd_oscillator_spectrum(UNIT, 10.0, points, count)
    want = _fd_spectrum_reference(UNIT, 10.0, points, count)
    assert max(abs(a - b) for a, b in zip(got, want)) <= bound


def test_shooting_config_validation():
    good = dict(nu=0.25, energy_bracket=(-9.0, -7.0))
    oracle.ShootingConfig(**good)
    with pytest.raises(ValueError, match="nu"):
        oracle.ShootingConfig(**{**good, "nu": 0.5})
    with pytest.raises(ValueError):
        oracle.ShootingConfig(**{**good, "energy_bracket": (-7.0, -9.0)})
    with pytest.raises(ValueError):
        oracle.ShootingConfig(**{**good, "energy_bracket": (-7.0, 1.0)})


# The ids are the ones these cases had while the list still held the
# geometry fields, so each case keeps its name.
@pytest.mark.parametrize("field, value", [
    ("energy_bracket", (-math.inf, -7.0)), ("energy_bracket", (math.nan, -7.0)),
    ("energy_bracket", (-9.0, math.nan)), ("energy_bracket", (-9.0, -math.inf)),
], ids=[f"energy_bracket-value{i}" for i in range(10, 14)])
def test_shooting_config_rejects_nonfinite_fields(field, value):
    good = dict(nu=0.25, energy_bracket=(-9.0, -7.0))
    with pytest.raises(ValueError):
        oracle.ShootingConfig(**{**good, field: value})


def _level_config(nu: float, n: int) -> oracle.ShootingConfig:
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    brackets = oracle.scan_level_brackets(nu, p, n)
    return oracle.ShootingConfig(nu, brackets[n])


def test_shooting_reproduces_lowest_levels():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    for nu in NU_VALUES:
        brackets = oracle.scan_level_brackets(nu, p, 12)
        for n, bracket in enumerate(brackets):
            got = oracle.shoot_anyon_energy(oracle.ShootingConfig(nu, bracket), p, n)
            expected = anyon.energy(n, nu, p)
            assert abs(got - expected) <= 1e-5 * abs(expected)
            # SHOOTING_LEVELS are midpoints of a plain bisection's last
            # cell, so they agree to the solve tolerance, not to the bit
            assert math.isclose(got, SHOOTING_LEVELS[nu][n],
                                rel_tol=oracle._SHOOTING_TOL, abs_tol=0.0)


def test_shooting_at_non_unit_constants():
    # Every other shooting test has hbar = 1, where a dropped hbar in the
    # geometry or the coefficients would not show.
    p = PhysicalParams(2.5, 0.3, alpha=1.7)
    for nu in NU_VALUES:
        brackets = oracle.scan_level_brackets(nu, p, 12)
        for n, bracket in enumerate(brackets):
            got = oracle.shoot_anyon_energy(oracle.ShootingConfig(nu, bracket), p, n)
            expected = anyon.energy(n, nu, p)
            assert abs(got - expected) <= 1e-5 * abs(expected)


def test_shooting_geometry_follows_the_constants_it_runs_with():
    # A config built for alpha = 1 carries no geometry, so a run at
    # alpha = 30 gets the alpha = 30 geometry; a geometry fixed at
    # alpha = 1 put this level 2.5e-5 relative off.
    p30 = PhysicalParams(1.0, 1.0, alpha=30.0)
    bracket = oracle.scan_level_brackets(0.25, p30, 0)[0]
    cfg = oracle.shooting_config_for_level(0.25, PhysicalParams(1.0, 1.0, alpha=1.0), 0,
                                           bracket)
    expected = anyon.energy(0, 0.25, p30)
    assert abs(oracle.shoot_anyon_energy(cfg, p30, 0) - expected) <= 1e-5 * abs(expected)


def test_shooting_rejects_a_too_deep_bracket():
    # With unit constants the inward sweep would end before x_match.
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    with pytest.raises(ValueError, match="too deep"):
        oracle.shoot_anyon_energy(oracle.ShootingConfig(0.25, (-1e11, -3e10)), p, 0)


def test_shooting_rejects_a_too_shallow_bracket():
    # With unit constants both sweeps reach x ~ alpha/|hi|: this bracket
    # would plan 480,163 outward and 324,599 inward RK4 steps.
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"too shallow"):
        oracle.shoot_anyon_energy(oracle.ShootingConfig(0.25, (-2e-8, -1e-8)), p, 0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("consts, bracket, message", [
    # lo * hi underflows to 0
    ((1.0, 1.0, 1.0), (-1e-300, -1e-301), "too shallow"),
    # over the energy unit 1e100 both ends underflow to 0
    ((1e100, 1.0, 1.0), (-1e-300, -1e-301), "too shallow"),
    # over the energy unit 1e-100 the lower end overflows
    ((1e-100, 1.0, 1.0), (-1e300, -1e299), "too deep"),
    # 2 lo, the deepest coefficient of the steps, overflows
    ((1.0, 1.0, 1.0), (-1e308, -1.0), "too deep"),
])
def test_shooting_refuses_a_bracket_outside_the_floats(consts, bracket, message):
    mass, hbar, alpha = consts
    p = PhysicalParams(mass, hbar, alpha=alpha)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message) as refused:
        oracle.shoot_anyon_energy(oracle.ShootingConfig(0.25, bracket), p, 0)
    assert str(bracket) in str(refused.value)
    assert time.perf_counter() - start < 1.0


def _plain_bisection(cfg, p):
    """The shooting level by plain bisection of the mismatch: every
    dyadic midpoint evaluated."""
    run = oracle._ShootingRun(cfg, p)
    lo, hi = cfg.energy_bracket
    w_lo = run.mismatch(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= oracle._SHOOTING_TOL * abs(mid):
            return mid
        w_mid = run.mismatch(mid)
        if w_mid == 0.0:
            return mid
        if (w_mid > 0) == (w_lo > 0):
            lo, w_lo = mid, w_mid
        else:
            hi = mid


@pytest.mark.parametrize("nu", NU_VALUES)
def test_illinois_shooting_matches_plain_bisection(nu, monkeypatch):
    # Each level lies within the solve tolerance of plain bisection's
    # and costs fewer mismatch evaluations, the bracket ends included.
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    calls = []
    mismatch = oracle._ShootingRun.mismatch

    def counted(run, eps):
        calls.append(eps)
        return mismatch(run, eps)

    brackets = oracle.scan_level_brackets(nu, p, 12)
    monkeypatch.setattr(oracle._ShootingRun, "mismatch", counted)
    for n, bracket in enumerate(brackets):
        cfg = oracle.ShootingConfig(nu, bracket)
        calls.clear()
        got = oracle.shoot_anyon_energy(cfg, p, n)
        illinois_calls = len(calls)
        calls.clear()
        want = _plain_bisection(cfg, p)
        assert math.isclose(got, want, rel_tol=oracle._SHOOTING_TOL, abs_tol=0.0)
        assert illinois_calls < len(calls)


def _per_probe_scan(nu, p, levels):
    """The first sign-change brackets of the scan with a step table of
    its own for every probe, as the scan was before probes shared one."""
    scale = p.mass * p.alpha * p.alpha / (2.0 * p.hbar ** 2)
    eps = -1.35 * scale / (nu * nu)
    brackets, prev_eps, prev_sign = [], None, None
    while len(brackets) < levels:
        cfg = oracle.ShootingConfig(nu, (1.01 * eps, 0.99 * eps))
        sign = oracle._ShootingRun(cfg, p).mismatch(eps) > 0
        if prev_sign is not None and sign != prev_sign:
            brackets.append((prev_eps, eps))
        prev_eps, prev_sign = eps, sign
        eps /= oracle._SCAN_RATIO
    return brackets


@pytest.mark.parametrize("mass, alpha", [(1.0, 1.0), (0.5, 2.0), (3.0, 0.7), (1.7, 1.3)])
@pytest.mark.parametrize("nu", NU_VALUES)
def test_banded_scan_equals_per_probe_scan(nu, mass, alpha):
    p = PhysicalParams(mass, 1.0, alpha=alpha)
    reference = _per_probe_scan(nu, p, 21)
    for n_max in range(8, 21):
        assert oracle.scan_level_brackets(nu, p, n_max) == reference[:n_max + 1]


def _rk4_reference(run, eps):
    """Scaled mismatch and node count from a plain step-by-step RK4 sweep
    of phi'' = (v - 2e) phi over the run's own step table, at the energy
    e = eps / run.energy_unit of the run's natural units."""
    e = eps / run.energy_unit
    ce = 2.0 * e
    start = run._starts(e)
    ends = []
    nodes = 0
    for row in range(2):
        phi, dphi = start[:, row].tolist()
        va, vb, vc = run.v[:, row].tolist()
        for h, g0, gm, g1 in zip(run.h[row].tolist(), va, vb, vc):
            g0, gm, g1 = g0 - ce, gm - ce, g1 - ce
            k1f, k1p = dphi, g0 * phi
            k2f, k2p = dphi + 0.5 * h * k1p, gm * (phi + 0.5 * h * k1f)
            k3f, k3p = dphi + 0.5 * h * k2p, gm * (phi + 0.5 * h * k2f)
            k4f, k4p = dphi + h * k3p, g1 * (phi + h * k3f)
            new_phi = phi + h / 6.0 * (k1f + 2.0 * (k2f + k3f) + k4f)
            dphi = dphi + h / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p)
            if new_phi * phi < 0.0:
                nodes += 1
            phi = new_phi
            big = max(abs(phi), abs(dphi))
            if big > 1e250:
                phi, dphi = phi / big, dphi / big
        ends.append((phi, dphi))
    (left, dleft), (right, dright) = ends
    norm = math.hypot(left, dleft) * math.hypot(right, dright)
    return (dleft * right - left * dright) / norm, nodes


@pytest.mark.parametrize("nu", NU_VALUES)
def test_propagator_products_match_sequential_rk4(nu):
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    brackets = oracle.scan_level_brackets(nu, p, 20)
    for n in (0, 5, 12, 20):
        lo, hi = brackets[n]
        run = oracle._ShootingRun(oracle.ShootingConfig(nu, brackets[n]), p)
        for eps in np.linspace(lo, hi, 5).tolist():
            mismatch, nodes = _rk4_reference(run, eps)
            assert abs(run.mismatch(eps) - mismatch) <= 1e-10
            assert run.nodes(eps) == nodes


def _reference_propagators(h, a, b, c):
    """Every step's RK4 propagator of (phi, phi') from the per-step
    formula the run evaluated at each energy before its coefficient
    table: a, b, c are the coefficient g = v - c2 eps at the start,
    midpoint and end of each step."""
    h2 = h * h
    m = np.empty((2, 2) + h.shape)
    m[0, 0] = 1.0 + h2 * (a + 2.0 * b) / 6.0 + h2 * h2 * a * b / 24.0
    m[0, 1] = h + h2 * h * b / 6.0
    m[1, 0] = h / 6.0 * (a + 4.0 * b + c + h2 * b * (a + c) / 2.0)
    m[1, 1] = 1.0 + h2 * (2.0 * b + c) / 6.0 + h2 * h2 * b * c / 24.0
    return m


# unit constants and two sets whose length unit hbar^2/(m alpha) is
# 1e-20 and 1e-30
FAR_CONSTANTS = [(1e-50, 1e-20, 1e30), (1e30, 1e-10, 1e-20)]


@pytest.mark.parametrize("mass, hbar, alpha", [(1.0, 1.0, 1.0)] + FAR_CONSTANTS)
@pytest.mark.parametrize("nu", NU_VALUES)
def test_coefficient_table_is_the_per_step_formula(nu, mass, hbar, alpha):
    # The table gives the per-step formula within 1e-14 of each entry's
    # scale: the formula evaluated on |h| and |v| + |2e|, the largest its
    # terms can add up to, in the run's natural units.
    p = PhysicalParams(mass, hbar, alpha=alpha)
    brackets = oracle.scan_level_brackets(nu, p, 20)
    for n in (0, 5, 12, 20):
        run = oracle._ShootingRun(oracle.ShootingConfig(nu, brackets[n]), p)
        for eps in np.linspace(*brackets[n], 5).tolist():
            got = run._propagators(eps / run.energy_unit)
            e = 2.0 * eps / run.energy_unit
            want = _reference_propagators(run.h, *(run.v - e))
            scale = _reference_propagators(np.abs(run.h), *(np.abs(run.v) + abs(e)))
            assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("mass, hbar, alpha", [(1.0, 1.0, 1.0)] + FAR_CONSTANTS)
@pytest.mark.parametrize("nu", NU_VALUES)
def test_sparse_rescaling_changes_no_bit(nu, mass, hbar, alpha):
    # mismatch rescales every _RESCALE_PERIOD-th pass; rescaling after
    # every pass, as below, differs from it by powers of two only.
    p = PhysicalParams(mass, hbar, alpha=alpha)
    brackets = oracle.scan_level_brackets(nu, p, 20)
    for n in (0, 5, 12, 20):
        run = oracle._ShootingRun(oracle.ShootingConfig(nu, brackets[n]), p)
        for eps in np.linspace(*brackets[n], 5).tolist():
            e = eps / run.energy_unit
            m = oracle._rescaled(run._propagators(e))
            while m.shape[-1] > 1:
                if m.shape[-1] % 2:
                    m = np.concatenate([m, np.eye(2)[:, :, None, None].repeat(2, axis=2)],
                                       axis=-1)
                m = oracle._rescaled(oracle._matmul(m[..., 1::2], m[..., 0::2]))
            assert run.mismatch(eps) == run._wronskian(m[..., 0], e)


@pytest.mark.parametrize("mass, hbar, alpha", FAR_CONSTANTS)
def test_shooting_far_from_unit_constants(mass, hbar, alpha):
    # The run computes in lengths hbar^2/(m alpha) and energies
    # m alpha^2/hbar^2, so its tables here are those of unit constants,
    # no wider than at n <= 20 there.
    p = PhysicalParams(mass, hbar, alpha=alpha)
    for nu in NU_VALUES:
        brackets = oracle.scan_level_brackets(nu, p, 12)
        for n, bracket in enumerate(brackets):
            cfg = oracle.ShootingConfig(nu, bracket)
            assert oracle._ShootingRun(cfg, p).h.shape[1] <= 2432
            got = oracle.shoot_anyon_energy(cfg, p, n)
            expected = anyon.energy(n, nu, p)
            assert abs(got - expected) <= 1e-5 * abs(expected)


def test_shooting_table_is_as_wide_as_the_longer_sweep():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    for nu in NU_VALUES:
        for bracket in oracle.scan_level_brackets(nu, p, 20)[::5]:
            run = oracle._ShootingRun(oracle.ShootingConfig(nu, bracket), p)
            steps = np.count_nonzero(run.h, axis=1)
            assert run.h.shape == (2, max(steps))
            assert min(steps) < max(steps)


def test_shooting_boundary_exponent_is_the_only_difference():
    # Same bracket, same potential, same grid geometry: only the origin
    # exponent differs, and it alone selects which tower the eigenvalue
    # comes from.
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    bracket = (-10.0, -0.5)
    cfg_q = oracle.ShootingConfig(0.25, bracket)
    cfg_t = oracle.ShootingConfig(0.75, bracket)
    run_q = oracle._ShootingRun(cfg_q, p)
    run_t = oracle._ShootingRun(cfg_t, p)
    assert (run_q.x_start, run_q.x_end) == (run_t.x_start, run_t.x_end)
    assert np.array_equal(run_q.h, run_t.h)
    assert np.array_equal(run_q.v, run_t.v)

    eps_q = oracle.shoot_anyon_energy(cfg_q, p, 0)
    eps_t = oracle.shoot_anyon_energy(cfg_t, p, 0)
    assert abs(eps_q - (-8.0)) <= 1e-5 * 8.0
    assert abs(eps_t - (-8.0 / 9.0)) <= 1e-5 * (8.0 / 9.0)


def test_illinois_solve_and_its_step_cap():
    root = oracle._illinois(lambda x: x * x - 2.0, 1.0, -1.0, 2.0, 2.0, 1e-12)
    assert abs(root - math.sqrt(2.0)) <= 1e-12 * math.sqrt(2.0)
    # No float has x * x == 2 and no bracket is 1e-300 relative wide,
    # so the solve runs into its cap.
    with pytest.raises(ConvergenceError, match="relative width"):
        oracle._illinois(lambda x: x * x - 2.0, 1.0, -1.0, 2.0, 2.0, 1e-300)


def test_shooting_rejects_empty_bracket():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    empty = oracle.ShootingConfig(0.25, (-7.0, -6.0))
    with pytest.raises(ValueError, match="does not straddle"):
        oracle.shoot_anyon_energy(empty, p, 0)


def test_shooting_checks_node_count():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    cfg = _level_config(0.25, 0)
    with pytest.raises(ConvergenceError, match="nodes"):
        oracle.shoot_anyon_energy(cfg, p, 1)


def test_shooting_start_point_insensitivity(monkeypatch):
    # Halving the start point halves the first step with it.
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    cfg = _level_config(0.25, 0)
    eps = oracle.shoot_anyon_energy(cfg, p, 0)
    monkeypatch.setattr(oracle, "_X_START", 0.5 * oracle._X_START)
    eps_halved = oracle.shoot_anyon_energy(cfg, p, 0)
    assert abs(eps_halved - eps) <= 1e-6 * abs(eps)


def test_shooting_is_deterministic():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    cfg = _level_config(0.75, 1)
    first = oracle.shoot_anyon_energy(cfg, p, 1)
    second = oracle.shoot_anyon_energy(cfg, p, 1)
    assert first == second


def test_scan_level_count_domain():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    for n_max in (-1, 21, True, 2.0):
        with pytest.raises(ValueError, match="n_max"):
            oracle.scan_level_brackets(0.25, p, n_max)


def test_oracle_imports_no_closed_form_module():
    # The oracles check the closed forms, so they must not call them.
    closed_forms = {"anyon", "oscillator", "duality", "specfun", "verification"}
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert not imported & closed_forms


def test_scan_level_brackets_contain_the_spectrum():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    for nu in (0.25, 0.75):
        brackets = oracle.scan_level_brackets(nu, p, 4)
        assert len(brackets) == 5
        for n, (lo, hi) in enumerate(brackets):
            eps = anyon.energy(n, nu, p)
            assert lo < eps < hi


# Constants far from 1: the last three shooting sets put the energy
# unit m alpha^2/hbar^2 at 1e100, 1e-100 and 1 with each constant a
# factor 1e50 or more from 1, and the box sets make hbar omega as small
# as 1e-50.  A solver that carried the constants through its steps, or
# stopped its bisection at an absolute width in the caller's units,
# fails there.
COVARIANT_SHOOTING = [(2.5, 0.3, 1.7), (1e-50, 1e-20, 1e30), (1e100, 1e-100, 1e-100),
                      (1e-100, 1e100, 1e100), (1e100, 1e-50, 1e-100)]
COVARIANT_BOX = [(2.5, 0.3, 1.3), (1.0, 1e-10, 1.0), (1.0, 1e-12, 1.0), (1.0, 1e-20, 1.0),
                 (1.0, 1e-50, 1.0), (1e-30, 1.0, 1e-30), (1e100, 1e100, 1e100)]


@functools.cache
def _unit_shot_levels(nu):
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    return tuple(oracle.shoot_anyon_energy(oracle.ShootingConfig(nu, bracket), p, n)
                 for n, bracket in enumerate(oracle.scan_level_brackets(nu, p, 12)))


@pytest.mark.parametrize("mass, hbar, alpha", COVARIANT_SHOOTING)
def test_shot_levels_in_energy_units_are_the_unit_constant_levels(mass, hbar, alpha):
    p = PhysicalParams(mass, hbar, alpha=alpha)
    energy_unit = mass * alpha * alpha / hbar ** 2
    for nu in NU_VALUES:
        brackets = oracle.scan_level_brackets(nu, p, 12)
        for n, (bracket, want) in enumerate(zip(brackets, _unit_shot_levels(nu))):
            got = oracle.shoot_anyon_energy(oracle.ShootingConfig(nu, bracket), p, n)
            assert math.isclose(got / energy_unit, want, rel_tol=1e-9, abs_tol=0.0)
            expected = anyon.energy(n, nu, p)
            assert abs(got - expected) <= 1e-5 * abs(expected)


@pytest.mark.parametrize("mass, hbar, omega", COVARIANT_BOX)
def test_box_levels_in_units_of_hbar_omega_are_the_unit_constant_levels(mass, hbar, omega):
    p = PhysicalParams(mass, hbar, omega=omega)
    quantum = hbar * omega
    box = 10.0 * math.sqrt(hbar / (mass * omega))
    got = [level / quantum for level in oracle.fd_oscillator_spectrum(p, box, 2001, 5)]
    want = oracle.fd_oscillator_spectrum(UNIT, 10.0, 2001, 5)
    assert all(math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0) for a, b in zip(got, want))
    assert abs(got[0] - 0.5) <= 1e-4
    assert max(abs((b - a) - 1.0) for a, b in zip(got, got[1:])) <= 1e-3


_CONSTANTS = {"mass", "hbar", "alpha", "omega", "require_alpha", "require_omega"}


def _constant_reads(node):
    """Line numbers where node reads a physical constant of a PhysicalParams."""
    return {n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr in _CONSTANTS}


def test_the_eigensolvers_read_the_constants_once():
    # The shooting run meets the constants only in __init__, through
    # its energy unit; the box solver only where it converts the box to
    # oscillator lengths and where it takes hbar omega.
    tree = ast.parse(Path(oracle.__file__).read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not _constant_reads(defs["_steps"])
    methods = {node.name: node for node in defs["_ShootingRun"].body
               if isinstance(node, ast.FunctionDef)}
    assert {"_propagators", "_starts", "_wronskian", "mismatch", "nodes"} <= set(methods)
    for name, method in methods.items():
        if name != "__init__":
            assert not _constant_reads(method), name
    run = oracle._ShootingRun(oracle.ShootingConfig(0.25, (-9.0, -7.0)),
                              PhysicalParams(2.5, 0.3, alpha=1.7))
    assert not any(hasattr(run, name) for name in ("p", "c2", "dphi_scale"))
    readers = [stmt for stmt in defs["fd_oscillator_spectrum"].body if _constant_reads(stmt)]
    assert [(type(stmt), _constant_reads(stmt)) for stmt in readers] == [
        (ast.Assign, {stmt.lineno}) for stmt in readers]
    assert [stmt.targets[0].id for stmt in readers] == ["wall", "quantum"]
