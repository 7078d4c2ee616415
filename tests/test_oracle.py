"""Independent numerical machinery: quadrature, residuals, eigensolvers."""

import ast
import functools
import math
import re
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from anyon1d import anyon, duality, oracle
from anyon1d.core import NU_VALUES, ConvergenceError, Grid, PhysicalParams

UNIT = PhysicalParams(1.0, 1.0, alpha=1.0, omega=1.0)

# Shooting eigenvalues with mass = hbar = alpha = 1, n = 0..12: the
# plain bisection of _rk4_reference, a scalar step-by-step RK4 sweep, on
# each level's own run (series start at x_start = 1e-2, inward tail to
# WKB action 12).
SHOOTING_LEVELS = {
    0.25: [-8.000000053323442, -0.31999999953323743, -0.0987654315672489,
           -0.04733727760245432, -0.02768166050852798, -0.018140589268850794,
           -0.012799999761125839, -0.009512484949655134, -0.007346189005170405,
           -0.005843681388402511, -0.0047590718732052825, -0.003950617190952991,
           -0.003331944942625684],
    0.75: [-0.8888888883183748, -0.1632653055122249, -0.06611570186176663,
           -0.03555555509262396, -0.022160664464079383, -0.01512287307598758,
           -0.010973936691579544, -0.008324661643762662, -0.006530612106028068,
           -0.005259697452249684, -0.004326662961730251, -0.0036215481274849857,
           -0.003075740026668652],
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
    # A half-line keeps its finite end at t = 0 of its map, where floats
    # are as dense as at the end of a finite range.
    got = oracle.quadrature(lambda x: x ** -0.5 * math.exp(-x), 0.0, math.inf)
    assert abs(got - math.sqrt(math.pi)) <= 1e-10


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
@pytest.mark.parametrize("f, recorded", FINITE_QUADRATURES, ids=["x^2", "x^0.5", "x^1.5"])
def test_finite_range_quadrature_is_bit_identical(f, recorded):
    assert oracle.quadrature(f, 0.0, 1.0, tol=1e-12) == recorded


@pytest.mark.parametrize("a, b", [(-1.0, 2.0), (0.5, math.inf)], ids=["finite", "half_line"])
def test_each_cell_of_a_round_gets_the_bits_it_gets_alone(a, b, monkeypatch):
    # _gk15 sums every cell of a round in the same node order, so a cell's
    # value and estimate do not depend on the other cells it is sent with
    maps = []
    gk15 = oracle._gk15

    def spy(F, to_x, lo, hi):
        maps.append(to_x)
        return gk15(F, to_x, lo, hi)

    def F(x):
        return np.exp(-x * x) * np.cos(3.0 * x) + 1.0 / (1.0 + x * x)

    monkeypatch.setattr(oracle, "_gk15", spy)
    oracle.integrate(F, a, b)
    # 40 cells of growing width over the range the map reads: [a, b] in x,
    # or [0, 1] in t on the half-line
    t_lo, t_hi = (a, b) if math.isfinite(b) else (0.0, 1.0)
    cuts = t_lo + (t_hi - t_lo) * np.linspace(0.0, 1.0, 41) ** 2
    lo, hi = cuts[:-1], cuts[1:]
    val, err = gk15(F, maps[0], lo, hi)
    for i in range(40):
        alone = gk15(F, maps[0], lo[i:i + 1], hi[i:i + 1])
        assert (alone[0].tobytes(), alone[1].tobytes()) == (val[i:i + 1].tobytes(),
                                                            err[i:i + 1].tobytes()), i
    # and each gets the bits of a node loop: one float sum per cell and
    # rule, node by node in _NODE_X order from 0.0
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x, weight = maps[0](c[:, None], r[:, None] * oracle._NODE_X)
    v = (F(x.ravel()).reshape(x.shape) * weight).tolist()
    for i in range(40):
        kronrod = gauss = 0.0
        for vj, wk, wg in zip(v[i], oracle._KRONROD_W.tolist(), oracle._GAUSS_W.tolist()):
            kronrod += wk * vj
            if wg:
                gauss += wg * vj
        assert (val[i], err[i]) == (r[i] * kronrod, abs(r[i] * (kronrod - gauss))), i
    # a sum of -0.0 terms is 0.0, as that loop's sum from 0.0 gives
    assert not np.signbit(gk15(lambda x: np.full_like(x, -0.0), maps[0], lo, hi)).any()


@pytest.mark.parametrize("ends, finite_end, length", [
    ((0.0, math.inf), 0.0, 1.0), ((3.0, math.inf), 3.0, 7.0),
    ((-math.inf, 0.0), 0.0, 1.0), ((-math.inf, -2.5), -2.5, 6.0)],
    ids=["0-inf", "3-inf", "-inf-0", "-inf--2.5"])
def test_half_line_first_round_is_graded_toward_both_ends_of_its_map(ends, finite_end,
                                                                    length):
    # The first round evaluates 36 cells: 28 levels toward the finite end
    # and 8 toward infinity, the shells out to 255 L, whose last cell's
    # nodes reach about 6e4 L and no further.
    rounds = []

    def F(x):
        rounds.append(np.abs(x - finite_end))
        return np.exp(-np.abs(x))

    got = oracle.integrate(F, *ends, tol=1e-12)
    assert abs(got - math.exp(-abs(finite_end))) <= 1e-12
    first = rounds[0]
    assert first.size == 36 * 15
    assert 0.0 < first.min() < 2.0 ** -28 * length
    assert 255.0 * length < first.max() < 1e5 * length
    if ends == (0.0, math.inf):
        assert sum(r.size for r in rounds) <= 600


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

    # The first round evaluates all 56 graded cells of [0, 1] in one
    # call and refuses them before any cell is split.
    with pytest.raises(ValueError, match=r"not finite on the quadrature cell \[0\.0, "):
        oracle.quadrature(f, 0.0, 1.0)
    assert calls == 56 * 15


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_quadrature_rejects_a_non_finite_tail_probe(sign):
    # NaN past |x| = 100 must not read as decay: the first round reaches
    # 6e4 and is refused at once, naming the first cell in t order that
    # holds a NaN node, in the caller's x.
    seen = []

    def f(x):
        seen.append(x)
        return math.nan if abs(x) > 100.0 else math.exp(-abs(x))

    ends = (0.0, math.inf) if sign > 0 else (-math.inf, 0.0)
    cell = "[63.0, 127.0]" if sign > 0 else "[-127.0, -63.0]"
    with pytest.raises(ValueError, match=rf"not finite on the quadrature cell {re.escape(cell)}$"):
        oracle.quadrature(f, *ends)
    assert len(seen) == 36 * 15


def test_quadrature_messages_name_the_callers_point():
    # (-inf, b] is mapped by x = b - L t/(1 - t), but a message names the
    # cell by the x the caller's f saw, lower end first.
    with pytest.raises(ValueError, match=r"cell \[-7\.0, -3\.0\]$"):
        oracle.quadrature(lambda x: math.nan if x < -5.0 else math.exp(x), -math.inf, 0.0)
    with pytest.raises(ValueError, match=r"cell \[-7\.0, -3\.0\]$"):
        oracle.quadrature(lambda x: math.nan if -3.5 < x < -3.0 else math.exp(x),
                          -math.inf, 0.0)
    with pytest.raises(ValueError, match=r"cell \[3\.0, 7\.0\]$"):
        oracle.quadrature(lambda x: math.nan if 3.0 < x < 3.5 else math.exp(-x),
                          0.0, math.inf)
    # a cell squeezed onto the finite end by the map, not only in t
    with pytest.raises(ConvergenceError, match=r"cell \[2\.99999999999995\d*, 3\.0\] "
                                               "cannot be refined further"):
        oracle.quadrature(lambda x: (3.0 - x) ** -0.5 * math.exp(x - 3.0), -math.inf, 3.0)


@pytest.mark.parametrize("centre, ends", [(200.0, (0.0, math.inf)),
                                           (-200.0, (-math.inf, 0.0))],
                         ids=["+200", "-200"])
def test_mass_far_from_the_finite_end_is_integrated(centre, ends):
    # The bump is below 1e-17000 at the finite end and at every point a
    # few units from it: no rule that reads decay near the end may see it.
    got = oracle.integrate(lambda t: np.exp(-(t - centre) ** 2), *ends, tol=1e-12)
    assert abs(got - math.sqrt(math.pi)) <= 1e-12


def test_mass_past_the_first_doublings_is_integrated():
    # t^60 e^-t / 60!, written in logs so that no factor overflows, peaks
    # at t = 60 and integrates to 1.
    got = oracle.integrate(lambda t: np.exp(60.0 * np.log(t) - t - math.lgamma(61.0)),
                           0.0, math.inf)
    assert abs(got - 1.0) <= 1e-12


def test_quadrature_reports_nonconvergence():
    with pytest.raises(ConvergenceError):
        oracle.quadrature(lambda y: 1.0, 0.0, math.inf, tol=1e-10)


def test_quadrature_refuses_a_range_too_wide_for_floats():
    # The width b - a used to overflow, and the overflow surfaced as a
    # convergence failure.  The limit is half the largest float, so that
    # every cell's width and midpoint are floats.
    limit = r"8\.98847e\+307"
    with pytest.raises(ValueError, match=limit):
        oracle.quadrature(lambda x: math.exp(-abs(x)), -1e308, math.inf)
    with pytest.raises(ValueError, match=limit):
        oracle.quadrature(lambda x: 1.0, -1e308, 1e308)
    with pytest.raises(ValueError, match=limit):
        oracle.quadrature(lambda x: 1.0, 1e308, 1.5e308)
    with pytest.raises(ValueError, match=limit):
        oracle.quadrature(lambda x: math.exp(-abs(x)), -math.inf, 1e308)
    # Ends inside the limit whose half-line map weighs more than it: the
    # weights L/(1 - t)^2 of the first round reach 3.6e9 L.  The range is
    # refused before F is called, with no numpy warning.
    seen = []

    def F(t):
        seen.append(t)
        return np.exp(-np.abs(t - 1e300))

    for ends in ((-4e307, math.inf), (1e300, math.inf), (-math.inf, -1e300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"map of the half-line onto \[0, 1\) has "
                                                 "weights dx/dt past " + limit):
                oracle.integrate(F, *ends)
    assert seen == []
    # inside the limit nothing overflows
    half_max = 0.5 * sys.float_info.max
    got = oracle.quadrature(lambda x: 1.0, 0.0, half_max, tol=1e300)
    assert abs(got / half_max - 1.0) <= 1e-15


def _evaluator_integrands():
    """Norm and moment integrands of verify, each a function that takes
    one float or an array, with their ranges and tolerances."""
    from anyon1d import oscillator

    for nu in NU_VALUES:
        for n in range(11):
            p = UNIT.with_omega(duality.dual_frequency(n, nu, UNIT))
            yield (f"anyon n={n} nu={nu}",
                   functools.partial(lambda n, nu, p, x: anyon.wavefunction(n, nu, p, x) ** 2,
                                     n, nu, p), 0.0, math.inf, 1e-10)
        p = UNIT.with_omega(duality.dual_frequency(2, nu, UNIT))
        yield (f"extended nu={nu}",
               lambda y, nu=nu, p=p: abs(anyon.extended_wavefunction(2, nu, p, y)) ** 2,
               -math.inf, math.inf, 1e-10)
    for big_n in range(9):
        yield (f"oscillator N={big_n}",
               lambda u, big_n=big_n: oscillator.wavefunction(big_n, UNIT, u) ** 2,
               0.0, math.inf, 1e-12)
    for big_n in (0, 1, 3, 6):
        yield (f"oscillator u^2 N={big_n}",
               lambda u, big_n=big_n: u * u * oscillator.wavefunction(big_n, UNIT, u) ** 2,
               0.0, math.inf, 1e-12)


def test_array_rounds_give_the_one_point_bits_on_evaluator_integrands():
    # integrate() hands each round's nodes to the evaluators as one array;
    # quadrature() hands them over one float at a time.  The evaluators
    # give the same bits either way, so the two integrals must agree.
    for label, f, a, b, tol in _evaluator_integrands():
        assert oracle.integrate(f, a, b, tol) == oracle.quadrature(f, a, b, tol), label
    got = oracle.integrate(lambda u: np.exp(-u * u), -math.inf, math.inf, tol=1e-12)
    assert got == oracle.quadrature(lambda u: math.exp(-u * u), -math.inf, math.inf,
                                    tol=1e-12)


@pytest.mark.parametrize("integrate, f", [
    (oracle.quadrature, lambda x: math.exp(-x) / (1.0 + math.exp(-x))),
    (oracle.integrate, lambda t: np.exp(-t) / (1.0 + np.exp(-t)))],
    ids=["math.exp", "np.exp"])
def test_fermi_function_in_an_overflow_safe_form(integrate, f):
    # 1/(1 + e^x) over [2, inf) is log1p(e^-2); written with e^-x it
    # overflows nowhere, however far out it is called.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate(f, 2.0, math.inf)
    assert got == pytest.approx(math.log1p(math.exp(-2.0)), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("integrate, f, a, error", [
    (oracle.quadrature, lambda x: 1.0 / (1.0 + math.exp(x)), 2.0, OverflowError),
    (oracle.integrate, lambda t: 1.0 / (1.0 + np.exp(t)), 2.0, RuntimeWarning),
    # the domain of the wavefunction ends at 1.25e149 at unit constants
    (oracle.integrate, lambda x: anyon.wavefunction(0, 0.25, UNIT, x) ** 2, 1e147,
     ValueError)],
    ids=["math.exp", "np.exp", "anyon_past_its_domain"])
def test_integrand_that_overflows_far_out_raises(integrate, f, a, error):
    # The first round reaches 6e4 L past the finite end, so an integrand
    # that raises or warns there fails loudly instead of returning a number.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            integrate(f, a, math.inf)


@pytest.mark.parametrize("f, a, b, outcome", [
    # the far cell, which holds the weight that never decays, is named
    (lambda x: 1.0, 0.0, math.inf,
     (ConvergenceError, r"exceeded 4096 intervals .*the largest estimate is on the cell "
                        r"\[\d+\.\d+, inf\]$")),
    (lambda x: 1.0, -math.inf, -2.0,
     (ConvergenceError, r"exceeded 4096 intervals .*the largest estimate is on the cell "
                        r"\[-inf, -\d+\.\d+\]$")),
    (lambda x: (1.0 + abs(x)) ** -1.5, -math.inf, math.inf,
     (ConvergenceError, r"cell \[-9007199254740991\.0, -4503599627370495\.0\] "
                        "cannot be refined further")),
    (lambda x: math.exp(-abs(x - 3.0)) / math.sqrt(abs(x - 3.0)), -math.inf, 3.0,
     (ConvergenceError, r"cell \[2\.99999999999995\d*, 3\.0\] cannot be refined further")),
    (lambda x: (x / 1e280) ** -1.5 / 1e280, 1e280, math.inf,
     (ValueError, r"weights dx/dt past 8\.98847e\+307")),
    (lambda x: math.exp(-x * x), -math.inf, math.inf, math.sqrt(math.pi))],
    ids=["no_decay", "no_decay_to_-2", "slow_decay", "singular_end_3",
         "weights_past_the_limit", "gaussian"])
def test_integrand_is_called_only_at_finite_points_inside_the_range(f, a, b, outcome):
    # Whether the integral converges, stops with ConvergenceError or is
    # refused for its weights, f sees only finite points strictly inside
    # the range: never an end, never infinity.
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    if isinstance(outcome, float):
        assert abs(oracle.quadrature(g, a, b) - outcome) <= 1e-10
    else:
        error, message = outcome
        with pytest.raises(error, match=message):
            oracle.quadrature(g, a, b)
    assert seen
    assert all(math.isfinite(x) and a < x < b for x in seen)


def test_quadrature_takes_an_integrand_that_refuses_arrays():
    # The shape of a Laguerre-weight norm built from math.exp, which
    # takes one float only.
    from anyon1d import specfun

    for nu in NU_VALUES:
        two_nu = 2.0 * nu
        for n in range(21):  # 20 is QUAD_N_MAX of perfbench's oracle_solve
            def f(y):
                return (math.exp(-y) * y ** two_nu
                        * specfun.laguerre(n, two_nu - 1.0, y) ** 2)

            with pytest.raises(TypeError):
                oracle.integrate(f, 0.0, math.inf, tol=1e-10)
            got = oracle.quadrature(f, 0.0, math.inf, tol=1e-10)
            closed = 2.0 * (n + nu) * math.exp(
                specfun.log_gamma(n + two_nu) - specfun.log_gamma(n + 1.0))
            assert abs(got - closed) <= 1e-8 * closed


def test_integrate_stops_before_a_round_passes_the_interval_cap():
    sizes = []

    def F(t):
        sizes.append(t.size)
        return np.sin(1e7 * t)

    with pytest.raises(ConvergenceError,
                       match=rf"exceeded {oracle._MAX_INTERVALS} intervals"):
        oracle.integrate(F, 0.0, 1.0, tol=1e-12)
    assert len(sizes) > 2
    assert all(size % 15 == 0 for size in sizes)
    cells = [size // 15 for size in sizes]
    # every round after the first halves cells that are already held, so
    # the cells held after the last round are the first round's plus one
    # per split, and no round evaluates more than the cap
    assert cells[0] + sum(cells[1:]) // 2 <= oracle._MAX_INTERVALS
    assert max(cells) <= oracle._MAX_INTERVALS


def test_integrate_refuses_an_integrand_of_the_wrong_shape():
    with pytest.raises(ValueError, match="one value per point"):
        oracle.integrate(lambda t: 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="one value per point"):
        oracle.integrate(lambda t: np.ones(2), 0.0, math.inf)


@pytest.mark.parametrize("integrate, f, value", [
    (oracle.integrate, lambda x: np.exp(1j * x), "(1+3.7093746869281167e-09j)"),
    (oracle.quadrature, lambda t: complex(t, 1.0), "(3.7093746869281167e-09+1j)")],
    ids=["integrate", "quadrature"])
def test_a_complex_integrand_is_refused_by_name(integrate, f, value):
    # integrate() used to return the integral of the real part with only
    # a ComplexWarning, and quadrature() raised TypeError.  The message
    # names the first node of the first round, in the cell [0, 2^-28].
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            integrate(f, 0.0, 1.0)
    assert str(refused.value) == ("integrand must return real values, got complex128 values "
                                  f"such as {value} at x = 3.7093746869281167e-09")


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
    (UNIT, 10.0, 10 ** 9, "point count"),       # refused before any array is built
])
def test_fd_spectrum_refuses_a_box_outside_the_floats_at_once(p, box, points, message):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        oracle.fd_oscillator_spectrum(p, box, points, 1)
    assert time.perf_counter() - start < 1.0


def test_fd_spectrum_near_the_box_domain_edges():
    # A box of 1e-70 oscillator lengths is a bare particle in a box: the
    # levels are (1 - cos(k pi/(points - 1)))/h^2 of the discrete
    # Laplacian, on the 2002-point grid that 2001 points are solved on.
    # At 1e70 the matrix is nearly diagonal and its levels are finite and
    # increasing.
    small = oracle.fd_oscillator_spectrum(UNIT, 1e-70, 2001, 3)
    h = 2e-70 / 2001
    box_levels = [(1.0 - math.cos(k * math.pi / 2001)) / (h * h) for k in (1, 2, 3)]
    assert all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(small, box_levels))
    large = oracle.fd_oscillator_spectrum(UNIT, 1e70, 2001, 3)
    assert all(math.isfinite(level) and level > 0.0 for level in large)
    assert large == sorted(large)


def test_fd_spectrum_ground_state_in_a_huge_box_ends_by_the_stop_rule(monkeypatch):
    # At 1e70 oscillator lengths the couplings, about 5e-135, lie far
    # below the roundoff of the diagonal, which starts at u_0^2/2 near
    # 1.2e133: each level is its sector's diagonal entry to within the
    # stop width, and row 0 of the two sectors gives the lowest two levels
    # as a degenerate pair.  The ground state sits at the low end of its
    # bracket, and no step cap may end its midpoint sweeps first.
    for points in (2001, 2002):
        sectors = _solver_sectors(points, 1e70, monkeypatch)
        levels = oracle.fd_oscillator_spectrum(UNIT, 1e70, points, 3)
        assert levels == sorted(levels)
        for j, level in enumerate(levels):
            entry = sectors[j % 2].diag[j // 2]
            assert abs(level - entry) <= oracle._stop_width(entry, sectors[0].abs_off), j
        assert abs(levels[1] - levels[0]) <= 1e-13 * levels[0]


@pytest.mark.parametrize("points", [2001, 2002])
@pytest.mark.parametrize("box", [1e-70, 0.2, 10.0, 1e70])
def test_parity_sector_diagonals_rise_from_row_one(points, box, monkeypatch):
    # _Sector._sweep stops at the first forbidden row past row 0; that
    # is the full sweep's count only if the diagonal never falls after it.
    # Both sectors the solver builds, s = 0 and s = 1/2, must keep that.
    sectors = _solver_sectors(points, box, monkeypatch)
    assert len(sectors) == 2
    for sector in sectors:
        assert all(a <= b for a, b in zip(sector.diag[1:], sector.diag[2:]))


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
    """Each level of the full-line box matrix bisected on its own from the
    full Gershgorin interval, on the grid that is solved: an odd point
    count is rounded up to the next even one."""
    points += points % 2
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


def _box_matrix(points, box_halfwidth=10.0):
    """Diagonal and coupling of the full-line box matrix at unit constants
    on the grid that is solved: 2 rows interior points x = (k + 1/2) h,
    k = -rows .. rows - 1, of 2 rows + 2 points with the walls."""
    rows = (points - 1) // 2
    h = 2.0 * box_halfwidth / (2 * rows + 1)
    xs = (np.arange(-rows, rows) + 0.5) * h
    kinetic = 1.0 / (h * h)
    return kinetic + 0.5 * xs * xs, -0.5 * kinetic


def _solver_sectors(points, box_halfwidth, monkeypatch):
    """The s = 0 and s = 1/2 sectors fd_oscillator_spectrum builds for
    this grid at unit constants, as one level's solve leaves them."""
    built = []
    init = oracle._Sector.__init__

    def recorded(self, *args):
        init(self, *args)
        built.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(oracle._Sector, "__init__", recorded)
        oracle.fd_oscillator_spectrum(UNIT, box_halfwidth, points, 1)
    return built


def _reference_bound(points, level, box_halfwidth=10.0):
    """How far a box level may sit from _fd_spectrum_reference's: the
    reference's own stop width plus the Sturm count's backward error."""
    diag, off = _box_matrix(points, box_halfwidth)
    lo0 = float(diag.min()) - 2.0 * abs(off)
    hi0 = float(diag.max()) + 2.0 * abs(off)
    return max(1e-13 * max(1.0, abs(level)), 8.0 * np.finfo(float).eps * max(abs(lo0), abs(hi0)))


@pytest.mark.parametrize("points, count", [(2001, 5), (4433, 20)])
def test_fd_spectrum_matches_the_per_level_bisection(points, count):
    # Shared probes and Newton steps move no level by more than the
    # per-level bisection's own resolution.
    got = oracle.fd_oscillator_spectrum(UNIT, 10.0, points, count)
    want = _fd_spectrum_reference(UNIT, 10.0, points, count)
    assert all(abs(a - b) <= _reference_bound(points, b) for a, b in zip(got, want))


@pytest.mark.parametrize("points", [2001, 2002])
def test_fd_spectrum_long_ladder_matches_the_per_level_bisection(points):
    # A box of 0.2 oscillator lengths is nearly a bare box: level 19 sits
    # near 12,336 hbar omega, so the count ladder of each sector's top
    # level climbs 11 rungs, from 1/(2 W^2) = 12.5 to 12,800 hbar omega,
    # before one holds it.
    got = oracle.fd_oscillator_spectrum(UNIT, 0.2, points, 20)
    want = _fd_spectrum_reference(UNIT, 0.2, points, 20)
    assert want[-1] > 1e4
    assert all(abs(a - b) <= _reference_bound(points, b, 0.2) for a, b in zip(got, want))


def _recorded_counts(monkeypatch):
    """The energies of every Sturm count the box solver makes from now on."""
    probes = []
    sweep = oracle._Sector._sweep

    def recorded(self, lam):
        probes.append(lam)
        return sweep(self, lam)

    monkeypatch.setattr(oracle._Sector, "_sweep", recorded)
    return probes


@pytest.mark.parametrize("points, count, bisected_top",
                         [(4433, 20, 49131.5), (13330, 10, 444180.6)])
def test_fd_spectrum_counts_from_the_bottom_of_the_spectrum(points, count, bisected_top,
                                                           monkeypatch):
    # Each level counts at 1, 2, 4, ... hbar omega above the bottom of
    # the Gershgorin interval until a rung holds it, so no count lands
    # above twice the highest level plus one hbar omega.  Bisecting the
    # whole Gershgorin interval instead counted at bisected_top first,
    # and took 42 counts on the 13,330-point grid against 16 for the
    # ladder.
    probes = _recorded_counts(monkeypatch)
    levels = oracle.fd_oscillator_spectrum(UNIT, 10.0, points, count)
    assert max(probes) <= 2.0 * levels[-1] + 1.0 < bisected_top
    if points == 13330:
        assert len(probes) <= 42 // 2


def test_fd_spectrum_ladder_in_a_bare_box_starts_at_its_lowest_level(monkeypatch):
    # In a box of 1e-70 oscillator lengths no row is classically
    # forbidden, so every count is a full sweep, and the levels sit near
    # 1e140 hbar omega.  A ladder from 1 hbar omega would climb about 465
    # rungs (939 counts); from the bare box's bound 1/(2 W^2) it climbs
    # five or six.  Bisecting the whole Gershgorin interval took 35.
    probes = _recorded_counts(monkeypatch)
    levels = oracle.fd_oscillator_spectrum(UNIT, 1e-70, 2001, 3)
    assert max(probes) <= 2.0 * levels[-1]
    assert len(probes) <= 35 // 2


def _full_sweeps_per_level(monkeypatch):
    """The number of full sweeps each level of the box solver takes from
    now on, one entry per level in the order the levels are solved."""
    sweeps = []
    log_det_sweep = oracle._Sector.log_det_sweep
    sector_level = oracle._sector_level

    def counted_sweep(self, lam):
        sweeps[-1] += 1
        return log_det_sweep(self, lam)

    def counted_level(*args):
        sweeps.append(0)
        return sector_level(*args)

    monkeypatch.setattr(oracle._Sector, "log_det_sweep", counted_sweep)
    monkeypatch.setattr(oracle, "_sector_level", counted_level)
    return sweeps


@pytest.mark.parametrize("points, count, midpoint_total", [(13330, 10, 48), (4433, 20, 104)])
def test_fd_spectrum_newton_starts_at_the_predicted_level(points, count, midpoint_total,
                                                          monkeypatch):
    # The levels of the two sectors interlace about one hbar omega apart.
    # From the second level on, Newton starts at 2 lam_(j-1) - lam_(j-2),
    # with lam_(-1) = -lam_0, the ground level's mirror image, so the
    # second level starts at 3 lam_0.  Each takes two or three full
    # sweeps where a start at the bracket's midpoint, up to half a
    # spacing off, took up to 8 (midpoint_total sweeps in all).  The
    # ground level still starts at the midpoint.
    sweeps = _full_sweeps_per_level(monkeypatch)
    oracle.fd_oscillator_spectrum(UNIT, 10.0, points, count)
    assert len(sweeps) == count
    assert sweeps[0] <= 3 and sweeps[1] <= 3
    assert max(sweeps[2:]) <= 3
    assert sum(sweeps) <= 11 + 3 * (count - 2) < midpoint_total


@pytest.mark.parametrize("box, points", [(30.0, 100), (100.0, 100), (1000.0, 100),
                                         (1000.0, 2001)])
def test_fd_spectrum_of_a_coarse_box_matches_the_per_level_bisection(box, points):
    # On these grids some levels sit at an end of their isolated bracket,
    # where no Newton step lands strictly inside it, so they are bisected
    # by midpoint sweeps until the stop rule ends them.
    got = oracle.fd_oscillator_spectrum(UNIT, box, points, 20)
    want = _fd_spectrum_reference(UNIT, box, points, 20)
    assert all(abs(a - b) <= _reference_bound(points, b, box) for a, b in zip(got, want))


@pytest.mark.parametrize("mass, hbar", [(1.0, 1.0), (2.5, 0.3)])
def test_fd_spectrum_levels_do_not_depend_on_the_count(mass, hbar):
    # Level j of a box is the same float whatever count the caller asks
    # for: the first k levels of a count = 20 solve, bit for bit.  When
    # each spin sector climbed one count ladder to the highest level the
    # call wanted, a level's bracket top, and so its bisection, depended
    # on count, and 56 of these 180 pairs differed, by up to 3.9e-11
    # relative.
    p = PhysicalParams(mass, hbar, omega=1.0)
    length = math.sqrt(hbar / mass)
    for box in (0.2, 1.0, 10.0, 100.0, 1e70, 1e-70):
        for points in (100, 2001, 2002):
            full = oracle.fd_oscillator_spectrum(p, box * length, points, 20)
            for k in (1, 2, 3, 5, 10):
                got = oracle.fd_oscillator_spectrum(p, box * length, points, k)
                assert got == full[:k], (box, points, k)


@pytest.mark.parametrize("points", [2001, 2002])
def test_sector_level_ignores_a_start_it_cannot_use(points, monkeypatch):
    # A start outside the isolated bracket, on one of its ends, or at a
    # neighbouring level gives the same level as the midpoint start,
    # within the reference's resolution: the counts, not the start, keep
    # the solve on its level.  The isolated bracket is the one the solver
    # bisects to, below the first rung lo0 + 2^j that holds the level (a
    # box of 10 oscillator lengths starts the ladder at 1 hbar omega).
    diag, off = _box_matrix(points)
    lo0 = float(diag.min()) - 2.0 * abs(off)
    hi0 = float(diag.max()) + 2.0 * abs(off)
    want = _fd_spectrum_reference(UNIT, 10.0, points, 8)
    for parity, sector in enumerate(_solver_sectors(points, 10.0, monkeypatch)):
        for rank in range(1, 5):
            level = want[2 * (rank - 1) + parity]
            rise = 1.0
            while sector.below(lo0 + rise) < rank:
                rise *= 2.0
            rung = lo0 + rise
            lo, hi = lo0, rung
            while not (sector.below(lo) == rank - 1 and sector.below(hi) == rank):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if sector.below(mid) >= rank else (mid, hi)
            starts = [math.nan, -math.inf, lo0 - 1.0, lo, hi, math.nextafter(lo, hi),
                      math.nextafter(hi, lo), rung, hi0, 2.0 * hi0, level]
            starts += [w for w in want if w != level]
            for start in starts:
                got = oracle._sector_level(sector, rank, lo0, hi0, 1.0, start)
                assert abs(got - level) <= _reference_bound(points, level), (rank, start)


def _sector_pivots(diag, couplings, lam):
    """Pivots of the tridiagonal with the given diagonal and coupling
    products couplings[i] between rows i, i + 1, over every row."""
    pivots = []
    q = 1.0
    for i, d in enumerate(diag):
        q = d - lam if i == 0 else d - lam - couplings[i - 1] / q
        if abs(q) < 1e-290:
            q = -1e-290
        pivots.append(q)
    return pivots


def _sector_count_reference(diag, couplings, lam):
    return sum(q < 0.0 for q in _sector_pivots(diag, couplings, lam))


def _reference_sectors(points, box):
    """The full-line box matrix, its coupling, and its even and odd
    sectors as (diagonal, coupling products), folded row by row: the two
    centre rows are mirror images, so folding one onto the other adds
    +off or -off to the first diagonal entry of the half at x > 0."""
    diag, off = _box_matrix(points, box)
    right = diag[diag.size // 2:].tolist()
    couplings = [off * off] * len(right)
    even = ([right[0] + off] + right[1:], couplings)
    odd = ([right[0] - off] + right[1:], couplings)
    return diag, off, (even, odd)


SECTOR_GRIDS = [(2001, 10.0), (2002, 10.0), (101, 7.3), (100, 7.3)]


@pytest.mark.parametrize("points, box", SECTOR_GRIDS)
def test_stopped_sector_count_equals_full_sweep(points, box, monkeypatch):
    # The half-line sectors are the fold of the full-line matrix, bit for
    # bit, and a stopped count is the count of a sweep over every row.
    diag, off, references = _reference_sectors(points, box)
    sectors = _solver_sectors(points, box, monkeypatch)
    assert [sector.diag for sector in sectors] == [d for d, _ in references]
    lo0 = float(diag.min()) - 2.0 * abs(off)
    hi0 = float(diag.max()) + 2.0 * abs(off)
    levels = oracle.fd_oscillator_spectrum(UNIT, box, points, 20)
    near = [level * (1.0 + t) for level in levels
            for t in (-1e-12, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-12)]
    near += [math.nextafter(level, d) for level in levels for d in (-math.inf, math.inf)]
    lams = np.linspace(lo0, hi0, 41).tolist() + np.linspace(0.0, 25.0, 101).tolist() + near
    for lam in lams:
        got = [sector._sweep(lam) for sector in sectors]
        want = [_sector_count_reference(d, c, lam) for d, c in references]
        assert got == want, lam
        assert [sector.log_det_sweep(lam)[0] for sector in sectors] == want, lam
    # the sectors split the full count wherever the full count is clear
    for lam in np.linspace(0.01, 25.0, 37).tolist():
        assert (sum(sector._sweep(lam) for sector in sectors)
                == _sturm_count_reference(diag.tolist(), off * off, lam))


@pytest.mark.parametrize("points, box", SECTOR_GRIDS)
def test_log_det_sweep_slope_is_the_derivative_of_log_det(points, box, monkeypatch):
    # log|det| is the sum of log|q_i| over the reference pivots.  At a
    # step of 5e-5, and with every level at least 0.1 away, its central
    # difference is good to about 2e-7 relative: truncation and the
    # rounding of the pivots each give about 1e-7.
    _, _, references = _reference_sectors(points, box)
    sectors = _solver_sectors(points, box, monkeypatch)
    levels = oracle.fd_oscillator_spectrum(UNIT, box, points, 20)
    lams = [lam for lam in np.linspace(-5.0, levels[-1] - 0.1, 61).tolist()
            if min(abs(lam - level) for level in levels) >= 0.1]
    assert len(lams) >= 30
    step = 5e-5

    def log_det(reference, lam):
        return math.fsum(math.log(abs(q)) for q in _sector_pivots(*reference, lam))

    for lam in lams:
        for sector, reference in zip(sectors, references):
            want = (log_det(reference, lam + step) - log_det(reference, lam - step)) / (2 * step)
            got = sector.log_det_sweep(lam)[1]
            assert abs(got - want) <= 1e-6 * abs(want), (lam, got, want)


@pytest.mark.parametrize("points, count", [(100, 20), (2002, 5), (4434, 20)])
def test_fd_spectrum_even_point_count(points, count):
    # The reference bisects the full-line matrix on linspace nodes, so
    # the levels agree to its stop width plus the Sturm count's backward
    # error.
    got = oracle.fd_oscillator_spectrum(UNIT, 10.0, points, count)
    want = _fd_spectrum_reference(UNIT, 10.0, points, count)
    assert all(abs(a - b) <= _reference_bound(points, b) for a, b in zip(got, want))


@pytest.mark.parametrize("points", [101, 2001, 4433])
def test_fd_spectrum_odd_point_count_solves_the_next_even_grid(points):
    # An odd count has the rows and the step of the next even count.
    q = PhysicalParams(2.5, 0.3, omega=1.3)
    for p in (UNIT, q):
        assert (oracle.fd_oscillator_spectrum(p, 7.3, points, 20)
                == oracle.fd_oscillator_spectrum(p, 7.3, points + 1, 20))


def test_shooting_config_validation():
    good = dict(nu=0.25, energy_bracket=(-9.0, -7.0))
    oracle.ShootingConfig(**good)
    with pytest.raises(ValueError, match="nu"):
        oracle.ShootingConfig(**{**good, "nu": 0.5})
    with pytest.raises(ValueError):
        oracle.ShootingConfig(**{**good, "energy_bracket": (-7.0, -9.0)})
    with pytest.raises(ValueError):
        oracle.ShootingConfig(**{**good, "energy_bracket": (-7.0, 1.0)})
    # anything but two items is refused by name, not by a bare unpack error
    for bracket in (None, -1.0, (-9.0,), (-9.0, -8.0, -7.0)):
        with pytest.raises(ValueError, match="energy bracket must be two real numbers"):
            oracle.ShootingConfig(**{**good, "energy_bracket": bracket})


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


def test_a_float32_nu_scans_as_the_float_it_holds():
    # float32 probes would put the shot levels up to 9e-7 off
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    assert (repr(oracle.scan_level_brackets(np.float32(0.25), p, 3))
            == repr(oracle.scan_level_brackets(0.25, p, 3)))


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
    # would plan 484,422 outward and 332,692 inward RK4 steps.
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"too shallow"):
        oracle.shoot_anyon_energy(oracle.ShootingConfig(0.25, (-2e-8, -1e-8)), p, 0)
    assert time.perf_counter() - start < 1.0


def test_shooting_names_a_bracket_too_wide_for_its_shallow_end():
    # hi = -0.5 is an ordinary level energy, and a narrow bracket ending
    # there plans at most 385 steps a sweep; lo = -1e6 caps the step at
    # 0.05/sqrt(2e6), so the inward sweep would take 467,649.
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^energy bracket \(-1000000\.0, -0\.5\) is too wide: "
                                         r"its lower end sets the RK4 step"):
        oracle.shoot_anyon_energy(oracle.ShootingConfig(0.25, (-1e6, -0.5)), p, 0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("consts, bracket, message", [
    # hi^2 underflows to 0
    ((1.0, 1.0, 1.0), (-1e-300, -1e-301), "too shallow"),
    # over the energy unit 1e100 both ends underflow to 0
    ((1e100, 1.0, 1.0), (-1e-300, -1e-301), "too shallow"),
    # over the energy unit 1e-100 the lower end overflows
    ((1e-100, 1.0, 1.0), (-1e300, -1e299), "too deep"),
    # 2 lo, the deepest coefficient of the steps, overflows
    ((1.0, 1.0, 1.0), (-1e308, -1.0), "too deep"),
    # hi^2 underflows to 0 while lo hi does not: x_end would pass 1e170
    ((1.0, 1.0, 1.0), (-1.0, -1e-170), "too shallow"),
])
def test_shooting_refuses_a_bracket_outside_the_floats(consts, bracket, message):
    mass, hbar, alpha = consts
    p = PhysicalParams(mass, hbar, alpha=alpha)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message) as refused:
        oracle.shoot_anyon_energy(oracle.ShootingConfig(0.25, bracket), p, 0)
    assert str(bracket) in str(refused.value)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("hi", [-2e5, -10.9, -1.3, -0.5, -3.2e-3, -4.9e-5, -7.25e-7])
def test_tail_end_is_where_the_wkb_action_reaches_its_target(hi):
    # From the deep edge of the domain to its shallow one, the action
    # int sqrt(g) dx from the turning point of hi to x_end, by mpmath's
    # quadrature, is the target (measured: within 1.2e-11).
    mpmath = pytest.importorskip("mpmath")
    ell = 0.25 * 0.75
    x_end = oracle._tail_end(hi, ell)
    with mpmath.workdps(30):
        k2 = -2 * mpmath.mpf(hi)
        x_t = (1 + mpmath.sqrt(1 + ell * k2)) / k2
        action = mpmath.quad(lambda x: mpmath.sqrt(k2 - 2 / x - ell / x ** 2),
                             [x_t, (x_t + x_end) / 2, x_end])
    assert abs(action - oracle._TAIL_ACTION) <= 1e-9 * oracle._TAIL_ACTION


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
        solve_calls = len(calls)
        calls.clear()
        want = _plain_bisection(cfg, p)
        assert math.isclose(got, want, rel_tol=oracle._SHOOTING_TOL, abs_tol=0.0)
        assert solve_calls < len(calls)


def test_shooting_evaluation_budget(monkeypatch):
    # Mismatch evaluations of the level solves for n <= 12 at both nu,
    # the two bracket ends of each included.  Illinois halving took 255;
    # Anderson-Bjorck scaling takes 217.
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    levels = [(nu, oracle.scan_level_brackets(nu, p, 12)) for nu in NU_VALUES]
    calls = []
    mismatch = oracle._ShootingRun.mismatch

    def counted(run, eps):
        calls.append(eps)
        return mismatch(run, eps)

    monkeypatch.setattr(oracle._ShootingRun, "mismatch", counted)
    for nu, brackets in levels:
        for n, bracket in enumerate(brackets):
            oracle.shoot_anyon_energy(oracle.ShootingConfig(nu, bracket), p, n)
    assert len(calls) <= 220


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


# unit constants and two sets whose length unit hbar^2/(m alpha) is
# 1e-20 and 1e-30
FAR_CONSTANTS = [(1e-50, 1e-20, 1e30), (1e30, 1e-10, 1e-20)]


@pytest.mark.parametrize("nu", NU_VALUES)
def test_propagator_products_match_sequential_rk4(nu):
    # The block walk against a step-by-step sweep of the run's own
    # table, at unit constants and at the two far sets.
    for mass, hbar, alpha in [(1.0, 1.0, 1.0)] + FAR_CONSTANTS:
        p = PhysicalParams(mass, hbar, alpha=alpha)
        brackets = oracle.scan_level_brackets(nu, p, 20)
        for n in (0, 5, 12, 20):
            lo, hi = brackets[n]
            run = oracle._ShootingRun(oracle.ShootingConfig(nu, brackets[n]), p)
            for eps in np.linspace(lo, hi, 5).tolist():
                mismatch, nodes = _rk4_reference(run, eps)
                assert abs(run.mismatch(eps) - mismatch) <= 1e-10
                assert run.nodes(eps) == nodes


@pytest.mark.parametrize("phi, changes", [
    ([[1.0, 0.0, -1.0]], 1),
    ([[1.0, 0.0, 0.0, -2.0, 0.0, 3.0]], 2),
    ([[1.0, 0.0, 1.0]], 0),
    ([[0.0, -1.0, 1.0], [2.0, -0.0, -2.0]], 2),
    ([[0.0, 0.0, 0.0]], 0)],
    ids=["node_on_a_step_end", "zero_runs", "touch_without_crossing", "both_sweeps",
         "all_zero"])
def test_a_node_on_a_step_end_is_counted(phi, changes):
    # np.sign gives 0 at an exact zero, and 0 * x < 0 is false, so a
    # product-of-signs count misses a node that falls on a step end.
    assert sum(oracle._sign_changes(row) for row in phi) == changes


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


@pytest.mark.parametrize("bracket, width", [
    # deepest: lo at -_DEEPEST, hi just short of x_match >= x_end; 8945 steps
    ((-1e9, -2e5), 8960),
    # shallowest: 1 percent shallower needs more than _MAX_STEPS = 65536
    # steps; 65490 steps, the longest walk any run can take
    ((-7.4e-7, -7.25e-7), 65504)],
    ids=["deepest", "shallowest"])
def test_raw_propagator_entries_stay_below_2_to_the_14(bracket, width):
    # The block passes need no rescale because raw entries stay below
    # 2^14 on every bracket a run accepts; these two sit at the edges of
    # that domain, where the walk still gives the step-by-step sweep.
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    run = oracle._ShootingRun(oracle.ShootingConfig(0.25, bracket), p)
    assert run.h.shape[1] == width
    for eps in np.linspace(*bracket, 5).tolist():
        assert np.abs(run._propagators(eps)).max() < 2.0 ** 14
        mismatch, nodes = _rk4_reference(run, eps)
        assert abs(run.mismatch(eps) - mismatch) <= 1e-10
        assert run.nodes(eps) == nodes
    lo, hi = bracket
    past = [((lo * 1.0001, hi), "too deep"), ((lo, hi * 1.05), "too deep")] if lo < -1.0 \
        else [((lo * 0.99, hi * 0.99), "too shallow")]
    for refused, message in past:
        with pytest.raises(ValueError, match=message):
            oracle._ShootingRun(oracle.ShootingConfig(0.25, refused), p)


def _phi_at_step_ends(run, eps):
    """phi at every step end of both sweeps, from per-step prefix
    products of the propagators formed by doubling, each pass rescaled."""

    def _rescaled(m):
        # each matrix divided by the power of two that brings its largest
        # entry into [0.5, 1): exact, and it keeps every sign
        return np.ldexp(m, -np.frexp(np.abs(m).max(axis=(0, 1)))[1])

    e = eps / run.energy_unit
    m = _rescaled(run._propagators(e))
    d = 1
    while d < m.shape[-1]:
        m[..., d:] = _rescaled(oracle._matmul(m[..., d:], m[..., :-d]))
        d *= 2
    phi0, dphi0 = run._starts(e)[:, :, None]
    return np.concatenate([phi0, m[0, 0] * phi0 + m[0, 1] * dphi0], axis=1)


@pytest.mark.parametrize("mass, hbar, alpha", [(1.0, 1.0, 1.0), (2.5, 0.3, 1.7)])
@pytest.mark.parametrize("nu", NU_VALUES)
def test_block_node_count_is_the_per_step_count(nu, mass, hbar, alpha):
    # nodes() samples phi at the ends of 32-step blocks only.  That sees
    # every sign change while two of them lie more than a block apart;
    # the step rule keeps them at least twice that far apart, at the two
    # ends and the midpoint of every bracket of the scan domain.
    block = 2 ** oracle._BLOCK_PASSES
    p = PhysicalParams(mass, hbar, alpha=alpha)
    closest = math.inf
    for bracket in oracle.scan_level_brackets(nu, p, anyon.LEVEL_MAX):
        run = oracle._ShootingRun(oracle.ShootingConfig(nu, bracket), p)
        for eps in (bracket[0], 0.5 * (bracket[0] + bracket[1]), bracket[1]):
            phi = _phi_at_step_ends(run, eps)
            assert run.nodes(eps) == sum(oracle._sign_changes(row) for row in phi.tolist())
            for row in phi:
                ends = np.flatnonzero(row)
                positive = row[ends] > 0.0
                changes = ends[1:][positive[1:] != positive[:-1]]
                if len(changes) > 1:
                    closest = min(closest, np.diff(changes).min())
    # measured: 66 steps
    assert 2 * block <= closest < math.inf


def test_node_count_multiplies_at_most_twice_what_mismatch_does(monkeypatch):
    # A node count and a mismatch read the same block walk, so they
    # multiply the same matrices; prefix products over every step,
    # W log2 W matrices, would cost 10 to 12 mismatches.
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    brackets = oracle.scan_level_brackets(0.25, p, 100)
    elements = []
    matmul = oracle._matmul

    def counted(a, b):
        product = matmul(a, b)
        elements.append(product.size)
        return product

    monkeypatch.setattr(oracle, "_matmul", counted)
    for n in (0, 12, 100):
        run = oracle._ShootingRun(oracle.ShootingConfig(0.25, brackets[n]), p)
        eps = 0.5 * (brackets[n][0] + brackets[n][1])
        elements.clear()
        run.mismatch(eps)
        walk = sum(elements)
        elements.clear()
        run.nodes(eps)
        assert sum(elements) == walk


def test_a_state_collapsed_to_zero_is_a_convergence_error(monkeypatch):
    # The walk divides each block's state by |phi| + |phi'|; a zero state
    # is reported by name, not as a ZeroDivisionError.
    run = oracle._ShootingRun(oracle.ShootingConfig(0.25, (-9.0, -7.0)),
                              PhysicalParams(1.0, 1.0, alpha=1.0))
    monkeypatch.setattr(run, "_propagators", lambda e: np.zeros((2, 2, 2, run.h.shape[1])))
    for probe in (run.mismatch, run.nodes):
        with pytest.raises(ConvergenceError, match="collapsed to zero"):
            probe(-8.0)


@functools.cache
def _unit_table_widths(nu):
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    return tuple(oracle._ShootingRun(oracle.ShootingConfig(nu, bracket), p).h.shape[1]
                 for bracket in oracle.scan_level_brackets(nu, p, 12))


@pytest.mark.parametrize("mass, hbar, alpha", FAR_CONSTANTS)
def test_shooting_far_from_unit_constants(mass, hbar, alpha):
    # The run computes in lengths hbar^2/(m alpha) and energies
    # m alpha^2/hbar^2, so each level's table here is the one that level
    # gets at unit constants.
    p = PhysicalParams(mass, hbar, alpha=alpha)
    for nu in NU_VALUES:
        brackets = oracle.scan_level_brackets(nu, p, 12)
        for n, (bracket, width) in enumerate(zip(brackets, _unit_table_widths(nu))):
            cfg = oracle.ShootingConfig(nu, bracket)
            assert oracle._ShootingRun(cfg, p).h.shape[1] == width
            got = oracle.shoot_anyon_energy(cfg, p, n)
            expected = anyon.energy(n, nu, p)
            assert abs(got - expected) <= 1e-5 * abs(expected)


def test_shooting_table_is_as_wide_as_the_longer_sweep():
    # Both sweeps are padded with all-zero columns to the next multiple
    # of 32 steps above the longer one; the shorter one is the outward
    # sweep on the deepest levels, the inward one from n = 6 on, and at
    # nu = 3/4, n = 5 they are as long.
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    longer = set()
    for nu in NU_VALUES:
        for bracket in oracle.scan_level_brackets(nu, p, 20)[::5]:
            run = oracle._ShootingRun(oracle.ShootingConfig(nu, bracket), p)
            steps = np.count_nonzero(run.h, axis=1)
            assert run.h.shape == (2, -(-max(steps) // 32) * 32)
            for row, count in enumerate(steps):
                assert not run.h[row, count:].any() and not run.v[:, row, count:].any()
            if steps[0] != steps[1]:
                longer.add(int(np.argmax(steps)))
    assert longer == {0, 1}


def _steps_by_octave(run, lo_x, hi_x):
    """The step table of oracle._steps built octave by octave, each
    octave's step ends from one a + h arange(m + 1)."""
    vcoef = run.cfg.nu * (1.0 - run.cfg.nu)
    g_energy = 2.0 * abs(run.bracket[0])

    def vpart(x):
        return -2.0 / x - vcoef / (x * x)

    rows = []
    a = lo_x
    j = max(0, int(math.floor(math.log2(lo_x / run.x_start))))
    while a < hi_x:
        edge = min(run.x_start * 2.0 ** (j + 1), hi_x)
        if edge > a:
            g_bound = 2.0 / a + vcoef / (a * a) + g_energy
            h = min(run.x_start / oracle._START_STEPS * 2.0 ** j, 0.05 / math.sqrt(g_bound))
            m = max(1, int(math.ceil((edge - a) / h)))
            h = (edge - a) / m
            nodes = a + h * np.arange(m + 1)
            rows.append(np.stack([np.full(m, h), vpart(nodes[:-1]),
                                  vpart(nodes[:-1] + 0.5 * h), vpart(nodes[1:])]))
            a = edge
        j += 1
    return np.concatenate(rows, axis=1)


@pytest.mark.parametrize("nu", NU_VALUES)
def test_step_table_equals_the_octave_by_octave_build(nu):
    # _steps builds the rows of both sweeps in one array pass from the
    # per-octave step lengths and starts; every entry has the bits of the
    # octave-by-octave build, the inward sweep reversed and both padded
    # with zeros to the next multiple of 32 steps, for every level n <= 30.
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    for bracket in oracle.scan_level_brackets(nu, p, 30):
        run = oracle._ShootingRun(oracle.ShootingConfig(nu, bracket), p)
        x_match = max(0.6 / math.sqrt(run.bracket[0] * run.bracket[1]), 2.0 * run.x_start)
        out = _steps_by_octave(run, run.x_start, x_match)
        h, v_start, v_mid, v_end = _steps_by_octave(run, x_match, run.x_end)[:, ::-1]
        inward = np.stack([-h, v_end, v_mid, v_start])
        want = np.zeros((4, 2, -(-max(out.shape[1], inward.shape[1]) // 32) * 32))
        want[:, 0, :out.shape[1]] = out
        want[:, 1, :inward.shape[1]] = inward
        got = oracle._steps(run, x_match)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


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


def test_anderson_bjorck_solve_and_its_step_cap():
    root = oracle._anderson_bjorck(lambda x: x * x - 2.0, 1.0, -1.0, 2.0, 2.0, 1e-12)
    assert abs(root - math.sqrt(2.0)) <= 1e-12 * math.sqrt(2.0)
    # No float has x * x == 2 and no bracket is 1e-300 relative wide,
    # so the solve runs into its cap.
    with pytest.raises(ConvergenceError, match="relative width"):
        oracle._anderson_bjorck(lambda x: x * x - 2.0, 1.0, -1.0, 2.0, 2.0, 1e-300)


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
    # Halving the start point halves the first step with it; the level
    # moves by the RK4 error of the octave it adds (measured: 3.0e-9).
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    cfg = _level_config(0.25, 0)
    eps = oracle.shoot_anyon_energy(cfg, p, 0)
    monkeypatch.setattr(oracle, "_X_START", 0.5 * oracle._X_START)
    eps_halved = oracle.shoot_anyon_energy(cfg, p, 0)
    assert abs(eps_halved - eps) <= 1e-8 * abs(eps)


@pytest.mark.parametrize("nu", NU_VALUES)
def test_series_start_is_the_x_to_the_nu_solution(nu):
    # The x^nu solution of phi'' = (-2/x - nu(1 - nu)/x^2 - 2e) phi is the
    # Whittaker function M_(1/kappa, nu - 1/2)(2 kappa x), kappa^2 = -2e,
    # so the outward start phi'/phi matches it at probes from the scan's
    # deepest (-10.8) to its shallowest at n_max = 100.
    mpmath = pytest.importorskip("mpmath")
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    x = mpmath.mpf(oracle._X_START)
    with mpmath.workdps(40):
        for e in (-10.8, -8.0, -3.1, -0.9, -0.32, -0.05, -3e-3, -1e-4, -1e-5):
            # the run the scan builds at a probe e
            start = oracle._ShootingRun(oracle.ShootingConfig(nu, (1.01 * e, 0.5 * e)),
                                        p)._starts(e)
            kappa = mpmath.sqrt(-2 * mpmath.mpf(e))

            def phi(y):
                return mpmath.whitm(1 / kappa, nu - mpmath.mpf(1) / 2, 2 * kappa * y)
            want = mpmath.diff(phi, x) / phi(x)
            got = start[1, 0] / start[0, 0]
            assert abs(got - want) <= 1e-13 * abs(want), e


BUDGET_LEVELS = (0, 1, 2, 3, 5, 8, 12, 20, 30, 50, 70, 100)
BUDGET_CASES = [(nu, consts) for consts in ((1.0, 1.0, 1.0), (2.5, 0.3, 1.7))
                for nu in NU_VALUES]
BUDGET_IDS = [f"{nu}-{m},{hbar},{alpha}" for nu, (m, hbar, alpha) in BUDGET_CASES]


def _budget_solves(nu, consts):
    """The constants (m, hbar, alpha) as PhysicalParams, and a solve of
    the levels n in BUDGET_LEVELS at nu on the brackets of one scan."""
    p = PhysicalParams(*consts[:2], alpha=consts[2])
    brackets = oracle.scan_level_brackets(nu, p, max(BUDGET_LEVELS))
    return p, lambda: [oracle.shoot_anyon_energy(oracle.ShootingConfig(nu, brackets[n]), p, n)
                       for n in BUDGET_LEVELS]


@pytest.mark.parametrize("nu, consts", BUDGET_CASES, ids=BUDGET_IDS)
def test_tail_action_target_is_past_the_error_budget(nu, consts, monkeypatch):
    # A longer tail moves no level: the action, not a count of decay
    # lengths, sets the tail (measured: at most 4.1e-15; 28 decay lengths
    # moved n = 100 by up to 3.2e-10).
    _, solve = _budget_solves(nu, consts)
    default = solve()
    monkeypatch.setattr(oracle, "_TAIL_ACTION", 1.25 * oracle._TAIL_ACTION)
    for n, a, b in zip(BUDGET_LEVELS, default, solve()):
        assert abs(b - a) <= 1e-13 * abs(a), n


@pytest.mark.parametrize("nu, consts", BUDGET_CASES, ids=BUDGET_IDS)
def test_shot_levels_are_within_their_error_budget(nu, consts):
    # What is left is the RK4 step error (measured: at most 2.9e-8, at
    # n = 100); the two-term start at x_start = 1e-4 left nu = 1/4, n = 0
    # 6.6e-8 off.
    p, solve = _budget_solves(nu, consts)
    for n, got in zip(BUDGET_LEVELS, solve()):
        expected = anyon.energy(n, nu, p)
        assert abs(got - expected) <= 3.5e-8 * abs(expected), n


def test_shooting_is_deterministic():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    cfg = _level_config(0.75, 1)
    first = oracle.shoot_anyon_energy(cfg, p, 1)
    second = oracle.shoot_anyon_energy(cfg, p, 1)
    assert first == second


def test_scan_level_count_domain():
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    for n_max in (-1, 101, True, 2.0):
        with pytest.raises(ValueError, match="n_max"):
            oracle.scan_level_brackets(0.25, p, n_max)
    assert len(oracle.scan_level_brackets(0.25, p, 100)) == 101


def test_scan_level_domain_is_the_anyon_level_domain():
    # oracle imports no closed form, so the bound is compared here
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    with pytest.raises(ValueError, match=re.escape(f"in [0, {anyon.LEVEL_MAX}]")):
        oracle.scan_level_brackets(0.25, p, anyon.LEVEL_MAX + 1)


@pytest.mark.parametrize("nu, mass, hbar, alpha", [
    (0.25, 1.0, 1.0, 1.0), (0.75, 1.0, 1.0, 1.0), (0.25, 2.5, 0.3, 1.7)])
def test_scan_brackets_every_level_of_the_domain(nu, mass, hbar, alpha):
    p = PhysicalParams(mass, hbar, alpha=alpha)
    brackets = oracle.scan_level_brackets(nu, p, anyon.LEVEL_MAX)
    assert len(brackets) == anyon.LEVEL_MAX + 1
    for n, (lo, hi) in enumerate(brackets):
        assert lo < anyon.energy(n, nu, p) < hi
    for n in (30, 60, 100):
        got = oracle.shoot_anyon_energy(oracle.ShootingConfig(nu, brackets[n]), p, n)
        expected = anyon.energy(n, nu, p)
        assert abs(got - expected) <= 1e-5 * abs(expected)


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


def _recorded_scan(nu, p, n_max, monkeypatch):
    """The brackets of scan_level_brackets(nu, p, n_max), the runs it
    built, and each probe as (energy bracket of its run, eps)."""
    runs, probes = [], []
    init, mismatch = oracle._ShootingRun.__init__, oracle._ShootingRun.mismatch

    def built(run, *args):
        init(run, *args)
        runs.append(run)

    def probed(run, eps):
        probes.append((run.cfg.energy_bracket, eps))
        return mismatch(run, eps)

    with monkeypatch.context() as patch:
        patch.setattr(oracle._ShootingRun, "__init__", built)
        patch.setattr(oracle._ShootingRun, "mismatch", probed)
        brackets = oracle.scan_level_brackets(nu, p, n_max)
    return brackets, runs, probes


@pytest.mark.parametrize("nu", NU_VALUES)
def test_scan_builds_fewer_runs_than_half_its_probes(nu, monkeypatch):
    # A run is valid at every energy inside its bracket, so one run
    # serves every probe of its energy window.
    _, runs, probes = _recorded_scan(nu, UNIT, 20, monkeypatch)
    assert 2 * len(runs) < len(probes)


@pytest.mark.parametrize("nu", NU_VALUES)
def test_scan_probes_are_the_t_walk_each_inside_its_run(nu, monkeypatch):
    # The probes are t0, t0 + 1/2, ... with t0 = nu/sqrt(1.35) and no
    # other, each evaluated on a run whose bracket holds it, and each
    # bracket is a pair of consecutive probes.
    brackets, runs, probes = _recorded_scan(nu, UNIT, 20, monkeypatch)
    energies = [eps for _, eps in probes]
    t0 = nu / math.sqrt(1.35)
    walk = [-0.5 / t ** 2 for t in t0 + 0.5 * np.arange(len(probes))]
    assert np.allclose(energies, walk, rtol=1e-15, atol=0.0)
    assert all(lo <= eps <= hi for (lo, hi), eps in probes)
    assert [run.cfg.energy_bracket for run in runs] == list(dict.fromkeys(
        bracket for bracket, _ in probes))
    assert all(bracket in zip(energies, energies[1:]) for bracket in brackets)


def _per_probe_brackets(nu, p, n_max):
    """The scan's t walk with one run on (1.01 eps, 0.99 eps) per probe."""
    unit = p.mass * p.alpha * p.alpha / p.hbar ** 2
    t = nu / math.sqrt(1.35)
    brackets = []
    prev = None
    while len(brackets) <= n_max:
        eps = -0.5 * unit / (t * t)
        run = oracle._ShootingRun(oracle.ShootingConfig(nu, (1.01 * eps, 0.99 * eps)), p)
        sign = run.mismatch(eps) > 0
        if prev is not None and sign != prev[1]:
            brackets.append((prev[0], eps))
        prev = eps, sign
        t += 0.5
    return brackets


@pytest.mark.parametrize("nu, n_max, mass, hbar, alpha", [
    (0.25, 100, 1.0, 1.0, 1.0), (0.75, 100, 1.0, 1.0, 1.0),
    (0.25, 12, 2.5, 0.3, 1.7), (0.75, 12, 2.5, 0.3, 1.7),
    (0.25, 12, 1.3, 1.0, 0.8), (0.75, 12, 1.3, 1.0, 0.8)])
def test_window_runs_give_the_brackets_of_per_probe_runs(nu, n_max, mass, hbar, alpha):
    # A run is valid at every energy inside its bracket, and the sign of
    # the scaled Wronskian does not depend on where the sweeps meet.
    p = PhysicalParams(mass, hbar, alpha=alpha)
    assert oracle.scan_level_brackets(nu, p, n_max) == _per_probe_brackets(nu, p, n_max)


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
    assert {"_propagators", "_starts", "_block_ends", "mismatch", "nodes"} <= set(methods)
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
