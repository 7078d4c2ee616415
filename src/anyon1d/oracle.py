"""Independent numerical oracles.

Nothing in this module knows the closed-form spectra or eigenfunctions.
It offers four ways to check them from first principles:

* adaptive Gauss-Kronrod quadrature (norms, moments, overlaps),
* a finite-difference residual of the governing second-order equation,
* a Sturm-sequence bisection eigensolver for the oscillator on a box,
  split into the even and odd parity sectors (the spin labels s = 0 and
  s = 1/2 of the reduced oscillator); each sector keeps one record of
  Sturm counts for all its levels, and each count stops at the
  classical turning point of its energy, past which no pivot can
  change sign,
* a shooting eigensolver for the attractive half-line problem, whose
  RK4 steps are 2x2 propagators multiplied pairwise with numpy; each
  propagator entry is a quadratic in the energy, tabulated once per
  run, and the products need a power-of-two rescale only every fourth
  pass; each level is one Illinois (modified regula falsi) solve of the
  matching defect, and the energy scan shares one table across each
  band of 8 probes.

Both eigensolvers compute in natural units (sqrt(hbar/(m omega)) and
hbar omega, hbar^2/(m alpha) and m alpha^2/hbar^2), so the constants
enter each solve once; arguments and results are in the caller's units.

All routines are deterministic: fixed node tables, fixed refinement
rules, fixed step-size policies.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import (ConvergenceError, PhysicalParams, check_finite, check_index, check_nu,
                   check_positive)

# 7-point Gauss / 15-point Kronrod pair on [-1, 1]; abscissas and
# weights are the standard published values.
_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
)
_WGK = (
    0.02293532201052922, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552592, 0.16900472663926790, 0.19035057806478540,
    0.20443294007529889, 0.20948214108472782,
)
_WG = (
    0.12948496616886969, 0.27970539148927664, 0.38183005050511894,
    0.41795918367346939,
)

# full symmetric tables: node, kronrod weight, gauss weight (0 if unused)
_NODES: list[tuple[float, float, float]] = []
for _i, _x in enumerate(_XGK):
    _wg = _WG[(_i - 1) // 2] if _i % 2 == 1 else 0.0
    if _x == 0.0:
        _NODES.append((0.0, _WGK[_i], _WG[-1]))
    else:
        _NODES.append((_x, _WGK[_i], _wg))
        _NODES.append((-_x, _WGK[_i], _wg))

_GRADE_DEPTH = 28          # dyadic grading depth toward each graded endpoint
_TAIL_CAP_DOUBLINGS = 60   # give up on tail truncation after this many
_MAX_INTERVALS = 4096      # refinement cap of one adaptive integral


def _caller_cell(lo: float, hi: float, sign: float) -> str:
    """The cell [lo, hi] of the integration variable t as the caller's
    x = sign * t, for messages."""
    return f"[{lo}, {hi}]" if sign > 0 else f"[{-hi}, {-lo}]"


def _gk15(f, lo: float, hi: float, sign: float) -> tuple[float, float]:
    """Kronrod value and |Kronrod - Gauss| error estimate on [lo, hi].

    Raises ConvergenceError when the outermost nodes do not fall strictly
    inside the cell, so no endpoint is ever evaluated, and ValueError
    naming the cell when the Kronrod value is not finite.  f takes the
    integration variable t; messages name the cell in the caller's
    x = sign * t.
    """
    c = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    if not (lo < c - r * _XGK[0] and c + r * _XGK[0] < hi):
        raise ConvergenceError(
            f"quadrature cell {_caller_cell(lo, hi, sign)} cannot be refined further: "
            "its outermost nodes do not fall strictly inside it")
    acc_k = 0.0
    acc_g = 0.0
    for x, wk, wg in _NODES:
        v = f(c + r * x)
        acc_k += wk * v
        if wg:
            acc_g += wg * v
    if not math.isfinite(acc_k):
        raise ValueError("integrand is not finite on the quadrature cell "
                         f"{_caller_cell(lo, hi, sign)}")
    return r * acc_k, abs(r * (acc_k - acc_g))


def _initial_cells(a: float, b: float, grade_b: bool) -> list[float]:
    """Interval boundaries graded dyadically toward a, and toward b when
    grade_b is set.

    Integrable endpoint singularities (fractional powers) then converge
    geometrically cell by cell without the refinement loop having to
    discover them one bisection at a time. Only an endpoint the caller
    gave can hold one: b is not graded when it is a tail truncation
    point, past which the integrand is already negligible.
    """
    width = b - a
    cuts = {a, b}
    for j in range(1, _GRADE_DEPTH + 1):
        cuts.add(a + width * 2.0 ** (-j))
        if grade_b:
            cuts.add(b - width * 2.0 ** (-j))
    return sorted(c for c in cuts if a <= c <= b)


def _adaptive(f, a: float, b: float, tol: float, grade_b: bool, sign: float) -> float:
    bounds = _initial_cells(a, b, grade_b)
    cells = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            val, err = _gk15(f, lo, hi, sign)
            cells.append([err, lo, hi, val])
    while True:
        total_err = math.fsum(c[0] for c in cells)
        if total_err <= tol:
            return math.fsum(c[3] for c in cells)
        if len(cells) >= _MAX_INTERVALS:
            raise ConvergenceError(
                f"quadrature exceeded {_MAX_INTERVALS} intervals "
                f"(error estimate {total_err:.3e}, target {tol:.3e})")
        worst = max(range(len(cells)), key=lambda i: (cells[i][0], -i))
        _, lo, hi, _ = cells[worst]
        mid = 0.5 * (lo + hi)
        val1, err1 = _gk15(f, lo, mid, sign)
        val2, err2 = _gk15(f, mid, hi, sign)
        cells[worst] = [err1, lo, mid, val1]
        cells.append([err2, mid, hi, val2])


def _tail_cutoff(f, start: float, tol: float, sign: float) -> float:
    """Smallest probed B with |f| small enough beyond B to ignore the tail.

    Probes three incommensurate points per candidate so an accidental
    zero of an oscillatory integrand cannot fake decay.  Raises
    ValueError naming the first probe where f is not finite.  f takes
    the integration variable t; messages name the caller's x = sign * t.
    """
    cut = start
    for _ in range(_TAIL_CAP_DOUBLINGS):
        peak = 0.0
        for x in (cut, 1.37 * cut, 1.93 * cut):
            v = f(x)
            if not math.isfinite(v):
                raise ValueError(f"integrand is not finite at the tail probe {sign * x!r}")
            peak = max(peak, abs(v))
        if peak * cut <= 0.1 * tol:
            return 1.93 * cut
        cut *= 2.0
    raise ConvergenceError(
        f"integrand does not decay fast enough past {sign * cut:.3e} for tail truncation")


def quadrature(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Integral of f over [a, b] with absolute error estimate below tol.

    Endpoints may be +-inf; infinite tails are truncated where the
    integrand has decayed below the tolerance and the finite core is
    handled by adaptive 15-point Gauss-Kronrod. Its initial cells are
    graded dyadically toward each finite endpoint the caller gave: both
    ends of a finite [a, b], only the finite end of a semi-infinite
    range, never the truncation point. Endpoint values are never
    evaluated, so integrable power singularities at the ends are fine;
    a cell too narrow to keep its nodes off its ends raises
    ConvergenceError. An endpoint that is neither +-inf nor finite (NaN,
    bool) raises ValueError, and so does a cell or a tail probe where the
    integrand is not finite.  A range (-inf, b] is integrated as
    t -> f(-t) over [-b, inf), but every message names cells and probes
    by the x that f is called with.
    """
    check_positive(tol, "tolerance")
    for end, name in ((a, "lower limit a"), (b, "upper limit b")):
        if not (isinstance(end, float) and math.isinf(end)):
            check_finite(end, name)
    if a == b:
        return 0.0
    if a > b:
        return -quadrature(f, b, a, tol)
    neg_inf = math.isinf(a) and a < 0
    pos_inf = math.isinf(b) and b > 0
    if neg_inf and pos_inf:
        return quadrature(f, a, 0.0, 0.5 * tol) + quadrature(f, 0.0, b, 0.5 * tol)
    if neg_inf or pos_inf:
        # (-inf, b] is integrated as t -> f(-t) over [-b, inf)
        sign = -1.0 if neg_inf else 1.0
        g = (lambda t: f(-t)) if neg_inf else f
        start = -b if neg_inf else a
        cut = _tail_cutoff(g, max(1.0, 2.0 * abs(start), 2.0 * start + 1.0), tol, sign)
        return _adaptive(g, start, cut, tol, grade_b=False, sign=sign)
    return _adaptive(f, a, b, tol, grade_b=True, sign=1.0)


def ode_residual(xs, values, potential, epsilon: float, p: PhysicalParams) -> float:
    """Normalized defect of Phi'' + (2m/hbar^2)(epsilon - V) Phi = 0.

    xs is a uniformly spaced, increasing array of positions and values
    the samples of Phi there (real or complex); potential is called once
    on the whole xs array.  The second derivative is the fourth-order
    central five-point stencil, and the returned number is

        max_i |Phi''_i + (2m/hbar^2)(epsilon - V_i) Phi_i|
        -----------------------------------------------------
        max_i |(2m/hbar^2)(epsilon - V_i) Phi_i|

    over interior points, so an eigenpair gives a small value and a 1
    percent energy error is clearly visible.  NaN or inf anywhere raises.
    """
    check_finite(epsilon, "energy epsilon")
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
    if xs.ndim != 1 or vs.shape != xs.shape:
        raise ValueError(f"xs and values must be 1-d arrays of one length, "
                         f"got shapes {xs.shape} and {vs.shape}")
    if xs.size < 7:
        raise ValueError(f"need at least 7 samples, got {xs.size}")
    _check_finite_samples(xs, "xs")
    steps = np.diff(xs)
    h = (xs[-1] - xs[0]) / (xs.size - 1)
    if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * abs(h):
        raise ValueError("samples must lie on a uniform, increasing grid")
    _check_finite_samples(vs, "values")
    if not np.max(np.abs(vs)):
        raise ValueError("trivial function: all sampled values are zero")
    pot = np.asarray(potential(xs))
    _check_finite_samples(pot, "potential")
    c2 = 2.0 * p.mass / p.hbar ** 2
    drive = c2 * (epsilon - pot) * vs
    second = (-vs[:-4] + 16.0 * vs[1:-3] - 30.0 * vs[2:-2]
              + 16.0 * vs[3:-1] - vs[4:]) / (12.0 * h * h)
    defect = second + drive[2:-2]
    scale = float(np.max(np.abs(drive[2:-2])))
    if scale == 0.0:
        raise ValueError("trivial drive term: cannot normalize the residual")
    return float(np.max(np.abs(defect))) / scale


def _check_finite_samples(samples: np.ndarray, name: str) -> None:
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise ValueError(f"{name} must be finite on the grid, got "
                         f"{samples.ravel()[bad[0]]} at index {bad[0]}")


_PIVOT_FLOOR = 1e-290   # a pivot nearer zero than this is taken as -_PIVOT_FLOOR
_MAX_POINTS = 10 ** 6   # grid points of one box solve


class _Sector:
    """One parity sector of the box matrix: a tridiagonal whose row 0 is
    the centre of the box and whose later rows run out toward one wall.

    Couplings are off^2 except the first, which is first_scale^-1 off^2
    (first_scale is 1 or 1/2).  below(lam) counts the sector's
    eigenvalues below lam and keeps every count it has made.
    """

    def __init__(self, diag: np.ndarray, off: float, first_scale: float = 1.0):
        self.diag = diag.tolist()
        # floor[i] = min(diag[i:]); it never decreases, so bisect finds
        # the first row from which every diagonal entry clears a bound
        self.floor = np.minimum.accumulate(diag[::-1])[::-1].tolist()
        self.offsq = off * off
        self.abs_off = abs(off)
        self.first_scale = first_scale
        self.counts: dict[float, int] = {}

    def below(self, lam: float) -> int:
        count = self.counts.get(lam)
        if count is None:
            count = self.counts[lam] = self._sweep(lam)
        return count

    def _sweep(self, lam: float) -> int:
        """Sturm count of the sector at lam, swept outward from the centre.

        From row `tail` on, every diagonal entry is >= lam + 2|off| (the
        bound is rounded up, so this holds exactly): the classically
        forbidden region of lam.  Once a pivot q there is >= |off|, the
        next one is >= 2|off| - off^2/q >= |off| as well, so no later
        pivot can turn negative and the sweep stops with the count a
        full sweep would give.  Rounding loosens that bound by a few
        units of roundoff per row, which leaves every later pivot above
        |off|/2.  Past the turning point the pivots clear |off| within a
        row or two.  The sweep runs in two loops only so that the rows
        before `tail` pay for no stopping test.
        """
        diag = self.diag
        offsq = self.offsq
        floor = _PIVOT_FLOOR
        tail = bisect_left(self.floor, math.nextafter(lam + 2.0 * self.abs_off, math.inf))
        count = 0
        q = diag[0] - lam
        if q < floor:
            count = 1
            if q > -floor:
                q = -floor
        # offsq / (q/2) is 2 offsq / q to the last bit: halving is exact
        q *= self.first_scale
        for d in islice(diag, 1, tail):
            q = d - lam - offsq / q
            if q < floor:
                count += 1
                if q > -floor:
                    q = -floor
        for d in islice(diag, max(tail, 1), None):
            if q >= self.abs_off:
                break
            q = d - lam - offsq / q
            if q < floor:
                count += 1
                if q > -floor:
                    q = -floor
        return count


def _parity_sectors(diag: np.ndarray, off: float) -> tuple[_Sector, _Sector]:
    """The even and odd sectors of the symmetric tridiagonal box matrix
    with diagonal diag and constant coupling off.

    With an odd number of rows the centre row belongs to the even
    sector, where it meets its neighbour through both of its couplings
    (2 off^2), and drops out of the odd sector, where the centre value is
    zero.  With an even number the two centre rows are mirror images, and
    folding one onto the other adds +off or -off to the first diagonal
    entry.  Only the half at x >= 0 is swept.
    """
    half = diag.size // 2
    if diag.size % 2:
        right = diag[half:]
        return _Sector(right, off, first_scale=0.5), _Sector(right[1:], off)
    even = diag[half:].copy()
    odd = diag[half:].copy()
    even[0] += off
    odd[0] -= off
    return _Sector(even, off), _Sector(odd, off)


def fd_oscillator_spectrum(p: PhysicalParams, box_halfwidth: float,
                           points: int, count: int) -> list[float]:
    """Lowest eigenvalues of the oscillator on [-L, L] with walls.

    In oscillator units the wall sits at W = L / sqrt(hbar/(m omega)),
    and three-point finite differences on `points` uniform points (walls
    included), step h = 2W/(points - 1), give a symmetric tridiagonal
    matrix: diagonal 1/h^2 + x^2/2, coupling -1/(2h^2).  The box potential is
    even, so the matrix splits into an even and an odd sector of half
    the size: the reduced half-line oscillator of the paper with spin
    label s = 0 and s = 1/2.  Level 2j is level j of the even sector and
    level 2j + 1 level j of the odd one.  Each level is bisected on its
    sector's Sturm count inside the Gershgorin interval of the whole
    matrix to a width of 1e-13 max(1, |mid|), then multiplied by
    hbar omega.  Every bisection walks the same dyadic subdivision of
    that interval and each sector keeps one record of its counts, so a
    level reuses every midpoint an earlier level of its sector counted.
    A count stops past the classical turning point of the probed energy,
    where no pivot can change sign any more (see _Sector._sweep).  The
    discretization error is O(h^2).

    Domain, else ValueError: count in 1..20, points in 100.._MAX_POINTS,
    and L > 0 such that the squared coupling 1/(4h^4) is a positive
    normal float (then so is W^2/2) and the Gershgorin top times
    hbar omega is finite.
    """
    check_positive(box_halfwidth, "box halfwidth")
    check_index(points, "point count", low=100, high=_MAX_POINTS)
    check_index(count, "eigenvalue count", low=1, high=20)
    wall = box_halfwidth / math.sqrt(p.hbar / (p.mass * p.require_omega()))
    quantum = p.hbar * p.omega
    h = 2.0 * wall / (points - 1)
    kinetic = 1.0 / (h * h) if h * h else math.inf
    off = -0.5 * kinetic
    if not (sys.float_info.min <= off * off <= sys.float_info.max
            and (2.0 * kinetic + 0.5 * wall * wall) * quantum < math.inf):
        raise ValueError(f"box halfwidth {box_halfwidth!r} ({wall:.6g} oscillator lengths) "
                         f"puts the {points}-point box matrix outside the float range")
    xs = np.linspace(-wall + h, wall - h, points - 2)
    diag = kinetic + 0.5 * xs * xs
    lo0 = float(diag.min()) - 2.0 * abs(off)
    hi0 = float(diag.max()) + 2.0 * abs(off)
    sectors = _parity_sectors(diag, off)
    out = []
    for k in range(count):
        sector = sectors[k % 2]
        rank = k // 2 + 1
        lo, hi = lo0, hi0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-13 * max(1.0, abs(mid)):
                break
            if sector.below(mid) >= rank:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi) * quantum)
    return out


@dataclass(frozen=True)
class ShootingConfig:
    """Origin branch and energy window of one shooting run.

    The solution starts as x^nu at the origin.  _ShootingRun derives the
    geometry from nu and energy_bracket over m alpha^2/hbar^2.
    """

    nu: float
    energy_bracket: tuple[float, float]

    def __post_init__(self):
        check_nu(self.nu)
        lo, hi = self.energy_bracket
        check_finite(lo, "energy bracket lower end")
        check_finite(hi, "energy bracket upper end")
        if not (lo < hi < 0.0):
            raise ValueError(
                f"energy bracket must satisfy lo < hi < 0, got ({lo}, {hi})")


_X_START = 1e-4            # start of the outward sweep, in units of hbar^2/(m alpha)
_START_STEPS = 48          # RK4 steps in the first octave [x_start, 2 x_start]
# RK4 steps one sweep may take; the scan and the level solves for
# n <= 20 take at most 2432
_MAX_STEPS = 2 ** 16


def _steps(run: _ShootingRun, lo_x: float, hi_x: float) -> np.ndarray:
    """RK4 steps covering [lo_x, hi_x], as the rows (h, v_start, v_mid, v_end).

    Step doubles per octave of x (anchored at run.x_start) and is capped
    so h times the largest local wavenumber stays below 0.05.  v is the
    e-free part of the coefficient g(x) = 2 (V(x) - e) = vpart(x) - 2e
    at the start, midpoint and end of each step, in natural units.
    Raises ValueError, before building an octave, when the steps would
    exceed _MAX_STEPS: the bracket is too shallow.
    """
    vcoef = run.cfg.nu * (1.0 - run.cfg.nu)  # identical for both nu branches
    g_energy = 2.0 * abs(run.bracket[0])

    def vpart(x):
        return -2.0 / x - vcoef / (x * x)

    steps, counts, starts, ends = [], [], [], []
    total = 0
    a = lo_x
    j = max(0, int(math.floor(math.log2(lo_x / run.x_start))))
    while a < hi_x:
        edge = min(run.x_start * 2.0 ** (j + 1), hi_x)
        if edge <= a:
            j += 1
            continue
        g_bound = 2.0 / a + vcoef / (a * a) + g_energy
        h = min(run.x_start / _START_STEPS * 2.0 ** j, 0.05 / math.sqrt(g_bound))
        m = max(1, int(math.ceil((edge - a) / h)))
        total += m
        if total > _MAX_STEPS:
            raise ValueError(
                f"energy bracket {run.cfg.energy_bracket} is too shallow: a sweep to "
                f"x = {hi_x:.6g} hbar^2/(m alpha) needs more than {_MAX_STEPS} RK4 steps")
        h = (edge - a) / m
        nodes = a + h * np.arange(m + 1)
        steps.append(h)
        counts.append(m)
        starts.append(nodes[:-1])
        ends.append(nodes[1:])
        a = edge
        j += 1
    h = np.repeat(steps, counts)
    x0 = np.concatenate(starts)
    return np.stack([h, vpart(x0), vpart(x0 + 0.5 * h), vpart(np.concatenate(ends))])


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a_i b_i of 2x2 matrices stored entry-first, shape (2, 2, ...)."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


# one identity matrix per sweep, entry-first as the step propagators
_IDENTITY = np.eye(2)[:, :, None, None].repeat(2, axis=2)


def _rescaled(m: np.ndarray) -> np.ndarray:
    """Each matrix of m divided by the power of two that brings its
    largest entry into [0.5, 1): exact, and it keeps every sign."""
    return np.ldexp(m, -np.frexp(np.abs(m).max(axis=(0, 1)))[1])


# Product passes between two rescales.  A rescale leaves every entry
# below 1 (an appended identity column has entries of at most 1), and a
# 2x2 product obeys max|AB| <= 2 max|A| max|B|, so the bound goes
# 2, 8, 128, 2^15 over four passes: far from overflow.  Every rescale is
# by a power of two, so the products carry the same bits as with a
# rescale after every pass.
_RESCALE_PERIOD = 4


def _quadratic_propagators(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """RK4 step propagators of phi'' = (v - e) phi as quadratics in e.

    h holds the step lengths and v = (v_a, v_b, v_c) the e-free part of
    the coefficient at the start, midpoint and end of each step.  With
    a = v_a - e, b = v_b - e, c = v_c - e, one step maps (phi, phi') by

        M00 = 1 + h^2 (a + 2b)/6 + h^4 ab/24,   M01 = h + h^3 b/6,
        M10 = h/6 (a + 4b + c + h^2 b (a + c)/2),
        M11 = 1 + h^2 (2b + c)/6 + h^4 bc/24,

    and the result, shape (3, 2, 2) + h.shape, holds the coefficients
    c0, c1, c2 of M = c0 + e (c1 + e c2).  A step with h = 0 gives
    exactly the identity at every e.
    """
    a, b, c = v
    b2 = b + b
    s = h * h / 6.0              # h^2/6
    q = 1.5 * s * s              # h^4/24
    t = h / 6.0
    r = 3.0 * t * s              # h^3/12
    hs = h * s                   # h^3/6
    coef = np.zeros((3, 2, 2) + h.shape)
    c0, c1, c2 = coef
    c0[0, 0] = 1.0 + s * (a + b2) + q * a * b
    c1[0, 0] = -3.0 * s - q * (a + b)
    c2[0, 0] = q
    c0[0, 1] = h + hs * b
    c1[0, 1] = -hs
    c0[1, 0] = t * (a + 4.0 * b + c) + r * b * (a + c)
    c1[1, 0] = -h - r * (a + b2 + c)
    c2[1, 0] = hs
    c0[1, 1] = 1.0 + s * (b2 + c) + q * b * c
    c1[1, 1] = -3.0 * s - q * (b + c)
    c2[1, 1] = q
    return coef


class _ShootingRun:
    """The geometry and RK4 step table of one config at p; reused for every energy.

    The run computes in natural units, energies in energy_unit =
    m alpha^2/hbar^2 and lengths in hbar^2/(m alpha), where the equation
    is phi'' = (-2/x + nu(1 - nu)/x^2 - 2e) phi.  Only __init__ reads the
    constants: it divides the bracket by energy_unit, and mismatch and
    nodes divide their eps by it.  Sweeps run out from x_start = _X_START,
    first step x_start/_START_STEPS, and in from x_end, 42 decay lengths
    past the turning point of hi, to x_match = max(0.6/sqrt(lo hi), 2 x_start).

    Row 0 of the step table (h, and v = the e-free coefficient values)
    is the outward sweep x_start -> x_match, row 1 the inward sweep
    x_end -> x_match (h < 0); the shorter one is padded with h = 0
    steps, whose propagator is exactly the identity.  One RK4 step of
    the linear ODE is a 2x2 propagator whose entries are quadratics in
    2e (see _quadratic_propagators); coef holds their coefficients, so a
    propagator table at any energy is c0 + 2e (c1 + 2e c2).
    """

    def __init__(self, cfg: ShootingConfig, p: PhysicalParams):
        self.cfg = cfg
        alpha = p.require_alpha()
        self.energy_unit = unit = p.mass * alpha * alpha / p.hbar ** 2
        self.bracket = lo, hi = tuple(end / unit for end in cfg.energy_bracket)
        if not lo * hi > 0.0:
            raise ValueError(f"energy bracket {cfg.energy_bracket} is too shallow: lo hi "
                             "underflows to 0 in units of m alpha^2/hbar^2")
        self.x_start = x_start = _X_START
        x_match = max(0.6 / math.sqrt(lo * hi), 2.0 * x_start)
        self.x_end = 1.0 / abs(hi) + 42.0 / math.sqrt(-2.0 * hi)
        if not (x_start < x_match < self.x_end and -math.inf < 2.0 * lo):
            raise ValueError(f"energy bracket {cfg.energy_bracket} is too deep: need x_start < "
                             f"x_match < x_end and 2 lo finite in natural units, got "
                             f"{x_start}, {x_match}, {self.x_end} and lo = {lo}")
        out = _steps(self, x_start, x_match)
        h, v_start, v_mid, v_end = _steps(self, x_match, self.x_end)[:, ::-1]
        inward = np.stack([-h, v_end, v_mid, v_start])
        width = max(out.shape[1], inward.shape[1])
        table = np.zeros((4, 2, width))
        table[:, 0, :out.shape[1]] = out
        table[:, 1, :inward.shape[1]] = inward
        self.h = table[0]
        self.v = table[1:]
        self.coef = _quadratic_propagators(self.h, self.v)

    def _propagators(self, e: float) -> np.ndarray:
        """Every step's RK4 propagator at e, shape (2, 2, 2, width)."""
        e2 = 2.0 * e
        c0, c1, c2 = self.coef
        return c0 + e2 * (c1 + e2 * c2)

    def _starts(self, e: float) -> np.ndarray:
        """Starting values at e: row 0 is phi, row 1 phi'; column 0 starts
        the outward sweep at x_start, column 1 the inward sweep at x_end."""
        # Power-series start of the x^nu branch.  The leading power alone
        # leaks an x^(1-nu) admixture of order x_start^(2 nu), far too big
        # for nu = 1/4; two correction terms push the leak below 1e-9.
        nu = self.cfg.nu
        x0 = self.x_start
        c1 = -1.0 / nu
        c2 = -(c1 + e) / (2.0 * nu + 1.0)
        phi0 = x0 ** nu * (1.0 + x0 * (c1 + x0 * c2))
        dphi0 = x0 ** (nu - 1.0) * (nu + x0 * ((nu + 1.0) * c1
                                               + x0 * (nu + 2.0) * c2))
        kappa = math.sqrt(-2.0 * e)
        slope = -kappa + 1.0 / (kappa * self.x_end)
        return np.array([[phi0, 1.0], [dphi0, slope]])

    def mismatch(self, eps: float) -> float:
        """Scaled Wronskian of the outward and inward solutions at x_match.

        Zero exactly at eigenvalues; its sign flips when eps crosses one.
        The step propagators are multiplied pairwise, ceil(log2(width))
        passes in all; a pass over an odd number of blocks multiplies the
        last one by the identity.  The propagators are rescaled by powers
        of two once, and the products after every _RESCALE_PERIOD-th
        pass, which keeps every entry below 2^15; the scaled Wronskian is
        homogeneous in each solution, so rescaling cannot change it.
        """
        e = eps / self.energy_unit
        m = _rescaled(self._propagators(e))
        passes = 0
        while m.shape[-1] > 1:
            if m.shape[-1] % 2:
                m = np.concatenate([m, _IDENTITY], axis=-1)
            m = _matmul(m[..., 1::2], m[..., 0::2])
            passes += 1
            if passes % _RESCALE_PERIOD == 0:
                m = _rescaled(m)
        return self._wronskian(m[..., 0], e)

    def _wronskian(self, m: np.ndarray, e: float) -> float:
        """Scaled Wronskian at x_match at e from the product m of every
        step propagator, shape (2, 2, 2)."""
        start = self._starts(e)
        (left, right), (dleft, dright) = m[:, 0] * start[0] + m[:, 1] * start[1]
        w = dleft * right - left * dright
        norm = math.sqrt((left * left + dleft * dleft)
                         * (right * right + dright * dright))
        if norm == 0.0:
            raise ConvergenceError("shooting state collapsed to zero")
        return float(w / norm)

    def nodes(self, eps: float) -> int:
        """Interior node count of the matched shape at eps: the sign
        changes of phi across the step ends of both sweeps.

        phi at every step end comes from the prefix products of the
        propagators, formed by doubling and rescaled by positive powers
        of two as in mismatch, which keeps the signs.
        """
        e = eps / self.energy_unit
        m = _rescaled(self._propagators(e))
        width = m.shape[-1]
        d = 1
        passes = 0
        while d < width:
            m[..., d:] = _matmul(m[..., d:], m[..., :-d])
            passes += 1
            if passes % _RESCALE_PERIOD == 0:
                m = _rescaled(m)
            d *= 2
        phi0, dphi0 = self._starts(e)[:, :, None]
        phi = np.concatenate([phi0, m[0, 0] * phi0 + m[0, 1] * dphi0], axis=1)
        sign = np.sign(phi)
        return int(np.count_nonzero(sign[:, 1:] * sign[:, :-1] < 0))


_SHOOTING_TOL = 1e-9       # relative width at which a shooting solve stops
_SOLVE_STEPS = 100         # mismatch evaluations one shooting solve may take
_SCAN_RATIO = 1.08         # energy ratio of consecutive scan probes
_SCAN_BAND = 8             # scan probes that share one step table


def _illinois(f, a: float, f_a: float, b: float, f_b: float, tol: float) -> float:
    """Zero of f inside (a, b), where f(a) and f(b) have opposite signs.

    Each probe is the regula falsi root of (a, b) and replaces the end
    whose sign it shares; when the same end is kept twice in a row, the
    value at the other end is halved (the Illinois method, Dowell and
    Jarratt, BIT 11, 1971).  The probe is pushed tol |mid| / 8 off that
    root toward the longer side of (a, b), so its sign is never rounding
    noise and the bracket closes from both sides.  Returns a probe where
    f is exactly 0, or the midpoint once b - a <= tol |mid|.
    """
    a_positive = f_a > 0
    last = 0                 # -1: the last probe replaced a; +1: it replaced b
    for _ in range(_SOLVE_STEPS):
        mid = 0.5 * (a + b)
        width = tol * abs(mid)
        if b - a <= width:
            return mid
        root = a - f_a * (b - a) / (f_b - f_a)
        push = 0.125 * width
        x = root - push if root - a > b - root else root + push
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x > 0) == a_positive:
            a, f_a = x, f_x
            if last == -1:
                f_b *= 0.5
            last = -1
        else:
            b, f_b = x, f_x
            if last == 1:
                f_a *= 0.5
            last = 1
    raise ConvergenceError(
        f"shooting solve did not reach relative width {tol:.1e} "
        f"in {_SOLVE_STEPS} evaluations")


def shoot_anyon_energy(cfg: ShootingConfig, p: PhysicalParams, n: int) -> float:
    """Eigenvalue of the half-line problem with Phi ~ x^nu at the origin.

    Solves for the zero of the Wronskian mismatch inside
    cfg.energy_bracket to relative width _SHOOTING_TOL by the Illinois
    method (see _illinois), and then verifies the converged shape has
    exactly n interior nodes.  Raises ValueError when the bracket is too
    deep for the geometry, too shallow for _MAX_STEPS steps per sweep, or
    does not straddle a sign change, and
    ConvergenceError when the search does not converge or the node
    count disagrees with n.
    """
    check_index(n, "node count n")
    run = _ShootingRun(cfg, p)
    lo, hi = cfg.energy_bracket
    w_lo = run.mismatch(lo)
    w_hi = run.mismatch(hi)
    if w_lo == 0.0:
        eps = lo
    elif w_hi == 0.0:
        eps = hi
    elif (w_lo > 0) == (w_hi > 0):
        raise ValueError(
            "energy bracket does not straddle an eigenvalue: the matching "
            f"defect has the same sign at both ends ({w_lo:.3e}, {w_hi:.3e})")
    else:
        eps = _illinois(run.mismatch, lo, w_lo, hi, w_hi, _SHOOTING_TOL)
    found = run.nodes(eps)
    if found != n:
        raise ConvergenceError(
            f"shooting converged to a state with {found} nodes, expected {n}")
    return eps


def scan_level_brackets(nu: float, p: PhysicalParams, n_max: int) -> list[tuple[float, float]]:
    """Energy brackets around the lowest n_max + 1 eigenvalues, by scanning.

    Walks the energy axis geometrically upward, by the factor
    1/_SCAN_RATIO, from well below the deepest possible bound state and
    records every sign change of the shooting mismatch.  Needs no prior
    knowledge of the spectrum; the scan ratio keeps consecutive levels
    separated for n_max <= 20.  The probes go in bands of up to 8
    consecutive energies, and each band shares one step table, whose
    geometry is the one a level bracket spanning the band would get.
    """
    check_nu(nu)
    check_index(n_max, "n_max", high=20)
    alpha = p.require_alpha()
    scale = p.mass * alpha * alpha / (2.0 * p.hbar ** 2)
    eps = -1.35 * scale / (nu * nu)      # strictly below the deepest level
    floor_stop = -scale / (n_max + 3.0) ** 2 * 0.2
    brackets = []
    prev_eps = None
    prev_sign = None
    while eps < floor_stop and len(brackets) <= n_max:
        band = []
        while eps < floor_stop and len(band) < _SCAN_BAND:
            band.append(eps)
            eps /= _SCAN_RATIO
        run = _ShootingRun(ShootingConfig(nu, (1.01 * band[0], 0.99 * band[-1])), p)
        for probe in band:
            if len(brackets) > n_max:
                break
            sign = run.mismatch(probe) > 0
            if prev_sign is not None and sign != prev_sign:
                brackets.append((prev_eps, probe))
            prev_eps, prev_sign = probe, sign
    if len(brackets) <= n_max:
        raise ConvergenceError(
            f"energy scan found only {len(brackets)} levels below {floor_stop:.3e}, "
            f"needed {n_max + 1}")
    return brackets[:n_max + 1]


def shooting_config_for_level(nu: float, p: PhysicalParams, n: int,
                              bracket: tuple[float, float]) -> ShootingConfig:
    """ShootingConfig(nu, bracket); p and n are unused."""
    return ShootingConfig(nu, bracket)
