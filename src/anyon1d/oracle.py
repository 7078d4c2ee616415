"""Independent numerical oracles.

Nothing in this module knows the closed-form spectra or eigenfunctions.
It offers four ways to check them from first principles:

* adaptive Gauss-Kronrod quadrature (norms, moments, overlaps) in
  array rounds: integrate() calls its integrand once per round on the
  nodes of every cell the round evaluates, all graded initial cells
  first, then the halves of the fewest cells whose error estimates add
  up to total - tol, largest first; a half-line is first mapped onto
  [0, 1) by the change of variable of QUADPACK's QAGI, and a full line
  is split at 0 into two; quadrature() is the same engine for an
  integrand of one float (math.exp and the like),
* a finite-difference residual of the governing second-order equation,
* a Sturm-sequence eigensolver for the oscillator on a box, built as
  the two spin sectors s = 0 and s = 1/2 of the reduced half-line
  oscillator on one cell-centred grid, each solved on its own and the
  two merged in ascending order; each level counts up a ladder 1, 2,
  4, ... hbar omega above the bottom of the spectrum until a rung holds
  it, is bisected below that rung on Sturm counts until it is
  isolated, then refined by safeguarded Newton steps on the
  determinant, and one stop width ends both; each sector keeps one
  record of its counts, rungs included, for all its levels, each such
  count stops at the classical turning point of its energy, past which
  no pivot can change sign, and each Newton step is one full sweep
  that also counts,
* a shooting eigensolver for the attractive half-line problem, whose
  RK4 steps are 2x2 propagators; the outward sweep starts on the x^nu
  Frobenius series at x_start = 1e-2, the inward one where the WKB
  action of the tail past the turning point of the bracket's shallow
  end reaches 12; each propagator entry is a quadratic in the energy,
  tabulated once per run; five pairwise passes with numpy multiply the
  steps into 32-step blocks, and one loop walks each sweep block by
  block, which gives the matching defect from the sweeps' final states
  and the node count from phi at every block end; each level is one
  Anderson-Bjorck (modified regula falsi) solve of the matching defect,
  and the energy scan walks the Coulomb variable t = (2 |e|)^(-1/2) in
  half steps, one table per energy window (1.01 e, 0.5 e) of its probes.

Both eigensolvers compute in natural units (sqrt(hbar/(m omega)) and
hbar omega, hbar^2/(m alpha) and m alpha^2/hbar^2), so the constants
enter each solve once; arguments and results are in the caller's units.

All routines are deterministic: fixed node tables, fixed refinement
rules, fixed step-size policies.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import ConvergenceError, PhysicalParams, check_index, check_nu, check_number

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
# Gauss weights at the abscissas of _XGK, 0 where the node is Kronrod's only
_WG = (
    0.0, 0.12948496616886969, 0.0, 0.27970539148927664,
    0.0, 0.38183005050511894, 0.0, 0.41795918367346939,
)

# the 15 nodes in summation order, +x and -x for each abscissa and then
# 0, with their Kronrod and Gauss weights
_NODE_X = np.repeat(_XGK, 2)[:15] * np.resize((1.0, -1.0), 15)
_KRONROD_W = np.repeat(_WGK, 2)[:15]
_GAUSS_W = np.repeat(_WG, 2)[:15]

_GRADE_DEPTH = 28          # dyadic grading depth toward each finite endpoint
_FAR_DEPTH = 8             # dyadic grading depth toward the infinite end of a half-line
_MAX_INTERVALS = 4096      # refinement cap of one adaptive integral
# Bound on |finite end| and on every weight dx/dt of a half-line's map:
# half the largest float, so every cell width, midpoint and node is a float.
_RANGE_LIMIT = 0.5 * sys.float_info.max


def _unmapped(c, d) -> tuple[np.ndarray, np.ndarray]:
    """The map of a finite range: x = t = c + d, with weight dx/dt = 1."""
    x = c + d
    return x, np.ones_like(x)


def _caller_cell(x_lo: float, x_hi: float) -> str:
    """The cell of the caller's x between x_lo and x_hi, for messages."""
    return f"[{min(x_lo, x_hi)}, {max(x_lo, x_hi)}]"


def _evaluate(F, x: np.ndarray) -> np.ndarray:
    """F at the 1-d float array x, as one float per point; values of the
    wrong shape or complex ones raise ValueError."""
    v = np.asarray(F(x))
    if v.shape != x.shape:
        raise ValueError(f"integrand must return one value per point: "
                         f"got shape {v.shape} for {x.size} points")
    if v.dtype.kind == "c":
        first = int(np.argmax(v.imag != 0.0))
        raise ValueError(f"integrand must return real values, got {v.dtype} values "
                         f"such as {complex(v[first])!r} at x = {float(x[first])!r}")
    return np.asarray(v, dtype=float)


def _gk15(F, to_x, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and |Kronrod - Gauss| error estimates on the cells
    [lo[i], hi[i]] of t, from one call of F on all their nodes.

    to_x(c, d) maps the points t = c + d, cell midpoints c and offsets d
    passed apart, to the caller's x and gives the weights dx/dt; each
    node's value is F(x) times its weight.  Each rule is one cumsum, which
    adds each cell's nodes in _NODE_X order, so a cell's value and
    estimate do not depend on the other cells of the round.  Raises
    ConvergenceError for the first cell whose outermost nodes do not map
    strictly inside it, so no endpoint is ever evaluated; ValueError
    naming the first cell with a weight past _RANGE_LIMIT, before F is
    called; and ValueError naming the first cell whose Kronrod value is
    not finite.  Messages name the cell in the caller's x.
    """
    c = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    x, weight = to_x(c[:, None], r[:, None] * _NODE_X)
    ends = to_x(np.concatenate((lo, hi)), 0.0)[0]
    x_lo, x_hi = ends[:len(lo)], ends[len(lo):]
    # _NODE_X starts with the nodes nearest hi and lo, and to_x is
    # monotone, increasing or decreasing
    near_hi, near_lo = x[:, 0], x[:, 1]
    tight = ~((x_lo < near_lo) & (near_hi < x_hi) | (x_hi < near_hi) & (near_lo < x_lo))
    if tight.any():
        first = int(np.argmax(tight))
        if first:
            _gk15(F, to_x, lo[:first], hi[:first])
        raise ConvergenceError(
            f"quadrature cell {_caller_cell(x_lo[first], x_hi[first])} "
            "cannot be refined further: its outermost nodes do not fall strictly inside it")
    if not weight.max() <= _RANGE_LIMIT:
        first = int(np.argmax(~np.all(weight <= _RANGE_LIMIT, axis=1)))
        raise ValueError(
            f"the map of the half-line onto [0, 1) has weights dx/dt past "
            f"{_RANGE_LIMIT:.6g}, half the largest float, on the quadrature cell "
            f"{_caller_cell(x_lo[first], x_hi[first])}")
    v = _evaluate(F, x.ravel()).reshape(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        v = v * weight
        # + 0.0 turns a sum of -0.0 terms into 0.0, as a sum from 0.0 gives
        acc_k = (v * _KRONROD_W).cumsum(axis=1)[:, -1] + 0.0
        acc_g = (v * _GAUSS_W).cumsum(axis=1)[:, -1]
        bad = ~np.isfinite(acc_k)
        if bad.any():
            first = int(np.argmax(bad))
            raise ValueError("integrand is not finite on the quadrature cell "
                             f"{_caller_cell(x_lo[first], x_hi[first])}")
        return r * acc_k, np.abs(r * (acc_k - acc_g))


def _initial_cells(a: float, b: float, depth_b: int) -> list[float]:
    """Interval boundaries graded dyadically, _GRADE_DEPTH levels toward
    a and depth_b levels toward b.

    Integrable endpoint singularities (fractional powers) then converge
    geometrically cell by cell without the refinement loop having to
    discover them one bisection at a time.
    """
    width = b - a
    cuts = {a, b}
    for j in range(1, _GRADE_DEPTH + 1):
        cuts.add(a + width * 2.0 ** (-j))
    for j in range(1, depth_b + 1):
        cuts.add(b - width * 2.0 ** (-j))
    return sorted(c for c in cuts if a <= c <= b)


def _adaptive(F, to_x, a: float, b: float, tol: float, depth_b: int) -> float:
    """Global adaptive Gauss-Kronrod on [a, b], one call of F per round.

    The first round evaluates every initial cell.  Each later round
    halves the fewest cells whose estimates add up to at least
    total - tol, largest estimate first and the earliest cell first
    among equals; a left half takes its parent's place and a right half
    goes to the end, in split order.
    """
    bounds = np.array(_initial_cells(a, b, depth_b))
    lo, hi = bounds[:-1], bounds[1:].copy()
    val, err = _gk15(F, to_x, lo, hi)
    while True:
        total_err = math.fsum(err.tolist())
        if total_err <= tol:
            return math.fsum(val.tolist())
        order = np.argsort(-err, kind="stable")
        with np.errstate(over="ignore"):
            reach = np.cumsum(err[order])
        k = min(int(np.searchsorted(reach, total_err - tol)) + 1, len(order))
        if len(lo) + k > _MAX_INTERVALS:
            worst = order[0]
            x_lo, x_hi = to_x(np.array([lo[worst], hi[worst]]), 0.0)[0]
            raise ConvergenceError(
                f"quadrature exceeded {_MAX_INTERVALS} intervals "
                f"(error estimate {total_err:.3e}, target {tol:.3e}); the largest "
                f"estimate is on the cell {_caller_cell(x_lo, x_hi)}")
        split = order[:k]
        s_lo, s_hi = lo[split], hi[split]
        mid = 0.5 * (s_lo + s_hi)
        v, e = _gk15(F, to_x, np.column_stack((s_lo, mid)).ravel(),
                     np.column_stack((mid, s_hi)).ravel())
        hi[split] = mid
        val[split], err[split] = v[0::2], e[0::2]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((hi, s_hi))
        val, err = np.concatenate((val, v[1::2])), np.concatenate((err, e[1::2]))


def integrate(F, a: float, b: float, tol: float = 1e-10) -> float:
    """Integral of F over [a, b] with absolute error estimate below tol.

    F takes a 1-d float array of points and returns one real value per
    point; each round of refinement calls it once on the nodes of all
    the cells that round evaluates, at most 4096 x 15 points.  The
    rounds are global adaptive 15-point Gauss-Kronrod: the first
    evaluates every initial cell, each later one halves the fewest cells
    whose error estimates add up to at least total - tol, largest first,
    and a round that would hold more than 4096 cells raises
    ConvergenceError naming the cell with the largest estimate.

    A finite [a, b] is integrated in x, its initial cells graded
    dyadically 28 levels toward each end.  A half-line is mapped onto
    [0, 1) by the change of variable of QUADPACK's QAGI (Piessens et
    al. 1983, section 2.2): x = a + L t/(1 - t) for [a, inf) and
    x = b - L t/(1 - t) for (-inf, b], with L = max(1, 2|s|, 2s + 1)
    for s = a or -b.  F(x) L/(1 - t)^2 is integrated over t, graded 28
    levels toward the finite end t = 0 and 8 toward t = 1, which covers
    the shells out to x = 255 L.  QAGI's own map, x = a + (1 - t)/t,
    puts the finite end at t = 1; here it sits at t = 0, where floats
    are densest, so an endpoint singularity such as x^(-1/2) is resolved
    as finely as on a finite range.  A full line is split at 0 into two
    half-lines.

    F is called only at the nodes of the cells the rounds evaluate, and
    it must be finite there and raise or warn nothing: on a half-line
    the first round reaches x = 6e4 L past the finite end, and each
    split of the far cell doubles that reach, up to about 4.5e15 L,
    where t runs out of floats below 1; a tail that still matters there,
    such as (1 + x)^(-3/2), raises ConvergenceError.  No endpoint is ever
    evaluated, so integrable power singularities at the ends are fine;
    a cell too narrow to keep its nodes off its ends in x raises
    ConvergenceError.  A cell where the integrand is not finite raises
    ValueError, and so do complex values, naming the first with an
    imaginary part and its x, and an endpoint that is neither +-inf nor
    finite (NaN, bool).  Messages name cells by the x F is called with.

    Domain: every finite end must satisfy |end| <= 8.99e307, half the
    largest float, so that every cell width and midpoint is a float.  A
    half-line's weights L/(1 - t)^2 must stay within that limit too, so
    F is never called at a non-finite x; they reach 3.6e9 L in the first
    round, so a finite end past about 1.2e298 is refused at once.
    Either raises ValueError naming the limit.
    """
    tol = check_number(tol, "tolerance", 0.0, open_low=True)
    a = check_number(a, "lower limit a", -math.inf, math.inf)
    b = check_number(b, "upper limit b", -math.inf, math.inf)
    for end, name in ((a, "lower limit a"), (b, "upper limit b")):
        if _RANGE_LIMIT < abs(end) < math.inf:
            raise ValueError(f"{name} must lie within +-{_RANGE_LIMIT:.6g}, half the "
                             f"largest float, got {end!r}")
    if a == b:
        return 0.0
    if a > b:
        return -integrate(F, b, a, tol)
    neg_inf = math.isinf(a) and a < 0
    pos_inf = math.isinf(b) and b > 0
    if neg_inf and pos_inf:
        return integrate(F, a, 0.0, 0.5 * tol) + integrate(F, 0.0, b, 0.5 * tol)
    if neg_inf or pos_inf:
        end = b if neg_inf else a
        s = -end if neg_inf else end
        length = max(1.0, 2.0 * abs(s), 2.0 * s + 1.0)
        step = -length if neg_inf else length

        def to_x(c, d):
            # 1 - c is exact for c >= 1/2, so u = 1 - t keeps its digits
            # toward t = 1, where t itself has none to spare
            u = (1.0 - c) - d
            with np.errstate(divide="ignore", over="ignore"):
                return end + step * ((c + d) / u), length / (u * u)
        return _adaptive(F, to_x, 0.0, 1.0, tol, _FAR_DEPTH)
    return _adaptive(F, _unmapped, a, b, tol, _GRADE_DEPTH)


def quadrature(f, a: float, b: float, tol: float = 1e-10) -> float:
    """integrate() for an integrand f of one float: f is called at each
    node in turn, in the order integrate() passes them, with the same
    result, rules and messages.

    For integrands that cannot take arrays, such as ones built from
    math.exp (the perfbench oracle_solve norm integrand is one); an
    array integrand should call integrate() directly.
    """
    return integrate(lambda ts: np.array([f(t) for t in ts.tolist()]), a, b, tol)


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
    epsilon = check_number(epsilon, "energy epsilon")
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
    """One spin sector of the box matrix on the half line: a tridiagonal
    on the cell centres u_i = (i + 1/2) h, i = 0, 1, ..., whose row 0
    sits next to the origin and whose later rows run out to the wall.

    diag is the half-line diagonal 1/h^2 + u^2/2 and off the constant
    coupling -1/(2h^2).  Row 0's neighbour across the origin is its
    mirror image, psi(-u_0) = psi(u_0) for s = 0 (zero flux at u = 0)
    and -psi(u_0) for s = 1/2 (psi(0) = 0), so row 0 gains +off or -off.
    The diagonal from row 1 on must not decrease (it grows as u^2/2),
    which is what lets a count stop at the first forbidden row.
    below(lam) counts the sector's eigenvalues below lam and keeps every
    count it has made; log_det_sweep(lam) gives one count with the
    log-determinant's derivative and keeps nothing.
    """

    def __init__(self, diag: np.ndarray, off: float, s: float):
        self.diag = diag.tolist()
        self.diag[0] += -off if s else off
        self.offsq = off * off
        self.abs_off = abs(off)
        self.counts: dict[float, int] = {}

    def below(self, lam: float) -> int:
        count = self.counts.get(lam)
        if count is None:
            count = self.counts[lam] = self._sweep(lam)
        return count

    def _sweep(self, lam: float) -> int:
        """Sturm count of the sector at lam, swept outward from the origin.

        The sweep stops at the first row i >= 1 whose diagonal entry is
        >= lam + 2|off| (the bound is rounded up, so this holds exactly)
        while the pivot q before it is >= |off|.  The diagonal does not
        decrease from row 1 on, so every later row is classically
        forbidden at lam as well, and each later pivot is
        >= 2|off| - off^2/q >= |off|: none can turn negative, and the
        count is the one a full sweep would give.  Rounding loosens that
        bound by a few units of roundoff per row, which leaves every
        later pivot above |off|/2.  Past the turning point the pivots
        clear |off| within a row or two.  Row 0 is never tested: at
        s = 1/2 its diagonal d_0 + |off| may lie above row 1's.
        """
        offsq = self.offsq
        abs_off = self.abs_off
        floor = _PIVOT_FLOOR
        forbidden = math.nextafter(lam + 2.0 * abs_off, math.inf)
        count = 0
        q = self.diag[0] - lam
        if q < floor:
            count = 1
            if q > -floor:
                q = -floor
        for d in islice(self.diag, 1, None):
            # every row counted: seeds 1-5's box spectra 447 ms, not 340 (2-core host)
            if d >= forbidden and q >= abs_off:
                break
            q = d - lam - offsq / q
            if q < floor:
                count += 1
                if q > -floor:
                    q = -floor
        return count

    def log_det_sweep(self, lam: float) -> tuple[int, float]:
        """Sturm count of the sector at lam and d/dlam log|det(T - lam)|,
        from one sweep over every row.

        det(T - lam) is the product of the pivots q_i, so its log
        derivative is the sum of t_i = q'_i/q_i.  With q'_0 = -1 and
        q'_i = -1 + c_i q'_(i-1)/q_(i-1)^2 for the coupling product c_i
        (Li and Zeng, SIAM J. Sci. Comput. 15, 1994), t_i is
        (r_i t_(i-1) - 1)/q_i with r_i = c_i/q_(i-1), the ratio _sweep
        already forms.  The sweep cannot stop at the turning point as
        _sweep does: the zero of the determinant sits in the last pivot.
        It starts from q = inf and t = 0, so row 0 gives r_0 = 0,
        q_0 = d_0 - lam and t_0 = -1/q_0; the pivot floor is as in _sweep.
        """
        offsq = self.offsq
        floor = _PIVOT_FLOOR
        count = 0
        q = math.inf
        t = slope = 0.0
        for d in self.diag:
            r = offsq / q
            q = d - lam - r
            if q < floor:
                count += 1
                if q > -floor:
                    q = -floor
            t = (r * t - 1.0) / q
            slope += t
        return count, slope


def fd_oscillator_spectrum(p: PhysicalParams, box_halfwidth: float,
                           points: int, count: int) -> list[float]:
    """Lowest eigenvalues of the oscillator on [-L, L] with walls.

    In oscillator units the wall sits at W = L / sqrt(hbar/(m omega)).
    The box potential is even, so its levels are those of the reduced
    half-line oscillator of the paper with spin label s = 0 (zero slope
    at u = 0) and s = 1/2 (zero value), and each sector is built on its
    own on the half line: three-point finite differences on the
    rows = (points - 1) // 2 cell centres u_i = (i + 1/2) h, with
    h = W/(rows + 1/2), give a symmetric tridiagonal with diagonal
    1/h^2 + u^2/2 and coupling -1/(2h^2), and the origin adds +off or
    -off to row 0 (see _Sector).  For an even point count this is the
    even and odd half of three-point differences on `points` uniform
    points of [-W, W] (walls included); an odd count is solved on the
    grid of points + 1 points.  In exact arithmetic the sectors
    alternate, level j being level j // 2 + 1 (from 1) of the s = 0
    sector for even j and of the s = 1/2 sector for odd j, and the
    levels are solved in that merged order, each counting up its own
    ladder from the bottom of the Gershgorin interval (see
    _sector_level).  From level 1 on, a level's Newton steps start at
    2 lam_(j-1) - lam_(j-2), the linear prediction from the two levels
    just solved, with
    lam_(-1) = -lam_0, the ground level's mirror image (so level 1
    starts at 3 lam_0), when that lies strictly inside the level's
    isolated bracket: the levels of the two sectors interlace at a
    spacing near one hbar omega, where the bracket's midpoint may be half
    a spacing off.  The result is the levels in ascending order, times
    hbar omega.  The discretization error is O(h^2).

    Domain, else ValueError: count in 1..20, points in 100.._MAX_POINTS,
    and L > 0 such that the squared coupling 1/(4h^4) is a positive
    normal float (then so is W^2/2) and the Gershgorin top times
    hbar omega is finite.
    """
    box_halfwidth = check_number(box_halfwidth, "box halfwidth", 0.0, open_low=True)
    points = check_index(points, "point count", low=100, high=_MAX_POINTS)
    count = check_index(count, "eigenvalue count", low=1, high=20)
    wall = box_halfwidth / math.sqrt(p.hbar / (p.mass * p.require_omega()))
    quantum = p.hbar * p.omega
    rows = (points - 1) // 2
    h = wall / (rows + 0.5)
    kinetic = 1.0 / (h * h) if h * h else math.inf
    off = -0.5 * kinetic
    if not (sys.float_info.min <= off * off <= sys.float_info.max
            and (2.0 * kinetic + 0.5 * wall * wall) * quantum < math.inf):
        raise ValueError(f"box halfwidth {box_halfwidth!r} ({wall:.6g} oscillator lengths) "
                         f"puts the {points}-point box matrix outside the float range")
    us = (np.arange(rows) + 0.5) * h
    diag = kinetic + 0.5 * us * us
    lo0 = float(diag[0]) - 2.0 * abs(off)
    hi0 = float(diag[-1]) + 2.0 * abs(off)
    # u^2/2 >= 0, so no level is below the bare box's lowest,
    # 2 sin^2(pi/(2(2 rows + 1)))/h^2 >= 2/((2 rows + 1) h)^2 = 1/(2 W^2)
    first = max(1.0, 0.5 / (wall * wall))
    sectors = [_Sector(diag, off, s) for s in (0.0, 0.5)]
    levels: list[float] = []
    for j in range(count):
        # lam_(-1) = -lam_0, the ground level's mirror image
        start = 2.0 * levels[-1] - (levels[-2] if j >= 2 else -levels[0]) if j else math.nan
        levels.append(_sector_level(sectors[j % 2], j // 2 + 1, lo0, hi0, first, start))
    return [level * quantum for level in sorted(levels)]


_NEWTON_STEPS = 200     # Newton steps inside the bracket one level may take


def _stop_width(lam: float, abs_off: float) -> float:
    """Width at which a sector level near lam is resolved: 1e-13
    max(1, |lam|), or the backward error of the pivot recurrence,
    4 eps (|lam| + 2|off|), if that is larger; below the latter, Newton
    steps only change sign from one sweep to the next."""
    return max(1e-13 * max(1.0, abs(lam)),
               4.0 * sys.float_info.epsilon * (abs(lam) + 2.0 * abs_off))


def _sector_level(sector: _Sector, rank: int, lo0: float, hi0: float, first: float,
                  start: float) -> float:
    """Eigenvalue number `rank` (from 1) of the sector, every eigenvalue
    of which lies in [lo0, hi0].

    First counts up rungs lo0 + first 2^j, j = 0, 1, ..., below hi0
    until one holds `rank` eigenvalues, and takes that rung as hi (hi0
    if none does; fd_oscillator_spectrum chooses first).  A rung a few
    hbar omega up stops its count at the turning point, so the ladder
    costs a few short sweeps where bisecting down from hi0 would cost a
    nearly full sweep per halving.  The rung lies below twice the level
    plus first, and none overflows: the rise doubles as a float and each
    rung is compared with hi0.  The counts stay in the sector's record,
    where a later level finds the rungs below its own, so the ladder
    adds no sweep there; a level depends on its rank alone, not on how
    many levels the caller wants.

    Then bisects [lo0, hi] on that record until it holds the eigenvalue
    alone, and takes safeguarded Newton steps lam - 1/slope from
    log_det_sweep, starting at `start` if it lies strictly inside
    [lo, hi] and at the midpoint otherwise (NaN included); each sweep's
    count moves lo or hi.  A step that leaves [lo, hi], or a slope that
    is zero or not finite (a pivot on the floor), falls back to the
    midpoint.  A step, or the width of [lo, hi], at most _stop_width
    ends the solve.  Every count and every midpoint sweep halves
    [lo, hi], at most about 1,070 times from the widest float bracket to
    the 1e-13 floor of that width, so only Newton steps that stay inside
    are capped, at _NEWTON_STEPS.
    """
    abs_off = sector.abs_off
    lo, below_lo = lo0, 0
    hi, below_hi = hi0, len(sector.diag)
    rise = first
    while lo0 + rise < hi0:
        count = sector.below(lo0 + rise)
        if count >= rank:
            hi, below_hi = lo0 + rise, count
            break
        rise *= 2.0
    while ((below_lo < rank - 1 or below_hi > rank)
           and hi - lo > _stop_width(0.5 * (lo + hi), abs_off)):
        mid = 0.5 * (lo + hi)
        count = sector.below(mid)
        if count >= rank:
            hi, below_hi = mid, count
        else:
            lo, below_lo = mid, count
    lam = start if lo < start < hi else 0.5 * (lo + hi)
    newton = 0
    while hi - lo > _stop_width(0.5 * (lo + hi), abs_off) and newton < _NEWTON_STEPS:
        count, slope = sector.log_det_sweep(lam)
        if count >= rank:
            hi = lam
        else:
            lo = lam
        step = 1.0 / slope if slope and math.isfinite(slope) else math.inf
        if abs(step) <= _stop_width(lam, abs_off):
            return lam - step if lo < lam - step < hi else lam
        if lo < lam - step < hi:
            lam -= step
            newton += 1
        else:
            lam = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ShootingConfig:
    """Origin branch and energy window of one shooting run.

    The solution starts as x^nu at the origin.  _ShootingRun derives the
    geometry from nu and energy_bracket over m alpha^2/hbar^2.
    """

    nu: float
    energy_bracket: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "nu", check_nu(self.nu))
        try:
            lo, hi = self.energy_bracket
        except (TypeError, ValueError):
            raise ValueError(f"energy bracket must be two real numbers (lo, hi), "
                             f"got {self.energy_bracket!r}") from None
        lo = check_number(lo, "energy bracket lower end")
        hi = check_number(hi, "energy bracket upper end")
        if not (lo < hi < 0.0):
            raise ValueError(
                f"energy bracket must satisfy lo < hi < 0, got ({lo}, {hi})")
        object.__setattr__(self, "energy_bracket", (lo, hi))


_X_START = 1e-2            # start of the outward sweep, in units of hbar^2/(m alpha)
_START_STEPS = 48          # RK4 steps in the first octave [x_start, 2 x_start]
# WKB action of the inward sweep's tail, from the turning point of hi to
# x_end; 15 moves no level n <= 100 by more than 1e-13 relative
_TAIL_ACTION = 12.0
_TAIL_NEWTON = 6           # Newton steps that place x_end
# RK4 steps one sweep may take; the scan and the level solves for
# n <= 100 take at most 8257
_MAX_STEPS = 2 ** 16
_BLOCK_PASSES = 5          # pairwise passes that form the 32-step blocks of the walk
# Deepest lower bracket end, in natural units.  _starts sums a series
# that grows as e^(kappa x_start), to e^447 at lo = -1e9, well inside the
# floats (e^709 would overflow).  The step rule keeps h^2 |g| <= 0.0025,
# so a raw step propagator has diagonal entries below 1.002, M01 below
# 1.001 h and M10 below 1.001 h |g| <= 0.0501 sqrt(G), with
# G = 2/x_start + nu(1 - nu)/x_start^2 + 2|lo| the largest bound on |g|
# of the run; lo >= -1e9 keeps that below 2,300.  On the octave from a,
# h <= 0.05 sqrt(a/2), and the octave [a/2, a] before it takes at least
# 20 sqrt(a) of the two sweeps' 2 _MAX_STEPS steps, so a < 4.3e7 and
# h < 240.  Every raw entry is then below 2^14.  A 2x2 product obeys
# max|AB| <= 2 max|A| max|B|, so the _BLOCK_PASSES = 5 pairwise passes
# that form the 32-step blocks grow the entries to at most 2^29, 2^59,
# 2^119, 2^239 and 2^479: below overflow, with no rescale.
_DEEPEST = 1e9


def _tail_end(hi: float, ell: float) -> float:
    """Where the inward sweep of a run with shallow end hi < 0 starts, in
    natural units: the x past the turning point of hi at which the WKB
    action reaches _TAIL_ACTION.

    With k^2 = -2 hi and g = k^2 - 2/x - ell/x^2, the turning point is
    x_t = (1 + root)/k^2, root = sqrt(1 + ell k^2), and the action
    A(x) = int_{x_t}^x sqrt(g) is, with d = x - x_t and
    R = x^2 g = k^2 d (x + ell/(1 + root)),

        A(x) = sqrt(R) - acosh(1 + k^2 d/root)/k
               - 2 sqrt(ell) asin(sqrt(ell d/(2 x_t x root))),

    each term written in d, so that none is rounded out of its domain
    near x_t.  The action is a property of the potential, like the
    scan's t, not of any spectrum.  A is convex and increasing past x_t,
    and from 2 x_t on g >= k^2 (x - x_t)/x >= k^2/2, so A >= _TAIL_ACTION
    at 2 x_t + sqrt(2) _TAIL_ACTION/k.  _TAIL_NEWTON Newton steps from
    there move down toward the root and do not pass it.
    """
    k2 = -2.0 * hi
    k = math.sqrt(k2)
    root = math.sqrt(1.0 + ell * k2)
    x_t = (1.0 + root) / k2
    x = 2.0 * x_t + math.sqrt(2.0) * _TAIL_ACTION / k
    for _ in range(_TAIL_NEWTON):
        d = x - x_t
        r = math.sqrt(k2 * d * (x + ell / (1.0 + root)))
        action = (r - math.acosh(1.0 + k2 * d / root) / k
                  - 2.0 * math.sqrt(ell) * math.asin(math.sqrt(0.5 * ell * (d / x_t) / (x * root))))
        x -= (action - _TAIL_ACTION) / (r / x)
    return x


def _octaves(run: _ShootingRun, lo_x: float, hi_x: float,
             deep: float) -> tuple[list, list, list]:
    """Step length, step count and start of each octave of one sweep over
    [lo_x, hi_x], for a bracket whose deep end is deep < 0.

    Step doubles per octave of x, anchored at run.x_start, from
    x_start/_START_STEPS on the first octave [x_start, 2 x_start]; the
    series start leaves nothing nearer the origin to sweep.  It is capped
    so h times the largest local wavenumber, at energy deep, stays below
    0.05.  A sweep of any length is planned at once, one entry per octave.
    """
    vcoef = run.cfg.nu * (1.0 - run.cfg.nu)  # identical for both nu branches
    g_energy = 2.0 * abs(deep)
    steps, counts, starts = [], [], []
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
        steps.append((edge - a) / m)
        counts.append(m)
        starts.append(a)
        a = edge
        j += 1
    return steps, counts, starts


def _steps(run: _ShootingRun, x_match: float) -> np.ndarray:
    """RK4 step table of both sweeps, shape (4, 2, width): rows h, v_start,
    v_mid, v_end, sweep 0 outward x_start -> x_match and sweep 1 inward
    x_end -> x_match (h < 0), both padded with zeros to the next multiple
    of 2^_BLOCK_PASSES steps.

    v is the e-free part of the coefficient g(x) = 2 (V(x) - e) =
    vpart(x) - 2e at the start, midpoint and end of each step, in
    natural units; an inward step runs from its end back to its start.
    _octaves fixes each octave's step count m and length h; the steps of
    both sweeps are then built in one array pass, step k of the octave
    starting at a running from a + h k to a + h (k + 1).  A sweep of
    more than _MAX_STEPS steps raises ValueError first (see _too_long).
    """
    vcoef = run.cfg.nu * (1.0 - run.cfg.nu)
    out = _octaves(run, run.x_start, x_match, run.bracket[0])
    inward = _octaves(run, x_match, run.x_end, run.bracket[0])
    n_out, n_in = sum(out[1]), sum(inward[1])
    if max(n_out, n_in) > _MAX_STEPS:
        raise ValueError(_too_long(run, x_match if n_out > _MAX_STEPS else run.x_end))
    steps, counts, starts = (o + i for o, i in zip(out, inward))
    h = np.repeat(steps, counts)
    a = np.repeat(starts, counts)
    k = np.arange(n_out + n_in) - np.repeat(np.cumsum(counts) - counts, counts)
    x0 = a + h * k
    x = np.stack([x0, x0 + 0.5 * h, a + h * (k + 1)])
    v = -2.0 / x - vcoef / (x * x)
    block = 2 ** _BLOCK_PASSES
    table = np.zeros((4, 2, -(-max(n_out, n_in) // block) * block))
    table[0, 0, :n_out] = h[:n_out]
    table[1:, 0, :n_out] = v[:, :n_out]
    table[0, 1, :n_in] = -h[n_out:][::-1]
    table[1:, 1, :n_in] = v[::-1, n_out:][..., ::-1]
    return table


def _too_long(run: _ShootingRun, hi_x: float) -> str:
    """Why a sweep of run to x = hi_x needs more than _MAX_STEPS steps:
    too wide if the narrowest bracket ending at hi, whose step hi sets,
    would fit, else too shallow (the sweeps reach about 1/|hi|)."""
    hi = run.bracket[1]
    x_match = max(0.6 / -hi, 2.0 * run.x_start)
    narrow = (_octaves(run, run.x_start, x_match, hi), _octaves(run, x_match, run.x_end, hi))
    sweep = f"a sweep to x = {hi_x:.6g} hbar^2/(m alpha) needs more than {_MAX_STEPS} RK4 steps"
    if max(sum(counts) for _, counts, _ in narrow) <= _MAX_STEPS:
        return (f"energy bracket {run.cfg.energy_bracket} is too wide: its lower end sets the "
                f"RK4 step, and {sweep}, where a narrower bracket ending at "
                f"{run.cfg.energy_bracket[1]} would fit")
    return f"energy bracket {run.cfg.energy_bracket} is too shallow: {sweep}"


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a_i b_i of 2x2 matrices stored entry-first, shape (2, 2, ...)."""
    product = a[:, :1] * b[:1]
    product += a[:, 1:] * b[1:]
    return product


def _sign_changes(phi: list) -> int:
    """Sign changes along the list phi; exact zeros are skipped, so
    (+, 0, -) counts one change and (+, 0, +) none."""
    positive = [value > 0.0 for value in phi if value != 0.0]
    return sum(a != b for a, b in zip(positive, positive[1:]))


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
    nodes divide their eps by it.  Sweeps run out from x_start = _X_START
    on the x^nu series (see _starts), first step x_start/_START_STEPS, and
    in from x_end, where the WKB action past the turning point of hi
    reaches _TAIL_ACTION (see _tail_end), to
    x_match = max(0.6/sqrt(lo hi), 2 x_start).  Both ends are set by the
    potential and the error they leave, not by a spectrum: a longer tail
    or a start nearer the origin moves no level by more than the RK4 step
    error.  A bracket with lo below -_DEEPEST, or whose x_end does not
    pass x_match (hi below about -2e5), is refused as too deep.

    Row 0 of the step table (h, and v = the e-free coefficient values)
    is the outward sweep x_start -> x_match, row 1 the inward sweep
    x_end -> x_match (h < 0); both are padded with h = 0 steps, whose
    propagator is exactly the identity, to a width that is a multiple of
    32.  One RK4 step of the linear ODE is a 2x2 propagator whose entries
    are quadratics in 2e (see _quadratic_propagators); coef holds their
    coefficients, so a propagator table at any energy is
    c0 + 2e (c1 + 2e c2).  mismatch and nodes both read one walk over
    32-step blocks of that table (see _block_ends).
    """

    def __init__(self, cfg: ShootingConfig, p: PhysicalParams):
        self.cfg = cfg
        alpha = p.require_alpha()
        self.energy_unit = unit = p.mass * alpha * alpha / p.hbar ** 2
        self.bracket = lo, hi = tuple(end / unit for end in cfg.energy_bracket)
        # then lo hi > 0, and x_match and x_end, about 1/|hi|, lie far inside the floats
        if not hi * hi > 0.0:
            raise ValueError(f"energy bracket {cfg.energy_bracket} is too shallow: hi^2 "
                             "underflows to 0 in units of m alpha^2/hbar^2")
        self.x_start = x_start = _X_START
        x_match = max(0.6 / math.sqrt(lo * hi), 2.0 * x_start)
        self.x_end = _tail_end(hi, cfg.nu * (1.0 - cfg.nu))
        if not (x_start < x_match < self.x_end and -_DEEPEST <= lo):
            raise ValueError(f"energy bracket {cfg.energy_bracket} is too deep: need x_start < "
                             f"x_match < x_end and lo >= -{_DEEPEST:.0e} in natural units, "
                             f"got {x_start}, {x_match}, {self.x_end} and lo = {lo}")
        table = _steps(self, x_match)
        self.h = table[0]
        self.v = table[1:]
        # propagators per energy: scan -4 to +7 %, level solves 20-33 % slower (2 cores)
        self.coef = _quadratic_propagators(self.h, self.v)

    def _propagators(self, e: float) -> np.ndarray:
        """Every step's RK4 propagator at e, shape (2, 2, 2, width)."""
        e2 = 2.0 * e
        c0, c1, c2 = self.coef
        # c0 + e2 (c1 + e2 c2), in one array
        m = c2 * e2
        m += c1
        m *= e2
        m += c0
        return m

    def _starts(self, e: float) -> np.ndarray:
        """Starting values at e: row 0 is phi, row 1 phi'; column 0 starts
        the outward sweep at x_start, column 1 the inward sweep at x_end.

        The outward start is the x^nu Frobenius solution, phi = x^nu sum
        c_k x^k with c_0 = 1 and c_k = -2 (c_(k-1) + e c_(k-2)) /
        (k (k + 2 nu - 1)), summed until two terms in a row fall below
        half an ulp of the sum, so no x^(1 - nu) part leaks in.  It is
        scaled to phi = 1, as the inward start is: the sum grows to about
        e^(kappa x_start), e^447 at e = -_DEEPEST.  The inward start has
        the decaying WKB slope phi'/phi = -kappa + 1/(kappa x_end).
        """
        nu = self.cfg.nu
        x0 = self.x_start
        term, before = 1.0, 0.0            # c_k x0^k and c_(k-1) x0^(k-1)
        total, weighted = 1.0, nu          # sum c_k x0^k and sum (nu + k) c_k x0^k
        k = 0
        while abs(term) + abs(before) > 0.5 * sys.float_info.epsilon * abs(total):
            k += 1
            term, before = -2.0 * x0 * (term + e * x0 * before) / (k * (k + 2.0 * nu - 1.0)), term
            total += term
            weighted += (nu + k) * term
        kappa = math.sqrt(-2.0 * e)
        return np.array([[1.0, 1.0],
                         [weighted / (x0 * total), -kappa + 1.0 / (kappa * self.x_end)]])

    def _block_ends(self, e: float) -> tuple[list, list]:
        """phi at the start and at every 32-step block end of each sweep
        at e, one list per sweep, and the final (phi, phi') of each.

        _BLOCK_PASSES pairwise passes over the raw propagators, later
        step times earlier, form the product of each block of 32 steps
        (entries below 2^479, see _DEEPEST).  A loop applies the blocks
        in order to each sweep's start and divides (phi, phi') by
        |phi| + |phi'| after every block, which keeps every sign; a state
        that collapses to zero raises ConvergenceError.
        """
        m = self._propagators(e)
        for _ in range(_BLOCK_PASSES):
            m = _matmul(m[..., 1::2], m[..., 0::2])
        m00, m01, m10, m11 = m.reshape(4, 2, -1).tolist()
        ends, finals = [], []
        for sweep, (phi, dphi) in enumerate(self._starts(e).T.tolist()):
            row = [phi]
            try:
                for a, b, c, d in zip(m00[sweep], m01[sweep], m10[sweep], m11[sweep]):
                    phi, dphi = a * phi + b * dphi, c * phi + d * dphi
                    scale = abs(phi) + abs(dphi)
                    phi /= scale
                    dphi /= scale
                    row.append(phi)
            except ZeroDivisionError:
                raise ConvergenceError("shooting state collapsed to zero") from None
            ends.append(row)
            finals.append((phi, dphi))
        return ends, finals

    def mismatch(self, eps: float) -> float:
        """Scaled Wronskian of the outward and inward solutions at x_match.

        Zero exactly at eigenvalues; its sign flips when eps crosses one.
        It is homogeneous in each solution, so the walk's scaling of the
        final states cannot change it.
        """
        (left, dleft), (right, dright) = self._block_ends(eps / self.energy_unit)[1]
        norm = math.sqrt((left * left + dleft * dleft) * (right * right + dright * dright))
        return (dleft * right - left * dright) / norm

    def nodes(self, eps: float) -> int:
        """Interior node count of the matched shape at eps: the sign
        changes of phi across the 32-step block ends of both sweeps.

        The block ends see every node: h k <= 0.05 for the local
        wavenumber k, so by Sturm comparison two zeros of phi lie at
        least pi/0.05 > 62 steps apart, and no block holds two of them.
        """
        return sum(_sign_changes(row) for row in self._block_ends(eps / self.energy_unit)[0])


_SHOOTING_TOL = 1e-9       # relative width at which a shooting solve stops
_SOLVE_STEPS = 100         # mismatch evaluations one shooting solve may take
_SCAN_STEP = 0.5           # step of the scan in t = (2 |e|)^(-1/2), natural units


def _anderson_bjorck(f, a: float, f_a: float, b: float, f_b: float, tol: float) -> float:
    """Zero of f inside (a, b), where f(a) and f(b) have opposite signs.

    Each probe x is the regula falsi root of (a, b) and replaces the end
    whose sign it shares; when it replaces the same end twice in a row,
    the value at the kept end is scaled by m = 1 - f(x)/f(replaced end),
    or by 1/2 when m <= 0 (Anderson and Bjorck, BIT 13, 1973; the
    Illinois method of Dowell and Jarratt, BIT 11, 1971, always halves).
    The probe is pushed tol |mid| / 8 off that root toward the longer
    side of (a, b), so its sign is never rounding noise and the bracket
    closes from both sides.  Returns a probe where f is exactly 0, or the
    midpoint once b - a <= tol |mid|.
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
            if last == -1:
                f_b *= _ab_scale(f_x, f_a)
            a, f_a = x, f_x
            last = -1
        else:
            if last == 1:
                f_a *= _ab_scale(f_x, f_b)
            b, f_b = x, f_x
            last = 1
    raise ConvergenceError(
        f"shooting solve did not reach relative width {tol:.1e} "
        f"in {_SOLVE_STEPS} evaluations")


def _ab_scale(f_x: float, f_replaced: float) -> float:
    """Anderson-Bjorck factor 1 - f_x/f_replaced for the kept end's value,
    or 1/2 when that is not positive."""
    m = 1.0 - f_x / f_replaced
    return m if m > 0.0 else 0.5


def shoot_anyon_energy(cfg: ShootingConfig, p: PhysicalParams, n: int) -> float:
    """Eigenvalue of the half-line problem with Phi ~ x^nu at the origin.

    Solves for the zero of the Wronskian mismatch inside
    cfg.energy_bracket to relative width _SHOOTING_TOL by the
    Anderson-Bjorck method (see _anderson_bjorck), and then verifies the
    converged shape has exactly n interior nodes.  Raises ValueError
    when the bracket is too deep for the geometry, too shallow or too
    wide for _MAX_STEPS steps per sweep, or does not straddle a sign
    change, and ConvergenceError when the search does not converge or
    the node count disagrees with n.
    """
    n = check_index(n, "node count n")
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
        eps = _anderson_bjorck(run.mismatch, lo, w_lo, hi, w_hi, _SHOOTING_TOL)
    found = run.nodes(eps)
    if found != n:
        raise ConvergenceError(
            f"shooting converged to a state with {found} nodes, expected {n}")
    return eps


def scan_level_brackets(nu: float, p: PhysicalParams, n_max: int) -> list[tuple[float, float]]:
    """Energy brackets around the lowest n_max + 1 eigenvalues, by scanning.

    Walks t = (2 |eps| / E)^(-1/2), E = m alpha^2/hbar^2, upward in steps
    of _SCAN_STEP, from t = nu/sqrt(1.35), well below the deepest
    possible bound state, and records every sign change of the shooting
    mismatch; each bracket is the pair of consecutive probes around one.
    t is the variable in which the semiclassical count of states of a
    -alpha/x tail grows by one per unit, a property of the potential and
    not of any spectrum, so a half-unit step puts a probe between any two
    neighbouring levels at every n_max <= 100.  One run serves every
    probe inside its bracket, and the first probe past its shallow end
    builds the next on (1.01 eps, 0.5 eps): a run takes its step rule
    from its deep end and its x_end from its shallow one, and the
    mismatch is a scaled Wronskian, whose sign does not depend on
    x_match.  A level the scan missed anyway still cannot pass:
    shoot_anyon_energy checks the node count of the state each bracket
    converges to.
    """
    nu, n_max = check_nu(nu), check_index(n_max, "n_max", high=100)
    alpha = p.require_alpha()
    unit = p.mass * alpha * alpha / p.hbar ** 2
    t = nu / math.sqrt(1.35)               # strictly below the deepest level
    t_stop = (n_max + 3.0) / math.sqrt(0.2)
    brackets = []
    run = prev_eps = prev_sign = None
    while t < t_stop and len(brackets) <= n_max:
        eps = -0.5 * unit / (t * t)
        if run is None or eps > run.cfg.energy_bracket[1]:
            run = _ShootingRun(ShootingConfig(nu, (1.01 * eps, 0.5 * eps)), p)
        sign = run.mismatch(eps) > 0
        if prev_sign is not None and sign != prev_sign:
            brackets.append((prev_eps, eps))
        prev_eps, prev_sign = eps, sign
        t += _SCAN_STEP
    if len(brackets) <= n_max:
        raise ConvergenceError(
            f"energy scan found only {len(brackets)} levels below "
            f"{-0.5 * unit / (t_stop * t_stop):.3e}, needed {n_max + 1}")
    return brackets


def shooting_config_for_level(nu: float, p: PhysicalParams, n: int,
                              bracket: tuple[float, float]) -> ShootingConfig:
    """ShootingConfig(nu, bracket); p and n are unused."""
    return ShootingConfig(nu, bracket)
