"""Independent numerical oracles.

Nothing in this module knows the closed-form spectra or eigenfunctions.
It offers four ways to check them from first principles:

* adaptive Gauss-Kronrod quadrature (norms, moments, overlaps),
* a finite-difference residual of the governing second-order equation,
* a Sturm-sequence bisection eigensolver for the oscillator on a box,
* a shooting eigensolver for the attractive half-line problem.

All routines are deterministic: fixed node tables, fixed refinement
rules, fixed step-size policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConvergenceError, PhysicalParams, check_index, check_nu

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

_GRADE_DEPTH = 28          # dyadic grading depth toward each endpoint
_TAIL_CAP_DOUBLINGS = 60   # give up on tail truncation after this many


def _gk15(f, lo: float, hi: float) -> tuple[float, float]:
    """Kronrod value and |Kronrod - Gauss| error estimate on [lo, hi]."""
    c = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    acc_k = 0.0
    acc_g = 0.0
    for x, wk, wg in _NODES:
        v = f(c + r * x)
        acc_k += wk * v
        if wg:
            acc_g += wg * v
    return r * acc_k, abs(r * (acc_k - acc_g))


def _initial_cells(a: float, b: float) -> list[float]:
    """Interval boundaries graded dyadically toward both endpoints.

    Integrable endpoint singularities (fractional powers) then converge
    geometrically cell by cell without the refinement loop having to
    discover them one bisection at a time.
    """
    width = b - a
    cuts = {a, b}
    for j in range(1, _GRADE_DEPTH + 1):
        cuts.add(a + width * 2.0 ** (-j))
        cuts.add(b - width * 2.0 ** (-j))
    return sorted(c for c in cuts if a <= c <= b)


def _adaptive(f, a: float, b: float, tol: float, max_intervals: int) -> float:
    bounds = _initial_cells(a, b)
    cells = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            val, err = _gk15(f, lo, hi)
            cells.append([err, lo, hi, val])
    while True:
        total_err = math.fsum(c[0] for c in cells)
        if total_err <= tol:
            return math.fsum(c[3] for c in cells)
        if len(cells) >= max_intervals:
            raise ConvergenceError(
                f"quadrature exceeded {max_intervals} intervals "
                f"(error estimate {total_err:.3e}, target {tol:.3e})")
        worst = max(range(len(cells)), key=lambda i: (cells[i][0], -i))
        _, lo, hi, _ = cells[worst]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ConvergenceError(
                f"quadrature interval [{lo}, {hi}] cannot be refined further")
        val1, err1 = _gk15(f, lo, mid)
        val2, err2 = _gk15(f, mid, hi)
        cells[worst] = [err1, lo, mid, val1]
        cells.append([err2, mid, hi, val2])


def _tail_cutoff(f, start: float, tol: float) -> float:
    """Smallest probed B with |f| small enough beyond B to ignore the tail.

    Probes three incommensurate points per candidate so an accidental
    zero of an oscillatory integrand cannot fake decay.
    """
    cut = start
    for _ in range(_TAIL_CAP_DOUBLINGS):
        peak = max(abs(f(cut)), abs(f(1.37 * cut)), abs(f(1.93 * cut)))
        if peak * cut <= 0.1 * tol:
            return 1.93 * cut
        cut *= 2.0
    raise ConvergenceError(
        f"integrand does not decay fast enough past {cut:.3e} for tail truncation")


def quadrature(f, a: float, b: float, tol: float = 1e-10, *,
               max_intervals: int = 4096) -> float:
    """Integral of f over [a, b] with absolute error estimate below tol.

    Endpoints may be +-inf; infinite tails are truncated where the
    integrand has decayed below the tolerance and the finite core is
    handled by adaptive 15-point Gauss-Kronrod with dyadic grading
    toward both endpoints (endpoint values are never evaluated, so
    integrable power singularities at the ends are fine).
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if a == b:
        return 0.0
    if a > b:
        return -quadrature(f, b, a, tol, max_intervals=max_intervals)
    neg_inf = math.isinf(a) and a < 0
    pos_inf = math.isinf(b) and b > 0
    if neg_inf and pos_inf:
        return (quadrature(f, a, 0.0, 0.5 * tol, max_intervals=max_intervals)
                + quadrature(f, 0.0, b, 0.5 * tol, max_intervals=max_intervals))
    if neg_inf:
        return quadrature(lambda t: f(-t), -b, math.inf, tol,
                          max_intervals=max_intervals)
    if pos_inf:
        cut = _tail_cutoff(f, max(1.0, 2.0 * abs(a), 2.0 * a + 1.0), tol)
        return _adaptive(f, a, cut, tol, max_intervals)
    return _adaptive(f, a, b, tol, max_intervals)


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
    percent energy error is clearly visible.
    """
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
    if xs.ndim != 1 or vs.shape != xs.shape:
        raise ValueError(f"xs and values must be 1-d arrays of one length, "
                         f"got shapes {xs.shape} and {vs.shape}")
    if xs.size < 7:
        raise ValueError(f"need at least 7 samples, got {xs.size}")
    steps = np.diff(xs)
    h = (xs[-1] - xs[0]) / (xs.size - 1)
    if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * abs(h):
        raise ValueError("samples must lie on a uniform, increasing grid")
    if not np.max(np.abs(vs)):
        raise ValueError("trivial function: all sampled values are zero")
    c2 = 2.0 * p.mass / p.hbar ** 2
    drive = c2 * (epsilon - potential(xs)) * vs
    second = (-vs[:-4] + 16.0 * vs[1:-3] - 30.0 * vs[2:-2]
              + 16.0 * vs[3:-1] - vs[4:]) / (12.0 * h * h)
    defect = second + drive[2:-2]
    scale = float(np.max(np.abs(drive[2:-2])))
    if scale == 0.0:
        raise ValueError("trivial drive term: cannot normalize the residual")
    return float(np.max(np.abs(defect))) / scale


def _sturm_count(diag: list, offsq: float, lam: float) -> int:
    """Number of eigenvalues of the tridiagonal matrix below lam."""
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


def fd_oscillator_spectrum(p: PhysicalParams, box_halfwidth: float,
                           points: int, count: int) -> list[float]:
    """Lowest eigenvalues of the oscillator on [-L, L] with walls.

    Three-point finite differences on a uniform grid of the given total
    point count (walls included) give a symmetric tridiagonal matrix;
    its eigenvalues are pinned one at a time by bisection on the Sturm
    sign-change count.  The discretization error is O(h^2).
    """
    omega = p.require_omega()
    if not (isinstance(box_halfwidth, (int, float)) and box_halfwidth > 0
            and math.isfinite(box_halfwidth)):
        raise ValueError(f"box halfwidth must be positive, got {box_halfwidth!r}")
    if not isinstance(points, int) or points < 100:
        raise ValueError(f"point count must be an integer >= 100, got {points!r}")
    if not isinstance(count, int) or not 1 <= count <= 20:
        raise ValueError(f"eigenvalue count must be in 1..20, got {count!r}")
    interior = points - 2
    if count > interior:
        raise ValueError(f"grid too small: {points} points for {count} eigenvalues")
    h = 2.0 * box_halfwidth / (points - 1)
    xs = np.linspace(-box_halfwidth + h, box_halfwidth - h, interior)
    kinetic = p.hbar ** 2 / (p.mass * h * h)
    diag_arr = kinetic + 0.5 * p.mass * omega ** 2 * xs * xs
    off = -0.5 * kinetic
    offsq = off * off
    diag = diag_arr.tolist()
    lo0 = float(diag_arr.min()) - 2.0 * abs(off)
    hi0 = float(diag_arr.max()) + 2.0 * abs(off)
    out = []
    for k in range(1, count + 1):
        lo, hi = lo0, hi0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-13 * max(1.0, abs(mid)):
                break
            if _sturm_count(diag, offsq, mid) >= k:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return out


@dataclass(frozen=True)
class ShootingConfig:
    """Geometry and search window of one shooting run.

    The integrator starts at x_start with the pure power behavior of the
    chosen nu branch, meets an inward integration (started from the
    decaying asymptotic slope at x_end) at x_match, and the eigenvalue
    is the zero of the Wronskian mismatch inside energy_bracket, located
    by bisection to the given relative tolerance.  step is the base
    integration step at x_start; it doubles with each octave in x and is
    capped by a local-wavelength rule farther out.
    """

    nu: float
    x_start: float
    x_match: float
    x_end: float
    step: float
    energy_bracket: tuple[float, float]
    tolerance: float = 1e-9

    def __post_init__(self):
        check_nu(self.nu)
        if not 0.0 < self.x_start < self.x_match < self.x_end:
            raise ValueError(
                "need 0 < x_start < x_match < x_end, got "
                f"{self.x_start}, {self.x_match}, {self.x_end}")
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        lo, hi = self.energy_bracket
        if not (lo < hi < 0.0):
            raise ValueError(
                f"energy bracket must satisfy lo < hi < 0, got ({lo}, {hi})")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


def _segments(p: PhysicalParams, cfg: ShootingConfig, lo_x: float, hi_x: float,
              eps_floor: float) -> list[tuple[float, list, list]]:
    """Constant-step runs covering [lo_x, hi_x] with precomputed potential.

    Step doubles per octave of x (anchored at x_start) and is capped so
    h times the largest local wavenumber stays below 0.05.  Each entry
    is (h, node_values, midpoint_values) of the epsilon-free part of
    the coefficient g(x) = c2*(V(x) - eps) = vpart(x) - c2*eps.
    """
    alpha = p.require_alpha()
    c2 = 2.0 * p.mass / p.hbar ** 2
    vcoef = cfg.nu * (1.0 - cfg.nu)  # identical for both nu branches
    g_energy = c2 * abs(eps_floor)

    def vpart(x):
        return -c2 * alpha / x - vcoef / (x * x)

    segs = []
    a = lo_x
    j = max(0, int(math.floor(math.log2(lo_x / cfg.x_start))))
    while a < hi_x:
        edge = min(cfg.x_start * 2.0 ** (j + 1), hi_x)
        if edge <= a:
            j += 1
            continue
        g_bound = c2 * alpha / a + vcoef / (a * a) + g_energy
        h = min(cfg.step * 2.0 ** j, 0.05 / math.sqrt(g_bound))
        m = max(1, int(math.ceil((edge - a) / h)))
        h = (edge - a) / m
        nodes = a + h * np.arange(m + 1)
        mids = nodes[:-1] + 0.5 * h
        segs.append((h, vpart(nodes).tolist(), vpart(mids).tolist()))
        a = edge
        j += 1
    return segs


def _propagate(segs, ce: float, phi: float, dphi: float,
               backward: bool) -> tuple[float, float, int]:
    """RK4 sweep of phi'' = (vpart - ce) phi across precomputed segments.

    Returns the final (phi, phi', node count).  The state is rescaled
    whenever it grows huge; only ratios and sign changes matter.
    """
    nodes = 0
    seq = reversed(segs) if backward else segs
    for h, vn, vm in seq:
        if backward:
            vn = vn[::-1]
            vm = vm[::-1]
            h = -h
        h2 = 0.5 * h
        h6 = h / 6.0
        for i in range(len(vm)):
            g0 = vn[i] - ce
            gm = vm[i] - ce
            g1 = vn[i + 1] - ce
            k1f = dphi
            k1p = g0 * phi
            f2 = phi + h2 * k1f
            k2p = gm * f2
            k2f = dphi + h2 * k1p
            f3 = phi + h2 * k2f
            k3p = gm * f3
            k3f = dphi + h2 * k2p
            f4 = phi + h * k3f
            k4p = g1 * f4
            k4f = dphi + h * k3p
            new_phi = phi + h6 * (k1f + 2.0 * (k2f + k3f) + k4f)
            dphi = dphi + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
            if new_phi * phi < 0.0:
                nodes += 1
            phi = new_phi
        big = max(abs(phi), abs(dphi))
        if big > 1e250:
            phi /= big
            dphi /= big
    return phi, dphi, nodes


class _ShootingRun:
    """Precomputed integration tables for one config; reused per energy."""

    def __init__(self, cfg: ShootingConfig, p: PhysicalParams):
        self.cfg = cfg
        self.p = p
        self.c2 = 2.0 * p.mass / p.hbar ** 2
        lo = cfg.energy_bracket[0]
        self.out_segs = _segments(p, cfg, cfg.x_start, cfg.x_match, lo)
        self.in_segs = _segments(p, cfg, cfg.x_match, cfg.x_end, lo)

    def mismatch(self, eps: float) -> tuple[float, int]:
        """Scaled Wronskian of the outward and inward solutions at x_match.

        Zero exactly at eigenvalues; its sign flips when eps crosses one.
        Also returns the total interior node count of the matched shape.
        """
        cfg = self.cfg
        p = self.p
        ce = self.c2 * eps
        # Power-series start of the x^nu branch.  The leading power alone
        # leaks an x^(1-nu) admixture of order x_start^(2 nu), far too big
        # for nu = 1/4; two correction terms push the leak below 1e-9.
        nu = cfg.nu
        x0 = cfg.x_start
        ca = self.c2 * p.require_alpha()
        c1 = -ca / (2.0 * nu)
        c2_ = -(ca * c1 + ce) / (2.0 * (2.0 * nu + 1.0))
        phi0 = x0 ** nu * (1.0 + x0 * (c1 + x0 * c2_))
        dphi0 = x0 ** (nu - 1.0) * (nu + x0 * ((nu + 1.0) * c1
                                               + x0 * (nu + 2.0) * c2_))
        left, dleft, n_left = _propagate(self.out_segs, ce, phi0, dphi0, False)
        kappa = math.sqrt(-2.0 * p.mass * eps) / p.hbar
        slope = -kappa + p.mass * p.require_alpha() / (p.hbar ** 2 * kappa * cfg.x_end)
        right, dright, n_right = _propagate(self.in_segs, ce, 1.0, slope, True)
        w = dleft * right - left * dright
        norm = math.sqrt((left * left + dleft * dleft)
                         * (right * right + dright * dright))
        if norm == 0.0:
            raise ConvergenceError("shooting state collapsed to zero")
        return w / norm, n_left + n_right


def shoot_anyon_energy(cfg: ShootingConfig, p: PhysicalParams, n: int) -> float:
    """Eigenvalue of the half-line problem with Phi ~ x^nu at the origin.

    Bisects the Wronskian mismatch inside cfg.energy_bracket and then
    verifies the converged shape has exactly n interior nodes.  Raises
    ValueError when the bracket does not straddle a sign change, and
    ConvergenceError when the node count disagrees with n.
    """
    check_index(n, "node count n")
    run = _ShootingRun(cfg, p)
    lo, hi = cfg.energy_bracket
    w_lo, _ = run.mismatch(lo)
    w_hi, _ = run.mismatch(hi)
    if w_lo == 0.0:
        eps = lo
    elif w_hi == 0.0:
        eps = hi
    elif (w_lo > 0) == (w_hi > 0):
        raise ValueError(
            "energy bracket does not straddle an eigenvalue: the matching "
            f"defect has the same sign at both ends ({w_lo:.3e}, {w_hi:.3e})")
    else:
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            if hi - lo <= cfg.tolerance * abs(mid):
                break
            w_mid, _ = run.mismatch(mid)
            if w_mid == 0.0:
                lo = hi = mid
                break
            if (w_mid > 0) == (w_lo > 0):
                lo, w_lo = mid, w_mid
            else:
                hi = mid
        eps = 0.5 * (lo + hi)
    _, found = run.mismatch(eps)
    if found != n:
        raise ConvergenceError(
            f"shooting converged to a state with {found} nodes, expected {n}")
    return eps


def probe_config(nu: float, p: PhysicalParams, eps: float) -> ShootingConfig:
    """Self-consistent geometry for probing energies near eps < 0."""
    alpha = p.require_alpha()
    if not eps < 0:
        raise ValueError(f"probe energy must be negative, got {eps}")
    x_unit = p.hbar ** 2 / (p.mass * alpha)
    x_turn = alpha / abs(eps)
    kappa = math.sqrt(-2.0 * p.mass * eps) / p.hbar
    x_start = 1e-4 * x_unit
    return ShootingConfig(
        nu=nu,
        x_start=x_start,
        x_match=max(0.6 * x_turn, 2.0 * x_start),
        x_end=x_turn + 42.0 / kappa,
        step=x_start / 48.0,
        energy_bracket=(1.01 * eps, 0.99 * eps),
    )


def scan_level_brackets(nu: float, p: PhysicalParams, n_max: int,
                        ratio: float = 1.08) -> list[tuple[float, float]]:
    """Energy brackets around the lowest n_max + 1 eigenvalues, by scanning.

    Walks the energy axis geometrically upward from well below the
    deepest possible bound state and records every sign change of the
    shooting mismatch.  Needs no prior knowledge of the spectrum; the
    scan ratio keeps consecutive levels separated for n_max <= 20.
    """
    check_nu(nu)
    if not isinstance(n_max, int) or not 0 <= n_max <= 20:
        raise ValueError(f"n_max must be an integer in 0..20, got {n_max!r}")
    alpha = p.require_alpha()
    scale = p.mass * alpha * alpha / (2.0 * p.hbar ** 2)
    eps = -1.35 * scale / (nu * nu)      # strictly below the deepest level
    floor_stop = -scale / (n_max + 3.0) ** 2 * 0.2
    brackets = []
    prev_eps = None
    prev_sign = None
    while eps < floor_stop and len(brackets) <= n_max:
        cfg = probe_config(nu, p, eps)
        w, _ = _ShootingRun(cfg, p).mismatch(eps)
        sign = w > 0
        if prev_sign is not None and sign != prev_sign:
            brackets.append((prev_eps, eps))
        prev_eps, prev_sign = eps, sign
        eps /= ratio
    if len(brackets) <= n_max:
        raise ConvergenceError(
            f"energy scan found only {len(brackets)} levels below {floor_stop:.3e}, "
            f"needed {n_max + 1}")
    return brackets[:n_max + 1]


def shooting_config_for_level(nu: float, p: PhysicalParams, n: int,
                              bracket: tuple[float, float],
                              tolerance: float = 1e-9) -> ShootingConfig:
    """Config whose geometry suits every energy inside the given bracket."""
    lo, hi = bracket
    alpha = p.require_alpha()
    x_unit = p.hbar ** 2 / (p.mass * alpha)
    x_turn_hi = alpha / abs(hi)          # farthest turning point in the bracket
    kappa_min = math.sqrt(-2.0 * p.mass * hi) / p.hbar
    x_start = 1e-4 * x_unit
    geo_mid = -math.sqrt(lo * hi)
    return ShootingConfig(
        nu=nu,
        x_start=x_start,
        x_match=max(0.6 * alpha / abs(geo_mid), 2.0 * x_start),
        x_end=x_turn_hi + 42.0 / kappa_min,
        step=x_start / 48.0,
        energy_bracket=(lo, hi),
        tolerance=tolerance,
    )
