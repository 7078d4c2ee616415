"""Seeded operation lists for the three workloads, and the code that runs
one operation.

An operation is a plain dict that survives a JSON round trip, so the same
seed gives a byte-identical list.  Each list is stratified: every
property a request's cost depends on is cut into fixed strata, each
stratum gets exactly one operation per pass, and the seed only draws the
values inside a stratum.  Two seeds therefore give lists of the same
shape and nearly the same cost, which keeps the end-to-end numbers
comparable across seeds while the inputs still differ.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

WORKLOADS = ("verify", "sample_grid", "oracle_solve")

VERIFY_SUITES = ("identities", "normalization", "duality", "oracle")

# One pass of sample_grid: this many requests per system.
GRID_STRATA = 12
GRID_FORMATS = ("table", "csv", "json")
# Points per grid.  The strata pair the largest grids with the lowest
# levels, where a point is cheap: at the seed commit an anyon point
# costs ~150 us at n = 50 against a few us at n = 3.
GRID_POINTS = (1_000, 100_000)
ANYON_N_MAX = 50
OSCILLATOR_N_MAX = 300
# x_max is this multiple of the classical turning point.
X_MAX_FACTOR = (1.5, 4.0)
# Grid sizes are drawn from the middle quarter of their stratum: the
# largest grid sets the pass time and peak memory, so its size should
# not swing with the seed.
POINTS_WIDTH = 0.25

# One pass of oracle_solve: this many problems of each kind.  Shooting
# gets the most strata because the median problem falls among them.
SHOOT_STRATA = 8
QUAD_STRATA = 4
SHOOT_N_MAX = (2, 12)
FD_POINTS = (2001, 20001)
FD_LEVELS = (20, 15, 10, 5)     # one per stratum, fewest levels on the largest grid
# Box half-width in oscillator lengths; with at most 2001 points the grid
# spacing never exceeds the 0.01 of the verify suite.
FD_BOX = 10.0
QUAD_N_MAX = 20


def _int_stratum(rng: random.Random, lo: int, hi: int, i: int, count: int) -> int:
    """Integer drawn from stratum i of count equal strata of [lo, hi]."""
    width = hi - lo + 1
    a = lo + width * i // count
    b = lo + width * (i + 1) // count - 1
    return rng.randint(a, max(a, b))


def _float_stratum(rng: random.Random, lo: float, hi: float, i: int, count: int,
                   log: bool = False, width: float = 1.0) -> float:
    """Float drawn from the middle `width` of stratum i of count equal
    strata of [lo, hi]."""
    if log:
        return math.exp(_float_stratum(rng, math.log(lo), math.log(hi), i, count,
                                       width=width))
    step = (hi - lo) / count
    return lo + step * (i + 0.5 + width * (rng.random() - 0.5))


def _grid_request(system: str, i: int, rng: random.Random) -> dict:
    count = GRID_STRATA
    # Level stratum i is paired with points stratum count-1-i, so the
    # highest levels get the smallest grids and no request dominates a
    # pass.  The x_max stratum follows a fixed permutation of i (5 and 7
    # are coprime to 12).  For the anyon it gives the top level stratum
    # the widest window, which reaches the y > 700 log path; for the
    # oscillator it puts levels 150-174 on wide windows, where the
    # Hermite recurrence overflows, and levels 125-149 on narrow ones,
    # where it does not.
    if system == "anyon":
        # The anyon level is fixed per stratum, spread evenly over 0..50,
        # rather than drawn: a point costs about 2n us, so a level drawn
        # within a stratum moved the slowest requests, and op_tail_s with
        # them, by up to 30 percent from one seed to the next.
        n = round(ANYON_N_MAX * i / (count - 1))
        points = round(_float_stratum(rng, *GRID_POINTS, count - 1 - i, count,
                                      log=True, width=POINTS_WIDTH))
        factor = _float_stratum(rng, *X_MAX_FACTOR, (5 * i + 4) % count, count)
        nu = rng.choice((0.25, 0.75))
        alpha = round(rng.uniform(0.5, 2.0), 6)
        extended = i % 2 == 1
        fmt = GRID_FORMATS[i % 3]
        # turning point: y = 4 (n + nu) with y = beta x
        x_turn = 2.0 * (n + nu) ** 2 / alpha
        if extended:
            points += points % 2          # an even count never samples y = 0
            x_max = factor * 4.0 * (n + nu)
            x_min = -x_max
        else:
            x_max = factor * x_turn
            x_min = x_max / points
        flags = ["--n", str(n), "--nu", "1/4" if nu == 0.25 else "3/4",
                 "--alpha", repr(alpha)]
        if extended:
            flags.append("--extended")
        req = {"system": "anyon", "n": n, "nu": nu, "alpha": alpha,
               "extended": extended}
    else:
        big_n = _int_stratum(rng, 0, OSCILLATOR_N_MAX, i, count)
        points = round(_float_stratum(rng, *GRID_POINTS, count - 1 - i, count,
                                      log=True, width=POINTS_WIDTH))
        factor = _float_stratum(rng, *X_MAX_FACTOR, (7 * i + 3) % count, count)
        omega = round(rng.uniform(0.5, 2.0), 6)
        fmt = GRID_FORMATS[(i + 1) % 3]
        x_max = factor * math.sqrt((2 * big_n + 1) / omega)
        x_min = 0.0
        flags = ["--n", str(big_n // 2), "--s", "1/2" if big_n % 2 else "0",
                 "--omega", repr(omega)]
        req = {"system": "oscillator", "N": big_n, "omega": omega,
               "extended": False}
    x_max = round(x_max, 6)
    x_min = round(x_min, 9)
    argv = (["wavefunction", "--system", system] + flags
            + ["--x-min", repr(x_min), "--x-max", repr(x_max),
               "--points", str(points), "--format", fmt])
    req.update(kind="cli", argv=argv, x_min=x_min, x_max=x_max,
               points=points, format=fmt)
    return req


def _solver_problems(rng: random.Random) -> list[dict]:
    ops = []
    for i in range(SHOOT_STRATA):
        ops.append({"kind": "shooting", "nu": (0.25, 0.75)[i % 2],
                    "n_max": _int_stratum(rng, *SHOOT_N_MAX, i, SHOOT_STRATA),
                    "mass": round(rng.uniform(0.5, 2.0), 6),
                    "alpha": round(rng.uniform(0.5, 2.0), 6)})
    for i, levels in enumerate(FD_LEVELS):
        # The cost of a box spectrum is about points x levels, so the level
        # count is fixed per stratum rather than drawn: a drawn count moved
        # a pass by 10 percent from one seed to the next.
        ops.append({"kind": "fd",
                    "points": round(_float_stratum(rng, *FD_POINTS, i, len(FD_LEVELS),
                                                   width=POINTS_WIDTH)),
                    "levels": levels,
                    "mass": round(rng.uniform(0.5, 2.0), 6),
                    "omega": round(rng.uniform(0.5, 2.0), 6)})
    for i in range(QUAD_STRATA):
        ops.append({"kind": "quadrature", "nu": (0.25, 0.75)[i % 2],
                    "n": _int_stratum(rng, 0, QUAD_N_MAX, i, QUAD_STRATA)})
    return ops


def build(workload: str, seed: int) -> list[dict]:
    """The fixed operation list of one pass of the workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        # Inputs are fixed by the package; the seed has no effect.
        return [{"kind": "cli", "argv": ["verify", "--suite", s], "suite": s}
                for s in VERIFY_SUITES]
    if workload == "sample_grid":
        ops = [_grid_request(system, i, rng)
               for i in range(GRID_STRATA) for system in ("anyon", "oscillator")]
        rng.shuffle(ops)
        return ops
    if workload == "oracle_solve":
        ops = _solver_problems(rng)
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call cli.main with stdout and stderr captured in memory; return the
    exit code and stdout.

    cli.main is looked up at call time so that tracing wrappers apply.
    """
    from anyon1d import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_solver(op: dict):
    """Solve one oracle_solve problem and return the raw answer."""
    from anyon1d import oracle, specfun
    from anyon1d.core import PhysicalParams
    kind = op["kind"]
    if kind == "shooting":
        p = PhysicalParams(op["mass"], 1.0, alpha=op["alpha"])
        brackets = oracle.scan_level_brackets(op["nu"], p, op["n_max"])
        return [oracle.shoot_anyon_energy(
                    oracle.shooting_config_for_level(op["nu"], p, n, bracket), p, n)
                for n, bracket in enumerate(brackets)]
    if kind == "fd":
        p = PhysicalParams(op["mass"], 1.0, omega=op["omega"])
        box = FD_BOX / math.sqrt(op["mass"] * op["omega"])
        return oracle.fd_oscillator_spectrum(p, box, op["points"], op["levels"])
    if kind == "quadrature":
        n, two_nu = op["n"], 2.0 * op["nu"]
        return oracle.quadrature(
            lambda y: math.exp(-y) * y ** two_nu
            * specfun.laguerre(n, two_nu - 1.0, y) ** 2,
            0.0, math.inf, tol=1e-10)
    raise ValueError(f"unknown operation kind {kind!r}")


def warmup(workload: str) -> list[dict]:
    """Small operations that load every code path before timing starts."""
    if workload == "verify":
        return [{"kind": "cli", "argv": ["verify", "--suite", s], "suite": s}
                for s in ("identities", "duality")]
    if workload == "sample_grid":
        base = ["wavefunction", "--points", "200", "--format"]
        return [{"kind": "cli", "argv": base + [fmt] + extra}
                for fmt in GRID_FORMATS
                for extra in (["--system", "anyon", "--n", "3", "--x-min", "0.1", "--x-max", "40"],
                              ["--system", "anyon", "--n", "3", "--extended",
                               "--x-min", "-40", "--x-max", "40"],
                              ["--system", "oscillator", "--n", "3", "--x-min", "0", "--x-max", "8"])]
    if workload == "oracle_solve":
        return [{"kind": "shooting", "nu": 0.25, "n_max": 0, "mass": 1.0, "alpha": 1.0},
                {"kind": "fd", "points": 101, "levels": 1, "mass": 1.0, "omega": 1.0},
                {"kind": "quadrature", "nu": 0.75, "n": 0}]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
