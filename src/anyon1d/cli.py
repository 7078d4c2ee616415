"""Command line interface.

Four commands: spectrum, wavefunction, dual, verify.  Output is a
deterministic table on stdout, or JSON ({"meta": ..., "rows": ...}) /
CSV (with #-prefixed header lines) when --format/--output are given.
Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__, anyon, duality, oracle, oscillator, verification
from .core import Grid, PhysicalParams, make_state, state_from_nu

_NU_BY_VALUE = {Fraction(1, 4): 0.25, Fraction(3, 4): 0.75}
_S_BY_VALUE = {Fraction(0): 0.0, Fraction(1, 2): 0.5}


def _fraction_flag(text: str, table: dict, what: str) -> float:
    allowed = " or ".join(str(k) for k in table)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{what} must be {allowed}")
    if value not in table:
        raise argparse.ArgumentTypeError(f"{what} must be {allowed}, got {text}")
    return table[value]


def _nu_flag(text: str) -> float:
    return _fraction_flag(text, _NU_BY_VALUE, "nu")


def _s_flag(text: str) -> float:
    return _fraction_flag(text, _S_BY_VALUE, "s")


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyon1d",
        description="1D oscillator / Coulomb-anyon duality: spectra, "
                    "wavefunctions, and verification oracles.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mu", type=_positive_float, default=1.0,
                        help="particle mass (default 1)")
    common.add_argument("--hbar", type=_positive_float, default=1.0,
                        help="reduced Planck constant (default 1)")
    common.add_argument("--output", help="write to this file instead of stdout")
    common.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", help="output format (default table)")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[common],
                        help="bound-state energies with their dual quantities")
    sp.add_argument("--system", choices=("oscillator", "anyon"), required=True)
    sp.add_argument("--alpha", type=_positive_float, default=1.0,
                    help="coupling of -alpha/x (anyon side, default 1)")
    sp.add_argument("--omega", type=_positive_float, default=1.0,
                    help="oscillator frequency (oscillator side, default 1)")
    sp.add_argument("--nu", type=_nu_flag, default=0.25,
                    help="origin exponent, 1/4 or 3/4 (anyon side)")
    sp.add_argument("--n-max", type=_nonneg_int, default=5,
                    help="highest level index (default 5)")

    wf = sub.add_parser("wavefunction", parents=[common],
                        help="sample one eigenfunction on a uniform grid")
    wf.add_argument("--system", choices=("oscillator", "anyon"), required=True)
    wf.add_argument("--n", type=_nonneg_int, required=True,
                    help="radial index n (level N = 2n + 2s on the oscillator side)")
    group = wf.add_mutually_exclusive_group()
    group.add_argument("--s", type=_s_flag, help="spin label, 0 or 1/2")
    group.add_argument("--nu", type=_nu_flag, help="origin exponent, 1/4 or 3/4")
    wf.add_argument("--alpha", type=_positive_float,
                    help="anyon coupling (anyon side only; default 1)")
    wf.add_argument("--omega", type=_positive_float,
                    help="oscillator frequency (oscillator side only; default 1)")
    wf.add_argument("--x-min", type=float, required=True)
    wf.add_argument("--x-max", type=float, required=True)
    wf.add_argument("--points", type=int, required=True)
    wf.add_argument("--extended", action="store_true",
                    help="parity-extended complex wavefunction (anyon only)")

    du = sub.add_parser("dual", parents=[common],
                        help="print the full dictionary entry of one state")
    du.add_argument("--n", type=_nonneg_int, required=True)
    group = du.add_mutually_exclusive_group()
    group.add_argument("--s", type=_s_flag)
    group.add_argument("--nu", type=_nu_flag)
    side = du.add_mutually_exclusive_group(required=True)
    side.add_argument("--alpha", type=_positive_float,
                      help="fix the anyon coupling and derive the oscillator side")
    side.add_argument("--omega", type=_positive_float,
                      help="fix the oscillator frequency and derive the anyon side")

    ve = sub.add_parser("verify", parents=[common],
                        help="run verification suites and report pass/fail")
    ve.add_argument("--suite", action="append", default=None,
                    choices=sorted(verification.SUITES) + ["all"],
                    help="suite to run (repeatable; default all)")
    ve.add_argument("--tol", type=_positive_float, default=None,
                    help="override every check tolerance (default: per-check "
                         "values, or the ANYON_DEFAULT_TOL environment variable)")
    return parser


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(ns, meta: dict, columns: list[str], rows: list) -> None:
    if ns.format == "json":
        payload = {"meta": meta, "columns": columns, "rows": rows}
        text = json.dumps(payload, indent=2) + "\n"
    elif ns.format == "csv":
        lines = [f"# {key} = {_fmt(value)}" for key, value in meta.items()]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        widths = [max(len(col), 24) for col in columns]
        lines = [f"# {key} = {_fmt(value)}" for key, value in meta.items()]
        lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
        lines.extend("  ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths))
                     for row in rows)
        text = "\n".join(lines) + "\n"
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(ns, **extra) -> dict:
    meta = {"version": __version__, "command": ns.command,
            "mu": ns.mu, "hbar": ns.hbar}
    meta.update(extra)
    return meta


def _state_flags(ns, default_s: float = 0.0):
    if getattr(ns, "nu", None) is not None:
        return state_from_nu(ns.n, ns.nu)
    if getattr(ns, "s", None) is not None:
        return make_state(ns.n, ns.s)
    return make_state(ns.n, default_s)


def cmd_spectrum(ns) -> int:
    if ns.system == "anyon":
        p = PhysicalParams(ns.mu, ns.hbar, alpha=ns.alpha)
        columns = ["n", "energy", "dual_omega", "dual_E"]
        rows = []
        for n in range(ns.n_max + 1):
            eps = anyon.energy(n, ns.nu, p)
            rows.append([n, eps, duality.dual_frequency(n, ns.nu, p), 4.0 * ns.alpha])
        meta = _meta(ns, system="anyon", alpha=ns.alpha, nu=ns.nu, n_max=ns.n_max)
    else:
        p = PhysicalParams(ns.mu, ns.hbar, omega=ns.omega)
        columns = ["N", "energy", "dual_alpha", "dual_epsilon"]
        rows = []
        for big_n in range(ns.n_max + 1):
            e_osc = oscillator.energy(big_n, p)
            alpha, eps = duality.to_anyon_params(e_osc, ns.omega, p)
            rows.append([big_n, e_osc, alpha, eps])
        meta = _meta(ns, system="oscillator", omega=ns.omega, n_max=ns.n_max)
    _emit(ns, meta, columns, rows)
    return 0


def cmd_wavefunction(ns) -> int:
    if ns.points < 3:
        print("error: --points must be at least 3", file=sys.stderr)
        return 2
    try:
        grid = Grid(ns.x_min, ns.x_max, ns.points)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    xs = grid.points()
    if ns.system == "anyon":
        if ns.omega is not None:
            print("error: the anyon side takes --alpha; omega is derived",
                  file=sys.stderr)
            return 2
        state = _state_flags(ns)
        if not ns.extended and grid.x_min <= 0:
            print("error: the anyon grid must satisfy x_min > 0", file=sys.stderr)
            return 2
        alpha = ns.alpha if ns.alpha is not None else 1.0
        p = PhysicalParams(ns.mu, ns.hbar, alpha=alpha)
        meta = _meta(ns, system="anyon", n=state.n, nu=state.nu, alpha=alpha,
                     x_min=ns.x_min, x_max=ns.x_max, points=ns.points,
                     extended=ns.extended)
        if ns.extended:
            columns = ["y", "re", "im"]
            values = anyon.extended_wavefunction(state.n, state.nu, p, xs)
            rows = [[y, v.real, v.imag] for y, v in zip(xs.tolist(), values.tolist())]
        else:
            columns = ["x", "phi"]
            values = anyon.wavefunction(state.n, state.nu, p, xs)
            rows = [[x, v] for x, v in zip(xs.tolist(), values.tolist())]
    else:
        if ns.extended:
            print("error: --extended applies to the anyon system only",
                  file=sys.stderr)
            return 2
        if ns.alpha is not None:
            print("error: the oscillator side takes --omega; alpha is derived",
                  file=sys.stderr)
            return 2
        if grid.x_min < 0:
            print("error: the oscillator grid lives on u >= 0", file=sys.stderr)
            return 2
        state = _state_flags(ns)
        omega = ns.omega if ns.omega is not None else 1.0
        p = PhysicalParams(ns.mu, ns.hbar, omega=omega)
        meta = _meta(ns, system="oscillator", n=state.n, s=state.s, N=state.N,
                     omega=omega, x_min=ns.x_min, x_max=ns.x_max,
                     points=ns.points)
        columns = ["u", "psi"]
        values = oscillator.wavefunction(state.N, p, xs)
        rows = [[u, v] for u, v in zip(xs.tolist(), values.tolist())]
    _emit(ns, meta, columns, rows)
    return 0


def cmd_dual(ns) -> int:
    state = _state_flags(ns)
    if ns.alpha is not None:
        p = PhysicalParams(ns.mu, ns.hbar, alpha=ns.alpha)
        pair = duality.DualityPair.from_anyon(state.n, state.nu, p)
        given = {"alpha": ns.alpha}
    else:
        p = PhysicalParams(ns.mu, ns.hbar, omega=ns.omega)
        pair = duality.DualityPair.from_oscillator(state.n, state.s, p)
        given = {"omega": ns.omega}
    meta = _meta(ns, n=state.n, s=state.s, nu=state.nu, N=state.N, **given)
    columns = ["quantity", "value"]
    rows = [
        ["oscillator_level_N", pair.state.N],
        ["oscillator_energy_E", pair.oscillator_energy],
        ["oscillator_omega", pair.params.omega],
        ["anyon_alpha", pair.params.alpha],
        ["anyon_energy_eps", pair.anyon_energy],
        ["lambda_n_plus_nu", pair.state.n + pair.state.nu],
    ]
    _emit(ns, meta, columns, rows)
    return 0


def cmd_verify(ns) -> int:
    suites = ns.suite or ["all"]
    tol = ns.tol
    if tol is None:
        env = os.environ.get("ANYON_DEFAULT_TOL")
        if env:
            try:
                tol = float(env)
            except ValueError:
                print(f"error: ANYON_DEFAULT_TOL is not a number: {env!r}",
                      file=sys.stderr)
                return 2
            if not (math.isfinite(tol) and tol > 0):
                print(f"error: ANYON_DEFAULT_TOL must be positive, got {env}",
                      file=sys.stderr)
                return 2
    reports = verification.run_suites(suites, tol)
    meta = _meta(ns, suites=",".join(suites),
                 tol="per-check" if tol is None else tol)
    columns = ["status", "check", "residual", "tolerance"]
    rows = [["PASS" if r.passed else "FAIL", r.check_name, r.residual, r.tolerance]
            for r in reports]
    _emit(ns, meta, columns, rows)
    failed = sum(not r.passed for r in reports)
    if ns.format != "table" or ns.output:
        summary = sys.stderr if ns.output else sys.stdout
    else:
        summary = sys.stdout
    print(f"{len(reports) - failed}/{len(reports)} checks passed", file=summary)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    handlers = {
        "spectrum": cmd_spectrum,
        "wavefunction": cmd_wavefunction,
        "dual": cmd_dual,
        "verify": cmd_verify,
    }
    try:
        return handlers[ns.command](ns)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
