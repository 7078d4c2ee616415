"""Command line interface.

Four commands: spectrum, wavefunction, dual, verify.  Output is a
deterministic table on stdout, or JSON ({"meta": ..., "rows": ...}) /
CSV (with #-prefixed header lines) when --format/--output are given.
Exit codes: 0 success, 1 verification failure, 2 usage, domain or
arithmetic error or an --output file that cannot be opened, 141
(128 + SIGPIPE, as a shell reports a command killed by a broken pipe)
when the reader closes stdout before the output ends, as
`anyon1d spectrum ... | head -1` does.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import __version__, anyon, duality, oscillator, verification
from .core import (Grid, PhysicalParams, check_index, check_nu, check_number, check_s,
                   make_state, state_from_nu)


def _checked(text: str, parse, check, *names):
    """Parse a flag's text and apply a core validator; text that does not
    parse goes to the validator as is, so every rejection exits 2 with
    the validator's message."""
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError):
        value = text
    try:
        return check(value, *names)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _positive_float(text: str) -> float:
    return _checked(text, float, lambda value, name: check_number(value, name, 0.0, open_low=True),
                    "value")


def _nonneg_int(text: str) -> int:
    return _checked(text, int, check_index, "value")


# Highest level index of `spectrum`: it writes one row per level, and
# 10**6 rows take up to about 9 s and 350 MB.
_SPECTRUM_N_MAX = 10 ** 6


def _n_max(text: str) -> int:
    return _checked(text, int, check_index, "n_max", 0, _SPECTRUM_N_MAX)


def _label(text: str) -> Fraction:
    """Read a --nu / --s literal such as 1/4, 0.25 or 0.

    Fraction expands a decimal exponent exactly (1e10000000 takes
    seconds), and no allowed label needs an exponent or more than 32
    characters, so such a literal never reaches Fraction.
    """
    if len(text) > 32 or "e" in text.lower():
        raise ValueError(text)
    return Fraction(text)


def _nu_flag(text: str) -> float:
    return _checked(text, _label, check_nu)


def _s_flag(text: str) -> float:
    return _checked(text, _label, check_s)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyon1d",
        description="1D oscillator / Coulomb-anyon duality: spectra, "
                    "wavefunctions, and verification oracles.")
    parser.add_argument("--version", action="version", version=__version__)
    constants = argparse.ArgumentParser(add_help=False)
    constants.add_argument("--mu", type=_positive_float, default=1.0,
                           help="particle mass (default 1)")
    constants.add_argument("--hbar", type=_positive_float, default=1.0,
                           help="reduced Planck constant (default 1)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write to this file instead of stdout")
    output.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", help="output format (default table)")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[constants, output],
                        help="bound-state energies with their dual quantities")
    sp.add_argument("--system", choices=("oscillator", "anyon"), required=True)
    sp.add_argument("--alpha", type=_positive_float,
                    help="coupling of -alpha/x (anyon side only, default 1)")
    sp.add_argument("--omega", type=_positive_float,
                    help="oscillator frequency (oscillator side only, default 1)")
    sp.add_argument("--nu", type=_nu_flag,
                    help="origin exponent, 1/4 or 3/4 (anyon side only, default 1/4)")
    sp.add_argument("--n-max", type=_n_max, default=5,
                    help=f"highest level index, 0..{_SPECTRUM_N_MAX} (default 5)")

    wf = sub.add_parser("wavefunction", parents=[constants, output],
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

    du = sub.add_parser("dual", parents=[constants, output],
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

    ve = sub.add_parser("verify", parents=[output],
                        help="run verification suites and report pass/fail")
    ve.add_argument("--suite", action="append", default=None,
                    choices=sorted(verification.SUITES) + ["all"],
                    help="suite to run (repeatable; default all)")
    # the constants every suite runs at, for the header
    ve.set_defaults(mu=1.0, hbar=1.0)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses: each parse_args call starts from a new
    namespace, so no call sees what an earlier one parsed."""
    return build_parser()


# Rows per write: large enough that the per-chunk calls cost little,
# small enough that no output is held as one text.
_CHUNK_ROWS = 4096


def _chunks(cols: list):
    """Yield the columns sliced into runs of _CHUNK_ROWS rows."""
    for start in range(0, len(cols[0]), _CHUNK_ROWS):
        yield [col[start:start + _CHUNK_ROWS] for col in cols]


def _number_cells(chunk) -> list[str]:
    """str() of each exact int or float of a chunk, in one C-level pass.

    A list's repr joins its items' reprs with ", ", which no int or float
    repr contains, and for an exact int or float repr equals str, inf,
    nan and -0.0 included. A numpy scalar reprs otherwise under numpy 2
    (np.float64(1.0)), so callers pass Python numbers.
    """
    cells = repr(list(chunk)).split(", ")
    cells[0] = cells[0][1:]       # the brackets are cut from the end cells,
    cells[-1] = cells[-1][:-1]    # not by one more chunk-long copy
    return cells


def _csv_text_cells(chunk) -> list[str]:
    """Each text cell as csv.writer writes it in a row of two or more
    fields (QUOTE_MINIMAL).

    A cell is written with an empty field after it, so that an empty
    cell is not taken for an empty record and quoted; the ",\n" that
    field adds is cut off.
    """
    cells = []
    for cell in chunk:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((cell, ""))
        cells.append(buf.getvalue()[:-2])
    return cells


def _json_cells(chunk) -> list[str]:
    """Every cell of a chunk through json's C encoder, in one pass.

    The encoder escapes NUL inside strings, so a raw NUL can only be the
    separator between cells.
    """
    return json.dumps(chunk, separators=("\0", ":"))[1:-1].split("\0")


def _emit(ns, meta: dict, columns: list[str], cols: list) -> None:
    """Write one document whose rows are the columns cols, chunk by chunk.

    The bytes are those of the row-major layout: JSON as
    `json.dumps(payload, indent=2)`, CSV through `csv.writer`, the table
    as cells `str`-formatted and left-justified to max(len(name), 24),
    or a text column's widest cell where that is wider.
    Each chunk of each column becomes cells in one pass: numbers through
    one repr of the chunk (table, CSV) or json's C encoder (JSON); text
    (str) cells through `str` (table), the csv module's quoting (CSV) or
    the encoder (JSON). One layout per format then joins a chunk's cells
    into rows. Number cells must be exact Python ints and floats, and
    cols must hold at least two columns and one row.
    """
    header = "".join(f"# {key} = {value}\n" for key, value in meta.items())
    if ns.format == "json":
        # meta and column names come from json itself
        head, tail = json.dumps({"meta": meta, "columns": columns, "rows": []},
                                indent=2).rsplit("[]", 1)
        head += "[\n    [\n      "
        layout, sep = ",\n      ".join, "\n    ],\n    [\n      "
        end = "\n    ]\n  ]" + tail + "\n"
        number = text = _json_cells
    elif ns.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(columns)
        head = header + buf.getvalue()
        layout, sep, end = ",".join, "\n", "\n"
        number, text = _number_cells, _csv_text_cells
    else:
        # a text column is as wide as its widest cell, so the next column lines up
        widths = [max(len(name), 24, *(map(len, col) if isinstance(col[0], str) else ()))
                  for name, col in zip(columns, cols)]
        row = "  ".join(f"%-{width}s" for width in widths) + "\n"
        head = header + row % tuple(columns)
        layout, sep, end = row.__mod__, "", ""
        number, text = _number_cells, list    # "%s" applies str
    dest = open(ns.output, "w") if ns.output else contextlib.nullcontext(sys.stdout)
    with dest as out:
        out.write(head)
        lead = ""
        for chunk in _chunks(cols):
            cells = [(text if isinstance(col[0], str) else number)(col)
                     for col in chunk]
            out.write(lead)
            out.write(sep.join(map(layout, zip(*cells))))
            lead = sep
        out.write(end)


def _meta(ns, **extra) -> dict:
    meta = {"version": __version__, "command": ns.command,
            "mu": ns.mu, "hbar": ns.hbar}
    meta.update(extra)
    return meta


def _state_flags(ns):
    if ns.nu is not None:
        return state_from_nu(ns.n, ns.nu)
    return make_state(ns.n, ns.s if ns.s is not None else 0.0)


def cmd_spectrum(ns) -> int:
    if ns.system == "anyon":
        if ns.omega is not None:
            raise ValueError("--omega applies to the oscillator system only")
        alpha = ns.alpha if ns.alpha is not None else 1.0
        nu = ns.nu if ns.nu is not None else 0.25
        p = PhysicalParams(ns.mu, ns.hbar, alpha=alpha)
        columns = ["n", "energy", "dual_omega", "dual_E"]
        rows = []
        for n in range(ns.n_max + 1):
            eps = anyon.energy(n, nu, p)
            dual_e = duality.to_oscillator_params(alpha, eps, p)[0]
            rows.append([n, eps, duality.dual_frequency(n, nu, p), dual_e])
        meta = _meta(ns, system="anyon", alpha=alpha, nu=nu, n_max=ns.n_max)
    else:
        for flag, value in (("--alpha", ns.alpha), ("--nu", ns.nu)):
            if value is not None:
                raise ValueError(f"{flag} applies to the anyon system only")
        omega = ns.omega if ns.omega is not None else 1.0
        p = PhysicalParams(ns.mu, ns.hbar, omega=omega)
        columns = ["N", "energy", "dual_alpha", "dual_epsilon"]
        rows = []
        for big_n in range(ns.n_max + 1):
            e_osc = oscillator.energy(big_n, p)
            alpha, eps = duality.to_anyon_params(e_osc, omega, p)
            rows.append([big_n, e_osc, alpha, eps])
        meta = _meta(ns, system="oscillator", omega=omega, n_max=ns.n_max)
    _emit(ns, meta, columns, list(zip(*rows)))
    return 0


def cmd_wavefunction(ns) -> int:
    xs = Grid(ns.x_min, ns.x_max, ns.points).points()
    if ns.system == "anyon":
        if ns.omega is not None:
            raise ValueError("the anyon side takes --alpha; omega is derived")
        state = _state_flags(ns)
        alpha = ns.alpha if ns.alpha is not None else 1.0
        p = PhysicalParams(ns.mu, ns.hbar, alpha=alpha)
        meta = _meta(ns, system="anyon", n=state.n, nu=state.nu, alpha=alpha,
                     x_min=ns.x_min, x_max=ns.x_max, points=ns.points,
                     extended=ns.extended)
        if ns.extended:
            columns = ["y", "re", "im"]
            values = anyon.extended_wavefunction(state.n, state.nu, p, xs)
            cols = [xs.tolist(), values.real.tolist(), values.imag.tolist()]
        else:
            columns = ["x", "phi"]
            values = anyon.wavefunction(state.n, state.nu, p, xs)
            cols = [xs.tolist(), values.tolist()]
    else:
        if ns.extended:
            raise ValueError("--extended applies to the anyon system only")
        if ns.alpha is not None:
            raise ValueError("the oscillator side takes --omega; alpha is derived")
        state = _state_flags(ns)
        omega = ns.omega if ns.omega is not None else 1.0
        p = PhysicalParams(ns.mu, ns.hbar, omega=omega)
        meta = _meta(ns, system="oscillator", n=state.n, s=state.s, N=state.N,
                     omega=omega, x_min=ns.x_min, x_max=ns.x_max,
                     points=ns.points)
        columns = ["u", "psi"]
        values = oscillator.wavefunction(state.N, p, xs)
        cols = [xs.tolist(), values.tolist()]
    _emit(ns, meta, columns, cols)
    return 0


def cmd_dual(ns) -> int:
    state = _state_flags(ns)
    if ns.alpha is not None:
        alpha = ns.alpha
        p = PhysicalParams(ns.mu, ns.hbar, alpha=alpha)
        eps = anyon.energy(state.n, state.nu, p)
        energy, omega = duality.to_oscillator_params(alpha, eps, p)
        given = {"alpha": alpha}
    else:
        omega = ns.omega
        p = PhysicalParams(ns.mu, ns.hbar, omega=omega)
        energy = oscillator.energy(state.N, p)
        alpha, eps = duality.to_anyon_params(energy, omega, p)
        given = {"omega": omega}
    # the derived side must lie in the constants' domain too, or exit 2
    p = PhysicalParams(ns.mu, ns.hbar, alpha=alpha, omega=omega)
    meta = _meta(ns, n=state.n, s=state.s, nu=state.nu, N=state.N, **given)
    columns = ["quantity", "value"]
    rows = [
        ["oscillator_level_N", state.N],
        ["oscillator_energy_E", energy],
        ["oscillator_omega", p.omega],
        ["anyon_alpha", p.alpha],
        ["anyon_energy_eps", eps],
        ["lambda_n_plus_nu", state.n + state.nu],
    ]
    _emit(ns, meta, columns, list(zip(*rows)))
    return 0


def cmd_verify(ns) -> int:
    suites = ns.suite or ["all"]
    reports = verification.run_suites(suites)
    meta = _meta(ns, suites=",".join(suites), tol="per-check")
    columns = ["status", "check", "residual", "tolerance"]
    rows = [["PASS" if r.passed else "FAIL", r.check_name, r.residual, r.tolerance]
            for r in reports]
    _emit(ns, meta, columns, list(zip(*rows)))
    failed = sum(not r.passed for r in reports)
    # only a table on stdout takes the summary line; JSON and CSV stay parseable
    summary = sys.stdout if ns.format == "table" and not ns.output else sys.stderr
    print(f"{len(reports) - failed}/{len(reports)} checks passed", file=summary)
    return 1 if failed else 0


def main(argv=None) -> int:
    # One build per process: in-process callers such as the tests and the
    # benchmark call main many times, and a build takes about 0.8 ms.
    ns = _parser().parse_args(argv)
    handlers = {
        "spectrum": cmd_spectrum,
        "wavefunction": cmd_wavefunction,
        "dual": cmd_dual,
        "verify": cmd_verify,
    }
    try:
        code = handlers[ns.command](ns)
        sys.stdout.flush()      # a pipe closed before the last buffered write
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # What is left in the stdout buffer goes to the null device, so
        # the flush at exit cannot fail on the closed pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except OSError as err:      # an --output path that cannot be opened
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
