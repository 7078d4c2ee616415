"""The columnar, chunked writer against the row-major writer it replaced.

The reference below builds the whole document from a list of rows with
`json.dumps(indent=2)`, `csv.writer` and `str.ljust`: a table column is
as wide as its name or 24 characters, and a text column as its widest
cell where that is wider still. Every command, in
every format, on stdout and through `--output`, must give its bytes.
"""

import csv
import io
import json
import math
from itertools import cycle, islice
from types import SimpleNamespace

import pytest

from anyon1d import anyon, cli, oscillator
from anyon1d.cli import _CHUNK_ROWS, _emit, main
from anyon1d.core import Grid, PhysicalParams, make_state, state_from_nu


def _row_major(fmt, meta, columns, rows):
    header = "".join(f"# {key} = {value}\n" for key, value in meta.items())
    if fmt == "json":
        payload = {"meta": meta, "columns": columns, "rows": rows}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        body = io.StringIO()
        csv.writer(body, lineterminator="\n").writerows([columns] + rows)
        return header + body.getvalue()
    # a text column is as wide as its widest cell, where that passes 24
    widths = [max(len(col), 24, *(len(cell) for cell in cells if isinstance(cell, str)))
              for col, cells in zip(columns, zip(*rows))]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths))]
    lines.extend("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
                 for row in rows)
    return header + "\n".join(lines) + "\n"


def _wavefunction_rows(system, points, extended):
    """Rows computed from the library, independent of the CLI's output."""
    xs = Grid(_X_RANGE[extended][0], _X_RANGE[extended][1], points).points()
    if system == "oscillator":
        values = oscillator.wavefunction(make_state(3, 0.5).N,
                                         PhysicalParams(1.0, 1.0, omega=1.0), xs)
        return [[u, v] for u, v in zip(xs.tolist(), values.tolist())]
    p = PhysicalParams(1.0, 1.0, alpha=1.0)
    state = state_from_nu(3, 0.75)
    if extended:
        values = anyon.extended_wavefunction(state.n, state.nu, p, xs)
        return [[y, v.real, v.imag] for y, v in zip(xs.tolist(), values.tolist())]
    values = anyon.wavefunction(state.n, state.nu, p, xs)
    return [[x, v] for x, v in zip(xs.tolist(), values.tolist())]


# The extended grid must not hold y = 0 for any of the sizes below.
_X_RANGE = {False: (0.05, 30.0), True: (-5.3, 4.1)}
_SIZES = (3, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1)
_WAVEFUNCTIONS = [(system, points, extended)
                  for system, extended in (("anyon", False), ("anyon", True),
                                           ("oscillator", False))
                  for points in _SIZES]


def _wavefunction_argv(system, points, extended):
    label = ["--s", "1/2"] if system == "oscillator" else ["--nu", "3/4"]
    x_min, x_max = _X_RANGE[extended]
    return (["wavefunction", "--system", system, "--n", "3", *label,
             "--x-min", repr(x_min), "--x-max", repr(x_max),
             "--points", str(points)] + (["--extended"] if extended else []))


_COMMANDS = [
    ["spectrum", "--system", "anyon", "--nu", "3/4", "--n-max", "7"],
    ["spectrum", "--system", "oscillator", "--omega", "2.5", "--n-max", "0"],
    ["dual", "--n", "2", "--s", "1/2", "--omega", "1.5"],
    ["dual", "--n", "1", "--nu", "3/4", "--alpha", "1"],
    # check names hold commas and run past 24 characters, which widens
    # their column
    ["verify", "--suite", "duality"],
] + [_wavefunction_argv(*case) for case in _WAVEFUNCTIONS]
_IDS = ["spectrum-anyon", "spectrum-oscillator", "dual-from-omega",
        "dual-from-alpha", "verify-duality"] + [
    f"wavefunction-{system}-{points}" + ("-extended" if extended else "")
    for system, points, extended in _WAVEFUNCTIONS]


def _run(capsys, argv, fmt, path=None):
    extra = ["--format", fmt] + (["--output", str(path)] if path else [])
    code = main(argv + extra)
    captured = capsys.readouterr()
    text = path.read_text() if path else captured.out
    return code, text, captured.out, captured.err


@pytest.mark.parametrize("argv", _COMMANDS, ids=_IDS)
def test_every_format_matches_the_row_major_writer(tmp_path, capsys, argv):
    code, text, _, _ = _run(capsys, argv, "json", tmp_path / "ref.json")
    assert code == 0
    payload = json.loads(text)
    if argv[0] == "wavefunction":
        case = (argv[2], int(argv[argv.index("--points") + 1]), "--extended" in argv)
        assert payload["rows"] == _wavefunction_rows(*case)
    summary = ""
    if argv[0] == "verify":
        summary = f"{len(payload['rows'])}/{len(payload['rows'])} checks passed\n"
    for fmt in ("table", "csv", "json"):
        expected = _row_major(fmt, payload["meta"], payload["columns"],
                              payload["rows"])
        code, text, _, err = _run(capsys, argv, fmt)
        if fmt == "table":    # only a table on stdout takes the summary line
            assert (code, text, err) == (0, expected + summary, "")
        else:
            assert (code, text, err) == (0, expected, summary)
        code, text, out, err = _run(capsys, argv, fmt, tmp_path / f"out.{fmt}")
        assert (code, text, out, err) == (0, expected, "", summary)


# Cells whose text is easy to get wrong: float reprs with exponents,
# signed zero and non-finite values; ints past 2**64; text that
# csv.writer must quote, an empty cell and a leading space.
_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e-300, 1e16, 0.1, -2.5e-250)
_INTS = (0, -7, 10**20, 3)
_TEXTS = ("a,b", 'say "hi"', "two\nlines", "cr\r", "  leading", "", "PASS", "x" * 40)


def _edge_columns(rows):
    """Four columns as tuples, the way zip(*rows) hands them over."""
    def column(values):
        return tuple(islice(cycle(values), rows))
    return [column(_TEXTS), column(_FLOATS), column(_INTS),
            column(_INTS[:2] + _FLOATS[3:6])]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("rows", [1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
def test_edge_cells_match_the_row_major_writer(tmp_path, capsys, fmt, rows):
    meta = {"command": "edge", "note": "a, b"}
    columns = ["text, quoted", "float", "int", "mixed"]
    cols = _edge_columns(rows)
    expected = _row_major(fmt, meta, columns, [list(row) for row in zip(*cols)])
    _emit(SimpleNamespace(format=fmt, output=None), meta, columns, cols)
    assert capsys.readouterr() == (expected, "")
    path = tmp_path / f"edge.{fmt}"
    _emit(SimpleNamespace(format=fmt, output=str(path)), meta, columns, cols)
    assert capsys.readouterr() == ("", "")
    with open(path, newline="") as handle:    # keep a \r cell as written
        assert handle.read() == expected


_EMITTING = [
    ["spectrum", "--system", "anyon", "--nu", "3/4", "--n-max", "4"],
    ["spectrum", "--system", "oscillator", "--omega", "2.5", "--n-max", "4"],
    ["dual", "--n", "2", "--s", "1/2", "--omega", "1.5"],
    ["dual", "--n", "1", "--nu", "3/4", "--alpha", "1"],
    ["verify", "--suite", "all"],
    _wavefunction_argv("anyon", 50, False),
    _wavefunction_argv("anyon", 50, True),
    _wavefunction_argv("oscillator", 50, False),
]


@pytest.mark.parametrize("argv", _EMITTING, ids=[
    "spectrum-anyon", "spectrum-oscillator", "dual-from-omega", "dual-from-alpha",
    "verify-all", "wavefunction-anyon", "wavefunction-anyon-extended",
    "wavefunction-oscillator"])
def test_commands_hand_the_writer_exact_python_cells(monkeypatch, capsys, argv):
    """A numpy scalar reprs as np.float64(...) under numpy 2, so a number
    cell must be an exact int or float; a column is all text or all numbers."""
    seen = []
    monkeypatch.setattr(cli, "_emit", lambda ns, meta, columns, cols: seen.append(cols))
    assert main(argv) == 0
    capsys.readouterr()
    (cols,) = seen
    for col in cols:
        kinds = {type(cell) for cell in col}
        assert kinds == {str} or kinds <= {int, float}, kinds
