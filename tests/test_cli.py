"""End-to-end command line behavior through the in-process entry point."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anyon1d
from anyon1d import verification
from anyon1d.cli import build_parser, main
from anyon1d.core import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def _process(*argv):
    """Arguments of subprocess.run / Popen that run the command line in a
    fresh interpreter, as the console script does, with every
    RuntimeWarning (numpy's included) an error."""
    src = str(Path(anyon1d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"}
    return [sys.executable, "-m", "anyon1d.cli", *argv], env


def run_process(*argv, timeout):
    command, env = _process(*argv)
    return subprocess.run(command, env=env, capture_output=True, timeout=timeout)


def test_spectrum_anyon_defaults(capsys):
    payload = run_json(capsys, "spectrum", "--system", "anyon")
    assert payload["columns"] == ["n", "energy", "dual_omega", "dual_E"]
    assert payload["meta"]["nu"] == 0.25
    energies = [row[1] for row in payload["rows"]]
    assert energies[0] == -8.0
    assert energies[1] == -0.32
    assert energies[2] == -0.09876543209876543
    assert len(energies) == 6


def test_spectrum_oscillator_defaults(capsys):
    payload = run_json(capsys, "spectrum", "--system", "oscillator")
    energies = [row[1] for row in payload["rows"]]
    assert energies[0] == 0.5
    assert energies[1] == 1.5
    assert payload["rows"][0][0] == 0


@pytest.mark.parametrize("argv, flag", [
    (["--system", "oscillator", "--alpha", "7", "--nu", "3/4", "--n-max", "1"], "--alpha"),
    (["--system", "oscillator", "--nu", "3/4"], "--nu"),
    (["--system", "anyon", "--omega", "7"], "--omega"),
], ids=["oscillator-alpha", "oscillator-nu", "anyon-omega"])
def test_spectrum_refuses_flags_of_the_other_system(capsys, argv, flag):
    # Each system reads only its own constants; spectrum used to exit 0
    # with such a flag, which showed in neither the header nor a row.
    code, out, err = run(capsys, "spectrum", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert flag in err


def test_spectrum_takes_its_own_flags_at_their_defaults(capsys):
    for system, flags in (("anyon", ["--alpha", "1", "--nu", "1/4"]),
                          ("oscillator", ["--omega", "1.0"])):
        default = run(capsys, "spectrum", "--system", system)
        assert default[0] == 0
        assert run(capsys, "spectrum", "--system", system, *flags) == default


def test_spectrum_rejects_unlisted_nu(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--system", "anyon", "--nu", "0.3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nu must be 1/4 or 3/4" in err


@pytest.mark.parametrize("flag, text", [
    ("--nu", "1/4"), ("--nu", "0.25"), ("--nu", "3/4"),
    ("--s", "0"), ("--s", "1/2"), ("--s", "0.5")])
def test_label_flags_take_fractions_and_decimals(capsys, flag, text):
    code, _, err = run(capsys, "wavefunction", "--system", "anyon", "--n", "1",
                       flag, text, "--x-min", "0.1", "--x-max", "5",
                       "--points", "3")
    assert code == 0, err


@pytest.mark.parametrize("flag, message", [("--nu", "nu must be 1/4 or 3/4"),
                                           ("--s", "s must be 0 or 1/2")])
@pytest.mark.parametrize("text", ["1e1000000", "1E1000000", "0." + "0" * 100000],
                         ids=["exponent", "capital-exponent", "long-decimal"])
def test_label_flags_refuse_long_literals_at_once(capsys, flag, message, text):
    # Fraction would expand these exactly: 1e1000000 alone takes 0.65 s
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["dual", "--n", "0", flag, text, "--alpha", "1"])
    assert time.perf_counter() - start < 0.1
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, text", [("--nu", "0.2500000000000000000001"),
                                        ("--s", "0.5000000000000000000001")])
def test_label_flags_refuse_a_literal_that_only_rounds_to_a_label(capsys, flag, text):
    # As a float this text is the label itself; the literal is compared
    # exactly, before any conversion.
    with pytest.raises(SystemExit) as exc:
        main(["dual", "--n", "0", flag, text, "--alpha", "1"])
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err


def test_wavefunction_anyon_peak_location(capsys):
    payload = run_json(capsys, "wavefunction", "--system", "anyon",
                       "--n", "0", "--x-min", "0.01", "--x-max", "10",
                       "--points", "1000")
    rows = payload["rows"]
    assert len(rows) == 1000
    spacing = (10.0 - 0.01) / 999.0
    best = max(rows, key=lambda row: abs(row[1]))
    assert abs(best[0] - 0.0625) <= spacing


def test_wavefunction_oscillator_odd_node_at_origin(capsys):
    payload = run_json(capsys, "wavefunction", "--system", "oscillator",
                       "--n", "0", "--s", "1/2", "--x-min", "0",
                       "--x-max", "6", "--points", "601")
    assert payload["meta"]["N"] == 1
    first = payload["rows"][0]
    assert first[0] == 0.0
    assert first[1] == 0.0


def test_wavefunction_extended_emits_complex_columns(capsys):
    payload = run_json(capsys, "wavefunction", "--system", "anyon",
                       "--n", "0", "--nu", "1/4", "--extended",
                       "--x-min", "-1", "--x-max", "1", "--points", "20")
    assert payload["columns"] == ["y", "re", "im"]
    left = next(row for row in payload["rows"] if row[0] < 0)
    assert left[2] != 0.0
    right = next(row for row in payload["rows"] if row[0] > 0)
    assert right[2] == 0.0


def test_wavefunction_extended_rejects_origin_sample(capsys):
    code, _, err = run(capsys, "wavefunction", "--system", "anyon",
                       "--n", "0", "--extended", "--x-min", "-1",
                       "--x-max", "1", "--points", "21")
    assert code == 2
    assert "y = 0" in err


def test_wavefunction_levels_past_the_domain_exit_2(capsys):
    code, _, err = run(capsys, "wavefunction", "--system", "anyon", "--n", "101",
                       "--x-min", "0.1", "--x-max", "1", "--points", "10")
    assert code == 2
    assert "radial index n must be an integer in [0, 100]" in err
    # N = 2n + 2s = 402
    code, _, err = run(capsys, "wavefunction", "--system", "oscillator", "--n", "201",
                       "--s", "0", "--x-min", "0.1", "--x-max", "1", "--points", "10")
    assert code == 2
    assert "level N must be an integer in [0, 400]" in err


@pytest.mark.parametrize("level", [["--system", "anyon", "--n", "1000000000"],
                                   ["--system", "oscillator", "--n", "201", "--s", "0"]])
def test_wavefunction_level_past_the_domain_is_refused_at_once(level):
    # A fresh interpreter with a deadline: an unbounded n used to build
    # its coefficient table until memory ran out.
    done = run_process("wavefunction", *level, "--x-min", "0.1", "--x-max", "1",
                       "--points", "10", timeout=20)
    assert done.returncode == 2


@pytest.mark.parametrize("system", ["anyon", "oscillator"])
def test_spectrum_level_count_past_its_bound_is_refused_at_once(system):
    # A fresh interpreter with a deadline: --n-max had no upper bound, and
    # one row per level (200,000 rows took 1.4 s and 93 MB) made 10**9
    # run for hours until memory ran out.
    done = run_process("spectrum", "--system", system, "--n-max", "1000000000", timeout=20)
    assert done.returncode == 2
    assert b"n_max must be an integer in [0, 1000000]" in done.stderr


def test_reader_closing_the_pipe_early_exits_141_without_a_traceback():
    # As `anyon1d spectrum ... | head -1`: the reader takes one line and
    # closes its end while 100,001 rows (about 8 MB) are still to come.
    # That used to end in a BrokenPipeError traceback and exit 1, the code
    # for a verification failure.
    command, env = _process("spectrum", "--system", "anyon", "--n-max", "100000")
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=20)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert first.startswith(b"# ")
    assert code == 141
    assert err == b""


def test_wavefunction_grid_past_its_count_bound_is_refused_at_once():
    # A fresh interpreter with a deadline: a grid of 10**13 points ended
    # in numpy's allocation error, and 10**9 would allocate 8 GB arrays.
    done = run_process("wavefunction", "--system", "anyon", "--n", "0", "--x-min", "0.1",
                       "--x-max", "1", "--points", "10000000000000", timeout=20)
    assert done.returncode == 2
    assert b"grid count" in done.stderr


@pytest.mark.parametrize("target", [Path("missing", "x.txt"), Path(".")],
                         ids=["missing-directory", "directory"])
def test_output_path_that_cannot_be_opened_exits_2_without_a_traceback(target, tmp_path):
    # A missing directory or a directory used to end in a FileNotFoundError
    # or IsADirectoryError traceback and exit 1, the code for a
    # verification failure.
    done = run_process("spectrum", "--system", "anyon", "--output", str(tmp_path / target),
                       timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith(b"error: ")
    assert b"Traceback" not in done.stderr
    assert done.stdout == b""


def test_wavefunction_domain_validation(capsys):
    code, _, err = run(capsys, "wavefunction", "--system", "anyon", "--n", "0",
                       "--x-min", "0", "--x-max", "5", "--points", "10")
    assert code == 2
    assert "x must lie in (0," in err
    code, _, err = run(capsys, "wavefunction", "--system", "oscillator",
                       "--n", "0", "--x-min", "-1", "--x-max", "5",
                       "--points", "10")
    assert code == 2
    assert "u must lie in [0," in err
    code, _, err = run(capsys, "wavefunction", "--system", "oscillator",
                       "--n", "0", "--x-min", "0", "--x-max", "5",
                       "--points", "2")
    assert code == 2
    assert "grid count" in err


def test_wavefunction_extended_is_anyon_only(capsys):
    code, _, err = run(capsys, "wavefunction", "--system", "oscillator",
                       "--n", "0", "--extended", "--x-min", "0",
                       "--x-max", "5", "--points", "10")
    assert code == 2
    assert "anyon" in err


def test_wavefunction_side_specific_scale_flags(capsys):
    code, _, err = run(capsys, "wavefunction", "--system", "anyon", "--n", "0",
                       "--omega", "2", "--x-min", "0.1", "--x-max", "5",
                       "--points", "10")
    assert code == 2
    assert "--alpha" in err
    code, _, err = run(capsys, "wavefunction", "--system", "oscillator",
                       "--n", "0", "--alpha", "2", "--x-min", "0.1",
                       "--x-max", "5", "--points", "10")
    assert code == 2
    assert "--omega" in err


def test_dual_requires_exactly_one_side(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dual", "--n", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["dual", "--n", "0", "--alpha", "1", "--omega", "8"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["--n", "0", "--s", "0", "--omega", "1e-99", "--hbar", "1e-99"],
     "coupling alpha must lie in [1e-100, 1e+100], "
     "got coupling alpha = 1.2500000000000001e-199"),
    (["--n", "60", "--nu", "1/4", "--alpha", "1e-100", "--mu", "1e100"],
     "frequency omega must lie in [1e-100, 1e+100], "
     "got frequency omega = 3.3195020746887967e-102"),
])
def test_dual_refuses_a_derived_side_outside_the_domain(capsys, argv, message):
    # the given side is in the constants' domain, the one derived from it is not
    code, out, err = run(capsys, "dual", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_dual_reports_the_dictionary(capsys):
    payload = run_json(capsys, "dual", "--n", "1", "--nu", "3/4",
                       "--alpha", "1")
    table = {row[0]: row[1] for row in payload["rows"]}
    assert table["oscillator_level_N"] == 3
    assert table["oscillator_energy_E"] == 4.0
    assert table["oscillator_omega"] == 1.1428571428571428
    assert table["anyon_energy_eps"] == -0.16326530612244897
    assert table["lambda_n_plus_nu"] == 1.75
    assert payload["meta"]["alpha"] == 1.0
    assert "omega" not in payload["meta"]


def test_verify_single_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities")
    assert code == 0
    assert "checks passed" in out
    lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert lines


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "everything"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_run_suites_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        verification.run_suites(["everything"])


def test_verify_json_stdout_is_one_document(capsys):
    code, out, err = run(capsys, "verify", "--suite", "duality",
                         "--format", "json")
    assert code == 0
    assert [row[0] for row in json.loads(out)["rows"]] == ["PASS"] * 5
    assert err == "5/5 checks passed\n"


def test_verify_csv_stdout_holds_only_csv_lines(capsys):
    code, out, err = run(capsys, "verify", "--suite", "duality",
                         "--format", "csv")
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(lines))
    assert rows[0] == ["status", "check", "residual", "tolerance"]
    for row in rows[1:]:
        assert len(row) == 4
        status, _, residual, tolerance = row
        assert status == "PASS"
        assert float(residual) <= float(tolerance)
    assert len(rows) == 6
    assert err == "5/5 checks passed\n"


@pytest.mark.parametrize("flag, value", [("--hbar", "1e-200"), ("--hbar", "2"),
                                         ("--mu", "0.5"), ("--tol", "1e-300"),
                                         ("--mu", "1")])
def test_verify_refuses_constants_that_no_suite_reads(capsys, flag, value):
    # Every suite runs at unit constants and its own tolerances, so verify
    # takes no --mu, --hbar or --tol, not even at the value it runs at.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "duality", flag, value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err


def test_verify_exits_1_when_a_check_fails(capsys, monkeypatch):
    monkeypatch.setitem(verification.SUITES, "duality", lambda: [
        VerificationReport("a check that fails", residual=2.0, tolerance=1.0)])
    code, out, err = run(capsys, "verify", "--suite", "duality")
    assert code == 1
    rows = [re.split(r" {2,}", line.rstrip()) for line in out.splitlines()]
    assert rows[-2:] == [["FAIL", "a check that fails", "2.0", "1.0"], ["0/1 checks passed"]]
    assert err == ""
    code, out, err = run(capsys, "verify", "--suite", "duality", "--format", "json")
    assert code == 1
    assert json.loads(out)["rows"] == [["FAIL", "a check that fails", 2.0, 1.0]]
    assert err == "0/1 checks passed\n"


def test_verify_ignores_environment_tol(capsys, monkeypatch):
    # No flag or environment variable moves a tolerance, so none can
    # move a check unseen.
    monkeypatch.setenv("ANYON_DEFAULT_TOL", "1e-300")
    code, out, _ = run(capsys, "verify", "--suite", "identities")
    assert code == 0
    assert "FAIL" not in out


def test_output_files_are_byte_identical(tmp_path, capsys):
    argv = ["spectrum", "--system", "anyon", "--n-max", "8",
            "--format", "csv"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_verify_output_is_byte_identical_across_processes(fmt):
    # Each run is a fresh interpreter, so nothing one process caches can
    # hide a difference, and each must exit 0 with no RuntimeWarning.
    # stderr (the summary with json or csv) stays out of the comparison.
    first, second = [run_process("verify", "--suite", "all", "--format", fmt, timeout=300)
                     for _ in range(2)]
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout
    assert first.stdout == second.stdout


def test_main_reuses_one_parser_and_prints_what_fresh_processes_print(capsys, monkeypatch):
    # main builds its parser once per process.  A mixed sequence in one
    # process must print, byte for byte, what each call prints alone in a
    # fresh interpreter: the repeated --suite (an append action) starts
    # empty each time, and an argparse error or --version exits as usual.
    # COLUMNS fixes argparse's wrapping width on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    verify = ["verify", "--suite", "duality", "--suite", "identities"]
    grid = ["wavefunction", "--system", "anyon", "--n", "3", "--nu", "3/4",
            "--x-min", "0.5", "--x-max", "20", "--points", "9"]
    calls = [verify, verify,
             grid, grid + ["--format", "csv"], grid + ["--format", "json"],
             ["spectrum", "--system", "anyon", "--n-max", "x"],
             ["--version"],
             ["spectrum", "--system", "oscillator", "--n-max", "4"],
             ["dual", "--n", "1", "--nu", "3/4", "--alpha", "1"]]
    in_process = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out.encode(), captured.err.encode()))
    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 0, 2, 0, 0, 0]
    assert in_process[0] == in_process[1]
    for argv, got in zip(calls, in_process):
        done = run_process(*argv, timeout=120)
        assert got == (done.returncode, done.stdout, done.stderr), argv
    assert build_parser() is not build_parser()


@pytest.mark.parametrize("argv", [
    ["wavefunction", "--system", "anyon", "--n", "20", "--nu", "3/4", "--x-min", "0.01",
     "--x-max", "3000", "--points", "100000"],
    ["wavefunction", "--system", "oscillator", "--n", "100", "--s", "1/2", "--x-min", "0",
     "--x-max", "30", "--points", "100000"],
    ["dual", "--n", "1", "--nu", "3/4", "--alpha", "1"],
    ["dual", "--n", "2", "--s", "1/2", "--omega", "1.5"],
])
def test_large_grids_and_dual_examples_run_clean_in_a_fresh_process(argv, tmp_path):
    # The 1e5-point grids reach far into each tail (x = 3000 for the
    # anyon, u = 30 for the oscillator), where a numpy overflow or
    # underflow warning would fail the run.
    out = tmp_path / "out.txt"
    done = run_process(*argv, "--output", str(out), timeout=120)
    assert done.returncode == 0, done.stderr
    assert out.stat().st_size > 0


def test_csv_header_echoes_every_numeric_flag(tmp_path, capsys):
    out_file = tmp_path / "wf.csv"
    code = main(["wavefunction", "--system", "anyon", "--n", "2",
                 "--nu", "3/4", "--alpha", "2.5", "--x-min", "0.05",
                 "--x-max", "12", "--points", "50", "--format", "csv",
                 "--output", str(out_file)])
    capsys.readouterr()
    assert code == 0
    header = [line for line in out_file.read_text().splitlines()
              if line.startswith("#")]
    text = "\n".join(header)
    for key, value in (("mu", "1.0"), ("hbar", "1.0"), ("n", "2"),
                       ("nu", "0.75"), ("alpha", "2.5"), ("x_min", "0.05"),
                       ("x_max", "12.0"), ("points", "50")):
        assert f"# {key} = {value}" in text


def test_table_format_is_the_default(capsys):
    code, out, _ = run(capsys, "spectrum", "--system", "oscillator",
                       "--n-max", "1")
    assert code == 0
    assert out.startswith("# version = ")
    assert "N" in out and "energy" in out


def test_extreme_magnitudes_exit_2_without_a_traceback(capsys):
    # hbar = 1e-200 lies outside the magnitude domain of PhysicalParams
    code, out, err = run(capsys, "spectrum", "--system", "anyon",
                         "--hbar", "1e-200")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


_ROUND_TRIP_COMMANDS = [
    ["spectrum", "--system", "anyon", "--nu", "3/4", "--n-max", "4"],
    ["spectrum", "--system", "oscillator", "--omega", "2.5"],
    ["dual", "--n", "2", "--s", "1/2", "--omega", "1.5"],
    ["wavefunction", "--system", "anyon", "--n", "3", "--x-min", "0.05",
     "--x-max", "30", "--points", "25"],
    ["wavefunction", "--system", "anyon", "--n", "1", "--nu", "3/4",
     "--extended", "--x-min", "-5", "--x-max", "5", "--points", "12"],
    ["wavefunction", "--system", "oscillator", "--n", "2", "--s", "1/2",
     "--x-min", "0", "--x-max", "6", "--points", "25"],
    ["verify", "--suite", "duality"],
]


def _output(tmp_path, capsys, argv, fmt):
    path = tmp_path / f"out.{fmt}"
    assert main(argv + ["--format", fmt, "--output", str(path)]) == 0
    capsys.readouterr()
    return path.read_text()


def _meta_and_rows(text, split_rows):
    lines = text.splitlines()
    meta = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
    return meta, split_rows([line for line in lines if not line.startswith("# ")])


@pytest.mark.parametrize("argv", _ROUND_TRIP_COMMANDS,
                         ids=lambda argv: "-".join(argv[:3]))
def test_table_csv_and_json_hold_the_same_rows(tmp_path, capsys, argv):
    payload = json.loads(_output(tmp_path, capsys, argv, "json"))
    expected = ({key: str(value) for key, value in payload["meta"].items()},
                [payload["columns"]]
                + [[str(cell) for cell in row] for row in payload["rows"]])
    table = _meta_and_rows(_output(tmp_path, capsys, argv, "table"),
                           lambda lines: [re.split(r" {2,}", line.rstrip())
                                          for line in lines])
    assert table == expected
    assert _meta_and_rows(_output(tmp_path, capsys, argv, "csv"),
                          lambda lines: list(csv.reader(lines))) == expected


# Positive values from subnormal to near overflow, and values that are
# malformed, non-positive or not finite.
_MAGNITUDE = st.integers(-320, 308).map(lambda e: f"1e{e}")
_MALFORMED = st.sampled_from(["", "abc", "0", "-1", "-0", "nan", "inf", "1e400",
                              "1/0", "0x10", "1.5", "--1"])


@st.composite
def _fuzzed_argv(draw):
    def value(valid):
        # one flag value in ten is malformed
        return draw(_MALFORMED if draw(st.integers(0, 9)) == 0 else valid)

    command = draw(st.sampled_from(["spectrum", "dual", "wavefunction"]))
    system = draw(st.sampled_from(["anyon", "oscillator"]))
    index = st.integers(0, 40).map(str)
    argv = [command, f"--mu={value(_MAGNITUDE)}", f"--hbar={value(_MAGNITUDE)}",
            "--format=" + draw(st.sampled_from(["table", "json", "csv"]))]
    if command == "spectrum":
        argv += [f"--system={system}", f"--n-max={value(index)}",
                 f"--alpha={value(_MAGNITUDE)}", f"--omega={value(_MAGNITUDE)}"]
        if system == "anyon":
            argv.append(f"--nu={value(st.sampled_from(['1/4', '3/4']))}")
    else:
        label = draw(st.sampled_from(["--s", "--nu"]))
        labels = ["0", "1/2"] if label == "--s" else ["1/4", "3/4"]
        argv += [f"--n={value(index)}", f"{label}={value(st.sampled_from(labels))}"]
    if command == "dual":
        argv.append(f"--{draw(st.sampled_from(['alpha', 'omega']))}={value(_MAGNITUDE)}")
    if command == "wavefunction":
        x_min = draw(st.floats(-10.0, 1e3))
        x_max = x_min + draw(st.floats(1e-3, 1e3))
        scale = "--alpha" if system == "anyon" else "--omega"
        argv += [f"--system={system}", f"{scale}={value(_MAGNITUDE)}",
                 f"--x-min={x_min!r}", f"--x-max={x_max!r}",
                 f"--points={value(st.integers(3, 100).map(str))}"]
        if system == "anyon" and x_min < 0:
            argv.append("--extended")
    return argv


@settings(max_examples=200)
@given(argv=_fuzzed_argv())
def test_fuzzed_arguments_exit_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
