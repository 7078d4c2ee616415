"""Acceptance battery: every row of `anyon1d verify --suite all`.

The checks live in anyon1d.verification, shared with the command line.
Each suite runs once per session, each report row is one test that
prints its PASS/FAIL line, and the README guarantee table must list
exactly these rows.
"""

import ast
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from anyon1d import anyon, oscillator, verification
from anyon1d.cli import main
from anyon1d.verification import SUITES, run_suites

ROWS = [(suite, report) for suite in SUITES for report in run_suites(suite)]
IDS = [f"{suite}-" + re.sub(r"\W+", "_", report.check_name).strip("_")
       for suite, report in ROWS]
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


@pytest.mark.parametrize("suite, report", ROWS, ids=IDS)
def test_check(suite, report):
    print(f"{'PASS' if report.passed else 'FAIL'} {suite}: {report.check_name}: "
          f"residual {report.residual:.6e} vs tolerance {report.tolerance:.0e}")
    assert report.passed


def test_readme_guarantee_table_lists_every_check():
    cells = [[cell.strip().replace("\\|", "|")
              for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
             for line in README.read_text().splitlines() if line.startswith("|")]
    table = [(suite, check, float(tol)) for suite, check, tol in cells
             if suite in SUITES]
    assert table == [(suite, report.check_name, report.tolerance)
                     for suite, report in ROWS]


def _readme_block_after(command):
    """The README's code block under the line `$ command`, to the byte."""
    line = f"$ {command}\n"
    text = README.read_text()
    start = text.index(line) + len(line)
    return text[start:text.index("```\n", start)]


def test_readme_dual_example_is_the_real_output(capsys):
    # The block under the command line holds its stdout to the byte,
    # trailing cell padding included.
    command = "anyon1d dual --n 1 --nu 3/4 --alpha 1"
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == _readme_block_after(command)


def test_readme_verify_example_is_the_real_output(capsys):
    # the check column as wide as its longest name, then the summary line
    command = "anyon1d verify --suite identities"
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == _readme_block_after(command)


def test_each_suite_reports_at_least_the_benchmark_rows():
    # The benchmark's verify check refuses a suite that reports fewer
    # rows than its VERIFY_ROWS, so dropping a row fails here first.
    # The dict is read from the source, without importing the benchmark.
    tree = ast.parse((ROOT / "perfbench" / "checks.py").read_text())
    (pinned,) = [ast.literal_eval(stmt.value) for stmt in tree.body
                 if isinstance(stmt, ast.Assign)
                 and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["VERIFY_ROWS"]]
    assert set(pinned) == set(SUITES)
    for suite, rows in pinned.items():
        reported = sum(name == suite for name, _ in ROWS)
        assert reported >= rows, f"{suite}: {reported} rows, the benchmark needs {rows}"


def test_norm_and_oracle_suites_call_the_evaluators_on_arrays_only(monkeypatch):
    # The quadrature rows evaluate each round of nodes in one call; a
    # slide back to one point per call shows up here as a scalar x.
    calls = {}
    for module, name in ((anyon, "wavefunction"), (anyon, "extended_wavefunction"),
                         (oscillator, "wavefunction")):
        original = getattr(module, name)
        seen = calls[f"{module.__name__}.{name}"] = []

        def counted(*args, original=original, seen=seen):
            seen.append(isinstance(args[-1], np.ndarray))
            return original(*args)
        monkeypatch.setattr(module, name, counted)
    verification.suite_normalization()
    verification.suite_oracle()
    for name, seen in calls.items():
        assert seen, name
        assert all(seen), f"{name}: {seen.count(False)} of {len(seen)} calls on one point"


def test_normalization_suite_integrand_call_budget(monkeypatch):
    # Each norm integrand calls one evaluator once, so counting evaluator
    # calls counts integrand calls.  A half-line is mapped onto [0, 1),
    # so each integral takes one call per round of refinement and no
    # other: the suite makes 112.
    calls = 0
    for module, name in ((anyon, "wavefunction"), (anyon, "extended_wavefunction"),
                         (oscillator, "wavefunction")):
        def counted(*args, original=getattr(module, name)):
            nonlocal calls
            calls += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)
    verification.suite_normalization()
    assert 0 < calls <= 120
