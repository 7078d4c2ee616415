"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_operation_list(workload):
    first = json.dumps(workloads.build(workload, 7), sort_keys=True)
    assert json.dumps(workloads.build(workload, 7), sort_keys=True) == first
    if workload != "verify":
        assert json.dumps(workloads.build(workload, 8), sort_keys=True) != first


def test_sample_grid_covers_every_stratum():
    ops = workloads.build("sample_grid", 3)
    anyon = [op for op in ops if op["system"] == "anyon"]
    osc = [op for op in ops if op["system"] == "oscillator"]
    assert len(anyon) == len(osc) == workloads.GRID_STRATA
    assert min(op["n"] for op in anyon) <= 4 and max(op["n"] for op in anyon) >= 46
    assert max(op["N"] for op in osc) >= 275
    assert {op["format"] for op in ops} == set(workloads.GRID_FORMATS)
    assert any(op["extended"] for op in anyon) and not all(op["extended"] for op in anyon)


def _grid_op(system, fmt, extended=False):
    if system == "anyon":
        argv = ["wavefunction", "--system", "anyon", "--n", "6", "--nu", "3/4",
                "--alpha", "1.3", "--points", "400", "--format", fmt]
        op = {"system": "anyon", "n": 6, "nu": 0.75, "alpha": 1.3, "extended": extended}
        lo, hi = (-60.0, 60.0) if extended else (0.05, 150.0)
        if extended:
            argv.append("--extended")
    else:
        argv = ["wavefunction", "--system", "oscillator", "--n", "4", "--s", "1/2",
                "--omega", "0.7", "--points", "400", "--format", fmt]
        op = {"system": "oscillator", "N": 9, "omega": 0.7, "extended": False}
        lo, hi = 0.0, 12.0
    argv += ["--x-min", repr(lo), "--x-max", repr(hi)]
    op.update(kind="cli", argv=argv, x_min=lo, x_max=hi, points=400, format=fmt)
    return op


def _render(columns, data, fmt):
    if fmt == "json":
        return json.dumps({"meta": {}, "columns": columns, "rows": data.tolist()})
    sep = "," if fmt == "csv" else "  "
    lines = [sep.join(columns)] + [sep.join(repr(float(v)) for v in row) for row in data]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("system,fmt,extended", [
    ("anyon", "table", False), ("anyon", "csv", True), ("anyon", "json", False),
    ("oscillator", "csv", False), ("oscillator", "json", False)])
def test_grid_checker_rejects_nan_and_small_perturbation(system, fmt, extended):
    op = _grid_op(system, fmt, extended)
    code, text = workloads.run_cli(op["argv"])
    checker = checks.GridChecker(op)
    assert checker.check(code, text) is None

    columns, data = checks.parse_values(text, fmt)
    value_col = data[:, 1:]
    picks = checker.subsample(data[:, 1] + 1j * data[:, 2] if extended else data[:, 1])
    target = picks[len(picks) // 2]

    planted = data.copy()
    planted[target, 1] = np.nan
    assert checker.check(0, _render(columns, planted, fmt)) == checks.NONFINITE

    peak = float(np.max(np.abs(value_col)))
    perturbed = data.copy()
    perturbed[target, 1] += 1e-6 * peak
    reason = checker.check(0, _render(columns, perturbed, fmt))
    assert reason is not None and reason.startswith("error")


def test_nonfinite_is_the_known_defect_only_where_hermite_overflows():
    high = {"system": "oscillator", "N": 200, "omega": 1.0, "x_max": 40.0}
    assert checks.is_known_defect(high, checks.NONFINITE)
    assert not checks.is_known_defect(high, "exit code 2")
    assert not checks.is_known_defect(dict(high, N=150, x_max=20.0), checks.NONFINITE)
    assert not checks.is_known_defect({"system": "anyon", "n": 50}, checks.NONFINITE)


def test_planted_nan_on_a_low_level_oscillator_request_is_not_excused():
    op = _grid_op("oscillator", "csv")
    code, text = workloads.run_cli(op["argv"])
    columns, data = checks.parse_values(text, "csv")
    data[17, 1] = np.nan
    reason = checks.GridChecker(op).check(code, _render(columns, data, "csv"))
    assert reason == checks.NONFINITE
    assert not checks.is_known_defect(op, reason)


def test_every_nonfinite_oscillator_grid_is_predicted():
    from anyon1d import oscillator
    from anyon1d.core import PhysicalParams
    for op in workloads.build("sample_grid", 11):
        if op["system"] != "oscillator":
            continue
        u = np.linspace(op["x_min"], op["x_max"], op["points"])
        with np.errstate(all="ignore"):
            values = oscillator.wavefunction(op["N"], PhysicalParams(1.0, 1.0, omega=op["omega"]), u)
        if not np.all(np.isfinite(values)):
            assert checks.hermite_overflows(op), op["argv"]


def test_parse_values_rejects_malformed_output():
    with pytest.raises(ValueError):
        checks.parse_values("x,phi\n1.0,2.0\n3.0\n", "csv")
    with pytest.raises(ValueError):
        checks.parse_values("x  phi\n1.0  oops\n", "table")
    with pytest.raises(ValueError):
        checks.parse_values('{"columns": ["x"], "rows": [[1.0]]', "json")


def test_solver_checks_use_readme_tolerances():
    op = {"kind": "quadrature", "n": 3, "nu": 0.25}
    exact = 2.0 * 3.25 * math.gamma(3.5) / math.factorial(3)
    assert checks.check_solver(op, exact * (1 + 5e-9)) is None
    assert checks.check_solver(op, exact * (1 + 2e-8)) is not None
    fd = {"kind": "fd", "levels": 3, "omega": 2.0}
    assert checks.check_solver(fd, [1.0001, 3.0002, 5.0003]) is None
    assert checks.check_solver(fd, [1.0003, 3.0, 5.0]) is not None


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_synthetic_nested_spans():
    clock = _FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 4.0

    def inner():
        clock.now += 2.0
        tracer.call("specfun.kummer_series", leaf, True, (), {})
        tracer.call("specfun.kummer_series", leaf, True, (), {})

    def outer():
        clock.now += 1.0
        tracer.call("anyon.wavefunction", inner, False, (), {})
        clock.now += 8.0

    tracer.op = 5
    tracer.call("cli.main", outer, False, (), {})
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.self_s"] == 9.0
    assert metrics["anyon.wavefunction.self_s"] == 2.0
    assert metrics["specfun.kummer_series.self_s"] == 8.0
    assert metrics["specfun.kummer_series.calls"] == 2
    assert metrics["trace.self_sum_s"] == 19.0          # the root span's duration
    (inner_span, outer_span) = tracer.spans
    assert inner_span[4] == outer_span[0] and outer_span[4] is None
    assert inner_span[5] == outer_span[5] == 5
    # leaves are aggregated under their nearest recorded ancestor
    assert tracer.aggregates == {(inner_span[0], "specfun.kummer_series"): [2, 8.0, 8.0]}


def test_tracer_wraps_every_binding_and_restores_them():
    from anyon1d import anyon, oscillator, specfun
    originals = (specfun.kummer_series, specfun.hermite)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert anyon.kummer_series is specfun.kummer_series is not originals[0]
        assert oscillator.hermite is specfun.hermite is not originals[1]
        code, _ = workloads.run_cli(["wavefunction", "--system", "anyon", "--n", "2",
                                        "--x-min", "0.1", "--x-max", "9", "--points", "50"])
        assert code == 0
    finally:
        tracer.remove()
    assert (specfun.kummer_series, specfun.hermite) == originals
    assert anyon.kummer_series is originals[0]
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["anyon.wavefunction.points"] == 50
    assert metrics["specfun.kummer_series.calls"] == 50
    assert set(metrics) | {"trace.pass_s", "trace.overhead_s"} == set(tracing.layer_metric_units())


def test_percentiles():
    assert run.tail_percentile(4, 8) == 68.75
    assert run.nearest_rank([3.0, 1.0, 2.0, 4.0], 50.0) == 2.0
    assert run.nearest_rank([3.0, 1.0, 2.0, 4.0], 68.75) == 3.0
    assert run.nearest_rank([5.0], 99.0) == 5.0


def test_tail_is_taken_over_every_latency_sample():
    passes = run.Passes([{}] * 4, [None] * 4)
    passes.latencies = [[float(4 * k + i) for k in range(8)] for i in range(4)]
    samples = passes.samples()
    assert len(samples) == 32
    tail = run.nearest_rank(samples, run.tail_percentile(4, 8))
    assert sum(v > tail for v in samples) == run.TAIL_BEYOND
