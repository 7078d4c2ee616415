"""End-to-end command line behavior through the in-process entry point."""

import json

import pytest

from anyon1d.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


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


def test_spectrum_rejects_unlisted_nu(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--system", "anyon", "--nu", "0.3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nu must be 1/4 or 3/4" in err


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


def test_wavefunction_domain_validation(capsys):
    code, _, err = run(capsys, "wavefunction", "--system", "anyon", "--n", "0",
                       "--x-min", "0", "--x-max", "5", "--points", "10")
    assert code == 2
    assert "x_min > 0" in err
    code, _, err = run(capsys, "wavefunction", "--system", "oscillator",
                       "--n", "0", "--x-min", "-1", "--x-max", "5",
                       "--points", "10")
    assert code == 2
    assert "u >= 0" in err
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
    from anyon1d import verification

    with pytest.raises(ValueError, match="unknown suite"):
        verification.run_suites(["everything"])


def test_tol_override_leaves_the_sensitivity_control_alone():
    # The control's residual is an inverted ratio, so its tolerance 1.0
    # is what defines a loud response; an override must not move it.
    from anyon1d import verification

    control = verification.run_suites("oracle", tol=1e-6)[-1]
    assert control.check_name.startswith("residual sensitivity control")
    assert control.tolerance == 1.0
    assert control.passed


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
    assert lines[0] == "status,check,residual,tolerance"
    for line in lines[1:]:
        status, rest = line.split(",", 1)
        _, residual, tolerance = rest.rsplit(",", 2)
        assert status == "PASS"
        assert float(residual) <= float(tolerance)
    assert len(lines) == 6
    assert err == "5/5 checks passed\n"


def test_verify_tol_override_can_fail(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities",
                       "--tol", "1e-300")
    assert code == 1
    assert "FAIL" in out


def test_verify_reads_default_tol_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("ANYON_DEFAULT_TOL", "1e-300")
    code, out, _ = run(capsys, "verify", "--suite", "identities")
    assert code == 1
    assert "FAIL" in out


def test_verify_rejects_malformed_environment_tol(capsys, monkeypatch):
    monkeypatch.setenv("ANYON_DEFAULT_TOL", "abc")
    code, _, err = run(capsys, "verify", "--suite", "identities")
    assert code == 2
    assert "ANYON_DEFAULT_TOL" in err
    monkeypatch.setenv("ANYON_DEFAULT_TOL", "-1e-6")
    code, _, err = run(capsys, "verify", "--suite", "identities")
    assert code == 2
    assert "positive" in err


def test_explicit_tol_flag_wins_over_environment(capsys, monkeypatch):
    monkeypatch.setenv("ANYON_DEFAULT_TOL", "1e-300")
    code, out, _ = run(capsys, "verify", "--suite", "identities",
                       "--tol", "100.0")
    assert code == 0
    assert "checks passed" in out


def test_output_files_are_byte_identical(tmp_path, capsys):
    argv = ["spectrum", "--system", "anyon", "--n-max", "8",
            "--format", "csv"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


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
