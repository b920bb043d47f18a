import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monoratio
from monoratio import BadBracket
from monoratio.cli import main
from monoratio.syntax import MAX_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err):
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_analyze_happy_path(capsys):
    code, out, _ = run(capsys, "analyze", "--f", "x^2", "--g", "x",
                       "--window", "0.1", "10", "--grid-n", "256")
    assert code == 0
    report = json.loads(out)
    assert report["observed_pattern"] == "Increasing"
    assert report["predicted_family"] == "DownUp"
    assert report["sign_gg"] == 1
    assert all(report["checks"].values())


def test_analyze_reads_a_leading_minus_expression_as_a_value(capsys):
    # as the four g templates whose labels start with "-" are written
    window = ("--window", "0", "1", "--grid-n", "256")
    code, spaced, _ = run(capsys, "analyze", "--f", "-x^2 - 1", "--g", "-exp(x)", *window)
    assert code == 0
    assert json.loads(spaced)["pair"] == {"f": "-x^2 - 1", "g": "-exp(x)"}
    assert run(capsys, "analyze", "--f=-x^2 - 1", "--g=-exp(x)", *window) == (0, spaced, "")


def test_analyze_validation_error(capsys):
    code, _, err = run(capsys, "analyze", "--f", "x", "--g", "sin(x)",
                       "--window", "0.5", "3", "--grid-n", "256")
    assert code == 2
    assert "1.5707" in err  # names the offending x near pi/2


def test_analyze_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "--f", "x +* 2", "--g", "x",
                       "--window", "1", "2")
    assert code == 1
    assert "offset 3" in err


def test_analyze_f_domain_fault(capsys):
    # g validates but f leaves its domain inside the window
    code, _, err = run(capsys, "analyze", "--f", "log(x)", "--g", "x + 3",
                       "--window", "-1", "1", "--grid-n", "256")
    assert code == 2
    assert "log" in err


@pytest.mark.parametrize("exponent", ["1e999", "(-1e999)", "(1e999 - 1e999)"])
def test_analyze_negative_base_to_a_non_finite_power_names_the_fault(capsys, exponent):
    # an infinite or NaN exponent is no integer: the grid's first x is negative
    code, _, err = run(capsys, "analyze", "--f", f"x^{exponent} + 1", "--g", "exp(x)",
                       "--window", "-1", "1", "--grid-n", "256")
    assert code == 2
    assert_one_error_line(err)
    assert "negative base with non-integer exponent at x = -0.99609375" in err


def test_analyze_identity_constant(capsys):
    code, out, _ = run(capsys, "analyze", "--f", "x", "--g", "x",
                       "--window", "1", "2", "--grid-n", "256")
    assert code == 0
    report = json.loads(out)
    assert report["observed_pattern"] == "Constant"
    assert len(report["mics"]["r"]) == 1
    lo, hi = report["mics"]["r"][0]
    assert lo == pytest.approx(1.0, abs=1e-2)
    assert hi == pytest.approx(2.0, abs=1e-2)


def test_analyze_checks_failed_exit(capsys):
    # rho = cos(x) is not monotone on (0.1, 5)
    code, out, _ = run(capsys, "analyze", "--f", "sin(x)", "--g", "x",
                       "--window", "0.1", "5", "--grid-n", "256")
    assert code == 3
    report = json.loads(out)
    assert report["failure"]


def test_analyze_bad_window(capsys):
    code, _, err = run(capsys, "analyze", "--f", "x", "--g", "x",
                       "--window", "2", "1")
    assert code == 64


@pytest.mark.parametrize("command", ["analyze", "construct"])
def test_window_below_grid_resolution_is_usage_error(capsys, command):
    # a 2048-point grid on a 1e-13 window has steps of a fraction of an ulp
    argv = {"analyze": ("analyze", "--f", "x^2", "--g", "x+1"),
            "construct": ("construct", "--g", "exp(x)", "--rho", "atan(x)",
                          "--z", "1")}[command]
    code, out, err = run(capsys, *argv, "--window", "1", "1.0000000000001")
    assert code == 64
    assert out == ""
    assert len(err.splitlines()) == 1 and "too narrow" in err


_TOL_ZERO_ARGV = {
    "analyze": ("analyze", "--f", "x^2", "--g", "x", "--window", "0.1", "10"),
    "construct": ("construct", "--g", "exp(x)", "--rho", "atan(x)", "--z", "0",
                  "--window", "-2", "2"),
    "verify": ("verify", "--cases", "1"),
}


@pytest.mark.parametrize("command", sorted(_TOL_ZERO_ARGV))
@pytest.mark.parametrize("grid_n", ["262145", "100000000000"])
def test_grid_above_ceiling_is_usage_error(capsys, command, grid_n):
    # rejected before any column is allocated
    code, out, err = run(capsys, *_TOL_ZERO_ARGV[command], "--grid-n", grid_n)
    assert code == 64
    assert out == ""
    assert_one_error_line(err)
    assert f"grid_n must be between 64 and 262144, got {grid_n}" in err


@pytest.mark.parametrize("command", sorted(_TOL_ZERO_ARGV))
@pytest.mark.parametrize("tol_zero", ["nan", "-1", "1", "10"])
def test_bad_tol_zero_is_usage_error(capsys, command, tol_zero):
    code, out, err = run(capsys, *_TOL_ZERO_ARGV[command], "--grid-n", "256",
                         "--tol-zero", tol_zero)
    assert code == 64
    assert out == ""
    assert len(err.splitlines()) == 1 and "tol_zero" in err


def test_zero_tol_zero_is_valid(capsys):
    code, out, _ = run(capsys, *_TOL_ZERO_ARGV["analyze"], "--grid-n", "256",
                       "--tol-zero", "0")
    assert code == 0
    assert json.loads(out)["tolerances"]["tol_zero"] == 0.0


@pytest.mark.parametrize("command", ["construct", "verify"])
@pytest.mark.parametrize("quad_tol", ["nan", "-1", "0", "inf"])
def test_bad_quad_tol_is_usage_error(capsys, command, quad_tol):
    code, out, err = run(capsys, *_TOL_ZERO_ARGV[command], "--grid-n", "256",
                         "--quad-tol", quad_tol)
    assert code == 64
    assert out == ""
    assert len(err.splitlines()) == 1 and "--quad-tol" in err


@pytest.mark.parametrize("window", [("0", "1e-300"), ("1", "1.000000001")])
def test_window_within_switch_tol_fails(capsys, window):
    # any two switch positions inside such a window agree within switch_tol,
    # so prop1 cannot fail there and a pass would mean nothing
    code, out, _ = run(capsys, "analyze", "--f", "x^2", "--g", "x+1",
                       "--window", *window)
    assert code == 3
    report = json.loads(out)
    assert "switch_tol 0.001" in report["failure"]
    assert not report["checks"]["prop1"] and not report["checks"]["prop2"]


def test_analyze_non_finite_samples_are_assumption_failure(capsys):
    # f overflows to inf on the whole window: r, rho and rho-tilde are inf/NaN
    code, out, err = run(capsys, "analyze", "--f", "exp(400)*exp(400)*x",
                         "--g", "exp(x)", "--window", "0", "1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "r takes the non-finite value inf" in err


@pytest.mark.parametrize("g, value", [("1e308*10 + x", "inf"),
                                      ("exp(x) + 0*(1e308*10*(x - 0.5))", "nan")])
def test_analyze_non_finite_g_is_assumption_failure(capsys, g, value):
    # g is inf, or NaN, at every sample: the g check names g itself, not a
    # zero of g nor the r it would later spoil
    code, out, err = run(capsys, "analyze", "--f", "x", "--g", g,
                         "--window", "0", "1", "--grid-n", "256")
    assert code == 2
    assert out == ""
    assert_one_error_line(err)
    assert f"g takes the non-finite value {value}" in err


def test_analyze_names_g_non_finite_at_an_analysis_grid_point(capsys):
    # g is NaN at the grid point 128.5/256 alone, which no Chebyshev point
    # of the g check comes near: the table names g, not the r it spoils
    code, out, err = run(capsys, "analyze", "--f", "x", "--g",
                         "exp(x) + 0*(1e300*exp(700 - 1e12*(x - 0.501953125)^2))",
                         "--window", "0", "1", "--grid-n", "256")
    assert code == 2
    assert out == ""
    assert_one_error_line(err)
    assert "g takes the non-finite value nan near x = 0.501953125" in err


def test_analyze_pole_of_f_is_assumption_failure(capsys):
    # no grid point lands on the pole, so every sample is finite
    code, out, err = run(capsys, "analyze", "--f", "1/(x-0.5)", "--g", "exp(x)",
                         "--window", "0", "1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "sign of f changes discontinuously near x = 0.5" in err


def test_analyze_csv_rows_match_grid(tmp_path, capsys):
    out_csv = tmp_path / "dump.csv"
    code, _, _ = run(capsys, "analyze", "--f", "x^2", "--g", "x",
                     "--window", "0.1", "10", "--grid-n", "128",
                     "--csv", str(out_csv))
    assert code == 0
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ["x", "f", "g", "r", "rho", "rho_tilde"]
    assert len(rows) - 1 == 128
    x, f, g, r, rho, rho_tilde = map(float, rows[1])
    assert f == pytest.approx(x * x)
    assert r == pytest.approx(x)


@pytest.mark.parametrize("argv", [
    ("analyze", "--f", "x^2", "--g", "x", "--window", "0.1", "10"),
    ("construct", "--g", "exp(x)", "--rho", "atan(x)", "--z", "0", "--window", "-2", "2"),
], ids=["analyze", "construct"])
def test_csv_rows_come_from_the_checked_table(argv, tmp_path, capsys, monkeypatch):
    # the rows are the table check_pair sampled, not a second sampling
    tables = []
    sample_table = monoratio.ratio.sample_table
    for module in (monoratio.ratio, monoratio.rules, monoratio.cli):
        if hasattr(module, "sample_table"):
            monkeypatch.setattr(module, "sample_table",
                                lambda *args: tables.append(sample_table(*args)) or tables[-1])
    out_csv = tmp_path / "dump.csv"
    code, _, _ = run(capsys, *argv, "--grid-n", "128", "--csv", str(out_csv))
    assert code == 0 and len(tables) == 1
    rows = list(csv.reader(out_csv.open()))
    assert len(rows) == 129
    assert [float(row[0]) for row in rows[1:]] == list(tables[0].xs)


def test_analyze_out_file(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "--f", "x^2", "--g", "x",
                       "--window", "0.1", "10", "--grid-n", "128",
                       "--out", str(out_json))
    assert code == 0
    assert out == ""
    report = json.loads(out_json.read_text())
    assert report["pair"] == {"f": "x^2", "g": "x"}


def test_construct_staircase(tmp_path, capsys):
    spec_path = tmp_path / "stair.json"
    spec_path.write_text(json.dumps({
        "flats": [[-1.0, 1.0]], "slopes": [1.0, 1.0],
        "direction": "up", "anchor_value": 0.0,
    }))
    code, out, _ = run(capsys, "construct", "--g", "exp(x)",
                       "--staircase", str(spec_path), "--z", "0",
                       "--window", "-2", "2", "--grid-n", "512")
    assert code == 0
    report = json.loads(out)
    assert report["observed_pattern"] == "DownUp"
    assert report["mics"]["r"][0][0] == pytest.approx(-1.0, abs=1e-3)
    assert report["mics"]["r"][0][1] == pytest.approx(1.0, abs=1e-3)


def test_construct_smooth_rho(capsys):
    code, out, _ = run(capsys, "construct", "--g", "exp(x)", "--rho",
                       "atan(x)", "--z", "0", "--window", "-2", "2",
                       "--grid-n", "256")
    assert code == 0
    assert json.loads(out)["checks"]["prop1"]


def test_construct_needs_exactly_one_rho_source(capsys):
    code, _, _ = run(capsys, "construct", "--g", "exp(x)", "--z", "0",
                     "--window", "-2", "2")
    assert code == 64


_CONSTRUCT = ("construct", "--g", "exp(x)", "--window", "-2", "2", "--grid-n", "256")


@pytest.mark.parametrize("spec", [
    "[1, 2]",
    '{"flats": "ab"}',
    '{"slopes": ["a"]}',
    '{"flats": [[0, 1]], "slopes": [1, 1], "anchor_value": null}',
    # strings, booleans and objects are no arrays or JSON numbers
    '{"flats": ["01"], "slopes": [1, 1]}',
    '{"slopes": {"2": 0}}',
    '{"slopes": [true]}',
    '{"slopes": [1], "anchor_value": "0.5"}',
    pytest.param('{"slopes": [' + "9" * 400 + "]}", id="an int too large for a float"),
    b"\xff\xfe\x7b",  # not UTF-8
    pytest.param('{"flats": ' + "[" * 100_000 + "]" * 100_000 + "}",
                 id="nested past the json module's recursion limit"),
])
def test_construct_malformed_staircase_is_parse_error(tmp_path, capsys, spec):
    spec_path = tmp_path / "stair.json"
    spec_path.write_bytes(spec if isinstance(spec, bytes) else spec.encode())
    code, out, err = run(capsys, *_CONSTRUCT, "--staircase", str(spec_path), "--z", "0")
    assert code == 1
    assert out == ""
    assert_one_error_line(err)
    assert "malformed staircase spec" in err


@pytest.mark.parametrize("spec", [
    '{"slopes": [NaN]}',
    '{"flats": [[0.1, NaN]], "slopes": [1, 1]}',
    '{"slopes": [1], "anchor_value": Infinity}',
    '{"slopes": [Infinity]}',
])
def test_construct_non_finite_staircase_is_rejected(tmp_path, capsys, spec):
    # json reads NaN and Infinity; the spec, not the quadrature, rejects them
    spec_path = tmp_path / "stair.json"
    spec_path.write_text(spec)
    code, out, err = run(capsys, "construct", "--g", "exp(x)", "--z", "0",
                         "--window", "-1", "1", "--staircase", str(spec_path))
    assert code == 1
    assert out == ""
    assert_one_error_line(err)
    assert "must be finite" in err


@pytest.mark.parametrize("z", ["inf", "nan", "5", "-2.5"])
def test_construct_z_outside_window_is_usage_error(capsys, z):
    code, out, err = run(capsys, *_CONSTRUCT, "--rho", "x", "--z", z)
    assert code == 64
    assert out == ""
    assert_one_error_line(err)
    assert "--z" in err


@pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
def test_construct_non_finite_k_is_usage_error(capsys, k):
    code, out, err = run(capsys, *_CONSTRUCT, "--rho", "x", "--z", "0", f"--K={k}")
    assert code == 64
    assert out == ""
    assert_one_error_line(err)
    assert "--K" in err


def test_spaced_negative_infinity_reaches_the_finiteness_check(capsys):
    code, out, err = run(capsys, *_CONSTRUCT, "--rho", "x", "--z", "0", "--K", "-inf")
    assert code == 64
    assert out == ""
    assert_one_error_line(err)
    assert "--K must be finite" in err


@pytest.mark.parametrize("argv,same_as", [
    ((*_CONSTRUCT, "--rho", "x", "--z", "0", "--K", "-1e-3"),
     (*_CONSTRUCT, "--rho", "x", "--z", "0", "--K=-1e-3")),
    (("analyze", "--f", "x^2 + 1", "--g", "exp(x)", "--grid-n", "256",
      "--window", "-2e-1", "1"),
     ("analyze", "--f", "x^2 + 1", "--g", "exp(x)", "--grid-n", "256",
      "--window", "-0.2", "1")),
], ids=["K", "window"])
def test_negative_literal_after_a_space_is_a_value(capsys, argv, same_as):
    # argparse alone takes -1e-3 for an option (only -1 or -0.2 count as numbers)
    result = run(capsys, *argv)
    assert result == run(capsys, *same_as)
    assert result[0] == 0 and result[1] and result[2] == ""


def test_construct_rho_domain_fault_at_z_is_assumption_failure(capsys):
    # the default K = rho(z) leaves log's domain
    code, out, err = run(capsys, *_CONSTRUCT, "--rho", "log(x)", "--z", "-1")
    assert code == 2
    assert out == ""
    assert_one_error_line(err)
    assert err.startswith("error: assumption violated: log")


def test_construct_non_monotone_rho_names_the_turn(capsys):
    code, out, err = run(capsys, *_CONSTRUCT, "--rho", "x^2", "--z", "0")
    assert code == 2
    assert out == ""
    assert_one_error_line(err)
    assert err.startswith("error: assumption violated: ") and "monotone" in err
    assert abs(float(err.split("near x =")[1])) < 0.05


def test_construct_non_finite_rho_names_the_first_sample(capsys):
    # inf*x - inf*x is NaN everywhere: once read as flat, so the build failed
    # later with a quadrature error on the panel [-2, -2]
    code, out, err = run(capsys, *_CONSTRUCT, "--rho", "1e308*10*x - 1e308*10*x", "--z", "0")
    assert code == 2 and out == ""
    assert err == "error: assumption violated: rho takes the non-finite value nan near x = -2\n"


def test_construct_column_fault_names_its_point(capsys):
    # rho faults at the build point 0.25; read as one column before any
    # panel is refined, so the panel that cannot converge at this
    # tolerance is never reached
    code, out, err = run(capsys, *_CONSTRUCT, "--rho", "x + 0*log(abs(x - 0.25))", "--z", "0",
                         "--quad-tol", "1e-30")
    assert code == 2 and out == ""
    assert err == "error: assumption violated: log of non-positive argument at x = 0.25\n"


@pytest.mark.parametrize("argv", [
    (*_CONSTRUCT, "--z", "0", "--staircase", "{missing}/stair.json"),
    (*_CONSTRUCT, "--z", "0", "--staircase", "{tmp}"),
    ("analyze", "--f", "x^2", "--g", "x", "--window", "0.1", "10", "--grid-n", "256",
     "--out", "{missing}/report.json"),
    ("analyze", "--f", "x^2", "--g", "x", "--window", "0.1", "10", "--grid-n", "256",
     "--csv", "{missing}/dump.csv"),
    ("verify", "--cases", "1", "--grid-n", "256", "--out", "{missing}/summary.json"),
    ("tables", "--out", "{missing}/tables.json"),
], ids=["staircase-missing", "staircase-directory", "analyze-out", "analyze-csv",
        "verify-out", "tables-out"])
def test_unusable_file_path_is_usage_error(tmp_path, capsys, argv):
    paths = {"tmp": tmp_path, "missing": tmp_path / "missing"}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 64
    assert_one_error_line(err)
    assert str(tmp_path) in err


@pytest.mark.parametrize("argv", [
    (*_CONSTRUCT, "--rho", "x", "--z", "abc"),
    ("analyze", "--f", "x", "--g", "x", "--window", "0.5", "2", "--bogus"),
    ("analyze", "--f", "x", "--g", "x"),
    (),
], ids=["bad-float", "unknown-option", "missing-option", "no-command"])
def test_argument_error_is_usage_error(capsys, argv):
    # argparse's own errors: one line and exit 64, not usage text and exit 2
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert_one_error_line(err)


def test_fault_in_analysis_propagates(capsys, monkeypatch):
    # a plain ValueError from inside the pipeline is a bug, not bad input
    def broken_check_pair(pair, tol):
        raise BadBracket("no sign change in the bracket")

    monkeypatch.setattr("monoratio.cli.check_pair", broken_check_pair)
    with pytest.raises(BadBracket):
        main(["analyze", "--f", "x^2", "--g", "x", "--window", "0.1", "10",
              "--grid-n", "256"])


@pytest.mark.parametrize("argv,code", [
    (("analyze", "--f", "x +* 2", "--g", "x", "--window", "1", "2"), 1),
    (("analyze", "--f", "x", "--g", "sin(x)", "--window", "0.5", "3",
      "--grid-n", "256"), 2),
    (("analyze", "--f", "x", "--g", "x", "--window", "2", "1"), 64),
    (("analyze", "--f", "x", "--g", "x", "--window", "0.5", "2", "--bogus"), 64),
], ids=["parse", "assumption", "usage", "argparse"])
def test_process_exit_code_and_one_stderr_line(argv, code):
    src = str(Path(monoratio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "monoratio.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert_one_error_line(proc.stderr)


def test_verify_small_campaign(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "42", "--cases", "4",
                      "--grid-n", "512")
    assert code == 0
    summary = json.loads(out)
    assert summary["cases"] == 4
    assert summary["failing_seeds"] == []
    assert summary["checks"]["prop1"] == {"pass": 4, "fail": 0}


def test_verify_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--seed", "42", "--cases", "1",
                      "--grid-n", "256")
    _, second, _ = run(capsys, "verify", "--seed", "42", "--cases", "1",
                       "--grid-n", "256")
    assert first == second


def test_verify_zero_cases_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--cases", "0")
    assert code == 64


@pytest.mark.parametrize("error", [
    monoratio.QuadratureError(-0.5, 0.25, 3e-9), monoratio.DomainFault(0.5, "log of non-positive argument"),
    monoratio.ValidationError(1.5, "rho is not monotone on the window"), monoratio.ZeroG(-0.0),
    monoratio.ZeroGPrime(2.0), monoratio.SignChange(0.1, "f"), monoratio.ParseError(3, "unexpected token '*'", "'('"),
    monoratio.ParseError(0, "empty expression"), monoratio.StaircaseError("slopes must be positive")],
    ids=lambda error: type(error).__name__)
def test_a_case_error_reaches_the_parent_as_its_line(capsys, monkeypatch, error):
    import monoratio.cli as cli

    def random_pair(seed, config):
        if seed == 1:
            raise error
        return monoratio.random_pair(seed, config)

    monkeypatch.setattr(cli, "random_pair", random_pair)
    line = f"{type(error).__name__}: {error}"
    config = monoratio.GeneratorConfig(grid_n=256)
    assert cli._verify_case(1, config, monoratio.Tolerances()) == \
        (tuple((name, False) for name in cli.CHECK_NAMES), line)
    code, out, err = run(capsys, "verify", "--seed", "0", "--cases", "2", "--grid-n", "256")
    assert code == 3 and json.loads(out)["failing_seeds"] == [1]
    assert err == f"error: seed 1: {line}\n"


def test_verify_lets_a_bad_bracket_propagate(monkeypatch):
    # a bug, as under analyze: not a failing seed
    import monoratio.cli as cli

    def random_pair(seed, config):
        if seed == 1:
            raise BadBracket("no sign change in [0, 1]")
        return monoratio.random_pair(seed, config)

    monkeypatch.setattr(cli, "random_pair", random_pair)
    with pytest.raises(BadBracket, match=r"^no sign change in \[0, 1\]$"):
        main(["verify", "--seed", "0", "--cases", "2", "--grid-n", "256"])


def test_verify_survives_a_faulting_case(capsys):
    # random_pair raises QuadratureError for seeds 0-3 at this tolerance;
    # the campaign once ended at seed 0 with exit 2 and no summary
    code, out, err = run(capsys, "verify", "--seed", "0", "--cases", "4",
                         "--quad-tol", "1e-30")
    assert code == 3
    summary = json.loads(out)
    assert summary["failing_seeds"] == [0, 1, 2, 3]
    assert summary["checks"] == {name: {"pass": 0, "fail": 4} for name in
                                 ("prop1", "prop2", "uniqueness", "sign_identity")}
    lines = err.splitlines()
    assert len(lines) == 4 and "Traceback" not in err
    for seed, line in zip(range(4), lines):
        assert line.startswith(f"error: seed {seed}: QuadratureError: quadrature did not converge")
        # each failing panel is about 4e-15 wide: its ends, once printed
        # with :g, read alike
        ends = line[line.index("[") + 1:line.index("]")].split(", ")
        lo, hi = map(float, ends)
        assert lo < hi and ends == [repr(lo), repr(hi)]


@pytest.mark.parametrize("extra", [(), ("--quad-tol", "1e-30")], ids=["default", "faulting"])
def test_verify_seed_ranges_split_a_campaign(capsys, extra):
    # each case depends on its seed alone, so disjoint --seed/--cases ranges
    # run side by side add up to the whole campaign, as the README advises
    def verify(seed, cases):
        code, out, err = run(capsys, "verify", "--seed", str(seed), "--cases", str(cases),
                             "--grid-n", "256", *extra)
        return code, json.loads(out), err

    (code, whole, err), parts = verify(0, 4), (verify(0, 2), verify(2, 2))
    assert code == max(part[0] for part in parts)
    assert whole["failing_seeds"] == [s for part in parts for s in part[1]["failing_seeds"]]
    assert whole["checks"] == {
        name: {key: sum(part[1]["checks"][name][key] for part in parts) for key in counts}
        for name, counts in whole["checks"].items()}
    assert err == "".join(part[2] for part in parts)


def test_verify_counts_a_faulting_case_among_passing_ones(capsys, monkeypatch):
    import monoratio.cli as cli

    def random_pair(seed, config):
        if seed == 43:
            raise monoratio.DomainFault(0.25, "log of non-positive argument")
        return monoratio.random_pair(seed, config)

    monkeypatch.setattr(cli, "random_pair", random_pair)
    code, out, err = run(capsys, "verify", "--seed", "42", "--cases", "3", "--grid-n", "256")
    assert code == 3
    summary = json.loads(out)
    assert summary["failing_seeds"] == [43]
    assert all(counts == {"pass": 2, "fail": 1} for counts in summary["checks"].values())
    assert err == f"error: seed 43: DomainFault: {monoratio.DomainFault(0.25, 'log of non-positive argument')}\n"


def _analyze(capsys, f):
    return run(capsys, "analyze", "--f", f, "--g", "exp(x)", "--window", "0", "1",
               "--grid-n", "256")


@pytest.mark.parametrize("f,offset", [
    ("+".join(f"{k}*x" for k in range(1, 1501)), 485),  # a flat sum, a deep tree
    ("(" * 300 + "x" + ")" * 300, 99),
])
def test_too_deep_expression_is_a_parse_error(capsys, f, offset):
    code, out, err = _analyze(capsys, f)
    assert code == 1 and out == ""
    assert_one_error_line(err)
    assert f"nested deeper than {MAX_DEPTH} levels at offset {offset}" in err


@pytest.mark.parametrize("f", [
    "+".join(f"{k}*x" for k in range(1, 100)),  # 98 + levels over 2-level terms
    "(" * 99 + "x" + ")" * 99,
    "-" * 97 + "(x - 0.3)",  # f changes sign: probes make scalar calls
])
def test_expression_at_the_depth_bound_gets_a_report(capsys, f):
    code, out, _ = _analyze(capsys, f)
    assert code in (0, 3)
    assert json.loads(out)["checks"]


# (rho, sign of gg', r family, rho-tilde direction), the paper's rule rows
_RULES = [("Up", 1, "DownUp", "Up"), ("Down", 1, "UpDown", "Down"),
          ("Up", -1, "UpDown", "Down"), ("Down", -1, "DownUp", "Up")]


def test_tables_text(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    title, header, *rows = out.splitlines()
    assert "flat [c, d]" in title and "c = d" in title
    assert header.split() == ["rho", "gg'", "r", "rho_tilde"]
    sgg = {1: "> 0", -1: "< 0"}
    assert [row.split() for row in rows] == [
        [rho, *sgg[s].split(), r, rt] for rho, s, r, rt in _RULES]


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--json")
    assert code == 0
    assert json.loads(out) == {"rules": [
        {"rho": rho, "sign_gg": s, "r": r, "rho_tilde": rt} for rho, s, r, rt in _RULES]}


def test_every_exported_name_resolves():
    # an export left behind by a move would fail only at `from monoratio import *`
    assert len(set(monoratio.__all__)) == len(monoratio.__all__)
    assert [name for name in monoratio.__all__ if not hasattr(monoratio, name)] == []
