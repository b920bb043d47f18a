import csv
import json

import pytest

from monoratio.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_happy_path(capsys):
    code, out, _ = run(capsys, "analyze", "--f", "x^2", "--g", "x",
                       "--window", "0.1", "10", "--grid-n", "256")
    assert code == 0
    report = json.loads(out)
    assert report["observed_pattern"] == "Increasing"
    assert report["predicted_family"] == "DownUp"
    assert report["sign_gg"] == 1
    assert all(report["checks"].values())


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


@pytest.mark.parametrize("threads", ["abc", "0", "-3"])
def test_verify_bad_thread_count_is_usage_error(capsys, monkeypatch, threads):
    monkeypatch.setenv("MONOTONE_RATIO_THREADS", threads)
    code, out, err = run(capsys, "verify", "--cases", "1", "--grid-n", "256")
    assert code == 64
    assert out == ""
    assert len(err.splitlines()) == 1 and "MONOTONE_RATIO_THREADS" in err


@pytest.mark.parametrize("cases,cpus,workers", [(3, 8, 3), (6, 4, 4)])
def test_verify_thread_count_is_capped(capsys, monkeypatch, cases, cpus, workers):
    import concurrent.futures

    seen = []

    class SerialPool:  # records the requested size, spawns nothing
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    monkeypatch.setenv("MONOTONE_RATIO_THREADS", "1000")
    code, out, _ = run(capsys, "verify", "--cases", str(cases), "--grid-n", "256")
    assert seen == [workers]
    assert code == 0 and json.loads(out)["cases"] == cases


def test_tables_text(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert "Table 1" in out and "Table 3" in out
    assert "Up     > 0    DownUp" in out
    assert "Down   < 0    DownUp" in out
    assert "Down   < 0    Up" in out


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--json")
    assert code == 0
    tables = json.loads(out)
    assert {len(tables[k]) for k in ("table1", "table2", "table3")} == {4}
    assert tables["table2"][0] == {"rho": "Up", "sign_gg": 1, "r": "DownUp",
                                   "switch": "flat [c, d]"}
    assert tables["table3"][3] == {"rho": "Down", "sign_gg": -1,
                                   "rho_tilde": "Up"}
