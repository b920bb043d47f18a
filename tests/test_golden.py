"""Golden reports: pinned outputs for a fixed corpus, so a refactor that
claims "same behaviour" is checked against what the program printed
before it.

The corpus is the README's ``analyze`` and ``construct`` examples, the
failing ``sin(x)/x`` pair, ``random_pair`` seeds 0-63, the
``verify --seed 0 --cases 64`` summary and the ``tables`` output (text
and ``--json``).  Kinds, flags, counts and strings must match exactly;
floats within 1e-12*(1 + |v|).  The files under ``golden/`` hold
``json.dumps(..., indent=1, sort_keys=True)`` of what the helpers below
return, written by the commit that introduced them; a deliberate
behaviour change rewrites them and says why in CHANGES.md.
"""

import json
import math
from pathlib import Path

import pytest

import monoratio as mr
from monoratio.cli import main

GOLDEN = Path(__file__).parent / "golden"
FLOAT_RTOL = 1e-12
RANDOM_SEEDS = range(64)

# the README's staircase example
STAIRCASE = {"flats": [[-1.0, 1.0]], "slopes": [1.0, 1.0], "direction": "up",
             "anchor_value": 0.0}


def _analyze(f_text: str, g_text: str, lo: float, hi: float) -> dict:
    pair = mr.make_pair(mr.expr_fn(f_text), mr.expr_fn(g_text), mr.Interval(lo, hi))
    return mr.check_pair(pair).to_dict()


def _construct(rho) -> dict:
    g = mr.expr_fn("exp(x)")
    window = mr.Interval(-2.0, 2.0)
    f = mr.construct_f(g, rho, 0.0, rho(0.0)[0], window)
    return mr.check_pair(mr.make_pair(f, g, window)).to_dict()


def readme_reports() -> dict:
    return {
        "analyze x^2 / x [0.1, 10]": _analyze("x^2", "x", 0.1, 10.0),
        "analyze exp(-x) / x [0.5, 4]": _analyze("exp(-x)", "x", 0.5, 4.0),
        "analyze sin(x) / x [0.1, 5]": _analyze("sin(x)", "x", 0.1, 5.0),
        "construct staircase / exp(x) [-2, 2]": _construct(
            mr.make_staircase_rho(mr.StaircaseSpec.from_json_dict(STAIRCASE))),
        "construct atan(x) / exp(x) [-2, 2]": _construct(mr.expr_fn("atan(x)")),
    }


def random_pair_reports() -> dict:
    return {str(seed): mr.check_pair(mr.random_pair(seed)[0]).to_dict()
            for seed in RANDOM_SEEDS}


def cli_output(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def assert_matches(actual, expected, path: str = "$") -> float:
    """Compare two JSON trees; returns the worst relative float drift."""
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isnan(expected):
            assert math.isnan(actual), path
            return 0.0
        drift = abs(actual - expected) / (1.0 + abs(expected))
        assert drift <= FLOAT_RTOL, f"{path}: {actual!r} != {expected!r}"
        return drift
    assert type(actual) is type(expected), f"{path}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), path
        return max((assert_matches(actual[k], expected[k], f"{path}.{k}")
                    for k in expected), default=0.0)
    if isinstance(expected, list):
        assert len(actual) == len(expected), path
        return max((assert_matches(a, e, f"{path}[{i}]")
                    for i, (a, e) in enumerate(zip(actual, expected))), default=0.0)
    assert actual == expected, f"{path}: {actual!r} != {expected!r}"
    return 0.0


def _roundtrip(payload):
    """What a JSON reader of the report sees (tuples become lists)."""
    return json.loads(json.dumps(payload))


def test_readme_reports_match_golden():
    assert_matches(_roundtrip(readme_reports()), _load("readme_reports.json"))


def test_random_pair_reports_match_golden():
    assert_matches(_roundtrip(random_pair_reports()), _load("random_pair_reports.json"))


def test_verify_summary_matches_golden(capsys):
    out = cli_output(capsys, "verify", "--seed", "0", "--cases", "64")
    assert_matches(json.loads(out), _load("verify_seed0_cases64.json"))


@pytest.mark.parametrize("argv, name", [(("tables",), "tables.txt"),
                                        (("tables", "--json"), "tables.json")])
def test_tables_match_golden(capsys, argv, name):
    assert cli_output(capsys, *argv) == (GOLDEN / name).read_text()
