"""The benchmark's own tests, at tiny size.

    python3 -m pytest perfbench -q

They check that every workload runs end to end through the command the
benchmark is driven by, that each oracle catches a planted defect, that
per-layer counts repeat exactly and show the workloads isolate layers,
and that the benchmark refuses to run without the program's sources.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from monoratio import construct, expr  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", NAMES)
def test_workload_runs_end_to_end(workload):
    out = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and value["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    out = _run(["--workload", "construct_build", "--seed", "3", "--seconds", "1",
                "--trace", "1"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "campaign", "--seed", "0", "--seconds", "1"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# -- oracles catch planted defects ----------------------------------------

def _failures(workload, cases, seed=0):
    result = worker.timed_loop(workloads.WORKLOADS[workload](seed), 60.0, max_cases=cases)
    assert result["attempted"] == cases
    return result["failed"]


@pytest.mark.parametrize("workload,cases", [("campaign", 4), ("expr_analyze", 3),
                                            ("construct_build", 8)])
def test_unplanted_cases_pass(workload, cases):
    assert _failures(workload, cases) == 0


def test_campaign_oracle_catches_perturbed_f(monkeypatch):
    real = construct.construct_f

    def bent(*args, **kwargs):
        f = real(*args, **kwargs)

        def f_plus(x):  # f + 1e-3 x^2
            v, d = f(x)
            return v + 1e-3 * x * x, d + 2e-3 * x
        return f_plus

    monkeypatch.setattr(construct, "construct_f", bent)
    assert _failures("campaign", 4) > 0


def test_expr_oracle_catches_mislabelled_negative(monkeypatch):
    real = workloads.ExprAnalyze.case_input

    def all_positive(self, i):
        return dataclasses.replace(real(self, i), positive=True)

    monkeypatch.setattr(workloads.ExprAnalyze, "case_input", all_positive)
    assert _failures("expr_analyze", 3) > 0  # case 2 is a negative control


def test_construct_oracle_catches_wrong_K(monkeypatch):
    real = construct.construct_f

    def off_by(g, rho, z, K, *args, **kwargs):
        return real(g, rho, z, K + 1e-3, *args, **kwargs)

    monkeypatch.setattr(construct, "construct_f", off_by)
    assert _failures("construct_build", 8) == 8


def test_construct_oracle_catches_table_bent_outside_the_flat(monkeypatch):
    # as if one panel of the cumulative table were off: f jumps by 1e-6
    # past a point beyond z and every flat, where f' and r = K still hold
    real = construct.construct_f

    def bent(g, rho, z, K, window, *args, **kwargs):
        f = real(g, rho, z, K, window, *args, **kwargs)
        last = max((z, *getattr(rho, "breakpoints", ())))
        x0 = 0.5 * (last + window.hi)

        def f_bent(x):
            v, d = f(x)
            return (v + 1e-6 if x > x0 else v), d
        return f_bent

    monkeypatch.setattr(construct, "construct_f", bent)
    assert _failures("construct_build", 8) > 0


# -- negative controls ------------------------------------------------------

def test_sin_of_reciprocal_is_not_a_negative():
    # sin(3u) with u = 1/(x+4) on [-2, 2]: 3u stays in [0.5, 1.5], where
    # cos is monotone, so this rho is monotone and must not be a negative
    us = [1.0 / (x / 100.0 + 4.0) for x in range(-200, 201)]
    rise, fall = workloads._rise_fall([3.0 * math.cos(3.0 * u) for u in us])
    assert min(rise, fall) == 0.0


def test_generated_labels_match_rho_monotonicity():
    wl = workloads.ExprAnalyze(5)
    for i in range(16):
        case = wl.case_input(i)
        assert f"({case.g_text})" in case.f_text
        f = expr.ExprFn(expr.parse(case.f_text))
        g = expr.ExprFn(expr.parse(case.g_text))
        lo, hi = case.window
        xs = [lo + (hi - lo) * (k + 0.5) / 512 for k in range(512)]
        rho = [f(x)[1] / g(x)[1] for x in xs]
        rise, fall = workloads._rise_fall(rho)
        monotone = min(rise, fall) <= 1e-9 * (rise + fall)
        assert monotone == case.positive, case


# -- tracing ----------------------------------------------------------------

def _traced(workload, cases=2):
    wl = workloads.WORKLOADS[workload](7)
    wl.trace_cases = cases
    result = worker.traced_loop(wl, 0.0)
    assert result["failed"] == 0 and not result["absent_layers"]
    return result["per_layer"]


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if not k.endswith(("_ms", "_us"))}


@pytest.mark.parametrize("workload", NAMES)
def test_per_layer_counts_repeat_exactly(workload):
    assert _counts(_traced(workload)) == _counts(_traced(workload))


def test_workloads_isolate_layers():
    campaign = _traced("campaign")
    assert campaign["expr.eval_calls"] == 0 and campaign["construct.queries"] > 0
    analyze = _traced("expr_analyze")
    assert analyze["expr.eval_calls"] > 0
    assert all(v == 0 for k, v in analyze.items() if k.startswith("construct."))
    build = _traced("construct_build")
    assert build["construct.build_integrand_evals"] > 0
    assert all(v == 0 for k, v in build.items()
               if k.startswith(("patterns.", "rules.")))


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.delattr(expr, "parse")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"expr"}
