"""One workload process: set up, signal READY, then run the closed loop.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE

MODE is ``probe`` (set up and exit: a set-up time sample), ``run`` (the
timed loop, tracing off) or ``trace`` (untraced and traced passes over a
fixed case list).  Set-up is ``import monoratio`` in the fresh interpreter
and the untimed warm-up; the worker times it and reports it on the READY
line.  The result is one JSON line on stdout.

Times are reported in reference time (see ``speed.py``): the yardstick is
timed between every two steps (the import, each warm-up case, each timed
case), and each step's wall time is scaled by the mean of the readings
just before and just after it.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WARMUP_CASES = 3


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (q=5: median, q=9: p90)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[q - 1]


def run_one(wl, i: int, errors: list[str], tracer=None) -> tuple[float, bool]:
    """Run case i; returns (seconds in the case body, correct?).  Input
    generation and the oracle stay outside the timed interval."""
    inp = wl.case_input(i)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run_case(inp)
        else:
            out = tracer.case(i, lambda: wl.run_case(inp))
    except Exception:  # a crashed case is a failed case; keep going
        dt = time.perf_counter() - t0
        errors.append(f"case {i}: {traceback.format_exc(limit=3)}")
        return dt, False
    dt = time.perf_counter() - t0
    try:
        ok = bool(wl.check(inp, out))
    except Exception:
        errors.append(f"case {i} oracle: {traceback.format_exc(limit=3)}")
        ok = False
    return dt, ok


class Bracketed:
    """Runs cases with the yardstick timed between every two of them, and
    keeps the tally of attempted and failed cases."""

    def __init__(self, wl):
        self.wl = wl
        self.errors: list[str] = []
        self.factors: list[float] = []
        self.attempted = self.failed = 0
        self.before = speed.yardstick_ms()

    def run(self, i: int, tracer=None) -> tuple[float, float]:
        """Run case i; returns its (wall, reference) time in ms."""
        dt, ok = run_one(self.wl, i, self.errors, tracer)
        after = speed.yardstick_ms()
        self.factors.append(speed.REF_MS / (0.5 * (self.before + after)))
        self.before = after
        self.attempted += 1
        self.failed += not ok
        return 1e3 * dt, 1e3 * dt * self.factors[-1]

    def tally(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors[:5]}


def timed_loop(wl, seconds: float, max_cases: int | None = None) -> dict:
    """Closed loop on one thread: case i+1 starts when case i has ended."""
    cases = Bracketed(wl)
    wall_ms, ms = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and (max_cases is None
                                                     or len(ms) < max_cases):
        wall, ref = cases.run(len(ms))
        wall_ms.append(wall)
        ms.append(ref)
    p90 = quantile(ms, 9)
    return dict(cases.tally(),
                case_ms_p50=quantile(ms, 5),
                case_ms_p90=p90,
                above_p90=sum(1 for v in ms if v > p90),
                cases_per_s=1e3 * len(ms) / sum(ms) if ms else 0.0,
                wall_ms_p50=quantile(wall_ms, 5),
                speed_factor_p50=quantile(cases.factors, 5))


def traced_loop(wl, seconds: float) -> dict:
    """Passes over the first ``wl.trace_cases`` cases, each pass untraced
    and then traced, until ``seconds`` have passed (at least one pass).
    Every pass repeats the same cases, so per-case counts are exact."""
    from tracing import Tracer

    tracer = Tracer()
    cases = Bracketed(wl)
    plain_ms: list[float] = []
    traced_ms: list[float] = []
    start = time.perf_counter()
    while True:
        plain_ms.extend(cases.run(i)[1] for i in range(wl.trace_cases))
        tracer.install()
        try:
            traced_ms.extend(cases.run(i, tracer)[1] for i in range(wl.trace_cases))
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            break
    # span times are scaled by the run's median factor, counts are exact
    factor = quantile(cases.factors, 5)
    metrics = {name: value * factor if name.endswith(("_ms", "_us")) else value
               for name, value in tracer.per_layer().items()}
    metrics["trace.overhead_ms"] = quantile(traced_ms, 5) - quantile(plain_ms, 5)
    return dict(cases.tally(), per_layer=metrics, absent_layers=sorted(tracer.absent))


def setup(workload: str, seed: int):
    """Import the program, build the workload, warm up; returns the
    workload and the set-up breakdown: wall seconds of the import and of
    the warm-up, and their sum in reference seconds."""
    speed.yardstick_ms()  # the first reading in a fresh interpreter runs cold
    before = speed.yardstick_ms()
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import monoratio  # noqa: F401  (timed on its own)
    import workloads
    wl = workloads.WORKLOADS[workload](seed)
    import_s = time.perf_counter() - t0
    warm = Bracketed(workloads.WORKLOADS[workload](workloads.WARMUP_SEED))
    ref_s = import_s * speed.REF_MS / (0.5 * (before + warm.before))
    warmup_s = 0.0
    for k in range(WARMUP_CASES):
        wall, ref = warm.run(workloads.WARMUP_BASE + k)
        warmup_s += 1e-3 * wall
        ref_s += 1e-3 * ref
    return wl, {"import_s": import_s, "warmup_s": warmup_s, "ref_s": ref_s}


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    wl, breakdown = setup(workload, seed)
    print("READY", json.dumps(breakdown), flush=True)
    if mode == "probe":
        return 0
    if mode == "run":
        result = timed_loop(wl, seconds)
    else:
        result = traced_loop(wl, seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
