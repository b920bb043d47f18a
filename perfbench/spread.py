"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py

Runs ``run.py`` once per seed 0-9 on every workload of BENCHMARK.json, as
it sets them up, and prints for every end-to-end metric the median of the
runs, the spread (distance between the first and third quartiles, as a
share of the median) and the metric's bound.  A spread at or above a third
of its bound is flagged, and makes the exit code 1.  fail_frac is printed
per workload from the runs' ``attempted``/``failed`` totals.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            results.append(result)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"== {workload}: fail_frac {failed / attempted:.6g} ({failed}/{attempted})")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            share = spread(values)
            ok = share < metric["bound"] / 3.0
            steady = steady and ok
            print(f"   {metric['name']:<14} median {statistics.median(values):>10.5g} "
                  f"{metric['unit']:<4} spread {share:7.4f}  bound {metric['bound']:.3f}"
                  f"{'' if ok else '  NOT STEADY'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
