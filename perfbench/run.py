"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` every per-layer metric.  Human-readable lines come
first; the last line of stdout is the JSON result.

This process never imports the program.  Set-up time is measured on
``SETUP_SAMPLES`` fresh worker interpreters (``worker.py``): the one that
runs the timed loop, and others that only set up and exit, half of them
before the timed loop and half after it.  ``setup_s`` is the median of the
set-up times they report, in reference time (``speed.py``).
The workload runs in one process, on one thread, in a closed loop, with
``MONOTONE_RATIO_THREADS`` unset.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15
# a worker may overrun --seconds by its set-up and one last case
WORKER_GRACE_S = 60.0


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def run_metadata() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, mode: str) -> tuple[float, dict, dict | None]:
    """Start a fresh worker; returns (its set-up in reference seconds, its
    set-up breakdown, its result or None for a probe).  The worker is
    always waited for, and killed if it overruns."""
    env = {k: v for k, v in os.environ.items() if k != "MONOTONE_RATIO_THREADS"}
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(seconds), mode]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        if not ready.startswith("READY "):
            raise WorkerError(f"{workload} worker failed during set-up")
        breakdown = json.loads(ready.split(" ", 1)[1])
        rest, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker overran its time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return breakdown["ref_s"], breakdown, (json.loads(lines[-1]) if lines else None)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "monoratio" / "__init__.py").is_file():
        print(f"error: no monoratio sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("meta", json.dumps(run_metadata()))

    try:
        if args.trace:
            metrics, result = traced(args, spec)
        else:
            metrics, result = timed(args, spec)
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for message in result["errors"]:
        print(message, file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_frac {failed / attempted if attempted else 1.0:.6g}  "
          f"({failed} of {attempted} cases wrong or crashed)")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def timed(args, spec: dict) -> tuple[dict, dict]:
    # set-up samples come before and after the timed loop, so that they
    # span the run and not one phase of the host's load; the timed worker's
    # own set-up is one of them
    samples = [run_worker(args.workload, args.seed, args.seconds, "probe")
               for _ in range(SETUP_SAMPLES // 2)]
    samples.append(run_worker(args.workload, args.seed, args.seconds, "run"))
    result = samples[-1][2]
    samples += [run_worker(args.workload, args.seed, args.seconds, "probe")
                for _ in range(SETUP_SAMPLES - len(samples))]
    setups = [setup_s for setup_s, _, _ in samples]
    breakdowns = [breakdown for _, breakdown, _ in samples]
    values = dict(result, setup_s=statistics.median(setups))
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<14} {values[m['name']]:>12.6g} {m['unit']}")
    print(f"samples {result['attempted']}, {result['above_p90']} above p90; "
          f"raw wall p50 {result['wall_ms_p50']:.4g} ms at median speed factor "
          f"{result['speed_factor_p50']:.3f}")
    print(f"set-up: median of {SETUP_SAMPLES} fresh interpreters; wall import "
          f"{statistics.median(b['import_s'] for b in breakdowns):.4f} s, warm-up "
          f"{statistics.median(b['warmup_s'] for b in breakdowns):.4f} s")
    return metrics, result


def traced(args, spec: dict) -> tuple[dict, dict]:
    _, _, result = run_worker(args.workload, args.seed, args.seconds, "trace")
    values = result["per_layer"]
    metrics = {}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
    if result["absent_layers"]:
        print("absent layers (their metrics read 0):", ", ".join(result["absent_layers"]))
    return metrics, result


if __name__ == "__main__":
    sys.exit(main())
