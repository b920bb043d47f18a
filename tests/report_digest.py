"""Digests of ``check_pair``'s reports: two sha256s that read the same on
two commits when every report below is the same, float for float.

    python tests/report_digest.py      # about five seconds

Each digest is one sha256 updated, in order, with
``json.dumps(check_pair(pair).to_dict(), sort_keys=True)`` for each pair:

- ``random_pair``: the pairs of ``random_pair(seed)``, seeds 0-199 and
  100000-100199 (constructed ``f``, template ``g``);
- ``expr_analyze``: the pairs of the benchmark's ``ExprAnalyze(3)``,
  cases 0-299 (parsed expressions, a quarter negative controls).

The floats come from libm, so the digests may differ between hosts; they
compare commits on one host, and assert nothing.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from monoratio import construct, rules  # noqa: E402
from perfbench.workloads import ExprAnalyze  # noqa: E402

SEEDS = [*range(200), *range(100_000, 100_200)]
EXPR_SEED, EXPR_CASES = 3, 300


def digest(reports) -> str:
    h = hashlib.sha256()
    for report in reports:
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def main() -> int:
    pairs = (construct.random_pair(seed)[0] for seed in SEEDS)
    print(f"random_pair  {digest(map(rules.check_pair, pairs))}")
    workload = ExprAnalyze(EXPR_SEED)  # run_case: parse, make_pair, check_pair
    cases = map(workload.case_input, range(EXPR_CASES))
    print(f"expr_analyze {digest(map(workload.run_case, cases))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
