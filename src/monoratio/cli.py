"""Command-line front door.

Subcommands:
    analyze    analyze a user-supplied (f, g) pair
    construct  build f from (g, rho, z, K) and analyze the result
    verify     run a seeded campaign of generated pairs through all checks
    tables     print the encoded rule table

Exit codes: 0 all checks passed, 1 expression or staircase parse error,
2 a standing assumption failed, 3 at least one check failed, 64 usage
error or a file that cannot be read or written.  Handlers raise and main
maps each failure family to its code.  MONOTONE_RATIO_THREADS caps verify
parallelism (also capped at the CPU count and the number of cases).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .construct import (GeneratorConfig, QuadratureError, StaircaseError,
                        StaircaseSpec, construct_f, make_staircase_rho,
                        random_pair)
from .expr import DomainFault, ExprFn, ParseError, parse
from .intervals import Interval
from .ratio import ValidationError, check_grid, make_pair, sample_table
from .rules import RULE_ROWS, Tolerances, check_pair

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_CHECKS_FAILED = 3
EXIT_USAGE = 64


def _emit_json(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(pair, path: str) -> None:
    table = sample_table(pair, pair.grid_n)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "f", "g", "r", "rho", "rho_tilde"])
        for i, x in enumerate(table.xs):
            writer.writerow([repr(x), repr(table.f_values[i]), repr(table.g_values[i]),
                             repr(table.r[i]), repr(table.rho[i]),
                             repr(table.rho_tilde[i])])


class _UsageError(Exception):
    """A command line the run cannot use."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors (subcommands' too) raise _UsageError
    inside main's boundary instead of printing usage and exiting 2, and
    which reads every token float() accepts (-1e-3, -inf) as a value."""

    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _checked_tolerances(args, windows) -> Tolerances:
    """The run's tolerances, after checking the grid against every window
    it will sample; raises _UsageError if either is unusable."""
    try:
        for lo, hi in windows:
            check_grid(lo, hi, args.grid_n)
        if "quad_tol" in args and not (math.isfinite(args.quad_tol) and args.quad_tol > 0.0):
            raise ValueError(f"--quad-tol must be finite and above 0, got {args.quad_tol!r}")
        return Tolerances(tol_zero=args.tol_zero)
    except ValueError as err:
        raise _UsageError(err) from None


def _analyze_pair(pair, args, tol: Tolerances) -> int:
    report = check_pair(pair, tol)
    if args.csv:
        _emit_csv(pair, args.csv)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK if report.all_ok else EXIT_CHECKS_FAILED


def cmd_analyze(args) -> int:
    tol = _checked_tolerances(args, [args.window])
    f = ExprFn(parse(args.f), label=args.f)
    g = ExprFn(parse(args.g), label=args.g)
    return _analyze_pair(make_pair(f, g, Interval(*args.window), args.grid_n), args, tol)


def cmd_construct(args) -> int:
    tol = _checked_tolerances(args, [args.window])
    if (args.staircase is None) == (args.rho is None):
        raise _UsageError("give exactly one of --staircase or --rho")
    window = Interval(*args.window)
    if not (math.isfinite(args.z) and window.contains(args.z)):
        raise _UsageError(f"--z must be finite and in the window {window}, got {args.z!r}")
    if args.K is not None and not math.isfinite(args.K):
        raise _UsageError(f"--K must be finite, got {args.K!r}")
    g = ExprFn(parse(args.g), label=args.g)
    if args.staircase:
        with open(args.staircase, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except UnicodeDecodeError as err:
                raise StaircaseError(f"malformed staircase spec: {err}") from None
        rho = make_staircase_rho(StaircaseSpec.from_json_dict(data))
    else:
        rho = ExprFn(parse(args.rho), label=args.rho)
    k = args.K if args.K is not None else rho(args.z)[0]
    f = construct_f(g, rho, args.z, k, window, args.quad_tol)
    return _analyze_pair(make_pair(f, g, window, args.grid_n), args, tol)


def _verify_case(case_seed: int, grid_n: int, tol_zero: float,
                 quad_tol: float) -> dict:
    config = GeneratorConfig(grid_n=grid_n, quad_tol=quad_tol)
    pair, _, _ = random_pair(case_seed, config)
    report = check_pair(pair, Tolerances(tol_zero=tol_zero))
    return {
        "seed": case_seed,
        "prop1": report.prop1_ok,
        "prop2": report.prop2_ok,
        "uniqueness": report.uniqueness_ok,
        "sign_identity": report.sign_identity_ok,
    }


def cmd_verify(args) -> int:
    if args.cases < 1:
        raise _UsageError("--cases must be at least 1")
    _checked_tolerances(args, GeneratorConfig().windows)
    raw_threads = os.environ.get("MONOTONE_RATIO_THREADS", "1") or "1"
    try:
        threads = int(raw_threads)
    except ValueError:
        threads = 0
    if threads < 1:
        raise _UsageError("MONOTONE_RATIO_THREADS must be a positive integer, "
                          f"got {raw_threads!r}")
    seeds = [args.seed + i for i in range(args.cases)]
    threads = min(threads, os.cpu_count() or 1, len(seeds))
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                _verify_case, seeds,
                [args.grid_n] * len(seeds), [args.tol_zero] * len(seeds),
                [args.quad_tol] * len(seeds)))
    else:
        results = [_verify_case(s, args.grid_n, args.tol_zero, args.quad_tol)
                   for s in seeds]
    # results arrive in seed order either way, so output is deterministic
    checks = ("prop1", "prop2", "uniqueness", "sign_identity")
    summary = {
        "seed": args.seed,
        "cases": args.cases,
        "grid_n": args.grid_n,
        "tol_zero": args.tol_zero,
        "quad_tol": args.quad_tol,
        "checks": {
            name: {
                "pass": sum(1 for r in results if r[name]),
                "fail": sum(1 for r in results if not r[name]),
            }
            for name in checks
        },
        "failing_seeds": sorted({r["seed"] for r in results
                                 if not all(r[name] for name in checks)}),
    }
    _emit_json(summary, args.out)
    return EXIT_OK if not summary["failing_seeds"] else EXIT_CHECKS_FAILED


def _rules_payload() -> dict:
    return {"rules": [{"rho": row.rho_dir.value, "sign_gg": row.sign_gg,
                       "r": row.r_family.value, "rho_tilde": row.rho_tilde_dir.value}
                      for row in RULE_ROWS]}


def cmd_tables(args) -> int:
    if args.json:
        _emit_json(_rules_payload(), args.out)
        return EXIT_OK
    sgg = {1: "> 0", -1: "< 0"}
    print("Monotonicity rules (r switches on a flat [c, d], a point when c = d)")
    print("  rho    gg'    r        rho_tilde")
    for row in RULE_ROWS:
        print(f"  {row.rho_dir.value:<6} {sgg[row.sign_gg]:<6} {row.r_family.value:<8} "
              f"{row.rho_tilde_dir.value}")
    if args.out:
        _emit_json(_rules_payload(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monoratio",
        description="Monotonicity-pattern analysis of ratios f/g via the "
                    "derivative ratio f'/g'.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, window=True):
        if window:
            p.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"),
                           required=True, help="finite analysis window")
        p.add_argument("--grid-n", type=int, default=2048, dest="grid_n",
                       help="analysis grid size (default 2048)")
        p.add_argument("--tol-zero", type=float, default=1e-7, dest="tol_zero",
                       help="relative zero tolerance (default 1e-7)")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p_analyze = sub.add_parser("analyze", help="analyze a ratio f/g")
    p_analyze.add_argument("--f", required=True, help="numerator expression")
    p_analyze.add_argument("--g", required=True, help="denominator expression")
    add_common(p_analyze)
    p_analyze.add_argument("--csv", help="dump x,f,g,r,rho,rho_tilde samples here")
    p_analyze.set_defaults(handler=cmd_analyze)

    p_con = sub.add_parser("construct",
                           help="build f from (g, rho, z, K) and analyze f/g")
    p_con.add_argument("--g", required=True, help="denominator expression")
    p_con.add_argument("--rho", help="derivative-ratio expression")
    p_con.add_argument("--staircase", help="staircase rho spec (JSON file)")
    p_con.add_argument("--z", type=float, required=True,
                       help="anchor point inside the chosen constancy interval")
    p_con.add_argument("--K", type=float, default=None,
                       help="ratio value at z (default: rho(z))")
    p_con.add_argument("--quad-tol", type=float, default=1e-10, dest="quad_tol",
                       help="quadrature tolerance (default 1e-10)")
    add_common(p_con)
    p_con.add_argument("--csv", help="dump x,f,g,r,rho,rho_tilde samples here")
    p_con.set_defaults(handler=cmd_construct)

    p_verify = sub.add_parser("verify",
                              help="run seeded generated pairs through all checks")
    p_verify.add_argument("--seed", type=int, default=0, help="base seed")
    p_verify.add_argument("--cases", type=int, default=100,
                          help="number of generated pairs")
    p_verify.add_argument("--quad-tol", type=float, default=1e-10, dest="quad_tol")
    add_common(p_verify, window=False)
    p_verify.set_defaults(handler=cmd_verify)

    p_tables = sub.add_parser("tables", help="print the encoded rule table")
    p_tables.add_argument("--json", action="store_true",
                          help="emit JSON instead of text")
    p_tables.add_argument("--out", help="also write the JSON table here")
    p_tables.set_defaults(handler=cmd_tables)
    return parser


def main(argv=None) -> int:
    """Run one command, mapping each failure family to its exit code and one
    stderr line; any other exception (BadBracket too) is a fault and propagates."""
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ParseError, StaircaseError, json.JSONDecodeError) as err:
        code, message = EXIT_PARSE, str(err)
    except (ValidationError, DomainFault, QuadratureError) as err:
        code, message = EXIT_VALIDATION, f"assumption violated: {err}"
    except (_UsageError, OSError) as err:
        code, message = EXIT_USAGE, str(err)
    print(f"error: {message}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
