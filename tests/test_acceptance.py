"""Acceptance suite: every gate criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v`; a one-line pass/fail summary
per criterion prints at the end of the session.  The 500-pair campaign is
computed once (session fixture) and shared by criteria 1-4.
"""

import math
import random
import time

import pytest

import monoratio as mr
from monoratio import PatternKind
from monoratio.ratio import median_abs

from conftest import record_criterion
from helpers import (central_fd, format_expr, mirror_vertical, pick_usable_point, random_ast,
                     reflect)

SWITCH_TOL = 1e-3          # observed switch vs the constructed chosen flat, in x
MIC_ENDPOINT_TOL = 1e-3    # constructed mic vs prescribed flat, in x
C_TOL = 1e-6               # fitted C on the ratio's own mic
ROUND_TRIP_TOL = 1e-9      # f'/g' vs rho, relative
QUAD_TOL = 1e-6            # catalog closed forms
AD_TOL = 1e-5              # dual derivative vs central difference, relative
CAMPAIGN_BUDGET_S = 60.0
CONSTRUCTOR_BUDGET_S = 120.0


def test_criterion_1_table_conformance(campaign):
    results, elapsed = campaign
    bad = []
    rows = set()
    worst = 0.0
    for seed, pair, spec, chosen, report in results:
        rows.add((spec.direction, pair.sign_gg))
        if not dict(report.checks)["prop1"]:
            bad.append(seed)
            continue
        # f is built to switch on the chosen flat (the point z when rho has
        # none), so r's observed switch must lie there
        sw = report.observed_pattern.switch
        distance = max(abs(sw.lo - chosen.lo), abs(sw.hi - chosen.hi))
        worst = max(worst, distance)
        if distance > SWITCH_TOL:
            bad.append(seed)
    ok = not bad and len(rows) == 4 and elapsed < CAMPAIGN_BUDGET_S
    record_criterion(1, "table conformance",
                     ok, f"{500 - len(bad)}/500 conform, {len(rows)}/4 rows, "
                         f"switch within {worst:.3g} of the chosen flat, {elapsed:.1f}s")
    assert not bad, f"failing seeds: {bad[:10]}"
    assert len(rows) == 4
    assert elapsed < CAMPAIGN_BUDGET_S, f"campaign took {elapsed:.1f}s"


def test_criterion_2_sign_identity(campaign):
    results, _ = campaign
    bad = [(seed, rep.sign_violations) for seed, _, _, _, rep in results
           if not dict(rep.checks)["sign_identity"]]
    total = sum(v for _, v in bad)
    record_criterion(2, "sign identity", not bad,
                     f"{total} violations across 500 pairs")
    assert not bad, f"sign violations at seeds {bad[:10]}"


def test_criterion_3_uniqueness(campaign):
    results, _ = campaign
    bad = [seed for seed, _, _, _, rep in results if len(rep.mics_r) > 1]
    multi_flat = sum(1 for _, _, spec, _, _ in results if len(spec.flats) >= 2)
    record_criterion(3, "uniqueness of the ratio's constancy interval",
                     not bad, f"0 multi-mic pairs; {multi_flat} pairs had "
                              f"2-3 rho flats")
    assert not bad, f"multiple r-mics at seeds {bad[:10]}"
    assert multi_flat > 100  # the sweep genuinely exercises multi-flat rho


def test_criterion_4_mic_coincidence(campaign):
    results, _ = campaign
    bad = []
    checked = 0
    for seed, pair, spec, chosen, report in results:
        if len(report.mics_r) != 1:
            continue
        checked += 1
        mic = report.mics_r[0]
        step = pair.window.length / pair.grid_n
        near = lambda j: (abs(j.lo - mic.lo) <= 2 * step
                          and abs(j.hi - mic.hi) <= 2 * step)
        if not any(near(j) for j in report.mics_rho):
            bad.append((seed, "no matching rho mic"))
            continue
        if not any(near(j) for j in report.mics_rho_tilde):
            bad.append((seed, "no matching rho-tilde mic"))
            continue
        fit = next((f for f in report.mic_fits if f.is_r_mic), None)
        if fit is None:
            bad.append((seed, "no fit on the r-mic"))
            continue
        scale = 1.0 + abs(fit.k1)
        if abs(fit.c) > C_TOL * scale:
            bad.append((seed, f"C = {fit.c:.3g}"))
    record_criterion(4, "constancy-interval coincidence and C = 0",
                     not bad, f"{checked} pairs had an r-mic; 0 violations")
    assert not bad, bad[:10]
    assert checked > 300


def test_criterion_5_constructor():
    config = mr.GeneratorConfig(n_flats=(1, 3))
    t0 = time.monotonic()
    bad = []
    for seed in range(10_000, 10_200):
        pair, spec, chosen = mr.random_pair(seed, config)
        step = pair.window.length / pair.grid_n
        table = mr.sample_table(pair, pair.grid_n)
        rho = mr.make_staircase_rho(spec)
        worst = max(abs(table.rho[i] - rho(x)[0]) / (1.0 + abs(rho(x)[0]))
                    for i, x in enumerate(table.xs))
        if worst > ROUND_TRIP_TOL:
            bad.append((seed, f"f'/g' off by {worst:.3g}"))
            continue
        mics = mr.detect_mics(table.xs, table.r, 1e-9 * (1.0 + median_abs(table.r)),
                              3 * step, probe=lambda t: mr.ratio_at(pair, t))
        if len(mics) != 1:
            bad.append((seed, f"{len(mics)} mics"))
            continue
        if (abs(mics[0].lo - chosen.lo) > MIC_ENDPOINT_TOL
                or abs(mics[0].hi - chosen.hi) > MIC_ENDPOINT_TOL):
            bad.append((seed, f"mic {mics[0]} vs chosen {chosen}"))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < CONSTRUCTOR_BUDGET_S
    record_criterion(5, "constructor places the prescribed interval",
                     ok, f"{200 - len(bad)}/200, {elapsed:.1f}s")
    assert not bad, bad[:10]
    assert elapsed < CONSTRUCTOR_BUDGET_S, f"took {elapsed:.1f}s"


def test_criterion_6_quadrature_closed_forms():
    worst = 0.0

    def check(got, want):
        nonlocal worst
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= QUAD_TOL

    spec = mr.StaircaseSpec(flats=((-1.0, 1.0),), slopes=(1.0, 1.0))
    rho = mr.make_staircase_rho(spec)
    window = mr.Interval(-2.0, 2.0)

    # g = e^x: antiderivatives (u-1)e^u du -> (u-2)e^u, (u+1)e^u du -> u e^u
    f = mr.construct_f(mr.expr_fn("exp(x)"), rho, 0.0, 0.0, window)
    check(f(1.5)[0], math.e - 0.5 * math.exp(1.5))
    check(f(-1.5)[0], math.exp(-1.0) - 1.5 * math.exp(-1.5))
    assert round(math.e - 0.5 * math.exp(1.5), 6) == 0.477437
    assert round(math.exp(-1.0) - 1.5 * math.exp(-1.5), 6) == 0.033184

    # g = e^-x: (u-1)(-e^-u) du -> u e^-u has the mirrored closed form
    f2 = mr.construct_f(mr.expr_fn("exp(-x)"), rho, 0.0, 0.0, window)
    check(f2(1.5)[0], 1.5 * math.exp(-1.5) - math.exp(-1.0))

    # g = x + 3: plain polynomial integral; integrating backwards over the
    # negative slope region comes out positive
    f3 = mr.construct_f(mr.expr_fn("x + 3"), rho, 0.0, 0.0, window)
    check(f3(2.0)[0], 0.5)
    check(f3(-2.0)[0], 0.5)

    # constant rho: f = K*g exactly
    def const_rho(x):
        return 1.25, 0.0

    f4 = mr.construct_f(mr.expr_fn("exp(x)"), const_rho, 0.0, 1.25, window)
    for x in (-1.5, 0.5, 1.9):
        check(f4(x)[0], 1.25 * math.exp(x))

    record_criterion(6, "quadrature matches closed forms", True,
                     f"worst error {worst:.2e}")


def test_criterion_7_metamorphic_reflections(campaign):
    results, _ = campaign
    bad = []
    for seed, pair, spec, chosen, report in results[:100]:
        vrep = mr.check_pair(reflect(pair, "vertical"))
        if vrep.predicted_family is not mirror_vertical(report.predicted_family):
            bad.append((seed, "vertical predicted family"))
            continue
        if vrep.observed_pattern.kind is not mirror_vertical(report.observed_pattern.kind):
            bad.append((seed, "vertical observed kind"))
            continue
        hrep = mr.check_pair(reflect(pair, "horizontal"))
        # switch mirrors across the window midpoint (window-relative form)
        m_old = pair.window.midpoint
        m_new = hrep.window.midpoint
        sw, hsw = report.observed_pattern.switch, hrep.observed_pattern.switch
        if (abs((hsw.lo - m_new) + (sw.hi - m_old)) > SWITCH_TOL
                or abs((hsw.hi - m_new) + (sw.lo - m_old)) > SWITCH_TOL):
            bad.append((seed, "horizontal switch mirror"))
    record_criterion(7, "metamorphic reflections", not bad,
                     f"{100 - len(bad)}/100 pairs")
    assert not bad, bad[:10]


def test_criterion_8_dual_derivatives_vs_finite_differences():
    rng = random.Random(20240817)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 1000:
        attempts += 1
        assert attempts < 20_000, "generator kept hitting domain faults"
        ast = random_ast(rng, rng.randint(1, 5))
        fn = mr.ExprFn(ast)
        spot = pick_usable_point(fn, rng)
        if spot is None:
            continue
        x, h = spot
        dual = fn(x)[1]
        fd = central_fd(fn, x, h)
        rel = abs(dual - fd) / (1.0 + abs(dual))
        worst = max(worst, rel)
        assert rel <= AD_TOL, f"{format_expr(ast)} at x = {x}"
        checked += 1
    record_criterion(8, "dual derivatives match finite differences", True,
                     f"1000/1000, worst relative error {worst:.2e}")
