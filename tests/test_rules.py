import dataclasses
import math

import pytest

import monoratio as mr
from monoratio import Direction, Interval, PatternKind
from monoratio import patterns, rules
from monoratio.patterns import Column, _signs
from monoratio.ratio import median_abs
from monoratio.rules import RULE_ROWS, Tolerances, _check_prop1, _inside

from helpers import mirror_vertical, reflect, sign_identity_stencil

UP, DOWN = Direction.UP, Direction.DOWN
DOWN_UP, UP_DOWN = PatternKind.DOWN_UP, PatternKind.UP_DOWN


def _row(rho_dir, sign_gg):
    (row,) = [r for r in RULE_ROWS if (r.rho_dir, r.sign_gg) == (rho_dir, sign_gg)]
    return row


def test_r_family_rows():
    assert _row(UP, 1).r_family is DOWN_UP
    assert _row(DOWN, 1).r_family is UP_DOWN
    assert _row(UP, -1).r_family is UP_DOWN
    assert _row(DOWN, -1).r_family is DOWN_UP


def test_rho_tilde_rows():
    assert _row(UP, 1).rho_tilde_dir is UP
    assert _row(DOWN, 1).rho_tilde_dir is DOWN
    assert _row(UP, -1).rho_tilde_dir is DOWN
    assert _row(DOWN, -1).rho_tilde_dir is UP


def test_rule_rows_complete():
    assert len(RULE_ROWS) == 4
    expected = [
        (UP, 1, DOWN_UP, UP),
        (DOWN, 1, UP_DOWN, DOWN),
        (UP, -1, UP_DOWN, DOWN),
        (DOWN, -1, DOWN_UP, UP),
    ]
    got = [(r.rho_dir, r.sign_gg, r.r_family, r.rho_tilde_dir) for r in RULE_ROWS]
    assert got == expected
    # the enum members themselves, not equal strings
    for row, (_, _, family, rt_dir) in zip(RULE_ROWS, expected):
        assert row.r_family is family and row.rho_tilde_dir is rt_dir


def test_table_consistency():
    # a non-decreasing rho-tilde forces the sign sequence (-)*(0)*(+)*,
    # i.e. the DownUp family; non-increasing forces UpDown
    for row in RULE_ROWS:
        implied = DOWN_UP if row.rho_tilde_dir is UP else UP_DOWN
        assert row.r_family is implied


def test_family_xor_rule():
    for row in RULE_ROWS:
        is_down_up = (row.rho_dir is UP) != (row.sign_gg == -1)
        assert (row.r_family is DOWN_UP) == is_down_up


def _pair(f_src, g_src, lo, hi, n=512):
    return mr.make_pair(mr.expr_fn(f_src), mr.expr_fn(g_src),
                        Interval(lo, hi), n)


def test_prop1_family_membership():
    # a family holds its composite and every degenerate kind, never the
    # other family's composite; with rho constant it holds no composite
    switch = Interval(0.0, 1.0)
    for family in (DOWN_UP, UP_DOWN):
        for kind in PatternKind:
            ok = _check_prop1(mr.Pattern(kind, switch), family, False)
            assert ok == ((family, kind) not in {(DOWN_UP, UP_DOWN), (UP_DOWN, DOWN_UP)})
            ok = _check_prop1(mr.Pattern(kind, switch), family, True)
            assert ok == (kind not in (DOWN_UP, UP_DOWN))
    assert not _check_prop1(None, DOWN_UP, False)
    assert not _check_prop1(mr.Pattern(DOWN_UP, switch), None, False)


@pytest.mark.parametrize("tol_zero", [float("nan"), float("inf"), -1e-9, 1.0, 10.0])
def test_tolerances_reject_bad_tol_zero(tol_zero):
    with pytest.raises(ValueError, match="tol_zero"):
        Tolerances(tol_zero=tol_zero)


def test_tolerances_accept_zero_tol_zero():
    assert Tolerances(tol_zero=0.0).tol_zero == 0.0


@pytest.mark.parametrize("name", ["tol_flat", "min_ic_steps", "switch_tol", "mic_match_steps",
                                  "residual_tol", "c_tol", "fd_shrink"])
def test_tolerances_set_only_tol_zero(name):
    with pytest.raises(TypeError):
        Tolerances(**{name: 1e-8})
    tol = Tolerances(tol_zero=1e-5)
    assert list(tol.as_dict()) == ["tol_zero", "tol_flat", "min_ic_steps", "switch_tol",
                                   "mic_match_steps", "residual_tol", "c_tol", "fd_shrink"]
    assert tol.as_dict()["tol_zero"] == 1e-5
    assert tol.as_dict()[name] == getattr(Tolerances, name)


@pytest.mark.parametrize("seed", range(4))
def test_check_pair_takes_one_median_per_column_and_fitted_flat(seed, monkeypatch):
    # r, rho and rho-tilde once each for every band, plus one per m.i.c. fit
    calls = []
    median_abs = rules.median_abs
    monkeypatch.setattr(rules, "median_abs", lambda vs: calls.append(len(vs)) or median_abs(vs))
    report = mr.check_pair(mr.random_pair(seed)[0])
    assert len(calls) == 3 + len(report.mic_fits)
    assert calls[:3] == [report.grid_n] * 3


@pytest.mark.parametrize("seed", range(4))
def test_check_pair_takes_differences_once_per_column_and_rho_tilde_signs_once(seed,
                                                                               monkeypatch):
    # a Column takes its first differences when it is made, so one Column
    # per sampled column is one difference pass each; signs come from one
    # rho-tilde pass, and detect_pattern's is the one pass over their runs,
    # which the sign check reads too (the level-0 set is its switch)
    tables, summaries, signed, runs = [], [], [], []
    sample_table, init, signs = rules.sample_table, Column.__init__, patterns._signs
    run_pass = patterns._runs
    monkeypatch.setattr(patterns, "_runs", lambda s: runs.append(s) or run_pass(s))
    monkeypatch.setattr(rules, "sample_table",
                        lambda *args: tables.append(sample_table(*args)) or tables[-1])
    monkeypatch.setattr(Column, "__init__",
                        lambda self, xs, vs, **kw: summaries.append(vs) or init(self, xs, vs, **kw))
    monkeypatch.setattr(patterns, "_signs", lambda vs, band: signed.append(vs) or signs(vs, band))
    mr.check_pair(mr.random_pair(seed)[0])
    (table,) = tables
    assert list(map(id, summaries)) == list(map(id, (table.r, table.rho, table.rho_tilde)))
    columns = set(map(id, summaries))
    assert [id(vs) for vs in signed if id(vs) in columns] == [id(table.rho_tilde)]
    assert len(runs) == 1


def _grid(n):
    return [(i + 0.5) / n for i in range(n)]


@pytest.mark.parametrize("xs,vs,message", [
    (_grid(16), [1.0] * 8 + [float("nan")] + [1.0] * 7,
     f"sample at x = {_grid(16)[8]!r} is not finite: nan"),
    (_grid(16), [1.0] * 15 + [float("-inf")], f"sample at x = {_grid(16)[15]!r} is not finite: -inf"),
    (_grid(15), [1.0] * 15, "need equal x and value columns of 16+ samples, got 15, 15"),
    (_grid(16), [1.0] * 17, "need equal x and value columns of 16+ samples, got 16, 17"),
    (_grid(16)[::-1], [1.0] * 16, "sample x's must be strictly increasing"),
], ids=["nan", "inf", "short", "unequal", "descending"])
def test_a_summary_rejects_what_the_detectors_reject(xs, vs, message):
    with pytest.raises(ValueError) as made:
        Column(xs, vs)
    assert str(made.value) == message
    for detect in (lambda: mr.detect_direction(xs, vs, 0.0),
                   lambda: mr.detect_mics(xs, vs, 0.0, 0.0, probe=abs),
                   lambda: mr.detect_pattern(xs, vs, 0.0, window=Interval(0.0, 1.0), probe=abs)):
        with pytest.raises(ValueError) as detected:
            detect()
        assert str(detected.value) == message


def test_flat_index_range_is_the_samples_inside():
    xs = [-2.0 + (i + 0.5) * (4.0 / 64) for i in range(64)]
    table = mr.SampleTable(xs, xs, xs, xs, xs, xs)
    ends = [-3.0, -2.0, xs[0], xs[1], 0.01, xs[40], xs[41], xs[-1], 3.0]
    for lo in ends:
        for hi in ends:
            if lo <= hi:
                want = [i for i, x in enumerate(xs) if lo <= x <= hi]
                assert list(_inside(table, Interval(lo, hi))) == want, (lo, hi)


def test_check_pair_square_over_x():
    report = mr.check_pair(_pair("x^2", "x", 0.1, 10.0))
    assert report.all_ok
    assert report.rho_dir is UP and report.sign_gg == 1
    assert report.predicted_family is DOWN_UP
    assert report.observed_pattern.kind is PatternKind.INCREASING
    assert report.level0 is None
    assert len(report.mics_r) == 0


def test_check_pair_negated_square():
    report = mr.check_pair(_pair("-(x^2)", "x", 0.1, 10.0))
    assert report.all_ok
    assert report.rho_dir is DOWN
    assert report.predicted_family is UP_DOWN
    assert report.observed_pattern.kind is PatternKind.DECREASING


def test_check_pair_staircase(staircase_pair):
    pair, _, _ = staircase_pair
    report = mr.check_pair(pair)
    assert report.all_ok
    assert report.observed_pattern.kind is PatternKind.DOWN_UP
    assert len(report.mics_r) == 1
    mic = report.mics_r[0]
    assert mic.lo == pytest.approx(-1.0, abs=1e-3)
    assert mic.hi == pytest.approx(1.0, abs=1e-3)
    # the r-mic coincides with a mic of rho and of rho-tilde
    step = pair.window.length / pair.grid_n
    assert any(abs(j.lo - mic.lo) <= 2 * step and abs(j.hi - mic.hi) <= 2 * step
               for j in report.mics_rho)
    assert any(abs(j.lo - mic.lo) <= 2 * step and abs(j.hi - mic.hi) <= 2 * step
               for j in report.mics_rho_tilde)


def test_check_pair_constant_rho():
    # rho = 2 on the whole window: r = 2 + 1/x is monotone
    report = mr.check_pair(_pair("2*x + 1", "x", 1.0, 2.0))
    assert report.constant_rho
    assert report.rho_dir is UP  # reported Up, flagged constant
    assert report.observed_pattern.kind is PatternKind.DECREASING
    assert report.all_ok
    assert report.level0 is None


def test_check_pair_identity_ratio():
    report = mr.check_pair(_pair("x", "x", 1.0, 2.0))
    assert report.all_ok
    assert report.observed_pattern.kind is PatternKind.CONSTANT
    assert report.level0 is not None
    assert report.level0.lo == pytest.approx(1.0, abs=1e-2)
    assert report.level0.hi == pytest.approx(2.0, abs=1e-2)
    assert len(report.mics_r) == 1


def test_check_pair_reads_rule_rows(staircase_pair, monkeypatch):
    # a swapped row must reach the report, and fail prop1 on a composite r
    pair, _, _ = staircase_pair
    base = mr.check_pair(pair)
    assert base.all_ok and base.observed_pattern.kind is DOWN_UP
    flip = {UP: DOWN, DOWN: UP}
    swapped = tuple(
        dataclasses.replace(row, r_family=mirror_vertical(row.r_family),
                            rho_tilde_dir=flip[row.rho_tilde_dir])
        if (row.rho_dir, row.sign_gg) == (base.rho_dir, base.sign_gg) else row
        for row in RULE_ROWS)
    monkeypatch.setattr(rules, "RULE_ROWS", swapped)
    report = mr.check_pair(pair)
    assert report.predicted_family is UP_DOWN
    assert report.predicted_rho_tilde_dir is flip[base.predicted_rho_tilde_dir]
    assert not dict(report.checks)["prop1"]


def test_check_pair_non_monotone_rho_reports_failure():
    report = mr.check_pair(_pair("sin(x)", "x", 0.1, 5.0))
    assert report.failure is not None
    assert not report.all_ok
    assert report.rho_pattern is DOWN_UP  # cos falls then rises


def test_check_pair_table3_direction():
    for seed in range(8):
        pair, _, _ = mr.random_pair(seed, mr.GeneratorConfig(grid_n=512))
        report = mr.check_pair(pair)
        assert report.all_ok
        rt_kind = report.rho_tilde_pattern
        if rt_kind is PatternKind.INCREASING:
            assert report.predicted_rho_tilde_dir is UP
        elif rt_kind is PatternKind.DECREASING:
            assert report.predicted_rho_tilde_dir is DOWN
        else:
            assert rt_kind is PatternKind.CONSTANT


def test_mics_of_rho_tilde_match_mics_of_rho():
    for seed in (3, 6, 9, 14):
        pair, spec, _ = mr.random_pair(seed, mr.GeneratorConfig(grid_n=1024))
        report = mr.check_pair(pair)
        assert report.all_ok
        step = pair.window.length / pair.grid_n
        assert len(report.mics_rho) == len(spec.flats)
        assert len(report.mics_rho_tilde) == len(report.mics_rho)
        for a, b in zip(report.mics_rho, report.mics_rho_tilde):
            assert abs(a.lo - b.lo) <= 2 * step
            assert abs(a.hi - b.hi) <= 2 * step


def test_reflect_vertical_flips_direction():
    pair = _pair("x^2", "x", 0.1, 10.0)
    flipped = reflect(pair, "vertical")
    rep, frep = mr.check_pair(pair), mr.check_pair(flipped)
    assert rep.rho_dir is UP and frep.rho_dir is DOWN
    assert frep.sign_gg == rep.sign_gg
    assert frep.predicted_family is mirror_vertical(rep.predicted_family)
    assert frep.observed_pattern.kind is mirror_vertical(rep.observed_pattern.kind)


def test_reflect_horizontal_mirrors_window():
    pair = _pair("x^2", "x", 0.1, 10.0)
    flipped = reflect(pair, "horizontal")
    assert (flipped.window.lo, flipped.window.hi) == (-10.0, -0.1)
    assert flipped.sign_gprime == -pair.sign_gprime
    assert flipped.sign_gg == -pair.sign_gg


def test_reflect_twice_restores_report(staircase_pair):
    pair, _, _ = staircase_pair
    base = mr.check_pair(pair)
    for axis in ("vertical", "horizontal"):
        twice = reflect(reflect(pair, axis), axis)
        rep = mr.check_pair(twice)
        assert rep.observed_pattern.kind is base.observed_pattern.kind
        assert rep.predicted_family is base.predicted_family
        assert rep.observed_pattern.switch.lo == pytest.approx(
            base.observed_pattern.switch.lo, abs=1e-9)
        assert rep.all_ok


def test_reflect_does_not_validate_g_again():
    pair = _pair("x^2", "x", 0.1, 10.0)
    calls = []

    def g(x):
        calls.append(x)
        return pair.g(x)

    counted = dataclasses.replace(pair, g=g)
    for axis in ("vertical", "horizontal"):
        reflect(counted, axis)
    assert calls == []


def test_reflect_rejects_unknown_axis():
    pair = _pair("x", "x", 1.0, 2.0)
    with pytest.raises(ValueError):
        reflect(pair, "diagonal")


def test_report_dict_schema():
    report = mr.check_pair(_pair("x^2", "x", 0.1, 10.0))
    payload = report.to_dict()
    for key in ("pair", "window", "sign_gg", "rho_pattern", "predicted_family",
                "observed_pattern", "switch", "level0", "mics", "checks",
                "tolerances"):
        assert key in payload
    assert set(payload["mics"]) == {"r", "rho", "rho_tilde"}
    assert set(payload["checks"]) == {"prop1", "prop2", "uniqueness",
                                      "sign_identity"}
    assert payload["pair"] == {"f": "x^2", "g": "x"}


def test_report_checks_are_one_ordered_mapping():
    report = mr.check_pair(_pair("x^2", "x", 0.1, 10.0))
    assert [name for name, _ in report.checks] == ["prop1", "prop2", "uniqueness",
                                                   "sign_identity"]
    assert all(type(ok) is bool for _, ok in report.checks)
    assert list(report.to_dict()["checks"].items()) == list(report.checks)
    hash(report)  # a frozen report stays hashable
    failed = dataclasses.replace(report, checks=(*report.checks[:-1], ("sign_identity", False)))
    assert report.all_ok and not failed.all_ok


def test_prop2_rejects_wrong_anchor_value():
    # K != rho(z) keeps f'/g' = rho but r picks up C/g on every flat,
    # so r must have no constancy interval at all
    spec = mr.StaircaseSpec(flats=((-1.0, 1.0),), slopes=(1.0, 1.0))
    rho = mr.make_staircase_rho(spec)
    g = mr.expr_fn("exp(x)")
    f = mr.construct_f(g, rho, z=0.0, K=0.7, window=Interval(-2.0, 2.0))
    pair = mr.make_pair(f, g, Interval(-2.0, 2.0), 1024)
    report = mr.check_pair(pair)
    assert len(report.mics_r) == 0
    assert report.all_ok
    fit = next(f for f in report.mic_fits)
    assert not fit.is_r_mic
    assert abs(fit.c) > 1e-3  # C = (K - rho(z)) * g(z) = 0.7
    assert fit.c == pytest.approx(0.7, abs=1e-6)


class _CellWiggle:
    """f = e^x w with w(x) = x - a s(x) sin(2 pi (x - x0) / step), a half a
    grid step and x0 a sample: the values wiggle inside each cell of the
    grid against the derivative channel e^x (w + 1), which gives rho - r = 1
    and rho-tilde = e^x > 0, so it says r rises.  At every sample sin is 0,
    so r = x rises across each two cells, while r' = 1 - pi s cos(...) < 0
    there where s is 1.  taper makes s = sin(pi (x - lo) / L)^2, which
    takes the wiggle out at the window's ends."""

    def __init__(self, window, n, taper):
        self.lo, self.length = window.lo, window.length
        self.step = window.length / n
        self.x0, self.a, self.taper = window.lo + 0.5 * self.step, 0.5 * self.step, taper

    def __call__(self, x):
        s = math.sin(math.pi * (x - self.lo) / self.length) ** 2 if self.taper else 1.0
        w = x - self.a * s * math.sin(2.0 * math.pi * (x - self.x0) / self.step)
        return math.exp(x) * w, math.exp(x) * (w + 1.0)


@pytest.mark.parametrize("taper,violations,everywhere", [(False, 2, 256), (True, 0, 156)])
def test_sign_identity_reads_a_wiggle_inside_the_cells_at_the_stencil_alone(taper, violations,
                                                                           everywhere):
    # the grid-first check takes a two-cell difference of r as evidence
    # where the stencil looks a sixteenth of a step either side: it flags
    # the wiggle only at the window's two end samples, which go to the
    # stencil, and misses it when it fades out there; the stencil on every
    # kept sample flags each one where the wiggle is at least a third of
    # its full size
    window = Interval(1.0, 2.0)
    pair = mr.make_pair(_CellWiggle(window, 256, taper), mr.expr_fn("exp(x)"), window, 256)
    report = mr.check_pair(pair)
    table = report.table
    signs = _signs(table.rho_tilde, 1e-7 * (1.0 + median_abs(table.rho_tilde)))
    assert signs == [1] * 256
    # only the sign check can see the wiggle
    assert report.failure is None and report.sign_violations == violations
    assert dict(report.checks) == {"prop1": True, "prop2": True, "uniqueness": True,
                                   "sign_identity": violations == 0}
    assert sign_identity_stencil(pair, table.xs, signs, table.step / 16.0) == (False, everywhere)
