import dataclasses

import pytest

import monoratio as mr
from monoratio import Direction, Family, Interval, PatternKind
from monoratio import rules
from monoratio.rules import (RULE_ROWS, Tolerances, _check_prop1, _inside,
                            predict_r_family, predict_rho_tilde_dir)

UP, DOWN = Direction.UP, Direction.DOWN


def test_r_family_rows():
    assert predict_r_family(UP, 1) is Family.DOWN_UP
    assert predict_r_family(DOWN, 1) is Family.UP_DOWN
    assert predict_r_family(UP, -1) is Family.UP_DOWN
    assert predict_r_family(DOWN, -1) is Family.DOWN_UP


def test_rho_tilde_rows():
    assert predict_rho_tilde_dir(UP, 1) is UP
    assert predict_rho_tilde_dir(DOWN, 1) is DOWN
    assert predict_rho_tilde_dir(UP, -1) is DOWN
    assert predict_rho_tilde_dir(DOWN, -1) is UP


def test_rule_rows_complete():
    assert len(RULE_ROWS) == 4
    expected = [
        (UP, 1, Family.DOWN_UP, UP),
        (DOWN, 1, Family.UP_DOWN, DOWN),
        (UP, -1, Family.UP_DOWN, DOWN),
        (DOWN, -1, Family.DOWN_UP, UP),
    ]
    got = [(r.rho_dir, r.sign_gg, r.r_family, r.rho_tilde_dir) for r in RULE_ROWS]
    assert got == expected


def test_table_consistency():
    # a non-decreasing rho-tilde forces the sign sequence (-)*(0)*(+)*,
    # i.e. the DownUp family; non-increasing forces UpDown
    for row in RULE_ROWS:
        implied = Family.DOWN_UP if row.rho_tilde_dir is UP else Family.UP_DOWN
        assert row.r_family is implied


def test_family_xor_rule():
    for row in RULE_ROWS:
        is_down_up = (row.rho_dir is UP) != (row.sign_gg == -1)
        assert (row.r_family is Family.DOWN_UP) == is_down_up


def _pair(f_src, g_src, lo, hi, n=512):
    return mr.make_pair(mr.expr_fn(f_src), mr.expr_fn(g_src),
                        Interval(lo, hi), n)


def test_prop1_family_membership():
    # a family holds its composite and every degenerate kind, never the
    # other family's composite
    switch = Interval(0.0, 1.0)
    for family in Family:
        for kind in PatternKind:
            ok = _check_prop1(mr.Pattern(kind, switch), family, False, switch, 1e-3)
            assert ok == ((family, kind) not in {(Family.DOWN_UP, PatternKind.UP_DOWN),
                                                 (Family.UP_DOWN, PatternKind.DOWN_UP)})


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
    assert report.predicted_family is Family.DOWN_UP
    assert report.observed_pattern.kind is PatternKind.INCREASING
    assert report.level0 is None
    assert len(report.mics_r) == 0


def test_check_pair_negated_square():
    report = mr.check_pair(_pair("-(x^2)", "x", 0.1, 10.0))
    assert report.all_ok
    assert report.rho_dir is DOWN
    assert report.predicted_family is Family.UP_DOWN
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


def test_check_pair_non_monotone_rho_reports_failure():
    report = mr.check_pair(_pair("sin(x)", "x", 0.1, 5.0))
    assert report.failure is not None
    assert not report.all_ok
    assert report.rho_pattern.kind is PatternKind.DOWN_UP  # cos falls then rises


def test_check_pair_table3_direction():
    for seed in range(8):
        pair, _, _ = mr.random_pair(seed, mr.GeneratorConfig(grid_n=512))
        report = mr.check_pair(pair)
        assert report.all_ok
        rt_kind = report.rho_tilde_pattern.kind
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
    flipped = mr.reflect(pair, "vertical")
    rep, frep = mr.check_pair(pair), mr.check_pair(flipped)
    assert rep.rho_dir is UP and frep.rho_dir is DOWN
    assert frep.sign_gg == rep.sign_gg
    assert frep.predicted_family is rep.predicted_family.mirrored()
    assert frep.observed_pattern.kind is rep.observed_pattern.mirror_vertical()


def test_reflect_horizontal_mirrors_window():
    pair = _pair("x^2", "x", 0.1, 10.0)
    flipped = mr.reflect(pair, "horizontal")
    assert flipped.window.as_pair() == (-10.0, -0.1)
    assert flipped.sign_gprime == -pair.sign_gprime
    assert flipped.sign_gg == -pair.sign_gg


def test_reflect_twice_restores_report(staircase_pair):
    pair, _, _ = staircase_pair
    base = mr.check_pair(pair)
    for axis in ("vertical", "horizontal"):
        twice = mr.reflect(mr.reflect(pair, axis), axis)
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
        mr.reflect(counted, axis)
    assert calls == []


def test_reflect_rejects_unknown_axis():
    pair = _pair("x", "x", 1.0, 2.0)
    with pytest.raises(ValueError):
        mr.reflect(pair, "diagonal")


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
