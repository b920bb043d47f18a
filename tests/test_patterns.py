import functools
import itertools
import math
import random
import re
from collections import deque

import pytest

import monoratio as mr
from monoratio import Interval, PatternKind
from monoratio.patterns import (BadBracket, NonInterval, Unclassifiable,
                                _interpolant, _run_interval, detect_mics,
                                detect_pattern, level0_set, refine_sign_change)
from monoratio.ratio import median_abs


def _grid(lo, hi, n):
    step = (hi - lo) / n
    return [lo + (i + 0.5) * step for i in range(n)]


def _samples(fn, lo, hi, n=256):
    xs = _grid(lo, hi, n)
    return xs, [fn(x) for x in xs]


def _band(tol, vs):
    """The absolute band check_pair hands a detector for a relative tol."""
    return tol * (1.0 + median_abs(vs))


# --- refine_sign_change ----------------------------------------------------

def test_refine_linear_root():
    assert refine_sign_change(lambda x: x, (-1.0, 2.0), 1e-9) == pytest.approx(0.0, abs=1e-9)


def test_refine_cube_root():
    root = refine_sign_change(lambda x: x ** 3 - 8.0, (0.0, 3.0), 1e-9)
    assert root == pytest.approx(2.0, abs=1e-8)


def test_refine_bad_bracket():
    with pytest.raises(BadBracket):
        refine_sign_change(lambda x: 1.0 + x * x, (0.0, 1.0), 1e-9)


def test_refine_zero_at_endpoint():
    assert refine_sign_change(lambda x: x, (0.0, 1.0), 1e-9) == 0.0


# --- detect_pattern ----------------------------------------------------------

def test_all_positive_values_increasing():
    # derivative proxy positive everywhere: x^2 on (0.1, 10)
    samples = _samples(lambda x: x * x, 0.1, 10.0)
    pat = detect_pattern(*samples, 1e-6, mode="values", window=Interval(0.1, 10.0))
    assert pat.kind is PatternKind.INCREASING
    assert pat.switch.lo == 0.1 and pat.switch.hi == 0.1


def test_all_negative_values_decreasing():
    samples = _samples(lambda x: -1.0 - x * x, 0.0, 1.0)
    pat = detect_pattern(*samples, 1e-6, mode="values", window=Interval(0.0, 1.0))
    assert pat.kind is PatternKind.DECREASING
    assert pat.switch.as_pair() == (1.0, 1.0)


def test_zero_values_constant():
    samples = _samples(lambda x: 0.0, 0.0, 1.0)
    pat = detect_pattern(*samples, 1e-6, mode="values", window=Interval(0.0, 1.0))
    assert pat.kind is PatternKind.CONSTANT
    assert pat.switch.as_pair() == (0.0, 1.0)
    assert not pat.switch.lo_closed and not pat.switch.hi_closed


def test_down_up_with_flat():
    def proxy(x):
        if x < -1.0:
            return x + 1.0
        if x > 1.0:
            return x - 1.0
        return 0.0

    samples = _samples(proxy, -2.0, 2.0, 512)
    pat = detect_pattern(*samples, 1e-7, mode="values", window=Interval(-2.0, 2.0))
    assert pat.kind is PatternKind.DOWN_UP
    assert pat.switch.lo == pytest.approx(-1.0, abs=1e-2)
    assert pat.switch.hi == pytest.approx(1.0, abs=1e-2)


def test_down_up_with_true_probe_is_sharp():
    def proxy(x):
        if x < -1.0:
            return x + 1.0
        if x > 1.0:
            return x - 1.0
        return 0.0

    samples = _samples(proxy, -2.0, 2.0, 512)
    pat = detect_pattern(*samples, 1e-7, mode="values",
                         window=Interval(-2.0, 2.0), probe=proxy)
    assert pat.switch.lo == pytest.approx(-1.0, abs=1e-6)
    assert pat.switch.hi == pytest.approx(1.0, abs=1e-6)


def test_staircase_rho_tilde_pattern(staircase_pair):
    pair, _, _ = staircase_pair
    table = mr.sample_table(pair, 2048)
    pat = detect_pattern(table.xs, table.rho_tilde, _band(1e-7, table.rho_tilde), mode="values",
                         window=pair.window, probe=lambda t: mr.rho_tilde_at(pair, t))
    assert pat.kind is PatternKind.DOWN_UP
    assert pat.switch.lo == pytest.approx(-1.0, abs=1e-3)
    assert pat.switch.hi == pytest.approx(1.0, abs=1e-3)


def test_single_crossing_gives_degenerate_switch():
    samples = _samples(lambda x: x - 0.3, 0.0, 1.0)
    pat = detect_pattern(*samples, 1e-9, mode="values", window=Interval(0.0, 1.0))
    assert pat.kind is PatternKind.DOWN_UP
    assert pat.switch.degenerate
    assert pat.switch.lo == pytest.approx(0.3, abs=1e-3)


def test_up_down_values():
    # derivative proxy positive then negative: r rises then falls
    samples = _samples(lambda x: 0.3 - x, 0.0, 1.0)
    pat = detect_pattern(*samples, 1e-9, mode="values", window=Interval(0.0, 1.0))
    assert pat.kind is PatternKind.UP_DOWN
    assert pat.switch.lo == pytest.approx(0.3, abs=1e-3)


def test_values_mode_rejects_wiggles():
    samples = _samples(math.sin, 0.0, 12.0, 512)
    with pytest.raises(Unclassifiable):
        detect_pattern(*samples, 1e-9, mode="values")


def test_diffs_mode_monotone_with_flats():
    # a staircase is non-decreasing: interior flats must not confuse it
    def stair(x):
        if x < -1.0:
            return x + 1.0
        if x > 1.0:
            return x - 1.0
        return 0.0

    pat = detect_pattern(*_samples(stair, -2.0, 2.0), 1e-9, mode="diffs")
    assert pat.kind is PatternKind.INCREASING


def test_diffs_mode_directions():
    assert detect_pattern(*_samples(lambda x: 2 * x, 0, 1), 1e-9,
                          mode="diffs").kind is PatternKind.INCREASING
    assert detect_pattern(*_samples(lambda x: -x, 0, 1), 1e-9,
                          mode="diffs").kind is PatternKind.DECREASING
    assert detect_pattern(*_samples(lambda x: 5.0, 0, 1), 1e-9,
                          mode="diffs").kind is PatternKind.CONSTANT
    assert detect_pattern(*_samples(lambda x: x * x, -1, 1), 1e-9,
                          mode="diffs").kind is PatternKind.DOWN_UP
    assert detect_pattern(*_samples(lambda x: -x * x, -1, 1), 1e-9,
                          mode="diffs").kind is PatternKind.UP_DOWN


def test_diffs_mode_rejects_double_switch():
    with pytest.raises(Unclassifiable):
        detect_pattern(*_samples(math.sin, 0.0, 12.0, 512), 1e-9, mode="diffs")


def test_vertical_mirror_property():
    cases = {
        "values": [
            _samples(lambda x: x - 0.5, 0.0, 1.0),     # DownUp crossing
            _samples(lambda x: 3.0, 0.0, 1.0),         # Increasing
            _samples(lambda x: -1.0 - x, 0.0, 1.0),    # Decreasing
            _samples(lambda x: 0.0, 0.0, 1.0),         # Constant
        ],
        "diffs": [
            _samples(lambda x: x * x - 0.2, -1.0, 1.0),  # DownUp
            _samples(lambda x: 2 * x, 0.0, 1.0),         # Increasing
            _samples(lambda x: 5.0, 0.0, 1.0),           # Constant
        ],
    }
    mirror = {
        PatternKind.INCREASING: PatternKind.DECREASING,
        PatternKind.DECREASING: PatternKind.INCREASING,
        PatternKind.DOWN_UP: PatternKind.UP_DOWN,
        PatternKind.UP_DOWN: PatternKind.DOWN_UP,
        PatternKind.CONSTANT: PatternKind.CONSTANT,
    }
    for mode, mode_cases in cases.items():
        for samples in mode_cases:
            pat = detect_pattern(*samples, 1e-9, mode=mode)
            xs, vs = samples
            neg = detect_pattern(xs, [-v for v in vs], 1e-9, mode=mode)
            assert neg.kind is mirror[pat.kind]
            if pat.kind in (PatternKind.DOWN_UP, PatternKind.UP_DOWN):
                assert neg.switch.lo == pytest.approx(pat.switch.lo, abs=1e-9)
                assert neg.switch.hi == pytest.approx(pat.switch.hi, abs=1e-9)


def test_horizontal_mirror_property_diffs():
    # sampling the same values on the reversed axis mirrors the pattern
    samples = _samples(lambda x: (x - 0.6) ** 2, 0.0, 2.0)
    reversed_axis = ([-x for x in reversed(samples[0])], samples[1][::-1])
    pat = detect_pattern(*samples, 1e-9, mode="diffs")
    mirrored_pat = detect_pattern(*reversed_axis, 1e-9, mode="diffs")
    assert pat.kind is PatternKind.DOWN_UP
    assert mirrored_pat.kind is PatternKind.DOWN_UP
    assert mirrored_pat.switch.lo == pytest.approx(-pat.switch.hi, abs=1e-6)
    assert mirrored_pat.switch.hi == pytest.approx(-pat.switch.lo, abs=1e-6)


def test_too_few_samples():
    with pytest.raises(ValueError):
        detect_pattern([float(i) for i in range(8)], [0.0] * 8, 1e-9)


# --- detect_mics -------------------------------------------------------------

def test_mics_on_staircase_ratio(staircase_pair):
    pair, _, _ = staircase_pair
    table = mr.sample_table(pair, 2048)
    step = pair.window.length / 2048
    mics = detect_mics(table.xs, table.r, _band(1e-9, table.r), 3 * step,
                       probe=lambda t: mr.ratio_at(pair, t))
    assert len(mics) == 1
    assert mics[0].lo == pytest.approx(-1.0, abs=1e-3)
    assert mics[0].hi == pytest.approx(1.0, abs=1e-3)


def test_mics_two_flat_staircase():
    spec = mr.StaircaseSpec(flats=((-1.5, -1.0), (1.0, 1.5)),
                            slopes=(1.0, 1.0, 1.0))
    rho = mr.make_staircase_rho(spec)
    xs, vs = _samples(lambda x: rho(x)[0], -2.0, 2.0, 1024)
    mics = detect_mics(xs, vs, _band(1e-9, vs), 3 * (4.0 / 1024),
                       probe=lambda t: rho(t)[0])
    assert len(mics) == 2
    assert mics[0].lo == pytest.approx(-1.5, abs=1e-3)
    assert mics[0].hi == pytest.approx(-1.0, abs=1e-3)
    assert mics[1].lo == pytest.approx(1.0, abs=1e-3)
    assert mics[1].hi == pytest.approx(1.5, abs=1e-3)


def test_mics_strictly_increasing_is_empty():
    xs, vs = _samples(lambda x: x, 0.0, 1.0)
    assert len(detect_mics(xs, vs, _band(1e-7, vs), 3 * (1.0 / 256))) == 0


def test_mics_maximality():
    spec = mr.StaircaseSpec(flats=((-1.0, 0.2),), slopes=(1.0, 1.0))
    rho = mr.make_staircase_rho(spec)
    n = 512
    xs, vs = _samples(lambda x: rho(x)[0], -2.0, 2.0, n)
    tol_abs = _band(1e-9, vs)
    mics = detect_mics(xs, vs, tol_abs, 3 * (4.0 / n))
    assert len(mics) == 1
    inside = [i for i, x in enumerate(xs) if mics[0].lo <= x <= mics[0].hi]
    i0, i1 = inside[0], inside[-1]
    # shrinking by one grid step keeps the run flat
    shrunk = vs[i0 + 1:i1]
    assert max(shrunk) - min(shrunk) <= tol_abs
    # extending by one grid step on either side breaks it
    assert max(vs[i0 - 1:i1 + 1]) - min(vs[i0 - 1:i1 + 1]) > tol_abs
    assert max(vs[i0:i1 + 2]) - min(vs[i0:i1 + 2]) > tol_abs


def test_mics_whole_span_flagged_open():
    xs, vs = _samples(lambda x: 2.0, 0.0, 1.0)
    mics = detect_mics(xs, vs, _band(1e-9, vs), 0.1)
    assert len(mics) == 1
    assert not mics[0].lo_closed and not mics[0].hi_closed


@pytest.mark.parametrize("band", [-1e-9, math.nan])
def test_mics_rejects_negative_tol(band):
    with pytest.raises(ValueError, match="band"):
        detect_mics(*_samples(lambda x: 1.0, 0.0, 1.0), band, 0.0)


def test_mics_zero_tol_run_on_the_last_sample():
    # with a zero band, the last sample must probe as exactly its own value
    # or the one-sample run there has no sign change to refine
    a = 0.2501106518892491
    xs = _grid(0.0, 1.0, 17)
    mics = detect_mics(xs, [3.0] * 7 + [a] * 7 + [-3.0] * 2 + [a], 0.0, 0.0)
    assert [m.as_pair() for m in mics] == [(xs[0], xs[6]), (xs[7], xs[13]),
                                           (xs[14], xs[15])]


def _reference_detect_mics(samples, tol, min_ic_len, probe=None):
    """detect_mics as it was before the streaming min/max sweep: for each
    left end i, a two-pointer scan finds the furthest right end j(i); runs
    whose j(i) grows are the maximal ones.  Kept as the sweep's oracle."""
    xs = [x for x, _ in samples]
    vs = [v for _, v in samples]
    tol_abs = tol * (1.0 + median_abs(vs))
    n = len(xs)
    xtol = 1e-12 * (xs[-1] - xs[0])
    value = probe if probe is not None else _interpolant(xs, vs)

    max_dq: deque[int] = deque()
    min_dq: deque[int] = deque()
    j = -1
    raw_runs = []
    prev_j = -1
    for i in range(n):
        if j < i - 1:
            j = i - 1
            max_dq.clear()
            min_dq.clear()
        while j + 1 < n:
            cand = j + 1
            v = vs[cand]
            hi_v = max(v, vs[max_dq[0]] if max_dq else v)
            lo_v = min(v, vs[min_dq[0]] if min_dq else v)
            if hi_v - lo_v > tol_abs:
                break
            while max_dq and vs[max_dq[-1]] <= v:
                max_dq.pop()
            max_dq.append(cand)
            while min_dq and vs[min_dq[-1]] >= v:
                min_dq.pop()
            min_dq.append(cand)
            j = cand
        if j > i - 1 and (i == 0 or j > prev_j):
            raw_runs.append((i, j))
        prev_j = j
        if max_dq and max_dq[0] == i:
            max_dq.popleft()
        if min_dq and min_dq[0] == i:
            min_dq.popleft()

    intervals = []
    last_hi = -math.inf
    for i0, i1 in raw_runs:
        if xs[i1] - xs[i0] + (xs[min(i1 + 1, n - 1)] - xs[i1]) \
                + (xs[i0] - xs[max(i0 - 1, 0)]) <= min_ic_len:
            continue
        run_max = max(vs[i0:i1 + 1])
        run_min = min(vs[i0:i1 + 1])

        def flat_probe(t):
            v = value(t)
            return tol_abs - (max(run_max, v) - min(run_min, v))

        run = _run_interval(xs, i0, i1, flat_probe, flat_probe, xs[0], xs[-1], xtol)
        if run.length <= min_ic_len or run.lo < last_hi:
            continue
        intervals.append(run)
        last_hi = run.hi
    return tuple(intervals)


def test_mics_sweep_matches_reference_on_generated_pairs():
    for seed in range(16):
        pair, _, _ = mr.random_pair(seed)
        table = mr.sample_table(pair)
        for column, probe in ((table.r, mr.ratio_at), (table.rho, mr.rho_at),
                              (table.rho_tilde, mr.rho_tilde_at)):
            bound = functools.partial(probe, pair)
            got = detect_mics(table.xs, column, _band(1e-9, column), 3 * table.step,
                              probe=bound)
            want = _reference_detect_mics(list(zip(table.xs, column)), 1e-9, 3 * table.step,
                                          probe=bound)
            assert got == want, (seed, probe.__name__)


def _plateau_column(rng, n):
    """Runs of repeated values, some repeating an earlier value exactly."""
    vs = []
    while len(vs) < n:
        roll = rng.random()
        if roll < 0.3 and vs:
            v = rng.choice(vs)
        elif roll < 0.7:
            v = float(rng.randint(-3, 3))
        else:
            v = rng.uniform(-3.0, 3.0)
        vs.extend([v] * rng.randint(1, 8))
    return vs[:n]


def test_mics_sweep_matches_reference_on_plateaus_and_ties():
    rng = random.Random(20061)
    for case in range(600):
        n = rng.choice((16, 17, 40, 128, 300))
        if case % 2:
            xs = _grid(0.0, 1.0, n)
        else:
            xs = list(itertools.accumulate(rng.uniform(0.1, 1.0) for _ in range(n)))
        vs = _plateau_column(rng, n)
        step = (xs[-1] - xs[0]) / (n - 1)
        tol = 0.0 if case % 3 else rng.choice((1e-9, 0.3))
        min_ic_len = rng.choice((0.0, 0.5, 1.0, 2.0, 3.0, 6.0)) * step
        got = detect_mics(xs, vs, _band(tol, vs), min_ic_len)
        assert got == _reference_detect_mics(list(zip(xs, vs)), tol, min_ic_len), case


def _jump_column(rng, n):
    """Plateaus (exactly flat or wandering inside a 1e-9 band), isolated
    jump samples, alternating singletons and ramps, with plateaus that
    touch a jump on either side; now and then a sample jumps to +-1e300."""
    vs = []
    while len(vs) < n:
        roll = rng.random()
        base = float(rng.randint(-3, 3))
        if roll < 0.3:
            vs += [base + rng.uniform(0.0, 1e-9) * rng.random()
                   for _ in range(rng.randint(2, 12))]
        elif roll < 0.5:
            vs.append(base + 0.5)  # an isolated jump between plateaus
        elif roll < 0.65:
            vs += [base, base + 1.0] * rng.randint(1, 5)
        elif roll < 0.85:
            vs += [base + 0.3 * k for k in range(rng.randint(2, 10))]
        elif roll < 0.95:
            vs.append(rng.choice((1e300, -1e300)))
        else:
            vs += [base] * rng.randint(2, 6)
    return vs[:n]


def test_mics_split_sweep_matches_reference_on_jumps_and_infinities():
    # every column is finite, so neither side may raise
    rng = random.Random(20060807)
    for case in range(800):
        n = rng.choice((16, 33, 100, 257))
        xs = _grid(-1.0, 2.0, n)
        vs = _jump_column(rng, n)
        if case % 50 == 0:  # jumps to both extremes: steps of 2e300
            vs[rng.randrange(n)] = 1e300
            vs[rng.randrange(n)] = -1e300
        step = 3.0 / n
        tol = rng.choice((0.0, 0.0, 1e-9, 1e-3, 0.3))
        min_ic_len = rng.choice((0.0, 0.0, 0.5, 2.0, 3.0)) * step
        got = detect_mics(xs, vs, _band(tol, vs), min_ic_len)
        want = _reference_detect_mics(list(zip(xs, vs)), tol, min_ic_len)
        assert got == want, (case, vs, tol, min_ic_len)
        # the closed/open flags too, which Interval equality also covers
        assert [(m.lo_closed, m.hi_closed) for m in got] == \
            [(m.lo_closed, m.hi_closed) for m in want]


@pytest.mark.parametrize("vs,tol,min_ic_len", [
    ([0.0, 1.0] * 8, 1e-9, 0.0),  # alternating singletons all survive
    ([0.0] * 5 + [4.0] + [0.0] * 5 + [4.0] * 5, 0.0, 0.0),  # isolated jump, tol 0
    ([1.0] * 6 + [1e300] * 4 + [1.0] * 6, 1e-9, 0.0),  # a huge plateau between two cuts
    ([2.0] * 7 + [-1e300] + [2.0] * 8, 0.0, 0.1),  # a lone huge jump
])
def test_mics_split_sweep_edge_columns(vs, tol, min_ic_len):
    xs = _grid(0.0, 1.0, len(vs))
    assert detect_mics(xs, vs, _band(tol, vs), min_ic_len) == \
        _reference_detect_mics(list(zip(xs, vs)), tol, min_ic_len)


@pytest.mark.parametrize("vs", [
    [1.0] * 6 + [math.inf] * 4 + [1.0] * 6,  # once a BadBracket in detect_mics
    [math.nan] + [1.0] * 15,  # once read as a negative sign: DownUp
    [1.0] * 8 + [-math.inf] + [1.0] * 7,
])
def test_detectors_reject_non_finite_samples(vs):
    xs = _grid(0.0, 1.0, len(vs))
    bad_x = xs[next(i for i, v in enumerate(vs) if not math.isfinite(v))]
    match = re.escape(f"x = {bad_x!r} is not finite")
    for mode in ("values", "diffs"):
        with pytest.raises(ValueError, match=match):
            detect_pattern(xs, vs, 1e-9, mode=mode)
    with pytest.raises(ValueError, match=match):
        detect_mics(xs, vs, 1e-9, 0.0)
    with pytest.raises(ValueError, match=match):
        level0_set(xs, vs, 1e-9, lambda t: 1.0, Interval(0.0, 1.0))


def test_detectors_accept_finite_samples_whose_sum_overflows():
    xs = _grid(0.0, 1.0, 16)
    vs = [1.5e308] * 16
    assert [m.as_pair() for m in detect_mics(xs, vs, 0.0, 0.0)] == [(xs[0], xs[-1])]
    assert detect_pattern(xs, vs, 0.0, mode="diffs").kind is PatternKind.CONSTANT
    assert level0_set(xs, vs, 0.0, lambda t: 1.5e308, Interval(0.0, 1.0)) is None


# --- level0_set --------------------------------------------------------------

def _level0(pair, table=None):
    """level0_set on the pair's rho-tilde column, banded as check_pair bands it."""
    table = table or mr.sample_table(pair)
    return level0_set(table.xs, table.rho_tilde, _band(1e-7, table.rho_tilde),
                      functools.partial(mr.rho_tilde_at, pair), pair.window)


def test_level0_staircase(staircase_pair):
    pair, _, _ = staircase_pair
    l0 = _level0(pair)
    assert l0 is not None
    assert l0.lo == pytest.approx(-1.0, abs=1e-3)
    assert l0.hi == pytest.approx(1.0, abs=1e-3)


def test_level0_none_when_rho_tilde_positive():
    pair = mr.make_pair(mr.expr_fn("x^2"), mr.expr_fn("x"),
                        Interval(0.1, 10.0), 256)
    assert _level0(pair) is None


def test_level0_single_crossing_degenerate():
    # rho-tilde = x^2/2 - 0.5 crosses zero once at x = 1
    pair = mr.make_pair(mr.expr_fn("x^2/2 + 0.5"), mr.expr_fn("x"),
                        Interval(0.1, 2.0), 512)
    l0 = _level0(pair)
    assert l0 is not None and l0.degenerate
    # brute-force oracle: the fine-grid minimizer of |rho-tilde|
    xs = [0.1 + i * (1.9 / 50000) for i in range(50001)]
    best = min(xs, key=lambda x: abs(mr.rho_tilde_at(pair, x)))
    assert l0.lo == pytest.approx(best, abs=1e-4)
    assert l0.lo == pytest.approx(1.0, abs=1e-5)


def test_level0_non_interval_for_wavy_rho():
    pair = mr.make_pair(mr.expr_fn("sin(x)"), mr.expr_fn("x"),
                        Interval(0.1, 9.0), 1024)
    with pytest.raises(NonInterval):
        _level0(pair)


def test_level0_close_double_crossing_is_non_interval():
    # rho-tilde dips below zero for three samples and comes back: two sign
    # changes close enough to merge into one component with no sample in
    # the zero band, which bracket no single root
    f = "(-1.977267)*(exp(-x) - 2.60666)^3 + (-0.101499)*exp(-x) + (-0.000974)"
    pair = mr.make_pair(mr.expr_fn(f), mr.expr_fn("exp(-x)"), Interval(-2.0, 2.0))
    with pytest.raises(NonInterval, match="even number"):
        _level0(pair)
    report = mr.check_pair(pair)
    assert report.failure and not report.all_ok


def test_level0_agrees_with_r_mics(staircase_pair):
    pair, _, _ = staircase_pair
    table = mr.sample_table(pair, 2048)
    l0 = _level0(pair, table)
    mics = detect_mics(table.xs, table.r, _band(1e-9, table.r), 3 * pair.window.length / 2048,
                       probe=lambda t: mr.ratio_at(pair, t))
    assert len(mics) == 1
    assert abs(mics[0].lo - l0.lo) <= 2e-3
    assert abs(mics[0].hi - l0.hi) <= 2e-3
