import dataclasses
import functools
import itertools
import math
import random
import re
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import monoratio as mr
from monoratio import Interval, PatternKind
from monoratio.patterns import (BadBracket, Column, Unclassifiable, _one_switch_kind,
                                _run_interval, _runs, _signs, detect_direction,
                                detect_mics, detect_pattern, level0_set,
                                refine_sign_change)
from monoratio.ratio import Grid, median_abs
from monoratio.rules import _check_sign_identity

from helpers import NonInterval, interpolant, mirror_vertical, reference_level0_set


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
    pat = detect_pattern(*samples, 1e-6, window=Interval(0.1, 10.0),
                         probe=interpolant(*samples))
    assert pat.kind is PatternKind.INCREASING
    assert pat.switch.lo == 0.1 and pat.switch.hi == 0.1


def test_all_negative_values_decreasing():
    samples = _samples(lambda x: -1.0 - x * x, 0.0, 1.0)
    pat = detect_pattern(*samples, 1e-6, window=Interval(0.0, 1.0),
                         probe=interpolant(*samples))
    assert pat.kind is PatternKind.DECREASING
    assert (pat.switch.lo, pat.switch.hi) == (1.0, 1.0)


def test_zero_values_constant():
    samples = _samples(lambda x: 0.0, 0.0, 1.0)
    pat = detect_pattern(*samples, 1e-6, window=Interval(0.0, 1.0),
                         probe=interpolant(*samples))
    assert pat.kind is PatternKind.CONSTANT
    assert (pat.switch.lo, pat.switch.hi) == (0.0, 1.0)
    assert not pat.switch.lo_closed and not pat.switch.hi_closed


def test_down_up_with_flat():
    def proxy(x):
        if x < -1.0:
            return x + 1.0
        if x > 1.0:
            return x - 1.0
        return 0.0

    samples = _samples(proxy, -2.0, 2.0, 512)
    pat = detect_pattern(*samples, 1e-7, window=Interval(-2.0, 2.0),
                         probe=interpolant(*samples))
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
    pat = detect_pattern(*samples, 1e-7, window=Interval(-2.0, 2.0), probe=proxy)
    assert pat.switch.lo == pytest.approx(-1.0, abs=1e-6)
    assert pat.switch.hi == pytest.approx(1.0, abs=1e-6)


def test_staircase_rho_tilde_pattern(staircase_pair):
    pair, _, _ = staircase_pair
    table = mr.sample_table(pair, 2048)
    pat = detect_pattern(table.xs, table.rho_tilde, _band(1e-7, table.rho_tilde),
                         window=pair.window, probe=lambda t: mr.rho_tilde_at(pair, t))
    assert pat.kind is PatternKind.DOWN_UP
    assert pat.switch.lo == pytest.approx(-1.0, abs=1e-3)
    assert pat.switch.hi == pytest.approx(1.0, abs=1e-3)


def test_single_crossing_gives_degenerate_switch():
    samples = _samples(lambda x: x - 0.3, 0.0, 1.0)
    pat = detect_pattern(*samples, 1e-9, window=Interval(0.0, 1.0),
                         probe=interpolant(*samples))
    assert pat.kind is PatternKind.DOWN_UP
    assert pat.switch.degenerate
    assert pat.switch.lo == pytest.approx(0.3, abs=1e-3)


def test_up_down_values():
    # derivative proxy positive then negative: r rises then falls
    samples = _samples(lambda x: 0.3 - x, 0.0, 1.0)
    pat = detect_pattern(*samples, 1e-9, window=Interval(0.0, 1.0),
                         probe=interpolant(*samples))
    assert pat.kind is PatternKind.UP_DOWN
    assert pat.switch.lo == pytest.approx(0.3, abs=1e-3)


def test_values_mode_rejects_wiggles():
    xs, vs = _samples(math.sin, 0.0, 12.0, 512)
    with pytest.raises(Unclassifiable):
        detect_pattern(xs, vs, 1e-9, window=Interval(xs[0], xs[-1]), probe=interpolant(xs, vs))


def test_diffs_mode_monotone_with_flats():
    # a staircase is non-decreasing: interior flats must not confuse it
    def stair(x):
        if x < -1.0:
            return x + 1.0
        if x > 1.0:
            return x - 1.0
        return 0.0

    assert detect_direction(*_samples(stair, -2.0, 2.0), 1e-9) is PatternKind.INCREASING


def test_diffs_mode_directions():
    assert detect_direction(*_samples(lambda x: 2 * x, 0, 1), 1e-9) is PatternKind.INCREASING
    assert detect_direction(*_samples(lambda x: -x, 0, 1), 1e-9) is PatternKind.DECREASING
    assert detect_direction(*_samples(lambda x: 5.0, 0, 1), 1e-9) is PatternKind.CONSTANT
    assert detect_direction(*_samples(lambda x: x * x, -1, 1), 1e-9) is PatternKind.DOWN_UP
    assert detect_direction(*_samples(lambda x: -x * x, -1, 1), 1e-9) is PatternKind.UP_DOWN


def test_diffs_mode_rejects_double_switch():
    with pytest.raises(Unclassifiable):
        detect_direction(*_samples(math.sin, 0.0, 12.0, 512), 1e-9)


def test_vertical_mirror_property():
    for xs, vs in (
            _samples(lambda x: x - 0.5, 0.0, 1.0),     # DownUp crossing
            _samples(lambda x: 3.0, 0.0, 1.0),         # Increasing
            _samples(lambda x: -1.0 - x, 0.0, 1.0),    # Decreasing
            _samples(lambda x: 0.0, 0.0, 1.0)):        # Constant
        window = Interval(xs[0], xs[-1])
        pat = detect_pattern(xs, vs, 1e-9, window=window, probe=interpolant(xs, vs))
        neg_vs = [-v for v in vs]
        neg = detect_pattern(xs, neg_vs, 1e-9, window=window, probe=interpolant(xs, neg_vs))
        assert neg.kind is mirror_vertical(pat.kind)
        if pat.kind in (PatternKind.DOWN_UP, PatternKind.UP_DOWN):
            assert neg.switch.lo == pytest.approx(pat.switch.lo, abs=1e-9)
            assert neg.switch.hi == pytest.approx(pat.switch.hi, abs=1e-9)
    for xs, vs in (
            _samples(lambda x: x * x - 0.2, -1.0, 1.0),  # DownUp
            _samples(lambda x: 2 * x, 0.0, 1.0),         # Increasing
            _samples(lambda x: 5.0, 0.0, 1.0)):          # Constant
        kind = detect_direction(xs, vs, 1e-9)
        assert detect_direction(xs, [-v for v in vs], 1e-9) is mirror_vertical(kind)


def test_horizontal_mirror_property_diffs():
    # sampling the same values on the reversed axis mirrors the pattern
    samples = _samples(lambda x: (x - 0.6) ** 2, 0.0, 2.0)
    reversed_axis = ([-x for x in reversed(samples[0])], samples[1][::-1])
    assert detect_direction(*samples, 1e-9) is PatternKind.DOWN_UP
    assert detect_direction(*reversed_axis, 1e-9) is PatternKind.DOWN_UP


def test_too_few_samples():
    xs, vs = [float(i) for i in range(8)], [0.0] * 8
    with pytest.raises(ValueError):
        detect_pattern(xs, vs, 1e-9, window=Interval(xs[0], xs[-1]), probe=interpolant(xs, vs))


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
    assert len(detect_mics(xs, vs, _band(1e-7, vs), 3 * (1.0 / 256),
                           probe=interpolant(xs, vs))) == 0


def test_mics_maximality():
    spec = mr.StaircaseSpec(flats=((-1.0, 0.2),), slopes=(1.0, 1.0))
    rho = mr.make_staircase_rho(spec)
    n = 512
    xs, vs = _samples(lambda x: rho(x)[0], -2.0, 2.0, n)
    tol_abs = _band(1e-9, vs)
    mics = detect_mics(xs, vs, tol_abs, 3 * (4.0 / n), probe=interpolant(xs, vs))
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
    mics = detect_mics(xs, vs, _band(1e-9, vs), 0.1, probe=interpolant(xs, vs))
    assert len(mics) == 1
    assert not mics[0].lo_closed and not mics[0].hi_closed


@pytest.mark.parametrize("band", [-1e-9, math.nan])
def test_mics_rejects_negative_tol(band):
    samples = _samples(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="band"):
        detect_mics(*samples, band, 0.0, probe=interpolant(*samples))


@pytest.mark.parametrize("band", [-1e-9, math.nan])
def test_direction_rejects_negative_or_nan_band(band):
    # a NaN band once made every step a sign, no step a zero
    with pytest.raises(ValueError, match="band"):
        detect_direction(*_samples(lambda x: x, 0.0, 1.0), band)


@pytest.mark.parametrize("band", [-1e-9, math.nan])
def test_pattern_rejects_negative_or_nan_band(band):
    samples = _samples(lambda x: x - 0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="band"):
        detect_pattern(*samples, band, window=Interval(0.0, 1.0), probe=interpolant(*samples))


@pytest.mark.parametrize("band", [-1e-9, math.nan])
def test_level0_rejects_negative_or_nan_band(band):
    # the level-0 set is read off the pattern, whose detector checks the band
    with pytest.raises(ValueError, match="band"):
        level0_set(detect_pattern(*_samples(lambda x: x - 0.5, 0.0, 1.0), band,
                                  window=Interval(0.0, 1.0), probe=lambda t: t - 0.5))


def test_mics_zero_tol_run_on_the_last_sample():
    # with a zero band, the last sample must probe as exactly its own value
    # or the one-sample run there has no sign change to refine
    a = 0.2501106518892491
    xs = _grid(0.0, 1.0, 17)
    vs = [3.0] * 7 + [a] * 7 + [-3.0] * 2 + [a]
    mics = detect_mics(xs, vs, 0.0, 0.0, probe=interpolant(xs, vs))
    assert [(m.lo, m.hi) for m in mics] == [(xs[0], xs[6]), (xs[7], xs[13]),
                                            (xs[14], xs[15])]


def _reference_detect_mics(samples, tol, min_ic_len, probe):
    """detect_mics as it was before the streaming min/max sweep: for each
    left end i, a two-pointer scan finds the furthest right end j(i); runs
    whose j(i) grows are the maximal ones.  Kept as the sweep's oracle."""
    xs = [x for x, _ in samples]
    vs = [v for _, v in samples]
    tol_abs = tol * (1.0 + median_abs(vs))
    n = len(xs)
    xtol = 1e-12 * (xs[-1] - xs[0])

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
            v = probe(t)
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
        probe = interpolant(xs, vs)
        got = detect_mics(xs, vs, _band(tol, vs), min_ic_len, probe)
        assert got == _reference_detect_mics(list(zip(xs, vs)), tol, min_ic_len, probe), case


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
        probe = interpolant(xs, vs)
        got = detect_mics(xs, vs, _band(tol, vs), min_ic_len, probe)
        want = _reference_detect_mics(list(zip(xs, vs)), tol, min_ic_len, probe)
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
    probe = interpolant(xs, vs)
    assert detect_mics(xs, vs, _band(tol, vs), min_ic_len, probe) == \
        _reference_detect_mics(list(zip(xs, vs)), tol, min_ic_len, probe)


@st.composite
def _clamp_columns(draw):
    """A clamp-like column: a slope into a plateau [a, b] that wanders
    inside (or just past) the band, a slope out, sometimes a second
    plateau; uniform xs, or non-uniform ones where, with min_ic_len under
    two cells, one-sample runs count."""
    n = draw(st.integers(16, 160))
    if draw(st.booleans()):
        xs = _grid(0.0, 1.0, n)
    else:
        xs = list(itertools.accumulate(draw(st.lists(st.floats(0.01, 1.0),
                                                     min_size=n, max_size=n))))
    a, b = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
    level = draw(st.floats(-3.0, 3.0))
    slopes = st.sampled_from([1.0, -1.0, 5.0, 1e-6, -1e-9, 1e-12, 0.0])
    into, out = draw(slopes), draw(slopes)
    wiggle = draw(st.sampled_from([0.0, 1e-12, 5e-10, 1e-9, 3e-9]))
    vs = [level + into * (x - xs[a]) for x in xs[:a]]
    vs += [level + wiggle * draw(st.floats(0.0, 1.0)) for _ in range(a, b + 1)]
    vs += [level + out * (x - xs[b]) for x in xs[b + 1:]]
    if draw(st.booleans()):  # a second plateau on the tail
        c = draw(st.integers(b, n - 1))
        vs[c:] = [vs[c]] * (n - c)
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
    cells = [hi - lo for lo, hi in zip(xs, xs[1:])]
    cell = max(cells) if draw(st.booleans()) else sum(cells) / len(cells)
    min_ic_len = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])) * cell
    return xs, vs, tol, min_ic_len


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_clamp_columns())
def test_mics_one_run_pieces_match_reference_on_clamps(column):
    xs, vs, tol, min_ic_len = column
    probe = interpolant(xs, vs)
    got = detect_mics(xs, vs, _band(tol, vs), min_ic_len, probe)
    want = _reference_detect_mics(list(zip(xs, vs)), tol, min_ic_len, probe)
    assert got == want
    assert [(m.lo_closed, m.hi_closed) for m in got] == \
        [(m.lo_closed, m.hi_closed) for m in want]


@pytest.mark.parametrize("vs", [
    [1.0] * 6 + [math.inf] * 4 + [1.0] * 6,  # once a BadBracket in detect_mics
    [math.nan] + [1.0] * 15,  # once read as a negative sign: DownUp
    [1.0] * 8 + [-math.inf] + [1.0] * 7,
])
def test_detectors_reject_non_finite_samples(vs):
    xs = _grid(0.0, 1.0, len(vs))
    bad_x = xs[next(i for i, v in enumerate(vs) if not math.isfinite(v))]
    match = re.escape(f"x = {bad_x!r} is not finite")
    with pytest.raises(ValueError, match=match):
        detect_pattern(xs, vs, 1e-9, window=Interval(0.0, 1.0), probe=interpolant(xs, vs))
    with pytest.raises(ValueError, match=match):
        detect_direction(xs, vs, 1e-9)
    with pytest.raises(ValueError, match=match):
        detect_mics(xs, vs, 1e-9, 0.0, probe=interpolant(xs, vs))


def test_detectors_accept_finite_samples_whose_sum_overflows():
    xs = _grid(0.0, 1.0, 16)
    vs = [1.5e308] * 16
    mics = detect_mics(xs, vs, 0.0, 0.0, probe=interpolant(xs, vs))
    assert [(m.lo, m.hi) for m in mics] == [(xs[0], xs[-1])]
    assert detect_direction(xs, vs, 0.0) is PatternKind.CONSTANT
    pattern = detect_pattern(xs, vs, 0.0, window=Interval(0.0, 1.0), probe=interpolant(xs, vs))
    assert pattern.kind is PatternKind.INCREASING and level0_set(pattern) is None


# --- level0_set --------------------------------------------------------------

def _level0(pair, table=None):
    """The level-0 set read off r's pattern on the pair's rho-tilde column,
    banded as check_pair bands it."""
    table = table or mr.sample_table(pair)
    return level0_set(detect_pattern(table.xs, table.rho_tilde, _band(1e-7, table.rho_tilde),
                                     window=pair.window,
                                     probe=functools.partial(mr.rho_tilde_at, pair)))


def _reference_level0(pair, table):
    """The reference's second reading of the same column, at the same band."""
    return reference_level0_set(table.xs, table.rho_tilde, _band(1e-7, table.rho_tilde),
                                functools.partial(mr.rho_tilde_at, pair), pair.window)


def _assert_same_level0(got, want, tol):
    assert (got is None) == (want is None)
    if got is not None:
        assert (got.lo_closed, got.hi_closed) == (want.lo_closed, want.hi_closed)
        assert abs(got.lo - want.lo) <= tol and abs(got.hi - want.hi) <= tol


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


def _assert_unclassifiable_with_no_level0(pair):
    # a level-0 set that is no interval comes with sign runs of no
    # one-switch shape, so r's pattern is unclassifiable and no set is read;
    # the report's failure names the first reason, rho's non-monotonicity
    with pytest.raises(Unclassifiable, match="does not fit a one-switch pattern"):
        _level0(pair)
    report = mr.check_pair(pair)
    assert report.observed_pattern is None and report.level0 is None
    assert report.failure and not report.all_ok


def test_level0_non_interval_for_wavy_rho():
    pair = mr.make_pair(mr.expr_fn("sin(x)"), mr.expr_fn("x"),
                        Interval(0.1, 9.0), 1024)
    with pytest.raises(NonInterval, match="components"):
        _reference_level0(pair, mr.sample_table(pair))
    _assert_unclassifiable_with_no_level0(pair)


def test_level0_close_double_crossing_is_non_interval():
    # rho-tilde dips below zero for three samples and comes back: two sign
    # changes close enough to merge into one component with no sample in
    # the zero band, which bracket no single root
    f = "(-1.977267)*(exp(-x) - 2.60666)^3 + (-0.101499)*exp(-x) + (-0.000974)"
    pair = mr.make_pair(mr.expr_fn(f), mr.expr_fn("exp(-x)"), Interval(-2.0, 2.0))
    with pytest.raises(NonInterval, match="even number"):
        _reference_level0(pair, mr.sample_table(pair))
    _assert_unclassifiable_with_no_level0(pair)


def test_level0_agrees_with_r_mics(staircase_pair):
    pair, _, _ = staircase_pair
    table = mr.sample_table(pair, 2048)
    l0 = _level0(pair, table)
    mics = detect_mics(table.xs, table.r, _band(1e-9, table.r), 3 * pair.window.length / 2048,
                       probe=lambda t: mr.ratio_at(pair, t))
    assert len(mics) == 1
    assert abs(mics[0].lo - l0.lo) <= 2e-3
    assert abs(mics[0].hi - l0.hi) <= 2e-3


@pytest.mark.parametrize("as_tuple", [False, True], ids=["list", "tuple"])
def test_detectors_reject_non_ascending_xs(as_tuple):
    xs = _grid(0.0, 1.0, 32)
    vs = [x - 0.5 for x in xs]
    probe = interpolant(xs, vs)
    detect_mics(Grid(xs), vs, 1e-9, 0.0, probe)  # a Grid is not checked again
    for bad in (xs[:10] + [xs[11], xs[10]] + xs[12:], xs[:10] + [xs[10]] * 2 + xs[12:]):
        with pytest.raises(ValueError, match="strictly increasing"):
            Grid(bad)
        bad = tuple(bad) if as_tuple else bad
        with pytest.raises(ValueError, match="strictly increasing"):
            detect_pattern(bad, vs, 1e-9, window=Interval(0.0, 1.0), probe=probe)
        with pytest.raises(ValueError, match="strictly increasing"):
            detect_direction(bad, vs, 1e-9)
        with pytest.raises(ValueError, match="strictly increasing"):
            detect_mics(bad, vs, 1e-9, 0.0, probe)
    # a list checked once may change after: it is checked again
    xs[10], xs[11] = xs[11], xs[10]
    with pytest.raises(ValueError, match="strictly increasing"):
        detect_mics(xs, vs, 1e-9, 0.0, probe)


# --- one summary per column --------------------------------------------------

# expr_analyze-style negative controls, f = h(g) + c*g + d with h' not
# monotone on g's range: a wave, and a cubic whose h' falls then rises, so
# the first differences of rho take both signs
_NEGATIVE_CONTROLS = (
    ("0.8*sin(1.1*(exp(x)) + 0.5) + 0.3*(exp(x)) + 0.2", "exp(x)", (-2.0, 2.0)),
    ("-1.3*sin(2.4*(x + 3) + 4.1) - 0.6*(x + 3) + 0.1", "x + 3", (-2.0, 2.0)),
    ("1.2*((exp(x)) - 3.5)^3 + 0.4*(exp(x)) - 0.1", "exp(x)", (-2.0, 2.0)),
    ("-0.7*((x^2) - 4.2)^3 + 0.9*(x^2) + 0.3", "x^2", (0.5, 3.0)),
)


def _outcome(detector, *args, **kwargs):
    """The detector's result, or the type and message of its error."""
    try:
        return detector(*args, **kwargs)
    except (Unclassifiable, ValueError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("case", [*range(64), *_NEGATIVE_CONTROLS], ids=str)
def test_detectors_read_a_summary_as_the_plain_column(case):
    # every detector on r, rho and rho-tilde, at check_pair's bands, from a
    # Column over the table's grid and from plain lists
    if isinstance(case, int):
        pair = mr.random_pair(case)[0]
    else:
        f, g, window = case
        pair = mr.make_pair(mr.expr_fn(f), mr.expr_fn(g), Interval(*window))
    table = mr.sample_table(pair)
    grid, xs = table.xs, list(table.xs)
    min_ic_len = 3.0 * table.step
    directions = []
    for vs, probe in ((table.r, functools.partial(mr.ratio_at, pair)),
                      (table.rho, functools.partial(mr.rho_at, pair)),
                      (table.rho_tilde, functools.partial(mr.rho_tilde_at, pair))):
        zero, flat = _band(1e-7, vs), _band(1e-9, vs)
        column = Column(grid, vs)
        for detect in (lambda c: detect_pattern(*c, zero, window=pair.window, probe=probe),
                       lambda c: detect_direction(*c, zero),
                       lambda c: detect_mics(*c, flat, min_ic_len, probe)):
            assert _outcome(detect, (grid, column)) == _outcome(detect, (xs, list(vs)))
        directions.append(_outcome(detect_direction, grid, column, zero))
        # the sign check from the summary's signs and from the plain values
        fd_step = table.step / 16.0
        own = [(v > zero) - (v < -zero) for v in vs]
        assert column.runs(zero) == _runs(own)
        assert (_check_sign_identity(pair, grid, table.r, column.runs(zero), fd_step)
                == _check_sign_identity(pair, xs, table.r, _runs(own), fd_step))
    if not isinstance(case, int):
        # rho's differences take both signs beyond the band: the sign-run path
        assert directions[1] not in (PatternKind.INCREASING, PatternKind.DECREASING,
                                     PatternKind.CONSTANT), directions


def test_a_summary_is_read_with_its_own_grid():
    xs = Grid(_grid(0.0, 1.0, 32))
    column = Column(xs, [x - 0.5 for x in xs])
    assert detect_direction(xs, column, 1e-9) is PatternKind.INCREASING
    with pytest.raises(ValueError, match="the grid it was made over"):
        detect_direction(list(xs), column, 1e-9)


# --- the level-0 set is the pattern's switch ----------------------------------

def _epsilon_pairs(eps):
    """random_pair seeds 0-63 with a flat, rebuilt with K = rho(z) + eps."""
    quad_tol = mr.GeneratorConfig().quad_tol
    for seed in range(64):
        pair, spec, chosen = mr.random_pair(seed)
        if spec.flats:
            rho = mr.make_staircase_rho(spec)
            z = chosen.midpoint
            f = mr.construct_f(pair.g, rho, z, rho(z)[0] + eps, pair.window, quad_tol)
            yield dataclasses.replace(pair, f=f)


def _both_level0_sets(pair):
    """The level-0 set read off the pattern, and the reference's reading;
    None for a pattern or set that fails."""
    table = mr.sample_table(pair)
    try:
        got = _level0(pair, table)
    except Unclassifiable:
        got = None
    try:
        want = _reference_level0(pair, table)
    except NonInterval:
        want = None
    return got, want


@pytest.mark.parametrize("case", [*range(64), *_NEGATIVE_CONTROLS, 1e-8, 1e-7, 1e-6],
                         ids=str)
def test_level0_set_is_the_reference_reading(case):
    # the same runs at the same band, each end bisected to the same root:
    # only the bisections' xtol differs (1e-12 * L against 1e-9 * (1 + L))
    if isinstance(case, int):
        pairs = [mr.random_pair(case)[0]]
    elif isinstance(case, float):
        pairs = list(_epsilon_pairs(case))
        assert len(pairs) == 51
    else:
        f, g, window = case
        pairs = [mr.make_pair(mr.expr_fn(f), mr.expr_fn(g), Interval(*window))]
    for pair in pairs:
        _assert_same_level0(*_both_level0_sets(pair), 2e-9)


@st.composite
def _sign_shapes(draw):
    """A column of 16+ samples at band 0.5 made of 1-4 runs of distinct
    adjacent signs: out-of-band samples of magnitude 0.6-3, in-band ones
    within 0.4 of zero, either sign."""
    signs = [draw(st.sampled_from([-1, 0, 1]))]
    for _ in range(draw(st.integers(0, 3))):
        signs.append(draw(st.sampled_from([s for s in (-1, 0, 1) if s != signs[-1]])))
    lengths = [draw(st.integers(1, 12)) for _ in signs]
    lengths[-1] = max(lengths[-1], 16 - sum(lengths[:-1]))
    vs = []
    for s, k in zip(signs, lengths):
        vs += [s * draw(st.floats(0.6, 3.0)) if s else draw(st.floats(-0.4, 0.4))
               for _ in range(k)]
    return vs


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_sign_shapes())
def test_accepted_sign_shapes_are_one_level0_interval(vs):
    # a shape of one-switch form has at most one in-band run or one bare
    # crossing, so the reference's NonInterval never fires on it
    shape = [s for s, _, _ in _runs(_signs(vs, 0.5))]
    try:
        _one_switch_kind(shape)
    except Unclassifiable:
        assume(False)
    xs = _grid(0.0, 1.0, len(vs))
    window, probe = Interval(0.0, 1.0), interpolant(xs, vs)
    _assert_same_level0(level0_set(detect_pattern(xs, vs, 0.5, window=window, probe=probe)),
                        reference_level0_set(xs, vs, 0.5, probe, window), 4e-9)
