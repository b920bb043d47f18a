import bisect
import dataclasses
import functools
import itertools
import json
import math
import operator
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoratio as mr
from monoratio import Interval
from monoratio.ratio import (GRID_N_MAX, ZERO_REL_TOL, Grid, _chebyshev_points,
                             check_g_assumptions, check_grid, columns, median_abs,
                             refine_sign_change)
from monoratio.rules import check_pair

from helpers import interpolant, mirrored, mirrored_interval, negated


def _pair(f_src, g_src, lo, hi, n=256):
    return mr.make_pair(mr.expr_fn(f_src), mr.expr_fn(g_src), Interval(lo, hi), n)


def test_make_pair_records_sign():
    pair = _pair("x^2", "x", 0.1, 10.0)
    assert pair.sign_gg == 1
    assert pair.sign_gprime == 1


def test_make_pair_rejects_vanishing_g_prime():
    with pytest.raises(mr.ZeroGPrime) as exc:
        _pair("x", "sin(x)", 0.5, 3.0)
    assert exc.value.x == pytest.approx(math.pi / 2, abs=1e-6)


def test_make_pair_rejects_vanishing_g():
    with pytest.raises(mr.ZeroG) as exc:
        _pair("x^2", "x", -1.0, 1.0)
    assert exc.value.x == pytest.approx(0.0, abs=1e-6)


def test_make_pair_pole_is_sign_change():
    # g = 1/x flips sign across its pole without a root
    with pytest.raises((mr.SignChange, mr.DomainFault)):
        _pair("x", "1/x", -1.0, 1.0)


def test_make_pair_nan_g_is_sign_change():
    # 1e308*x*10 overflows to inf past x = 0.18, so g = exp(x) + NaN there;
    # min/max over a column with NaN samples would miss the flip
    with pytest.raises(mr.SignChange) as exc:
        _pair("x", "exp(x) + 0*(1e308*x*10)", 0.0, 1.0)
    assert exc.value.x == pytest.approx(0.18, abs=1e-3)


def test_zero_scan_names_the_first_zero_after_a_nan_first_sample():
    # g is NaN below x = -0.18 (0 times an overflow) and 0 up to x = 0;
    # a NaN first sample makes min NaN, which must not pass the scan
    g = "max(x, 0) + 0*(1e308*(0-x)*10)"
    xs = _chebyshev_points(Interval(-1.0, 1.0), 256)
    assert math.isnan(mr.expr_fn(g)(xs[0])[0])
    with pytest.raises(mr.ZeroG) as exc:
        _pair("x", g, -1.0, 1.0)
    assert exc.value.x == next(x for x in xs if mr.expr_fn(g)(x)[0] == 0.0)


@pytest.mark.parametrize("n", [64, 256, 2047, 2048])
@pytest.mark.parametrize("window", [(-2.0, 2.0), (-1.8, 2.2), (0.5, 3.0), (1.5, 5.0),
                                    (-1e-3, 7.25)])
def test_chebyshev_points_are_the_cosine_formula(window, n):
    mid, half = 0.5 * (window[0] + window[1]), 0.5 * (window[1] - window[0])
    want = [mid + half * math.cos(math.pi * (2 * k + 1) / (2 * n)) for k in range(n)][::-1]
    assert _chebyshev_points(Interval(*window), n) == want


def test_make_pair_window_checks():
    with pytest.raises(ValueError):
        _pair("x", "x", 2.0, 1.0)
    with pytest.raises(ValueError):
        mr.make_pair(mr.expr_fn("x"), mr.expr_fn("x"), Interval(1.0, 2.0), 32)
    with pytest.raises(ValueError, match="too narrow"):
        # steps of 1e-13/2048 cannot hold the sign check's probes apart
        _pair("x", "x + 1", 1.0, 1.0 + 1e-13, 2048)
    _pair("x", "x + 1", 1.0, 1.0 + 1e-9, 2048)  # step ~2000 ulps: accepted


def test_check_grid_ceiling():
    check_grid(0.0, 1.0, GRID_N_MAX)  # the largest accepted grid; nothing is sampled
    for grid_n in (GRID_N_MAX + 1, 10 ** 11):
        with pytest.raises(ValueError, match=f"between 64 and {GRID_N_MAX}"):
            mr.make_pair(mr.expr_fn("x"), mr.expr_fn("x + 1"), Interval(0.0, 1.0), grid_n)


class _Unsampled:
    """A g that fails any column read."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x):
        return self.fn(x)

    def column(self, xs):
        raise AssertionError(f"g sampled at {len(xs)} points")


def test_sample_table_rejects_an_n_above_the_ceiling():
    # an explicit n is held to check_grid's memory guard before any sample
    pair = _pair("x", "exp(x)", 0.0, 1.0)
    pair = dataclasses.replace(pair, g=_Unsampled(pair.g))
    with pytest.raises(ValueError, match=f"between 64 and {GRID_N_MAX}, got {GRID_N_MAX + 1}"):
        mr.sample_table(pair, GRID_N_MAX + 1)


def test_ratio_rho_values():
    pair = _pair("x^2", "x", 0.1, 10.0)
    assert mr.ratio_at(pair, 2.0) == pytest.approx(2.0)
    assert mr.rho_at(pair, 2.0) == pytest.approx(4.0)
    # (f'g - fg')/|g'| = (4*2 - 4*1)/1
    assert mr.rho_tilde_at(pair, 2.0) == pytest.approx(4.0)


def test_identity_ratio():
    pair = _pair("sin(x) + 2", "sin(x) + 2", 0.0, 1.0)
    for x in (0.1, 0.4, 0.9):
        assert mr.ratio_at(pair, x) == pytest.approx(1.0)
        assert mr.rho_at(pair, x) == pytest.approx(1.0)
        assert mr.rho_tilde_at(pair, x) == pytest.approx(0.0, abs=1e-12)


def test_rho_matches_cosine():
    pair = _pair("sin(x)", "x", 0.1, 3.0)
    assert mr.rho_at(pair, 0.5) == pytest.approx(0.877583, abs=1e-6)
    fd = (math.sin(0.5 + 1e-6) - math.sin(0.5 - 1e-6)) / 2e-6
    assert mr.rho_at(pair, 0.5) == pytest.approx(fd, abs=1e-6)


def test_staircase_point_values(staircase_pair):
    pair, _, _ = staircase_pair
    # closed-form antiderivative: r(1.5) = (e - e^1.5/2)/e^1.5
    exact_f = math.e - 0.5 * math.exp(1.5)
    assert mr.ratio_at(pair, 1.5) == pytest.approx(exact_f / math.exp(1.5), abs=1e-9)
    assert mr.ratio_at(pair, 1.5) == pytest.approx(0.106531, abs=1e-5)
    # rho-tilde from the identity (rho - r)*g*sign(g')
    expected = (0.5 - exact_f / math.exp(1.5)) * math.exp(1.5)
    assert mr.rho_tilde_at(pair, 1.5) == pytest.approx(expected, abs=1e-9)
    assert mr.rho_tilde_at(pair, 1.5) == pytest.approx(1.76341, abs=1e-4)


def test_sample_line():
    pair = _pair("x^2", "x", 0.1, 10.0)
    table = mr.sample_table(pair, 5)
    assert len(table.xs) == len(table.r) == 5
    assert isinstance(table.xs, Grid)  # ascent checked once, for every detector
    step = (10.0 - 0.1) / 5
    assert table.xs[0] == pytest.approx(0.1 + step / 2)
    for x, v in zip(table.xs, table.r):
        assert v == pytest.approx(x)  # r = x


def test_sample_rho_tilde_of_identity_is_zero():
    pair = _pair("x", "x", 1.0, 2.0)
    table = mr.sample_table(pair, 5)
    assert len(table.rho_tilde) == 5
    for v in table.rho_tilde:
        assert v == 0.0


def test_sample_rho_cosine():
    pair = _pair("sin(x)", "x", 0.1, 3.0)
    table = mr.sample_table(pair, 3)
    assert len(table.rho) == 3
    for x, v in zip(table.xs, table.rho):
        assert v == pytest.approx(math.cos(x), abs=1e-6)


@pytest.mark.parametrize("f_src,g_src,lo,hi", [
    ("x^2", "x", 0.1, 10.0),
    ("sin(x)", "x", 0.1, 3.0),
    ("exp(x)", "x + 3", -2.0, 2.0),
])
def test_rho_tilde_identity_two_routes(f_src, g_src, lo, hi):
    # (f'g - fg')/|g'| must equal (rho - r)*g*sign(g') at every sample
    pair = _pair(f_src, g_src, lo, hi)
    table = mr.sample_table(pair, 64)
    for i, x in enumerate(table.xs):
        direct = table.rho_tilde[i]
        via_identity = ((table.rho[i] - table.r[i]) * table.g_values[i]
                        * pair.sign_gprime)
        assert abs(direct - via_identity) <= 1e-9 * (1.0 + abs(direct))


def test_rho_tilde_identity_on_constructed(staircase_pair):
    pair, _, _ = staircase_pair
    table = mr.sample_table(pair, 256)
    for i in range(len(table.xs)):
        direct = table.rho_tilde[i]
        via = (table.rho[i] - table.r[i]) * table.g_values[i] * pair.sign_gprime
        assert abs(direct - via) <= 1e-9 * (1.0 + abs(direct))


def test_sign_agreement_with_ratio_difference(staircase_pair):
    # sign of the central difference of r equals sign of rho-tilde away
    # from the zero band
    pair, _, _ = staircase_pair
    table = mr.sample_table(pair, 256)
    tol = 1e-7 * (1.0 + median_abs(table.rho_tilde))
    h = table.step / 16.0
    for x, rt in zip(table.xs, table.rho_tilde):
        if abs(rt) <= tol:
            continue
        fd = (mr.ratio_at(pair, x + h) - mr.ratio_at(pair, x - h)) / (2 * h)
        assert (fd > 0) == (rt > 0)


def test_reflection_acceptance_is_symmetric():
    # a pair validates iff its x -> -x mirror does, with signs transformed
    pair = _pair("x^2", "exp(x)", -2.0, 2.0)
    flipped = mr.make_pair(mirrored(pair.f), mirrored(pair.g),
                           mirrored_interval(pair.window), pair.grid_n)
    assert flipped.sign_gprime == -pair.sign_gprime
    assert flipped.sign_gg == -pair.sign_gg

    # and a rejected pair stays rejected after mirroring
    g = mr.expr_fn("sin(x)")
    with pytest.raises(mr.ZeroGPrime):
        mr.make_pair(mr.expr_fn("x"), g, Interval(0.5, 3.0), 256)
    with pytest.raises(mr.ZeroGPrime):
        mr.make_pair(mirrored(mr.expr_fn("x")), mirrored(g),
                     Interval(-3.0, -0.5), 256)


def test_negated_wrapper():
    fn = negated(mr.expr_fn("x^2"))
    v, d = fn(3.0)
    assert v == -9.0 and d == -6.0


def test_mirrored_wrapper():
    fn = mirrored(mr.expr_fn("exp(x)"))
    v, d = fn(1.0)
    assert v == pytest.approx(math.exp(-1.0))
    assert d == pytest.approx(-math.exp(-1.0))


@pytest.mark.parametrize("f,lo,quantity", [("exp(400)*exp(400)*x", 0.0, "r"),
                                            ("exp(709)*x", 1.0, "rho-tilde")])
def test_sample_table_rejects_non_finite_samples(f, lo, quantity):
    # exp(709)*x keeps r and rho finite but f'g and fg' overflow to inf
    pair = mr.make_pair(mr.expr_fn(f), mr.expr_fn("exp(x)"), Interval(lo, lo + 1.0), 256)
    with pytest.raises(mr.ValidationError, match=f"^{quantity} takes the non-finite") as err:
        mr.sample_table(pair)
    assert err.value.x == lo + 0.5 / 256


@pytest.mark.parametrize("f,pole", [("1/(x - 0.5)", 0.5),   # bisection lands on the pole
                                    ("1/(x - 0.3)", 0.3)])  # ... or brackets it
def test_sample_table_rejects_a_pole_of_f(f, pole):
    pair = mr.make_pair(mr.expr_fn(f), mr.expr_fn("exp(x)"), Interval(0.0, 1.0), 256)
    with pytest.raises(mr.SignChange, match="^sign of f changes") as err:
        mr.sample_table(pair)
    assert err.value.x == pytest.approx(pole, abs=1e-8)


class _CountedReads:
    """fn with its column reads and scalar calls counted."""

    def __init__(self, fn):
        self.fn, self.reads, self.calls = fn, 0, 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)

    def column(self, xs):
        self.reads += 1
        return columns(self.fn, xs)


def test_sample_table_reads_a_constructed_pairs_g_once(staircase_pair):
    # the constructed f takes g's derivative column from sample_table's read
    pair, _, rho = staircase_pair
    g = _CountedReads(pair.g)
    f = mr.construct_f(g, rho, z=0.0, K=0.0, window=pair.window)
    constructed = mr.make_pair(f, g, pair.window, 256)
    g.reads = 0
    table = mr.sample_table(constructed)
    assert g.reads == 1  # its scalar calls are f's, bisecting f's zero crossing
    plain = mr.sample_table(mr.make_pair(f, pair.g, pair.window, 256))  # f.g is not pair.g
    assert (table.f_values, table.rho_tilde) == (plain.f_values, plain.rho_tilde)
    # paired with another g, f's derivatives are still rho times its own g's
    g2 = mr.expr_fn("2*exp(x)")
    other = mr.sample_table(mr.make_pair(f, g2, pair.window, 256))
    assert other.rho == list(map(operator.truediv, columns(f, other.xs)[1],
                                 columns(g2, other.xs)[1]))


def test_sample_table_reads_an_expression_pairs_f_and_g_once():
    f, g = _CountedReads(mr.expr_fn("x^2 + 1")), _CountedReads(mr.expr_fn("exp(x)"))
    pair = mr.make_pair(f, g, Interval(0.0, 1.0), 256)
    f.reads = g.reads = 0
    mr.sample_table(pair)
    assert (f.reads, g.reads, f.calls, g.calls) == (1, 1, 0, 0)


# --- the window's grids, built once per (window, n) ------------------------

def _hex(xs):
    return [x.hex() for x in xs]


def _sample_formula(lo, hi, n):
    step = (hi - lo) / n
    return [lo + (i + 0.5) * step for i in range(n)]


def _table_hex(table):
    return [_hex(column) for column in (table.xs, table.f_values, table.g_values,
                                        table.r, table.rho, table.rho_tilde)]


@pytest.mark.parametrize("n", [256, 2048])
@pytest.mark.parametrize("window", [*mr.GeneratorConfig.windows,   # random_pair's
                                    (0.5, 3.0), (1.5, 5.0),        # and expr_analyze's
                                    (-0.0, 1.0)])
def test_sample_grid_is_the_formula_bit_for_bit(window, n):
    table = mr.sample_table(_pair("x", "exp(x)", *window, n))
    assert _hex(table.xs) == _hex(_sample_formula(*window, n))
    assert table.xs.max_cell == max(map(operator.sub, table.xs[1:], table.xs))


def test_a_window_at_minus_zero_shares_the_grid_of_zero():
    neg, pos = (mr.sample_table(_pair("x", "exp(x)", lo, 1.0, 512)).xs for lo in (-0.0, 0.0))
    assert neg is pos
    assert _hex(neg) == _hex(_sample_formula(-0.0, 1.0, 512))


def test_tables_over_one_window_share_one_grid(monkeypatch):
    calls, max_cell = [], Grid.max_cell.func
    counted = functools.cached_property(lambda grid: calls.append(1) or max_cell(grid))
    counted.__set_name__(Grid, "max_cell")
    monkeypatch.setattr(Grid, "max_cell", counted)
    window = (-1.25, 2.75)  # sampled by no other test: the grid is built here
    a = mr.sample_table(_pair("x^2", "exp(x)", *window, 2048))
    b = mr.sample_table(_pair("sin(x)", "exp(x)", *window, 2048))
    assert a.xs is b.xs
    assert a.xs.max_cell == b.xs.max_cell == max_cell(Grid(_sample_formula(*window, 2048)))
    assert len(calls) == 1
    # another n or another window is another grid
    assert mr.sample_table(_pair("x^2", "exp(x)", *window, 1024)).xs is not a.xs
    assert mr.sample_table(_pair("x^2", "exp(x)", -1.25, 2.5, 2048)).xs is not a.xs


def test_chebyshev_points_are_a_fresh_list():
    window = Interval(-1.8, 2.2)
    xs = _chebyshev_points(window, 256)
    want = list(xs)
    xs[0] = math.nan
    xs.reverse()
    assert _chebyshev_points(window, 256) == want


def test_the_grid_caches_stay_small_and_rebuild_bit_for_bit():
    pairs = [_pair("x^3 + x", "exp(x)", -2.0 + 0.1 * k, 2.0 + 0.1 * k, 2048) for k in range(6)]
    first = [_table_hex(mr.sample_table(pair)) for pair in pairs]
    assert mr.ratio._analysis_grid.cache_info().currsize <= 4
    assert mr.ratio._chebyshev_grid.cache_info().currsize <= 4
    misses = mr.ratio._analysis_grid.cache_info().misses
    assert _table_hex(mr.sample_table(pairs[0])) == first[0]
    assert mr.ratio._analysis_grid.cache_info().misses == misses + 1  # it was evicted


def test_threads_that_share_a_window_read_the_same_reports():
    window = Interval(-1.75, 2.25)  # sampled by no other test: the threads race on the misses
    pairs = [mr.make_pair(mr.expr_fn(f), mr.expr_fn("exp(x)"), window)
             for f in ("x^3 + exp(x)", "max(x - 0.5, 0)^2 + 0.3*exp(x)", "sin(3*x)*exp(x)")]
    results = []

    def work():
        results.append([json.dumps(check_pair(pair).to_dict(), sort_keys=True)
                        for pair in pairs])

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = [json.dumps(check_pair(pair).to_dict(), sort_keys=True) for pair in pairs]
    assert results == [expected] * len(threads)


# --- check_g_assumptions' extremes against the abs-based scans -------------

def _reference_chase(xs, window, tracks):
    """_chase_sign_flips as it was before it read shared extremes: each
    track is (values, probe, name, zero_error) and takes its own min/max."""
    xtol = 1e-9 * (1.0 + window.length)
    flips = []
    for k, (values, *_) in enumerate(tracks):
        if not math.isnan(sum(values)) and (min(values) > 0.0 or max(values) <= 0.0):
            continue
        positive = [v > 0.0 for v in values]
        flips += ((i, k) for i in itertools.compress(range(len(xs) - 1),
                                                     map(operator.ne, positive, positive[1:])))
    for i, k in sorted(flips):
        values, probe, name, zero_error = tracks[k]
        try:
            root = refine_sign_change(probe, (xs[i], xs[i + 1]), xtol)
            small = abs(probe(root)) <= 1e-6 * max(1.0, max(map(abs, values)))
        except ArithmeticError as err:
            raise mr.SignChange(getattr(err, "x", xs[i]), name) from None
        if not small:
            raise mr.SignChange(root, name)
        if zero_error is not None:
            raise zero_error(root)


def _reference_check_g(g, window, n):
    """check_g_assumptions as it was with one abs map per zero scan."""
    xs = _chebyshev_points(window, n)
    values, derivs = columns(g, xs)
    for column, zero_error in ((values, mr.ZeroG), (derivs, mr.ZeroGPrime)):
        tol = ZERO_REL_TOL * max(1.0, max(map(abs, column)))
        if not min(map(abs, column)) > tol:
            for x, v in zip(xs, column):
                if abs(v) <= tol:
                    raise zero_error(x)
    _reference_chase(xs, window, ((values, lambda t: g(t)[0], "g", mr.ZeroG),
                                  (derivs, lambda t: g(t)[1], "g'", mr.ZeroGPrime)))
    return (1 if values[0] > 0.0 else -1), (1 if derivs[0] > 0.0 else -1)


class _TableG:
    """A g given by its two sample columns on the Chebyshev points, probed
    between them on their linear interpolants (roots), or as steps that
    hold each sample's value up to the next (poles)."""

    def __init__(self, xs, values, derivs, steps):
        self.values, self.derivs = values, derivs
        if steps:
            self._value, self._deriv = (
                lambda t, column=column: column[max(bisect.bisect_right(xs, t) - 1, 0)]
                for column in (values, derivs))
        else:
            self._value, self._deriv = interpolant(xs, values), interpolant(xs, derivs)

    def column(self, xs):
        return list(self.values), list(self.derivs)

    def __call__(self, t):
        return self._value(t), self._deriv(t)


_G_N = 24
_SPECIALS = st.sampled_from([0.0, -0.0, 1e-15, 1e-12, 2e-12, 1e300, math.inf, math.nan])


@st.composite
def _g_columns(draw):
    """A column of one sign, one that flips sign, one with a NaN first, or
    any of these with a few special samples: a zero, magnitudes at or near
    the zero tolerance, huge ones, an infinity or a NaN."""
    kind = draw(st.sampled_from(["positive", "negative", "flip", "nan_first"]))
    column = draw(st.lists(st.floats(0.5, 1e3), min_size=_G_N, max_size=_G_N))
    if kind != "positive":
        column = [-v for v in column] if kind != "flip" else \
            [v if draw(st.booleans()) else -v for v in column]
    for i, special in draw(st.lists(st.tuples(st.integers(0, _G_N - 1), _SPECIALS),
                                    max_size=2)):
        column[i] = math.copysign(special, column[i])
    if kind == "nan_first":
        column[0] = math.nan
    return column


def _outcome(check, g, window):
    try:
        return check(g, window, _G_N)
    except (ArithmeticError, ValueError) as err:
        return type(err), getattr(err, "x", None), str(err)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_g_columns(), _g_columns(), st.booleans())
def test_g_check_extremes_match_the_abs_scans(values, derivs, steps):
    window = Interval(-1.0, 2.0)
    g = _TableG(_chebyshev_points(window, _G_N), values, derivs, steps)
    assert _outcome(check_g_assumptions, g, window) == _outcome(_reference_check_g, g, window)
