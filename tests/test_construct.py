import hashlib
import math
import random

import pytest

import monoratio as mr
from monoratio import Interval, construct, ratio
from monoratio.construct import (_PANELS, G_TEMPLATES, ConstructedFn,
                                 GeneratorConfig, QuadratureError,
                                 StaircaseError, StaircaseFn, StaircaseSpec,
                                 _build_points, _check_rho_monotone, _draw_flats,
                                 _leaf_table, _window_points, construct_f,
                                 make_staircase_rho, random_pair)
from monoratio.expr import DomainFault
from monoratio.ratio import GRID_N_MAX, ValidationError, check_g_assumptions, median_abs

from helpers import OneFlatOrMore, interpolant, simpson_leaves


def _unit_flat_spec():
    return StaircaseSpec(flats=((-1.0, 1.0),), slopes=(1.0, 1.0))


# --- adaptive Simpson --------------------------------------------------------

def test_simpson_polynomial_exact():
    leaves = simpson_leaves(lambda u: u * u, (0.0, 3.0), 1e-10)
    assert sum(value for *_, value in leaves) == pytest.approx(9.0, abs=1e-12)


def test_simpson_depth_exhaustion():
    # rounding keeps every estimate above a tolerance this small, down to
    # the depth bound; the build's own refinement stops at the same panel
    with pytest.raises(QuadratureError) as reference:
        list(simpson_leaves(math.exp, (0.0, 4.0), 1e-18))
    with pytest.raises(QuadratureError) as build:
        _leaf_table(lambda x: (1.0, 0.0), G_TEMPLATES[1][0], [0.0, 4.0],
                    [0.0, 1.0, 2.0, 3.0, 4.0], 1e-18)
    assert vars(build.value) == vars(reference.value)
    assert reference.value.b - reference.value.a == 4.0 / 2 ** 40


# --- staircase ---------------------------------------------------------------

def test_staircase_values():
    rho = make_staircase_rho(_unit_flat_spec())
    assert rho(-1.5) == (-0.5, 1.0)
    assert rho(0.0) == (0.0, 0.0)
    assert rho(2.0) == (1.0, 1.0)


def test_staircase_exact_on_flat():
    spec = StaircaseSpec(flats=((-1.0, 1.0),), slopes=(2.0, 0.5),
                         anchor_value=0.25)
    rho = make_staircase_rho(spec)
    for x in (-1.0, -0.3, 0.0, 0.9, 0.999999):
        assert rho(x) == (0.25, 0.0)


def test_staircase_right_hand_derivative_at_breakpoints():
    rho = make_staircase_rho(_unit_flat_spec())
    assert rho(-1.0)[1] == 0.0  # entering the flat
    assert rho(1.0)[1] == 1.0   # leaving it


def test_staircase_down_direction():
    spec = StaircaseSpec(flats=((0.0, 1.0),), slopes=(1.0, 2.0),
                         direction="down")
    rho = make_staircase_rho(spec)
    assert rho(-1.0)[0] == pytest.approx(1.0)
    assert rho(0.5)[0] == 0.0
    assert rho(2.0)[0] == pytest.approx(-2.0)


def test_staircase_no_flats_is_a_line():
    spec = StaircaseSpec(flats=(), slopes=(1.5,), anchor_value=0.5)
    rho = make_staircase_rho(spec)
    assert rho(0.0) == (0.5, 1.5)
    assert rho(2.0)[0] == pytest.approx(3.5)
    xs = [-2 + (i + 0.5) * (4 / 256) for i in range(256)]
    vs = [rho(x)[0] for x in xs]
    assert len(mr.detect_mics(xs, vs, 1e-9 * (1.0 + median_abs(vs)), 3 * 4 / 256,
                              probe=interpolant(xs, vs))) == 0


def test_staircase_spec_validation():
    with pytest.raises(StaircaseError):
        StaircaseSpec(flats=((0.0, 1.0), (0.5, 2.0)), slopes=(1.0, 1.0, 1.0))
    with pytest.raises(StaircaseError):
        StaircaseSpec(flats=((0.0, 1.0),), slopes=(1.0, -1.0))
    with pytest.raises(StaircaseError):
        StaircaseSpec(flats=((0.0, 1.0),), slopes=(1.0,))
    with pytest.raises(StaircaseError):
        StaircaseSpec(flats=((1.0, 1.0),), slopes=(1.0, 1.0))
    with pytest.raises(StaircaseError):
        StaircaseSpec(direction="sideways")


def test_staircase_spec_json_round_trip():
    spec = StaircaseSpec(flats=((-1.5, -1.0), (1.0, 1.5)),
                         slopes=(1.0, 2.0, 0.5), direction="down",
                         anchor_value=-0.25)
    data = {"flats": [[-1.5, -1.0], [1.0, 1.5]], "slopes": [1.0, 2.0, 0.5],
            "direction": "down", "anchor_value": -0.25}
    assert StaircaseSpec.from_json_dict(data) == spec


# --- the constructor ---------------------------------------------------------

def test_constructed_against_closed_form_exp():
    rho = make_staircase_rho(_unit_flat_spec())
    g = mr.expr_fn("exp(x)")
    f = construct_f(g, rho, z=0.0, K=0.0, window=Interval(-2.0, 2.0))
    # antiderivative of (u-1)e^u is (u-2)e^u
    exact_hi = math.e - 0.5 * math.exp(1.5)
    # antiderivative of (u+1)e^u is u e^u
    exact_lo = math.exp(-1.0) - 1.5 * math.exp(-1.5)
    assert abs(f(1.5)[0] - exact_hi) <= 1e-6
    assert abs(f(-1.5)[0] - exact_lo) <= 1e-6
    assert f(1.5)[0] == pytest.approx(0.477437, abs=1e-6)
    assert f(-1.5)[0] == pytest.approx(0.033184, abs=1e-6)
    assert f(0.0)[0] == 0.0  # K*g(z) with K = 0


def test_constructed_constant_rho_gives_multiple_of_g():
    spec = StaircaseSpec(flats=(), slopes=(1.0,), anchor_value=0.0)

    def const_rho(x):
        return 2.5, 0.0

    g = mr.expr_fn("exp(x)")
    f = construct_f(g, const_rho, z=0.0, K=2.5, window=Interval(-2.0, 2.0))
    for x in (-1.7, -0.4, 0.0, 1.1, 1.9):
        assert f(x)[0] == pytest.approx(2.5 * math.exp(x), abs=1e-9)


def test_constructed_derivative_is_rho_times_g_prime(staircase_pair):
    pair, spec, rho = staircase_pair
    table = mr.sample_table(pair, 512)
    for i, x in enumerate(table.xs):
        want = rho(x)[0]
        assert abs(table.rho[i] - want) <= 1e-9 * (1.0 + abs(want))


def test_construct_validates_z():
    rho = make_staircase_rho(_unit_flat_spec())
    with pytest.raises(ValueError):
        construct_f(mr.expr_fn("exp(x)"), rho, z=5.0, K=0.0,
                    window=Interval(-2.0, 2.0))


def test_construct_rejects_nan_z():
    # every comparison with NaN is false, so a NaN z once passed the window
    # check and built an f of NaNs, which failed only in sample_table
    assert not Interval(-1.0, 1.0).contains(math.nan)
    rho = make_staircase_rho(StaircaseSpec())
    with pytest.raises(ValueError, match="outside the window"):
        construct_f(G_TEMPLATES[1][0], rho, math.nan, 0.0, Interval(-1.0, 1.0))


def test_construct_validates_g():
    rho = make_staircase_rho(_unit_flat_spec())
    with pytest.raises(mr.ZeroG):
        construct_f(mr.expr_fn("x"), rho, z=0.0, K=0.0,
                    window=Interval(-2.0, 2.0))


def test_construct_rejects_non_monotone_rho():
    with pytest.raises(ValueError, match="monotone"):
        construct_f(mr.expr_fn("exp(x)"), mr.expr_fn("x^2"), z=0.0, K=0.0,
                    window=Interval(-2.0, 2.0))


def _walked_reversal(vs):
    """The index where the step-by-step walk over vs meets its first
    reversal, or None: the reference for _check_rho_monotone's verdict."""
    tol = 1e-12 * (1.0 + max(map(abs, vs)))
    direction = 0
    for i in range(len(vs) - 1):
        delta = vs[i + 1] - vs[i]
        step_dir = 1 if delta > tol else -1 if delta < -tol else 0
        if step_dir and step_dir == -direction:
            return i
        direction = step_dir or direction
    return None


def _monotone_columns():
    # walks of big and in-band steps: rises, falls and ties within the band
    rng = random.Random(5)
    for _ in range(300):
        steps = rng.choice(([1.0, 0.0, 1e-13], [-1.0, 0.0, -1e-13, 1e-13], [1.0, -1.0, 0.0, 1e-13],
                            [1.0, -1e-10, 0.0], [0.0, 1e-13, -1e-13], [1e-11, -1e-11, 0.0, 1e-13]))
        vs = [rng.uniform(-2.0, 2.0)]
        for _ in range(127):
            vs.append(vs[-1] + rng.choice(steps) * rng.uniform(0.5, 1.5))
        yield vs
    yield [1.0] * 128
    yield [float(i % 2) * 1e-13 for i in range(128)]  # a wiggle inside the band
    yield [float(i) for i in range(64)] + [63.0 - 1e-9] * 64  # one fall just past it


def test_check_rho_monotone_matches_the_walk():
    window, outcomes = Interval(-2.0, 2.0), set()
    step = window.length / 127
    xs = [window.lo + i * step for i in range(128)]
    for vs in _monotone_columns():
        table = dict(zip(xs, vs))
        i = _walked_reversal(vs)
        outcomes.add(i is None)
        if i is None:
            _check_rho_monotone(lambda x: (table[x], 0.0), window)
            continue
        with pytest.raises(ValidationError) as err:
            _check_rho_monotone(lambda x: (table[x], 0.0), window)
        assert err.value.x == xs[i]
        assert str(err.value) == str(ValidationError(xs[i], "rho is not monotone on the window"))
    assert outcomes == {True, False}


@pytest.mark.parametrize("quad_tol", [math.nan, -1.0, 0.0, math.inf])
def test_construct_rejects_bad_quad_tol(quad_tol):
    # built with NaN or -1, every panel fails and the error blames the
    # quadrature; built with inf, the kinks at 0.3 and 0.8 go unrefined
    g, rho, window = mr.expr_fn("exp(x)"), mr.expr_fn("max(min(x, 0.3), x - 0.5)"), Interval(-2.0, 2.0)
    for build in (construct_f, ConstructedFn):
        with pytest.raises(ValueError) as err:
            build(g, rho, 0.5, 0.3, window, quad_tol)
        assert type(err.value) is ValueError
        assert str(err.value) == f"quad_tol must be finite and above 0, got {quad_tol!r}"


def test_construct_rejects_zero_length_window():
    # with no node interval the build has no leaf to hold z
    g, rho, window = mr.expr_fn("exp(x)"), mr.expr_fn("atan(x)"), Interval(0.0, 0.0)
    for build in (construct_f, ConstructedFn):
        with pytest.raises(ValueError) as err:
            build(g, rho, 0.0, 0.0, window)
        assert str(err.value) == "window must have positive length, got [0, 0]"


def test_construct_smooth_atan_rho():
    # smooth monotone rho without breakpoints; single degenerate choice
    rho = mr.expr_fn("atan(2*x)")
    g = mr.expr_fn("exp(x)")
    f = construct_f(g, rho, z=0.0, K=0.0, window=Interval(-2.0, 2.0))
    pair = mr.make_pair(f, g, Interval(-2.0, 2.0), 1024)
    report = mr.check_pair(pair)
    assert report.all_ok
    assert len(report.mics_r) == 0
    assert report.level0 is not None and report.level0.degenerate
    assert report.level0.lo == pytest.approx(0.0, abs=1e-6)


def test_polynomial_case_near_machine_precision():
    # g' = 1 makes the integrand piecewise linear: Simpson is exact
    rho = make_staircase_rho(_unit_flat_spec())
    g = mr.expr_fn("x + 3")
    f = construct_f(g, rho, z=0.0, K=0.0, window=Interval(-2.0, 2.0))
    assert f(2.0)[0] == pytest.approx(0.5, abs=1e-12)


# --- the blocked table build -------------------------------------------------

def _scalar_table(g, rho, window, quad_tol=1e-10):
    """(starts, rows) by one integrand call per sample and one leaf at a
    time: the reference the blocked build must match float for float."""

    def integrand(u):
        return rho(u)[0] * g(u)[1]

    nodes, _ = _sorted_points(window.lo, window.hi, getattr(rho, "breakpoints", ()))
    starts, rows, cum = [], [], 0.0
    for x0, h, f0, f1, f2, f3, f4, _ in simpson_leaves(integrand, nodes, quad_tol):
        p1, p2, p3, p4 = f1 - f0, f2 - f1, f3 - f2, f4 - f3
        q1, q2, q3 = p2 - p1, p3 - p2, p4 - p3
        r1, r2 = q2 - q1, q3 - q2
        d1, d2, d3, d4 = p1, q1, r1, r2 - r1
        c1 = h * f0
        c2 = h * (2.0 * d1 - d2 + 2.0 / 3.0 * d3 - 0.5 * d4)
        c3 = h * (8.0 / 3.0 * (d2 - d3) + 22.0 / 9.0 * d4)
        c4 = h * (8.0 / 3.0 * d3 - 4.0 * d4)
        c5 = h * (32.0 / 15.0 * d4)
        starts.append(x0)
        rows.append((cum, 1.0 / h, c1, c2, c3, c4, c5))
        cum += c1 + (c2 + (c3 + (c4 + c5)))
    return starts, rows


def _build_specs():
    """construct_build-style builds: every template g meets 0-3 flats."""
    config, templates = GeneratorConfig(), G_TEMPLATES[1] + G_TEMPLATES[-1]
    for i in range(64):
        rng = random.Random(i)
        window = Interval(*config.windows[i // 8 % 4])
        flats = _draw_flats(rng, window, config, (i + i // 8) % 4)
        spec = StaircaseSpec(
            flats=flats, slopes=tuple(rng.uniform(*config.slope_range) for _ in range(len(flats) + 1)),
            direction=rng.choice(("up", "down")), anchor_value=rng.uniform(*config.anchor_range))
        yield templates[i % 8], make_staircase_rho(spec), window, 1e-10


def _builds():
    for seed in range(64):
        pair, spec, _ = random_pair(seed)
        yield f"seed{seed}", (pair.g, make_staircase_rho(spec), pair.window, 1e-10)
    for i, build in enumerate(_build_specs()):
        yield f"spec{i}", build
    # the README's construct examples
    window = Interval(-2.0, 2.0)
    yield "readme-staircase", (mr.expr_fn("exp(x)"), make_staircase_rho(_unit_flat_spec()),
                               window, 1e-10)
    yield "readme-atan", (mr.expr_fn("exp(x)"), mr.expr_fn("atan(x)"), window, 1e-10)
    # refined well past the node grid: about 1,550 leaves each
    for text in ("exp(3*x)", "1/(x+2.1)"):
        yield text, (mr.expr_fn(text), make_staircase_rho(StaircaseSpec()), window, 1e-13)


_BUILDS = dict(_builds())


@pytest.mark.parametrize("name", _BUILDS)
def test_blocked_build_matches_scalar_build(name):
    g, rho, window, quad_tol = _BUILDS[name]
    f = ConstructedFn(g, rho, window.midpoint, 0.0, window, quad_tol)
    starts, rows = _scalar_table(g, rho, window, quad_tol)
    # float.hex, not ==: equality cannot tell -0.0 from 0.0
    assert type(f._starts) is list and {type(row) for row in f._table} == {tuple}
    assert list(map(float.hex, f._starts)) == list(map(float.hex, starts))
    assert [tuple(map(float.hex, row)) for row in f._table] == \
        [tuple(map(float.hex, row)) for row in rows]
    if quad_tol < 1e-10:
        assert len(starts) > 1500


def test_blocked_build_depth_exhaustion_matches_scalar_build():
    # a jump between nodes: the panel holding it never converges
    def step_rho(x):
        return (1.0 if x > 0.3 else 0.0), 0.0

    g, window = mr.expr_fn("exp(x)"), Interval(-2.0, 2.0)
    with pytest.raises(QuadratureError) as scalar:
        _scalar_table(g, step_rho, window)
    with pytest.raises(QuadratureError) as blocked:
        ConstructedFn(g, step_rho, 0.0, 0.0, window)
    assert (blocked.value.a, blocked.value.b, blocked.value.estimate) == \
        (scalar.value.a, scalar.value.b, scalar.value.estimate)
    assert blocked.value.a < 0.3 < blocked.value.b


def _faulty_step_rho(fault_lo, fault_hi):
    """A step at 0.3 that rho faults on in [fault_lo, fault_hi): both in
    the node block [0.25, 0.5] of [-2, 2], clear of the monotonicity
    probe's samples."""
    def rho(x):
        if fault_lo <= x < fault_hi:
            raise DomainFault(x, "planted fault")
        return (1.0 if x > 0.3 else 0.0), 0.0
    return rho


@pytest.mark.parametrize("fault_lo, fault_hi, x", [
    # a sample of the jump's block: the column is read, and faults, before
    # the jump's panel is refined
    (0.4, 0.401, 0.400390625),
    # [0.2578125, 0.26171875] faults at its mid, last quarter point and
    # end; the mid is the column's first
    (0.2597, 0.2618, 0.259765625),
])
def test_blocked_build_raises_the_columns_first_fault(fault_lo, fault_hi, x):
    rho, g, window = _faulty_step_rho(fault_lo, fault_hi), mr.expr_fn("exp(x)"), Interval(-2.0, 2.0)
    with pytest.raises(DomainFault) as blocked:
        construct_f(g, rho, 0.0, 0.0, window)
    assert blocked.value.x == x


def test_blocked_build_raises_rhos_fault_before_gs():
    # g faults at 0.25, left of rho's fault at 1.5; both are build points,
    # and neither is a sample of construct_f's checks
    g = mr.expr_fn("exp(x) + 0*log(abs(x - 0.25))")
    rho = mr.expr_fn("x + 0*log(abs(x - 1.5))")
    with pytest.raises(DomainFault) as blocked:
        construct_f(g, rho, 0.0, 0.0, Interval(-2.0, 2.0))
    assert blocked.value.x == 1.5
    with pytest.raises(DomainFault) as g_only:
        construct_f(g, mr.expr_fn("x"), 0.0, 0.0, Interval(-2.0, 2.0))
    assert g_only.value.x == 0.25


def test_blocked_build_without_split_makes_no_scalar_rho_calls(monkeypatch):
    calls, reads = [], []
    monkeypatch.setattr(StaircaseFn, "__call__",
                        lambda self, x: calls.append(x) or (0.0, 0.0))
    for name in ("values", "columns"):
        monkeypatch.setattr(construct, name, lambda fn, xs, name=name, read=getattr(construct, name):
                            reads.append((name, fn, len(xs))) or read(fn, xs))
    g, rho, window, _ = list(_build_specs())[3]
    assert rho.breakpoints
    f = construct_f(g, rho, window.midpoint, 0.0, window)
    assert len(f._starts) == _PANELS + len(rho.breakpoints)  # no panel split
    assert calls == []
    # the monotone check's samples, then the build's one column of rho's
    # values and one of g's over every leaf's five samples
    samples = 4 * len(f._starts) + 1
    assert reads == [("values", rho, 128), ("values", rho, samples), ("columns", g, samples)]


def test_refinement_samples_only_points_the_column_lacks(monkeypatch):
    # the kinks at 0.3 and 0.8 fail two intervals' first estimates; their
    # refinement starts from the column's five samples of each, so every
    # scalar rho call is at a new point (78 calls, 10 of them repeats,
    # when it sampled the five again)
    calls, column = [], []
    rho, g = mr.expr_fn("max(min(x, 0.3), x - 0.5)"), mr.expr_fn("exp(x)")
    recording = type("Recording", (), {
        "__call__": lambda self, x: calls.append(x) or rho(x),
        "values": lambda self, xs: column.extend(xs) or ratio.values(rho, xs)})()
    f = ConstructedFn(g, recording, 0.5, 0.3, Interval(-2.0, 2.0), 1e-10)
    assert len(calls) == len(set(calls)) == 68
    assert set(calls).isdisjoint(column)
    # the table is the one the resampling build made, float for float
    table = repr([[x.hex() for x in f._starts], [[v.hex() for v in row] for row in f._table]])
    assert len(f._starts) == 1041
    assert hashlib.sha256(table.encode()).hexdigest() == \
        "f4d808dc37a5ef0690bc78121bda25e4f853ba5a628efd94963edc26558278e7"


# --- the build points ---------------------------------------------------------

def _sorted_points(lo, hi, breakpoints):
    """(ends, xs) by sorting the nodes with the breakpoints and computing
    every interval's samples: the reference _build_points must match."""
    step = (hi - lo) / _PANELS
    ends = sorted([lo + i * step for i in range(_PANELS)]
                  + [x for x in breakpoints if lo < x < hi]) + [hi]
    mids = [0.5 * (a + b) for a, b in zip(ends, ends[1:])]
    xs = [0.0] * (4 * len(mids) + 1)
    xs[0::4], xs[2::4] = ends, mids
    xs[1::4] = [0.5 * (a + m) for a, m in zip(ends, mids)]
    xs[3::4] = [0.5 * (m + b) for m, b in zip(mids, ends[1:])]
    return ends, xs


def _breakpoint_cases(lo, hi):
    step = (hi - lo) / _PANELS
    node, rng = lo + 512 * step, random.Random(hash((lo, hi)))
    yield "none", ()
    yield "on a node", (node,)
    yield "duplicates", (node, node, lo + 3.3 * step, lo + 3.3 * step)
    yield "two in one interval", (lo + 7.6 * step, lo + 7.2 * step)
    yield "beside a node", (math.nextafter(node, math.inf), math.nextafter(node, -math.inf))
    yield "at and outside the edges", (lo, hi, lo - 1.0, hi + 1.0, lo + step)
    yield "signed zeros", (-0.0, 0.0, 0.0)
    for k in range(8):
        yield f"random {k}", tuple(rng.uniform(lo - 0.1, hi + 0.1) for _ in range(rng.randint(1, 9)))


@pytest.mark.parametrize("window", GeneratorConfig.windows + ((0.5, 3.0), (1.5, 5.0), (-0.0, 1.0)))
def test_build_points_match_sorted_points(window):
    for name, breakpoints in _breakpoint_cases(*window):
        # float.hex, not ==: equality cannot tell -0.0 from 0.0
        got, want = _build_points(*window, breakpoints), _sorted_points(*window, breakpoints)
        assert [list(map(float.hex, v)) for v in got] == [list(map(float.hex, v)) for v in want], name


def test_window_points_cache_holds_four_windows_and_rebuilds_bit_for_bit():
    _window_points.cache_clear()
    windows = GeneratorConfig.windows + ((0.5, 3.0),)
    first = [points.tobytes() for points in _window_points(*windows[0])]
    for window in windows[1:]:
        _window_points(*window)
    assert _window_points.cache_info().currsize == 4
    assert [points.tobytes() for points in _window_points(*windows[0])] == first
    assert _window_points.cache_info().misses == 6


def test_window_points_share_signed_zeros_entry():
    _window_points.cache_clear()
    assert _window_points(0.0, 1.0) is _window_points(-0.0, 1.0)
    assert _window_points.cache_info().currsize == 1


def test_a_column_that_mutates_its_xs_leaves_the_next_build_intact():
    exp = G_TEMPLATES[1][0]

    class Scribbler:
        """exp(x) whose column overwrites the xs it is handed."""
        __call__ = staticmethod(exp)

        def column(self, xs):
            out = exp.column(xs)
            xs[:] = [math.nan] * len(xs)
            return out

    spec = StaircaseSpec(flats=((-0.5, 0.25),), slopes=(1.0, 2.0))
    window = Interval(-2.0, 2.0)
    ConstructedFn(Scribbler(), make_staircase_rho(spec), 0.0, 0.0, window)
    f = ConstructedFn(exp, make_staircase_rho(spec), 0.0, 0.0, window)
    starts, rows = _scalar_table(exp, make_staircase_rho(spec), window)
    assert list(map(float.hex, f._starts)) == list(map(float.hex, starts))
    assert [tuple(map(float.hex, row)) for row in f._table] == \
        [tuple(map(float.hex, row)) for row in rows]


# --- the generator -----------------------------------------------------------

def test_random_pair_deterministic():
    a_pair, a_spec, a_mic = random_pair(123, GeneratorConfig(grid_n=256))
    b_pair, b_spec, b_mic = random_pair(123, GeneratorConfig(grid_n=256))
    assert a_spec == b_spec
    assert a_mic == b_mic
    ta = mr.sample_table(a_pair, 256)
    tb = mr.sample_table(b_pair, 256)
    assert ta.r == tb.r and ta.rho == tb.rho  # bitwise identical


def test_random_pair_covers_all_rows():
    config = GeneratorConfig(grid_n=256)
    seen = set()
    for seed in range(100):
        pair, spec, _ = random_pair(seed, config)
        rho_dir = "up" if spec.direction == "up" else "down"
        seen.add((rho_dir, pair.sign_gg))
    assert seen == {("up", 1), ("down", 1), ("up", -1), ("down", -1)}


def test_random_pair_round_trip_exact():
    config = GeneratorConfig(grid_n=512)
    for seed in (0, 1, 2, 3, 11):
        pair, spec, _ = random_pair(seed, config)
        rho = make_staircase_rho(spec)
        table = mr.sample_table(pair, 512)
        for i, x in enumerate(table.xs):
            want = rho(x)[0]
            assert abs(table.rho[i] - want) <= 1e-9 * (1.0 + abs(want))


def test_random_pair_chosen_flat_is_the_mic():
    config = OneFlatOrMore(grid_n=1024)
    for seed in range(8):
        pair, spec, chosen = random_pair(seed, config)
        step = pair.window.length / pair.grid_n
        table = mr.sample_table(pair, pair.grid_n)
        mics = mr.detect_mics(table.xs, table.r, 1e-9 * (1.0 + median_abs(table.r)),
                              3 * step, probe=lambda t: mr.ratio_at(pair, t))
        assert len(mics) == 1
        assert mics[0].lo == pytest.approx(chosen.lo, abs=1e-3)
        assert mics[0].hi == pytest.approx(chosen.hi, abs=1e-3)


# --- g is validated once per generated pair ----------------------------------

@pytest.mark.parametrize("window", GeneratorConfig.windows)
@pytest.mark.parametrize("sign_gg,g", [(k, g) for k, gs in G_TEMPLATES.items() for g in gs],
                         ids=lambda v: getattr(v, "label", str(v)))
def test_g_templates_pass_the_full_grid_check_on_every_window(sign_gg, g, window):
    # random_pair validates g at construct_f's 256 points alone: the
    # catalogue passes make_pair's 2048-point check on every window, with
    # the row's sign of g*g' and the sign of g' random_pair reads at lo
    window = Interval(*window)
    sign_g, sign_gp = check_g_assumptions(g, window, 2048)
    assert sign_g * sign_gp == sign_gg
    assert sign_gp == (1 if g(window.lo)[1] > 0.0 else -1)


@pytest.mark.parametrize("seed", range(64))
def test_random_pair_equals_the_pair_make_pair_validates(seed):
    pair = random_pair(seed)[0]
    assert pair == mr.make_pair(pair.f, pair.g, pair.window, pair.grid_n)


def test_random_pair_checks_g_once(monkeypatch):
    calls = []
    for module in (construct, ratio):
        real = module.check_g_assumptions
        monkeypatch.setattr(module, "check_g_assumptions",
                            lambda g, window, n, real=real: calls.append(n) or real(g, window, n))
    for seed in range(8):
        random_pair(seed, GeneratorConfig(grid_n=256))
    assert calls == [256] * 8


@pytest.mark.parametrize("grid_n", [63, GRID_N_MAX + 1])
def test_random_pair_rejects_a_bad_grid_before_the_build(monkeypatch, grid_n):
    monkeypatch.setattr(construct, "construct_f",
                        lambda *args, **kwargs: pytest.fail("built before the grid check"))
    with pytest.raises(ValueError, match=f"^grid_n must be between 64 and {GRID_N_MAX}, "
                                         f"got {grid_n}$"):
        random_pair(0, GeneratorConfig(grid_n=grid_n))
