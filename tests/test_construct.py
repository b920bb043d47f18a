import math
import random
from array import array

import pytest

import monoratio as mr
from monoratio import Interval
from monoratio.construct import (_PANELS, G_TEMPLATES, ConstructedFn,
                                 GeneratorConfig, QuadratureError,
                                 StaircaseError, StaircaseFn, StaircaseSpec,
                                 _draw_flats, _simpson_leaves, construct_f,
                                 make_staircase_rho, random_pair)
from monoratio.expr import DomainFault
from monoratio.ratio import median_abs


def _unit_flat_spec():
    return StaircaseSpec(flats=((-1.0, 1.0),), slopes=(1.0, 1.0))


# --- adaptive Simpson --------------------------------------------------------

def test_simpson_polynomial_exact():
    leaves = _simpson_leaves(lambda u: u * u, (0.0, 3.0), 1e-10, 40)
    assert sum(value for *_, value in leaves) == pytest.approx(9.0, abs=1e-12)


def test_simpson_depth_exhaustion():
    with pytest.raises(QuadratureError):
        list(_simpson_leaves(math.exp, (0.0, 4.0), 1e-18, 1))


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
    assert len(mr.detect_mics(xs, vs, 1e-9 * (1.0 + median_abs(vs)), 3 * 4 / 256)) == 0


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
    assert StaircaseSpec.from_json_dict(spec.to_json_dict()) == spec


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


def test_construct_validates_g():
    rho = make_staircase_rho(_unit_flat_spec())
    with pytest.raises(mr.ZeroG):
        construct_f(mr.expr_fn("x"), rho, z=0.0, K=0.0,
                    window=Interval(-2.0, 2.0))


def test_construct_rejects_non_monotone_rho():
    with pytest.raises(ValueError, match="monotone"):
        construct_f(mr.expr_fn("exp(x)"), mr.expr_fn("x^2"), z=0.0, K=0.0,
                    window=Interval(-2.0, 2.0))


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
    """(starts, table) by one integrand call per sample and one leaf at a
    time: the reference the blocked build must match float for float."""

    def integrand(u):
        return rho(u)[0] * g(u)[1]

    lo, hi, step = window.lo, window.hi, window.length / _PANELS
    nodes = [lo + i * step for i in range(_PANELS)]
    nodes += [x for x in getattr(rho, "breakpoints", ()) if lo < x < hi]
    nodes.sort()
    nodes.append(hi)
    starts, table, cum = array("d"), array("d"), 0.0
    for x0, h, f0, f1, f2, f3, f4, _ in _simpson_leaves(integrand, nodes, quad_tol, 40):
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
        table.extend((cum, 1.0 / h, c1, c2, c3, c4, c5))
        cum += c1 + (c2 + (c3 + (c4 + c5)))
    return starts, table


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
    starts, table = _scalar_table(g, rho, window, quad_tol)
    assert f._starts == starts
    assert f._table == table
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


@pytest.mark.parametrize("fault_lo, fault_hi, error", [
    # the jump's interval stops the leaf-at-a-time build before it reaches
    # the fault at 0.400390625, a sample of the same block
    (0.4, 0.401, QuadratureError),
    # [0.2578125, 0.26171875] faults at its mid, last quarter point and
    # end; the leaf-at-a-time build samples the end first
    (0.2597, 0.2618, DomainFault),
])
def test_blocked_build_raises_scalar_builds_error(fault_lo, fault_hi, error):
    rho, g, window = _faulty_step_rho(fault_lo, fault_hi), mr.expr_fn("exp(x)"), Interval(-2.0, 2.0)
    with pytest.raises(error) as scalar:
        _scalar_table(g, rho, window)
    with pytest.raises(error) as blocked:
        construct_f(g, rho, 0.0, 0.0, window)
    assert vars(blocked.value) == vars(scalar.value)
    if error is DomainFault:
        assert blocked.value.x == 0.26171875


def test_blocked_build_without_split_makes_no_scalar_rho_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(StaircaseFn, "__call__",
                        lambda self, x: calls.append(x) or (0.0, 0.0))
    g, rho, window, _ = list(_build_specs())[3]
    assert rho.breakpoints
    f = construct_f(g, rho, window.midpoint, 0.0, window)
    assert len(f._starts) == _PANELS + len(rho.breakpoints)  # no panel split
    assert calls == []


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
    config = GeneratorConfig(grid_n=1024, n_flats=(1, 3))
    for seed in range(8):
        pair, spec, chosen = random_pair(seed, config)
        step = pair.window.length / pair.grid_n
        table = mr.sample_table(pair, pair.grid_n)
        mics = mr.detect_mics(table.xs, table.r, 1e-9 * (1.0 + median_abs(table.r)),
                              3 * step, probe=lambda t: mr.ratio_at(pair, t))
        assert len(mics) == 1
        assert mics[0].lo == pytest.approx(chosen.lo, abs=1e-3)
        assert mics[0].hi == pytest.approx(chosen.hi, abs=1e-3)
