import math

import pytest

import monoratio as mr
from monoratio import Interval
from monoratio.construct import (GeneratorConfig, QuadratureError,
                                 StaircaseError, StaircaseSpec, _simpson_leaves,
                                 construct_f, make_staircase_rho, random_pair)
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
