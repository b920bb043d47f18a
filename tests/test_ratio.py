import math

import pytest

import monoratio as mr
from monoratio import Interval
from monoratio.ratio import _chebyshev_points, median_abs


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
    flipped = mr.make_pair(mr.mirrored(pair.f), mr.mirrored(pair.g),
                           pair.window.mirrored(), pair.grid_n)
    assert flipped.sign_gprime == -pair.sign_gprime
    assert flipped.sign_gg == -pair.sign_gg

    # and a rejected pair stays rejected after mirroring
    g = mr.expr_fn("sin(x)")
    with pytest.raises(mr.ZeroGPrime):
        mr.make_pair(mr.expr_fn("x"), g, Interval(0.5, 3.0), 256)
    with pytest.raises(mr.ZeroGPrime):
        mr.make_pair(mr.mirrored(mr.expr_fn("x")), mr.mirrored(g),
                     Interval(-3.0, -0.5), 256)


def test_negated_wrapper():
    fn = mr.negated(mr.expr_fn("x^2"))
    v, d = fn(3.0)
    assert v == -9.0 and d == -6.0


def test_mirrored_wrapper():
    fn = mr.mirrored(mr.expr_fn("exp(x)"))
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
