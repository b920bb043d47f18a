"""Column evaluation against one call per point: values, derivatives and
domain faults must agree bit for bit.  Faults are read through
ratio.columns and ratio.values, the one owner of the fault contract."""

import dataclasses
import math
import random
import struct
import tracemalloc

import pytest

import monoratio as mr
from monoratio import ratio
from monoratio.construct import G_TEMPLATES, ConstructedFn, StaircaseFn
from monoratio.expr import (COLUMN_BLOCK, Binary, Const, DomainFault, ExprFn, Var,
                            parse)
from monoratio.ratio import columns, median_abs, mirrored, negated, values
from monoratio.rules import _check_sign_identity

from helpers import random_ast


def _per_point(fn, xs):
    """(values, derivs) from one call per x, or the first fault's (x, reason)."""
    values, derivs = [], []
    for x in xs:
        try:
            v, d = fn(x)
        except DomainFault as err:
            return err.x, err.reason
        values.append(v)
        derivs.append(d)
    return values, derivs


def _by_column(fn, xs):
    try:
        return columns(fn, xs)
    except DomainFault as err:
        return err.x, err.reason


def _by_values(fn, xs):
    """values(fn, xs) beside an empty derivative list, or the first
    fault's (x, reason)."""
    try:
        return values(fn, xs), []
    except DomainFault as err:
        return err.x, err.reason


def _values_of(result):
    """A per-point result with its derivatives dropped (a fault as it is)."""
    return result if isinstance(result[1], str) else (result[0], [])


def _bits(result):
    """Values and derivatives packed as doubles, NaN payloads and signed
    zeros included; a fault as its x (packed) and reason."""
    a, b = result
    if isinstance(b, str):
        return struct.pack("<d", a), b
    return struct.pack(f"<{len(a)}d", *a), struct.pack(f"<{len(b)}d", *b)


# column lengths on both sides of the block edges
_LENGTHS = (1, 7, COLUMN_BLOCK - 1, COLUMN_BLOCK, COLUMN_BLOCK + 1,
            2 * COLUMN_BLOCK + 3, 3 * COLUMN_BLOCK)


def test_expr_column_matches_per_point_calls_bit_for_bit():
    rng = random.Random(20261018)
    points = faulted = 0
    while points < 20000 or faulted < 200:
        fn = ExprFn(random_ast(rng, rng.randint(1, 6)))
        xs = [rng.uniform(-3.0, 3.0) for _ in range(rng.choice(_LENGTHS))]
        if rng.random() < 0.5:
            # the small integers and zeros where poles and zero bases sit,
            # at random places, so faults land in any block
            for _ in range(rng.randint(1, 4)):
                xs[rng.randrange(len(xs))] = rng.choice(
                    (0.0, -0.0, 1e-300, float(rng.randint(-3, 3))))
        if rng.random() < 0.5:
            xs.sort()
        expected = _per_point(fn, xs)
        assert _bits(_by_column(fn, xs)) == _bits(expected), (fn, xs)
        assert _bits(_by_values(fn, xs)) == _bits(_values_of(expected)), (fn, xs)
        if isinstance(expected[1], str):
            faulted += 1
        else:
            points += len(xs)


@pytest.mark.parametrize("text,xs", [
    ("sqrt(x*x)", [-1.0, 0.0, 1.0]),  # sqrt at 0 with zero slope: no fault
    ("sqrt(x)", [0.5] * 300 + [0.0, -1.0]),  # singular slope, second block
    ("log(x)", [1.0, 2.0, -0.0]),
    ("1/(x - 1)", [0.0, 0.5, 1.0, 2.0]),
    ("(x - 1)^0.5", [2.0, 1.5, 0.5]),  # negative base, fractional power
    ("(x - 1)^3 + x^0", [-2.0, 0.0, 1.0, 2.0]),  # negative and zero bases
    ("exp(x)", [1.0, 800.0]),  # overflow
    ("x^(x - 1)", [2.0, 1.0, 0.5]),  # non-constant exponent
    ("min(x, 1 - x) + max(abs(x), 0.5)", [-1.0, 0.0, 0.5, 1.0]),
    ("tanh(x) + atan(x) - cos(x)*sin(x)", [-1.0, 0.0, 2.0]),
    # where the scalar walk faults, or takes a special case, on a
    # derivative alone, so values must not skip it
    ("sqrt(0*x)", [1.0, -1.0]),  # a -0.0 argument gives +0.0
    ("x^(x*0 + 0.5)", [1.0, 0.0]),  # non-constant exponent at a zero base
    ("x^0.5", [1.0, 0.0]),  # constant exponent off the fast path
    ("x^0.001", [1.0, 5e-324]),  # x ** (c - 1) overflows, x ** c does not
    (Binary("^", Var(), Const(-308.0)), [1.0, 0.1]),  # the same, c < 0
    (Binary("^", Binary("*", Var(), Const(1e-200)), Const(-1.5)), [1e150, 1.0]),
    (Binary("^", Var(), Const(-400.0)), [1.0, 0.1]),  # x ** c overflows
])
def test_expr_column_special_points(text, xs):
    fn = ExprFn(parse(text) if isinstance(text, str) else text)
    expected = _per_point(fn, xs)
    assert _bits(_by_column(fn, xs)) == _bits(expected)
    assert _bits(_by_values(fn, xs)) == _bits(_values_of(expected))


def test_expr_column_rejects_non_finite_x_like_a_call():
    fn = ExprFn(parse("x + 1"))
    with pytest.raises(ValueError, match="finite"):
        fn(math.inf)
    with pytest.raises(ValueError, match="finite, got inf"):
        columns(fn, [0.0] * COLUMN_BLOCK + [1.0, math.inf])
    with pytest.raises(ValueError, match="finite, got inf"):
        values(fn, [0.0] * COLUMN_BLOCK + [1.0, math.inf])


@pytest.mark.parametrize("seed", range(64))
def test_constructed_column_matches_per_point_calls(seed):
    pair, _, _ = mr.random_pair(seed)
    f, window = pair.f, pair.window
    step = window.length / pair.grid_n
    grid = [window.lo + (i + 0.5) * step for i in range(pair.grid_n)]
    rng = random.Random(seed)
    # off the window both ways, on leaf starts, repeated
    extra = [window.lo - 0.1, window.hi + 0.1, window.lo, window.hi,
             *rng.sample(list(f._starts), 8), grid[5], grid[5]]
    shuffled = grid + extra
    rng.shuffle(shuffled)
    for xs in (grid, sorted(extra), shuffled):
        expected = tuple(map(list, zip(*(f(x) for x in xs))))
        assert _bits(f.column(xs)) == _bits(expected)
        assert _bits((f.values(xs), [])) == _bits((expected[0], []))


_STAIRCASES = [
    mr.StaircaseSpec(),
    mr.StaircaseSpec(slopes=(0.7,), direction="down", anchor_value=-0.25),
    mr.StaircaseSpec(flats=((-0.5, 0.25),), slopes=(1.0, 2.0), anchor_value=0.3),
    mr.StaircaseSpec(flats=((-1.5, -1.0), (0.1, 0.6)), slopes=(1.3, 0.9, 2.2),
                     direction="down", anchor_value=1.1),
    mr.StaircaseSpec(flats=((-1.6, -1.1), (-0.4, 0.2), (0.9, 1.7)),
                     slopes=(2.0, 1.0, 0.8, 1.5), anchor_value=-1.0),
    # a flat at -0.0, which x - x0 times a zero slope would turn into 0.0
    mr.StaircaseSpec(flats=((-1.6, -1.1), (-0.4, 0.2), (0.9, 1.7)),
                     slopes=(2.0, 1.0, 0.8, 1.5), direction="down", anchor_value=-0.0),
]


@pytest.mark.parametrize("spec", _STAIRCASES)
def test_staircase_column_matches_per_point_calls(spec):
    rho = StaircaseFn(spec)
    rng = random.Random(len(spec.flats))
    grid = [-2.0 + (i + 0.5) * (4.0 / 2048) for i in range(2048)]
    # exactly on every breakpoint and next to it, and off the window
    edges = [y for x in rho.breakpoints for y in (math.nextafter(x, -math.inf), x,
                                                  math.nextafter(x, math.inf))]
    extra = sorted(edges + [-5.0, -2.0, -0.0, 0.0, 2.0, 5.0, math.inf, -math.inf])
    shuffled = grid + extra
    rng.shuffle(shuffled)
    with_nan = grid[:700] + [math.nan] + grid[700:1400] + [math.nan, math.nan] + grid[1400:]
    for xs in (grid, extra, shuffled, with_nan, grid[::-1], []):
        expected = tuple(map(list, zip(*map(rho, xs)))) or ([], [])
        assert _bits(columns(rho, xs)) == _bits(expected)
        assert _bits((rho.values(xs), [])) == _bits((expected[0], []))


_TEMPLATE_XS = [-2.0 + (i + 0.5) * (4.0 / 512) for i in range(512)] + [
    -3.0, -0.0, 0.0, 700.0, -700.0, 1e-300, math.inf, -math.inf, math.nan, -math.nan]


@pytest.mark.parametrize("g", G_TEMPLATES[1] + G_TEMPLATES[-1],
                         ids=lambda g: g.label)
def test_template_column_matches_per_point_calls(g):
    xs = list(_TEMPLATE_XS)
    random.Random(g.label).shuffle(xs)
    for column in (_TEMPLATE_XS, xs):
        expected = tuple(map(list, zip(*map(g, column))))
        values, derivs = g.column(column)
        assert values is not derivs
        assert _bits((values, derivs)) == _bits(expected)


@pytest.mark.parametrize("wrap", [negated, mirrored])
def test_reflection_wrappers_column_matches_per_point_calls(wrap):
    pair, _, _ = mr.random_pair(7)
    window = pair.window
    step = window.length / pair.grid_n
    grid = [window.lo + (i + 0.5) * step for i in range(pair.grid_n)]
    mirror_grid = [-x for x in reversed(grid)]
    rng = random.Random(3)
    for fn in (pair.f, ExprFn(parse("exp(-x)*sin(3*x) + x^2/(1 + x^2)"))):
        wrapped = wrap(fn)
        shuffled = grid + mirror_grid
        rng.shuffle(shuffled)
        for xs in (grid, mirror_grid, shuffled):
            expected = tuple(map(list, zip(*map(wrapped, xs))))
            assert _bits(wrapped.column(xs)) == _bits(expected)
            assert _bits((wrapped.values(xs), [])) == _bits((expected[0], []))


@pytest.mark.parametrize("read", [_per_point, _by_column, _by_values],
                         ids=["call", "column", "values"])
def test_mirrored_faults_at_the_first_x_like_a_call(read):
    # both points fault; fn itself sees the reversed, negated xs
    assert read(mirrored(mr.expr_fn("log(x)")), [1.0, 2.0]) == (
        -1.0, "log of non-positive argument")


class _CountCalls:
    """Counts scalar calls and forwards every other attribute (column)."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)

    def __getattr__(self, name):
        return getattr(self.fn, name)


def test_campaign_grids_make_no_staircase_or_template_scalar_calls(monkeypatch):
    # the only scalar calls left are the sign-flip chase's probes of f,
    # each of which evaluates rho and g once
    calls = {"f": 0, "rho": 0}

    def counting(role, method):
        def call(self, x):
            calls[role] += 1
            return method(self, x)
        return call

    labels = set()
    for seed in range(32):
        pair, _, _ = mr.random_pair(seed)
        g = _CountCalls(pair.g)
        pair.f.g = g
        pair = dataclasses.replace(pair, g=g)
        labels.add(g.label)
        calls.update(f=0, rho=0)
        with monkeypatch.context() as patch:
            patch.setattr(StaircaseFn, "__call__", counting("rho", StaircaseFn.__call__))
            patch.setattr(ConstructedFn, "__call__", counting("f", ConstructedFn.__call__))
            table = mr.sample_table(pair)
            tol_abs = 1e-7 * (1.0 + median_abs(table.rho_tilde))
            assert _check_sign_identity(pair, table, tol_abs, table.step / 16.0)[0]
        assert calls["rho"] == g.calls == calls["f"] < 100, (seed, calls, g.calls)
    assert labels == {g.label for g in G_TEMPLATES[1] + G_TEMPLATES[-1]}


class _ValuesOnly:
    """Forwards calls and values; a column would compute derivatives."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x):
        return self.fn(x)

    def values(self, xs):
        return self.fn.values(xs)

    def column(self, xs):
        raise AssertionError("column called")


def _sign_violations_per_point(pair, table, tol_abs, fd_step):
    """The sign-identity count by one comparison per grid point."""
    violations = 0
    for x, rt in zip(table.xs, table.rho_tilde):
        if abs(rt) > tol_abs:
            hi = pair.f(x + fd_step)[0] / pair.g(x + fd_step)[0]
            lo = pair.f(x - fd_step)[0] / pair.g(x - fd_step)[0]
            fd = (hi - lo) / (2.0 * fd_step)
            if fd == 0.0 or (fd > 0.0) != (rt > 0.0):
                violations += 1
    return violations


@pytest.mark.parametrize("f,g,window", [
    ("exp(-x)*sin(3*x) + x^2/(1 + x^2)", "exp(x)", (-2.0, 2.0)),
    ("x^3 - x", "x + 3", (-1.5, 2.0)),
    ("2*exp(x)", "exp(x)", (-2.0, 2.0)),  # r is 2.0 exactly: every quotient is 0
])
def test_sign_identity_reads_values_alone(f, g, window):
    # fakes whose column raises, against one comparison per point, on the
    # pair's own rho-tilde and on columns that break the identity
    pair = mr.make_pair(ExprFn(parse(f)), ExprFn(parse(g)), mr.Interval(*window))
    table = mr.sample_table(pair)
    fakes = dataclasses.replace(pair, f=_ValuesOnly(pair.f), g=_ValuesOnly(pair.g))
    fd_step = table.step / 16.0
    for rho_tilde in (table.rho_tilde, [-v for v in table.rho_tilde],
                      [(-1.0) ** i * (1.0 + v) for i, v in enumerate(table.rho_tilde)]):
        broken = dataclasses.replace(table, rho_tilde=rho_tilde)
        tol_abs = 1e-7 * (1.0 + median_abs(rho_tilde))
        expected = _sign_violations_per_point(pair, broken, tol_abs, fd_step)
        assert _check_sign_identity(fakes, broken, tol_abs, fd_step) == (expected == 0, expected)


def test_columns_calls_a_plain_function_once_per_point():
    calls = []

    def square(x):
        calls.append(x)
        return x * x, 2.0 * x

    assert columns(square, [1.0, -2.0, 3.0]) == ([1.0, 4.0, 9.0], [2.0, -4.0, 6.0])
    assert calls == [1.0, -2.0, 3.0]
    assert columns(square, []) == ([], [])


def test_columns_prefers_the_column_method():
    class ColumnOnly:
        def __call__(self, x):
            raise AssertionError("evaluated point by point")

        def column(self, xs):
            return [7.0] * len(xs), [0.0] * len(xs)

    assert columns(ColumnOnly(), [1.0, 2.0]) == ([7.0, 7.0], [0.0, 0.0])


class _FastPathRaises:
    """x -> (x*x, 2x) one call per x, a DomainFault at each x in faults.
    Its column and values raise error, or else the fault of the last
    faulting x in xs, as a walk over the reversed xs would."""

    def __init__(self, faults=(), error=None):
        self.faults, self.error = faults, error

    def __call__(self, x):
        if x in self.faults:
            raise DomainFault(x, "planted fault")
        return x * x, 2.0 * x

    def column(self, xs):
        raise self.error or DomainFault([x for x in xs if x in self.faults][-1], "planted fault")

    values = column


_DISPATCH_XS = [0.1 * k - 1.3 for k in range(40)]


@pytest.mark.parametrize("error", [ZeroDivisionError("float division by zero"),
                                   ValueError("math domain error")], ids=repr)
@pytest.mark.parametrize("read", [_by_column, _by_values], ids=["columns", "values"])
def test_dispatchers_replay_a_raising_fast_path_one_call_per_x(read, error):
    fake = _FastPathRaises(error=error)
    expected = _per_point(fake, _DISPATCH_XS)
    if read is _by_values:
        expected = _values_of(expected)
    assert _bits(read(fake, _DISPATCH_XS)) == _bits(expected)


@pytest.mark.parametrize("read", [_by_column, _by_values], ids=["columns", "values"])
def test_dispatchers_raise_at_the_first_faulting_x_in_xs_order(read):
    fake = _FastPathRaises(faults={_DISPATCH_XS[5], _DISPATCH_XS[30]})
    assert read(fake, _DISPATCH_XS) == (_DISPATCH_XS[5], "planted fault")


@pytest.mark.parametrize("read", [columns, values], ids=["columns", "values"])
def test_dispatchers_propagate_other_errors(read):
    with pytest.raises(TypeError, match="not a float"):
        read(_FastPathRaises(error=TypeError("not a float")), _DISPATCH_XS)


def _no_replay(fn, xs):
    raise AssertionError(f"{fn!r} replayed one call per x")


@pytest.mark.parametrize("case", [
    ("1.3*(exp(x))^2 + 0.4*exp(x) + 0.2", "exp(x)", (-2.0, 2.0)),
    ("max(x - 1, 0)^2 + x", "x + 3", (-1.0, 2.0)),  # _d_pow's zero-base branch
    *range(8), (7, "vertical"), (7, "horizontal"),
], ids=str)
def test_pipeline_reads_every_grid_by_its_fast_path(monkeypatch, case):
    # a fast path that always raised would pass every test above, replayed
    # one call per x at about ten times the cost
    monkeypatch.setattr(ratio, "_pointwise", _no_replay)
    if isinstance(case, int):
        pair = mr.random_pair(case)[0]
    elif isinstance(case[0], int):
        pair = mr.reflect(mr.random_pair(case[0])[0], case[1])
    else:
        f, g, window = case
        pair = mr.make_pair(mr.expr_fn(f), mr.expr_fn(g), mr.Interval(*window))
    assert mr.check_pair(pair).all_ok


def test_expr_case_allocation_peak_stays_small():
    # one expr_analyze-style case on the default 2048-point grid peaks near
    # 0.55 MB, as one call per point did; walking whole 2048-point columns
    # instead of blocks peaks near 1.04 MB
    def case():
        f = ExprFn(parse("1.3*(exp(x))^2 + 0.4*exp(x) + 0.2"))
        g = ExprFn(parse("exp(x)"))
        return mr.check_pair(mr.make_pair(f, g, mr.Interval(-2.0, 2.0)))

    assert case().all_ok  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        report = case()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_ok
    assert peak < 768 << 10, f"allocation peak {peak} bytes"
