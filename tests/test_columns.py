"""Column evaluation against one call per point: values, derivatives and
domain faults must agree bit for bit.  Every fast path keeps one contract:
it returns the floats of one call per x, or raises the error the first
faulting x, in xs order, raises itself; ratio.columns and ratio.values
pass that on."""

import dataclasses
import functools
import itertools
import math
import random
import struct
import tracemalloc

import pytest

import monoratio as mr
from monoratio import ratio
from monoratio.construct import G_TEMPLATES, ConstructedFn, StaircaseFn, random_pair
from monoratio.expr import Binary, Const, DomainFault, ExprFn, Var, parse
from monoratio.patterns import Column, _signs
from monoratio.ratio import columns, median_abs, values
from monoratio.rules import _check_sign_identity

from helpers import mirrored, negated, random_ast, reflect, sign_identity_stencil


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


# short and long columns, some of them odd
_LENGTHS = (1, 7, 255, 256, 257, 515, 768)


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
    # where a point faults, or takes a special case, on a derivative
    # alone, so reading values alone must not skip it
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
        columns(fn, [0.0] * 256 + [1.0, math.inf])
    with pytest.raises(ValueError, match="finite, got inf"):
        values(fn, [0.0] * 256 + [1.0, math.inf])


def _fault(read, xs):
    """read(xs) must raise; the error's type and message."""
    with pytest.raises(Exception) as exc:
        read(xs)
    return type(exc.value), str(exc.value)


def _scalar_fault(fn, xs):
    """The type and message of the first error one call per x raises."""
    return _fault(lambda xs: [fn(x) for x in xs], xs)


@pytest.mark.parametrize("reader", [columns, values], ids=["column", "values"])
def test_expr_fast_paths_raise_at_the_first_faulting_x(reader):
    # a fault before an infinity is the fault; an infinity after clear
    # points is the scalar call's ValueError, naming the x
    fn = mr.expr_fn("log(x)")
    read = functools.partial(reader, fn)
    with pytest.raises(DomainFault, match=r"^log of non-positive argument at x = -1.0$"):
        read([-1.0, math.inf])
    for xs in ([1.0, math.inf], [1.0, -math.inf, -1.0], [2.0, math.nan]):
        assert _fault(read, xs) == _scalar_fault(fn, xs)
    assert _fault(read, [1.0, math.inf]) == (ValueError, "x must be finite, got inf")


@pytest.mark.parametrize("g", G_TEMPLATES[1] + G_TEMPLATES[-1], ids=lambda g: g.label)
def test_template_columns_raise_the_scalar_calls_error(g):
    # exp overflows at 800 or -800, 1/(x + 4) divides by zero at -4
    for xs in itertools.permutations([800.0, -800.0, -4.0]):
        xs = [0.5, *xs]
        try:
            expected = tuple(map(list, zip(*map(g, xs))))
        except ArithmeticError:
            assert _fault(g.column, xs) == _scalar_fault(g, xs)
        else:
            assert _bits(g.column(xs)) == _bits(expected)


def test_constructed_column_faults_at_gs_first_fault_else_rhos():
    # rho = sqrt(x + 3) faults below -3, g = log(x + 4) below -4.  A call
    # reads rho, then g; a column reads g's column, then rho's, so its
    # fault is g's first, else rho's, which may lie past the first
    # faulting x.  column_with, handed g's derivatives, reads rho alone.
    g = mr.expr_fn("log(x + 4)")
    f = mr.construct_f(g, mr.expr_fn("sqrt(x + 3)"), 0.5, 1.0, mr.Interval(0.0, 1.0))
    log_at, sqrt_at = "log of non-positive argument at x = ", "sqrt of negative argument at x = "
    for xs, column_reason, call_reason in (
            ([0.5, -4.5, -3.5], log_at + "-4.5", sqrt_at + "-4.5"),
            ([0.5, -3.5, -4.5], log_at + "-4.5", sqrt_at + "-3.5"),
            ([0.5, -3.5, -3.25], sqrt_at + "-3.5", sqrt_at + "-3.5")):
        assert _fault(f.column, xs) == (DomainFault, column_reason)
        assert _scalar_fault(f, xs) == (DomainFault, call_reason)
    xs = [0.5, -3.5, -3.25]
    assert _fault(lambda xs: f.column_with(xs, columns(g, xs)[1]), xs) == \
        (DomainFault, sqrt_at + "-3.5")
    # a fault g's column reads past, in derivatives handed over, is rho's
    assert _fault(lambda xs: f.column_with(xs, [1.0] * 3), [0.5, -3.5, -4.5]) == \
        (DomainFault, sqrt_at + "-3.5")


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
    # a NaN amid a flat's samples: one call puts it past the last breakpoint
    mids = {min(grid, key=lambda x: abs(x - 0.5 * (a + b))) for a, b in spec.flats}
    nan_on_flats = [math.nan if x in mids else x for x in grid]
    # ascending columns that values cuts at the breakpoints: a lone NaN,
    # one infinity at an end, and signed zeros, which compare equal
    ascending = ([math.nan], sorted(edges + grid), [-math.inf, *grid], [*grid, math.inf],
                 [-0.0, 0.0, -0.0, 0.0], grid[:1])
    for xs in (grid, extra, shuffled, with_nan, nan_on_flats, grid[::-1], [], *ascending):
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
            assert _bits((values(wrapped, xs), [])) == _bits((expected[0], []))


@pytest.mark.parametrize("read", [_per_point, _by_column, _by_values],
                         ids=["call", "column", "values"])
def test_mirrored_faults_at_the_first_x_like_a_call(read):
    # both points fault; fn itself sees the negated xs, in xs order, so
    # the fault names its own x, -1.0, of the first x, 1.0
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
            runs = Column(table.xs, table.rho_tilde).runs(tol_abs)
            assert _check_sign_identity(pair, table.xs, table.r, runs, table.step / 16.0)[0]
        assert calls["rho"] == g.calls == calls["f"] < 100, (seed, calls, g.calls)
    assert labels == {g.label for g in G_TEMPLATES[1] + G_TEMPLATES[-1]}


class _ValuesOnly:
    """Forwards calls and values, counting the values reads and the points
    they read; a column would compute derivatives."""

    def __init__(self, fn):
        self.fn = fn
        self.reads = self.points = 0

    def __call__(self, x):
        return self.fn(x)

    def values(self, xs):
        self.reads += 1
        self.points += len(xs)
        return values(self.fn, xs)

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


def _undecided(signs, r):
    """The kept samples the table cannot decide, by one test per point: a
    window edge, a neighbour of another sign, or a two-cell difference of r
    that is 0 or against the sample's sign."""
    last = len(signs) - 1
    return [i for i, s in enumerate(signs)
            if s and not (0 < i < last and signs[i - 1] == s == signs[i + 1]
                          and (r[i + 1] - r[i - 1]) * s > 0.0)]


@pytest.mark.parametrize("f,g,window", [
    ("exp(-x)*sin(3*x) + x^2/(1 + x^2)", "exp(x)", (-2.0, 2.0)),
    ("x^3 - x", "x + 3", (-1.5, 2.0)),
    # r is 2.0 exactly: rho-tilde is 0, so the own and negated tables keep
    # no sample and read nothing, and every quotient is 0
    ("2*exp(x)", "exp(x)", (-2.0, 2.0)),
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
        fakes.f.reads = fakes.g.reads = fakes.f.points = fakes.g.points = 0
        column = Column(broken.xs, rho_tilde)
        signs = _signs(column.vs, tol_abs)
        assert (_check_sign_identity(fakes, broken.xs, broken.r, column.runs(tol_abs), fd_step)
                == (expected == 0, expected))
        # one column of each per shifted side, over the undecided samples
        # alone, and none when every kept sample is decided
        undecided = len(_undecided(signs, broken.r))
        assert (fakes.f.reads, fakes.g.reads) == ((2, 2) if undecided else (0, 0))
        assert fakes.f.points == fakes.g.points == 2 * undecided


@pytest.mark.parametrize("seed", range(32))
def test_sign_identity_counts_as_the_stencil_everywhere(seed):
    # the grid-first check against the reference that probes every kept
    # sample, on the pair's own rho-tilde, its negation (every interior
    # difference disagrees) and an alternating one (every sample borders
    # another sign); on the own table the stencil reads at most 1% of the
    # kept samples
    pair = mr.random_pair(seed)[0]
    table = mr.sample_table(pair)
    fakes = dataclasses.replace(pair, f=_ValuesOnly(pair.f), g=_ValuesOnly(pair.g))
    fd_step = table.step / 16.0
    for k, rho_tilde in enumerate((table.rho_tilde, [-v for v in table.rho_tilde],
                                   [(-1.0) ** i * (1.0 + v)
                                    for i, v in enumerate(table.rho_tilde)])):
        column, band = Column(table.xs, rho_tilde), 1e-7 * (1.0 + median_abs(rho_tilde))
        signs = _signs(column.vs, band)
        fakes.f.points = 0
        assert (_check_sign_identity(fakes, table.xs, table.r, column.runs(band), fd_step)
                == sign_identity_stencil(pair, table.xs, signs, fd_step))
        kept = len(signs) - signs.count(0)
        assert fakes.f.points == 2 * len(_undecided(signs, table.r))
        if k == 0:
            assert fakes.f.points <= 2 * 0.01 * kept, (fakes.f.points, kept)


class _NaNValues:
    """Values that are all NaN, so every difference quotient is NaN."""

    def values(self, xs):
        return [math.nan] * len(xs)


def test_sign_identity_counts_a_nan_quotient_against_either_sign():
    # rho-tilde of (x^3 - x)/(x + 3) takes both signs on the window
    pair = mr.make_pair(ExprFn(parse("x^3 - x")), ExprFn(parse("x + 3")), mr.Interval(-1.5, 2.0))
    table = mr.sample_table(pair)
    column, band = Column(table.xs, table.rho_tilde), 1e-7 * (1.0 + median_abs(table.rho_tilde))
    signs = _signs(column.vs, band)
    # the stencil reads the samples the table cannot decide, of both signs
    undecided = _undecided(signs, table.r)
    assert {signs[i] for i in undecided} == {1, -1}
    nan_f = dataclasses.replace(pair, f=_NaNValues())
    assert (_check_sign_identity(nan_f, table.xs, table.r, column.runs(band), table.step / 16.0)
            == (False, len(undecided)))


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
    """x -> (x*x, 2x) one call per x, counted in calls; its column and
    values raise error."""

    def __init__(self, error):
        self.error, self.calls = error, 0

    def __call__(self, x):
        self.calls += 1
        return x * x, 2.0 * x

    def column(self, xs):
        raise self.error

    values = column


_DISPATCH_XS = [0.1 * k - 1.3 for k in range(40)]


@pytest.mark.parametrize("error", [ZeroDivisionError("float division by zero"),
                                   ValueError("math domain error"),
                                   DomainFault(-1.2, "planted fault")],
                         ids=lambda error: type(error).__name__)
@pytest.mark.parametrize("read", [columns, values], ids=["columns", "values"])
def test_dispatchers_propagate_fast_path_faults(read, error):
    # the fast path's error is the first faulting x's, so it goes out as
    # it is, with no call per x
    fake = _FastPathRaises(error)
    with pytest.raises(type(error)) as exc:
        read(fake, _DISPATCH_XS)
    assert exc.value is error and fake.calls == 0


@pytest.mark.parametrize("read", [columns, values], ids=["columns", "values"])
def test_dispatchers_propagate_other_errors(read):
    with pytest.raises(TypeError, match="not a float"):
        read(_FastPathRaises(TypeError("not a float")), _DISPATCH_XS)


def _no_pointwise(fn, xs):
    raise AssertionError(f"{fn!r} was read one call per x")


@pytest.mark.parametrize("case", [
    ("1.3*(exp(x))^2 + 0.4*exp(x) + 0.2", "exp(x)", (-2.0, 2.0)),
    ("max(x - 1, 0)^2 + x", "x + 3", (-1.0, 2.0)),  # _d_pow's zero-base branch
    *range(8), (7, "vertical"), (7, "horizontal"),
], ids=str)
def test_pipeline_reads_every_grid_by_its_fast_path(monkeypatch, case):
    # every grid goes to a fast path; one call per x would give the same
    # floats at about ten times the cost
    monkeypatch.setattr(ratio, "_pointwise", _no_pointwise)
    if isinstance(case, int):
        pair = mr.random_pair(case)[0]
    elif isinstance(case[0], int):
        pair = reflect(mr.random_pair(case[0])[0], case[1])
    else:
        f, g, window = case
        pair = mr.make_pair(mr.expr_fn(f), mr.expr_fn(g), mr.Interval(*window))
    assert mr.check_pair(pair).all_ok


def test_expr_case_allocation_peak_stays_small():
    # one expr_analyze-style case on the default 2048-point grid, whole
    # columns throughout, peaks at 647,864 bytes when this test runs alone
    # and at 643,864 in its file; r's m.i.c. sweep, with the three column
    # summaries alive, sets the peak, and the bound leaves 6% headroom
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
    assert peak < 672 << 10, f"allocation peak {peak} bytes"


def test_generated_pair_memory_stays_small():
    # random_pair(1) builds 1,028 leaves, one tuple of seven floats each:
    # the pair retains 219,822 bytes and the build peaks at 526,361 when
    # this test runs alone (218,566 and 525,129 in its file); the bounds
    # leave 19% and 12% headroom
    random_pair(0)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        pair, _, _ = random_pair(1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pair.f._table) == 1028
    assert retained < 256 << 10, f"retained {retained} bytes"
    assert peak < 576 << 10, f"build peak {peak} bytes"
