"""Column evaluation against one call per point: values, derivatives and
domain faults must agree bit for bit."""

import math
import random
import struct
import tracemalloc

import pytest

import monoratio as mr
from monoratio.expr import COLUMN_BLOCK, DomainFault, ExprFn, parse
from monoratio.ratio import columns

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
        return fn.column(xs)
    except DomainFault as err:
        return err.x, err.reason


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
])
def test_expr_column_special_points(text, xs):
    fn = ExprFn(parse(text))
    assert _bits(_by_column(fn, xs)) == _bits(_per_point(fn, xs))


def test_expr_column_rejects_non_finite_x_like_a_call():
    fn = ExprFn(parse("x + 1"))
    with pytest.raises(ValueError, match="finite"):
        fn(math.inf)
    with pytest.raises(ValueError, match="finite"):
        fn.column([0.0] * COLUMN_BLOCK + [1.0, math.inf])


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
