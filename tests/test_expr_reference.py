"""The compiled float-pair evaluator against a test-local copy of the
operator-overloading dual-number evaluator it replaced: values,
derivatives and domain-fault reasons must agree bit for bit, one call per
point and through ExprFn.column and ratio.values, whose fault must name
the first faulting x of the column; on random trees, and on trees that read
one subtree several times, which the compiled loop computes once."""

import functools
import math
import random
import struct
from dataclasses import dataclass

import pytest

from monoratio.expr import Binary, Call2, Const, DomainFault, ExprFn, Unary, Var, _loop_source
from monoratio.ratio import values

from helpers import UNARY_OPS, random_ast
from test_compiled import _SPECIALS, _pack


class _Fault(Exception):
    def __init__(self, reason):
        self.reason = reason


@dataclass(frozen=True)
class _Dual:
    value: float
    deriv: float

    @staticmethod
    def _coerce(other):
        if isinstance(other, _Dual):
            return other
        return _Dual(float(other), 0.0)

    def __add__(self, other):
        o = _Dual._coerce(other)
        return _Dual(self.value + o.value, self.deriv + o.deriv)

    def __sub__(self, other):
        o = _Dual._coerce(other)
        return _Dual(self.value - o.value, self.deriv - o.deriv)

    def __mul__(self, other):
        o = _Dual._coerce(other)
        return _Dual(self.value * o.value, self.deriv * o.value + self.value * o.deriv)

    def __truediv__(self, other):
        o = _Dual._coerce(other)
        if o.value == 0.0:
            raise ZeroDivisionError("division by zero")
        inv = 1.0 / o.value
        return _Dual(self.value * inv, (self.deriv * o.value - self.value * o.deriv) * inv * inv)

    def __neg__(self):
        return _Dual(-self.value, -self.deriv)


def _u_exp(u):
    try:
        v = math.exp(u.value)
    except OverflowError:
        raise _Fault("exp overflow") from None
    return _Dual(v, v * u.deriv)


def _u_log(u):
    if u.value <= 0.0:
        raise _Fault("log of non-positive argument")
    return _Dual(math.log(u.value), u.deriv / u.value)


def _u_sqrt(u):
    if u.value < 0.0:
        raise _Fault("sqrt of negative argument")
    if u.value == 0.0:
        if u.deriv == 0.0:
            return _Dual(0.0, 0.0)
        raise _Fault("sqrt derivative singular at zero")
    v = math.sqrt(u.value)
    return _Dual(v, u.deriv / (2.0 * v))


def _u_abs(u):
    s = 1.0 if u.value > 0.0 else (-1.0 if u.value < 0.0 else 0.0)
    return _Dual(abs(u.value), s * u.deriv)


def _u_tanh(u):
    t = math.tanh(u.value)
    return _Dual(t, (1.0 - t * t) * u.deriv)


_UNARY = {
    "neg": _Dual.__neg__,
    "sin": lambda u: _Dual(math.sin(u.value), math.cos(u.value) * u.deriv),
    "cos": lambda u: _Dual(math.cos(u.value), -math.sin(u.value) * u.deriv),
    "exp": _u_exp, "log": _u_log, "sqrt": _u_sqrt, "abs": _u_abs,
    "atan": lambda u: _Dual(math.atan(u.value), u.deriv / (1.0 + u.value * u.value)),
    "tanh": _u_tanh,
}


def _d_pow(a, b):
    if b.deriv == 0.0:
        c = b.value
        if a.value == 0.0:
            if c < 0.0:
                raise _Fault("zero raised to a negative power")
            if c == 0.0:
                return _Dual(1.0, 0.0)
            if c == 1.0:
                return _Dual(0.0, a.deriv)
            if c < 1.0:
                if a.deriv == 0.0:
                    return _Dual(0.0, 0.0)
                raise _Fault("power derivative singular at zero base")
            return _Dual(0.0, 0.0)
        if a.value < 0.0:
            if not math.isfinite(c) or c != round(c):
                raise _Fault("negative base with non-integer exponent")
            n = int(round(c))
            try:
                v = a.value ** n
            except OverflowError:
                raise _Fault("pow overflow") from None
            return _Dual(v, n * a.value ** (n - 1) * a.deriv)
        try:
            v = a.value ** c
            d = c * a.value ** (c - 1.0) * a.deriv
        except OverflowError:
            raise _Fault("pow overflow") from None
        return _Dual(v, d)
    if a.value <= 0.0:
        raise _Fault("non-positive base with non-constant exponent")
    try:
        v = a.value ** b.value
    except OverflowError:
        raise _Fault("pow overflow") from None
    return _Dual(v, v * (b.deriv * math.log(a.value) + b.value * a.deriv / a.value))


def _eval(node, xd):
    if isinstance(node, Const):
        return _Dual(node.value, 0.0)
    if isinstance(node, Var):
        return xd
    if isinstance(node, Unary):
        return _UNARY[node.op](_eval(node.arg, xd))
    a = _eval(node.lhs, xd)
    b = _eval(node.rhs, xd)
    if isinstance(node, Binary):
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        return _d_pow(a, b)
    assert isinstance(node, Call2)
    if node.op == "min":
        return a if a.value <= b.value else b
    return a if a.value >= b.value else b


def _reference(ast, x):
    """(value, deriv) or the DomainFault reason, as the old evaluator gave."""
    try:
        d = _eval(ast, _Dual(float(x), 1.0))
    except _Fault as err:
        return err.reason
    except ZeroDivisionError:
        return "division by zero"
    except (OverflowError, ValueError) as err:
        return str(err) or type(err).__name__
    return d.value, d.deriv


def _new(fn, x):
    try:
        value, deriv = fn(x)
    except DomainFault as err:
        assert err.x == x
        return err.reason
    return value, deriv


def _first_fault_or_columns(results):
    """(values, derivs) from (x, result) pairs in column order, or the
    first faulting x and its reason."""
    for x, result in results:
        if isinstance(result, str):
            return x, result
    return [r[0] for _, r in results], [r[1] for _, r in results]


def _read(read, xs):
    """read(xs) as a (values, derivs) pair, or the fault's x and reason."""
    try:
        result = read(xs)
    except DomainFault as err:
        return err.x, err.reason
    return result if isinstance(result, tuple) else (result, [])


def _column_bits(result):
    a, b = result
    if isinstance(b, str):
        return struct.pack("<d", a), b
    return struct.pack(f"<{len(a)}d", *a), struct.pack(f"<{len(b)}d", *b)


def _assert_agrees(ast, fn, xs, pack=_column_bits):
    """fn against the dual evaluator at each x of xs, one call per x, and
    on xs as one column through column and ratio.values, bit for bit as pack
    packs them; return the column's reference: its (values, derivs) or its
    first fault's x and reason."""
    results = [(x, _reference(ast, x)) for x in xs]
    for point in results:
        new = _new(fn, point[0])
        assert pack(_first_fault_or_columns([(point[0], new)])) == \
            pack(_first_fault_or_columns([point])), (ast, point, new)
    old = _first_fault_or_columns(results)
    only_values = old if isinstance(old[1], str) else (old[0], [])
    assert pack(_read(fn.column, xs)) == pack(old), (ast, xs)
    assert pack(_read(functools.partial(values, fn), xs)) == pack(only_values), (ast, xs)
    return old


def test_float_pairs_match_the_dual_evaluator_bit_for_bit():
    rng = random.Random(20240501)
    # the columns' own draws, so that the per-point draws stay as they were
    column_rng = random.Random(20261019)
    points = faults = column_faults = 0
    while points < 20000:
        ast = random_ast(rng, rng.randint(1, 6))
        # uniform points plus the small integers where poles and zero
        # bases sit
        xs = [rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
              float(rng.randint(-3, 3)), rng.choice((0.0, -0.0, 1e-300))]
        faults += sum(isinstance(_reference(ast, x), str) for x in xs)
        points += len(xs)
        # the same points and a few more as one column, in random order, so
        # the first fault lands anywhere in it
        xs += (column_rng.uniform(-3.0, 3.0) for _ in range(column_rng.randint(0, 4)))
        column_rng.shuffle(xs)
        column_faults += isinstance(_assert_agrees(ast, ExprFn(ast), xs)[1], str)
    assert faults >= 1000  # the fault paths were exercised
    assert column_faults >= 1000


def _nan_blind_bits(result):
    # a NaN's sign is not kept (see test_compiled._pack): the exponents
    # below make NaNs of both signs meet in one multiply
    a, b = result
    return (_pack([a]), b) if isinstance(b, str) else (_pack(a), _pack(b))


def _reusing(rng, t):
    """Trees that read the subtree t several times, before and after a
    reader whose fault can depend on a slope (sqrt, or a power whose
    exponent is below 1 or not finite) where the random choices give one."""
    c = Const(round(rng.uniform(-3.0, 3.0), 4))
    h = Unary(rng.choice(UNARY_OPS), t)
    trees = [Binary(op, t, t) for op in "+-*/^"] + [Call2(op, t, t) for op in ("min", "max")]
    trees += [Binary("+", h, Binary("*", c, t)), Binary("+", Binary("*", c, t), h)]
    for k in _SPECIALS + (0.0, 1.0, 2.0, 3.0):
        power = Binary("^", t, Const(k))
        trees += [Binary("+", power, Binary("*", c, t)), Binary("*", t, power)]
    return trees


def test_repeated_subtrees_match_the_dual_evaluator_bit_for_bit():
    rng = random.Random(20261020)
    points = faults = 0
    while points < 12000:
        t = random_ast(rng, rng.randint(1, 4))
        for ast in _reusing(rng, t):
            xs = [rng.uniform(-3.0, 3.0) for _ in range(rng.randint(0, 4))]
            xs += [float(rng.randint(-3, 3)), rng.choice((0.0, -0.0, 1e-300))]
            rng.shuffle(xs)
            old = _assert_agrees(ast, ExprFn(ast), xs, _nan_blind_bits)
            if isinstance(old[1], str):
                faults += 1
            else:
                points += len(xs)
    assert faults >= 1000


# NaN twins: equal bits, so shared, though NaN != NaN and the NaNs are
# two objects
_NAN_TWINS = Binary("*", Unary("exp", Binary("+", Var(), Const(float("nan")))),
                    Unary("exp", Binary("+", Var(), Const(float("nan")))))


@pytest.mark.parametrize("ast", [
    # twins that differ only in a zero's sign, which Const(0.0) == Const(-0.0)
    # does not see: sharing them would flip the sign of the result
    Binary("-", Binary("*", Var(), Const(-0.0)), Binary("*", Var(), Const(0.0))),
    Binary("-", Binary("*", Var(), Const(0.0)), Binary("*", Var(), Const(-0.0))),
    Binary("*", Binary("+", Var(), Const(0.0)), Binary("+", Var(), Const(-0.0))),
    Binary("*", Unary("exp", Binary("*", Const(-0.0), Var())),
           Binary("-", Binary("*", Const(-0.0), Var()), Binary("*", Const(0.0), Var()))),
    # -0.0 read as neg(0.0) has the slope -0.0, Const(-0.0) the slope 0.0
    Binary("-", Binary("*", Unary("neg", Const(0.0)), Var()), Binary("*", Const(-0.0), Var())),
    _NAN_TWINS,
    Binary("+", Binary("^", Var(), Const(math.nan)), Unary("sqrt", Binary("^", Var(), Const(math.nan)))),
], ids=repr)
def test_twin_subtrees_are_shared_by_their_bits(ast):
    fn = ExprFn(ast)
    for xs in ([-2.0, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 3.0], [1.0, 2.0], [-0.0]):
        _assert_agrees(ast, fn, xs)


def test_nan_twins_are_computed_once():
    assert _loop_source(_NAN_TWINS)[0].count("exp(") == 1
