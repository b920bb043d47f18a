"""The compiled float-pair evaluator against a test-local copy of the
operator-overloading dual-number evaluator it replaced: values,
derivatives and domain-fault reasons must agree bit for bit, one call per
point and through ExprFn.column and ExprFn.values, whose fault must name
the first faulting x of the column."""

import math
import random
import struct
from dataclasses import dataclass

from monoratio.expr import Binary, Call2, Const, DomainFault, ExprFn, Unary, Var

from helpers import random_ast


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
            if c != round(c):
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


def _bits(result):
    if isinstance(result, str):
        return result
    return struct.pack("<2d", *result)


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


def test_float_pairs_match_the_dual_evaluator_bit_for_bit():
    rng = random.Random(20240501)
    # the columns' own draws, so that the per-point draws stay as they were
    column_rng = random.Random(20261019)
    points = faults = column_faults = 0
    while points < 20000:
        ast = random_ast(rng, rng.randint(1, 6))
        fn = ExprFn(ast)
        results = []
        # uniform points plus the small integers where poles and zero
        # bases sit
        for x in (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                  float(rng.randint(-3, 3)), rng.choice((0.0, -0.0, 1e-300))):
            old, new = _reference(ast, x), _new(fn, x)
            assert _bits(new) == _bits(old), (ast, x, old, new)
            results.append((x, old))
            faults += isinstance(old, str)
            points += 1
        # the same points and a few more as one column, in random order, so
        # the first fault lands anywhere in it
        results += ((x, _reference(ast, x)) for x in
                    (column_rng.uniform(-3.0, 3.0) for _ in range(column_rng.randint(0, 4))))
        column_rng.shuffle(results)
        xs = [x for x, _ in results]
        old = _first_fault_or_columns(results)
        only_values = old if isinstance(old[1], str) else (old[0], [])
        assert _column_bits(_read(fn.column, xs)) == _column_bits(old), (ast, xs)
        assert _column_bits(_read(fn.values, xs)) == _column_bits(only_values), (ast, xs)
        column_faults += isinstance(old[1], str)
    assert faults >= 1000  # the fault paths were exercised
    assert column_faults >= 1000

