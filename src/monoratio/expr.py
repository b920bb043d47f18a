"""Forward-mode evaluation of parsed expressions (``syntax``) on
(value, derivative) float pairs; nothing is rewritten symbolically.  A
column of points is evaluated in blocks, one AST walk per node over lists
(vector forward mode), with the same float operations as the scalar walk.
"""

from __future__ import annotations

import math
from functools import partial
from operator import add, ge, le, lt, mul, neg, sub, truediv
from typing import NamedTuple, Sequence

# the syntax names stay importable from here
from .syntax import (Binary, Call2, Const, Expr, ParseError, Unary, Var,  # noqa: F401
                     format_expr, parse)


class DomainFault(ArithmeticError):
    """Evaluation left the function's domain at a specific point."""

    def __init__(self, x: float, reason: str):
        self.x = x
        self.reason = reason
        super().__init__(f"{reason} at x = {x!r}")


class _Fault(ArithmeticError):
    """Internal domain error; eval_dual attaches the offending x."""

    def __init__(self, reason: str):
        self.reason = reason


# ---------------------------------------------------------------------------
# Forward-mode evaluation on (value, derivative) float pairs


class Dual(NamedTuple):
    """First-order dual number (value, derivative), as eval_dual returns it."""

    value: float
    deriv: float


def _u_neg(v: float, d: float) -> tuple[float, float]:
    return -v, -d


def _u_sin(v: float, d: float) -> tuple[float, float]:
    return math.sin(v), math.cos(v) * d


def _u_cos(v: float, d: float) -> tuple[float, float]:
    return math.cos(v), -math.sin(v) * d


def _u_exp(v: float, d: float) -> tuple[float, float]:
    try:
        e = math.exp(v)
    except OverflowError:
        raise _Fault("exp overflow") from None
    return e, e * d


def _u_log(v: float, d: float) -> tuple[float, float]:
    if v <= 0.0:
        raise _Fault("log of non-positive argument")
    return math.log(v), d / v


def _u_sqrt(v: float, d: float) -> tuple[float, float]:
    if v < 0.0:
        raise _Fault("sqrt of negative argument")
    if v == 0.0:
        if d == 0.0:
            return 0.0, 0.0
        raise _Fault("sqrt derivative singular at zero")
    s = math.sqrt(v)
    return s, d / (2.0 * s)


def _u_abs(v: float, d: float) -> tuple[float, float]:
    # abs'(0) := 0 by convention
    s = 1.0 if v > 0.0 else (-1.0 if v < 0.0 else 0.0)
    return abs(v), s * d


def _u_atan(v: float, d: float) -> tuple[float, float]:
    return math.atan(v), d / (1.0 + v * v)


def _u_tanh(v: float, d: float) -> tuple[float, float]:
    t = math.tanh(v)
    return t, (1.0 - t * t) * d


_UNARY_IMPL = {
    "neg": _u_neg, "sin": _u_sin, "cos": _u_cos, "exp": _u_exp,
    "log": _u_log, "sqrt": _u_sqrt, "abs": _u_abs, "atan": _u_atan,
    "tanh": _u_tanh,
}


def _d_pow(a: float, da: float, b: float, db: float) -> tuple[float, float]:
    if db == 0.0:
        # constant exponent: also covers negative bases with integer powers
        if a == 0.0:
            if b < 0.0:
                raise _Fault("zero raised to a negative power")
            if b == 0.0:
                return 1.0, 0.0
            if b == 1.0:
                return 0.0, da
            if b < 1.0:
                if da == 0.0:
                    return 0.0, 0.0
                raise _Fault("power derivative singular at zero base")
            return 0.0, 0.0
        if a < 0.0:
            if b != round(b):
                raise _Fault("negative base with non-integer exponent")
            n = int(round(b))
            try:
                v = a ** n
            except OverflowError:
                raise _Fault("pow overflow") from None
            return v, n * a ** (n - 1) * da
        try:
            return a ** b, b * a ** (b - 1.0) * da
        except OverflowError:
            raise _Fault("pow overflow") from None
    if a <= 0.0:
        raise _Fault("non-positive base with non-constant exponent")
    try:
        v = a ** b
    except OverflowError:
        raise _Fault("pow overflow") from None
    return v, v * (db * math.log(a) + b * da / a)


def _eval(node: Expr, x: float) -> tuple[float, float]:
    if isinstance(node, Const):
        return node.value, 0.0
    if isinstance(node, Var):
        return x, 1.0
    if isinstance(node, Unary):
        return _UNARY_IMPL[node.op](*_eval(node.arg, x))
    a, da = _eval(node.lhs, x)
    b, db = _eval(node.rhs, x)
    if isinstance(node, Call2):
        # ties take the left argument's derivative
        if node.op == "min":
            return (a, da) if a <= b else (b, db)
        return (a, da) if a >= b else (b, db)
    op = node.op
    if op == "+":
        return a + b, da + db
    if op == "-":
        return a - b, da - db
    if op == "*":
        return a * b, da * b + a * db
    if op == "/":
        inv = 1.0 / b  # b == 0 raises ZeroDivisionError: a DomainFault
        return a * inv, (da * b - a * db) * inv * inv
    return _d_pow(a, da, b, db)


def _eval_checked(ast: Expr, x: float) -> tuple[float, float]:
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    try:
        return _eval(ast, float(x))
    except _Fault as err:
        raise DomainFault(x, err.reason) from None
    except ZeroDivisionError:
        raise DomainFault(x, "division by zero") from None
    except (OverflowError, ValueError) as err:
        raise DomainFault(x, str(err) or type(err).__name__) from None


def eval_dual(ast: Expr, x: float) -> Dual:
    """Evaluate (h(x), h'(x)) by forward-mode propagation of (value,
    derivative) float pairs.

    Raises DomainFault for points outside the expression's domain (log of
    a non-positive value, division by zero, 0 to a negative power, ...).
    Overflow that Python floats absorb silently surfaces as an infinite
    value instead.
    """
    return Dual(*_eval_checked(ast, x))


# ---------------------------------------------------------------------------
# Column evaluation: one walk per node over a block of points
#
# Each node maps lists with the same float operations, in the same order,
# as its scalar case above.  It raises wherever the scalar walk faults
# (math's ValueError or OverflowError, ZeroDivisionError, _Fault), and it
# may also raise where the scalar walk has a special case (sqrt or a power
# at a zero base).  Either way ratio.columns and ratio.values replay the
# column point by point, which gives the scalar floats or raises the
# scalar walk's DomainFault at the first faulting x: the fault rules live
# in the scalar walk alone.
#
# A walk for values alone skips the derivatives, except at the nodes where
# the scalar walk can fault on a derivative and not on the value: there it
# takes the node's full rule, derivatives and all.

COLUMN_BLOCK = 256  # points per column walk; bounds the transient lists

_positive = partial(lt, 0.0)


def _abs_slope(v: list, w: list, d: list) -> list:
    return [(1.0 if a > 0.0 else (-1.0 if a < 0.0 else 0.0)) * b for a, b in zip(v, d)]


# op -> (the value map, and the derivatives from the argument's values v,
# the node's values w and the argument's derivatives d)
_UNARY_COLUMN = {
    "neg": (neg, lambda v, w, d: list(map(neg, d))),
    "sin": (math.sin, lambda v, w, d: list(map(mul, map(math.cos, v), d))),
    "cos": (math.cos, lambda v, w, d: [-s * b for s, b in zip(map(math.sin, v), d)]),
    "exp": (math.exp, lambda v, w, d: list(map(mul, w, d))),
    "log": (math.log, lambda v, w, d: list(map(truediv, d, v))),
    "sqrt": (math.sqrt, lambda v, w, d: [b / (2.0 * r) for b, r in zip(d, w)]),
    "abs": (abs, _abs_slope),
    "atan": (math.atan, lambda v, w, d: [b / (1.0 + a * a) for a, b in zip(v, d)]),
    "tanh": (math.tanh, lambda v, w, d: [(1.0 - u * u) * b for u, b in zip(w, d)]),
}


def _column(node: Expr, xs: list[float], slopes: bool = True) -> tuple[list, list | None]:
    """(values, derivatives) of node over xs; with slopes False the
    derivatives are None."""
    if isinstance(node, Const):
        return [node.value] * len(xs), [0.0] * len(xs) if slopes else None
    if isinstance(node, Var):
        return xs, [1.0] * len(xs) if slopes else None
    if isinstance(node, Unary):
        v, d = _column(node.arg, xs, slopes)
        fn, slope = _UNARY_COLUMN[node.op]
        if not slopes and fn is math.sqrt and 0.0 in v:
            return _column(node, xs)[0], None  # the slope is singular at zero
        w = list(map(fn, v))
        return w, slope(v, w, d) if slopes else None
    a, da = _column(node.lhs, xs, slopes)
    b, db = _column(node.rhs, xs, slopes)
    if isinstance(node, Call2):
        take_lhs = list(map(le if node.op == "min" else ge, a, b))
        return ([p if t else q for t, p, q in zip(take_lhs, a, b)],
                [p if t else q for t, p, q in zip(take_lhs, da, db)] if slopes else None)
    op = node.op
    if op == "+":
        return list(map(add, a, b)), list(map(add, da, db)) if slopes else None
    if op == "-":
        return list(map(sub, a, b)), list(map(sub, da, db)) if slopes else None
    if op == "*":
        return (list(map(mul, a, b)),
                [p * y + x * q for x, p, y, q in zip(a, da, b, db)] if slopes else None)
    if op == "/":
        inv = [1.0 / y for y in b]
        return (list(map(mul, a, inv)),
                [(p * y - x * q) * i * i for x, p, y, q, i in zip(a, da, b, db, inv)]
                if slopes else None)
    if isinstance(node.rhs, Const):
        # _d_pow's constant-exponent case off a zero base, when no base is
        # negative or the exponent is integral (float ** int computes as
        # float ** float, so both of its branches are this formula)
        c = node.rhs.value
        if all(map(_positive, a)) or (all(a) and c == round(c)):
            v = [x ** c for x in a]
            if slopes:
                c1 = c - 1.0
                return v, [c * x ** c1 * p for x, p in zip(a, da)]
            # the slope's x ** (c - 1), about |x ** c / x|, cannot overflow
            # below this (a NaN fails the test)
            if max(map(abs, v)) < 1e300 * min(map(abs, a)):
                return v, None
    if not slopes:
        return _column(node, xs)[0], None
    pairs = list(map(_d_pow, a, da, b, db))
    return [v for v, _ in pairs], [d for _, d in pairs]


class ExprFn:
    """Adapter turning a parsed AST into a differentiable-function callable."""

    __slots__ = ("ast", "label")

    def __init__(self, ast: Expr, label: str | None = None):
        self.ast = ast
        self.label = label if label is not None else format_expr(ast)

    def __call__(self, x: float) -> tuple[float, float]:
        return _eval_checked(self.ast, x)

    def _walk(self, xs: Sequence[float], slopes: bool) -> tuple[list, list]:
        """_column over xs, COLUMN_BLOCK points at a time; ValueError up
        front if an x is not finite.  With slopes False the derivatives
        are empty."""
        if not all(map(math.isfinite, xs)):
            raise ValueError("x must be finite")
        values: list[float] = []
        derivs: list[float] = []
        for k in range(0, len(xs), COLUMN_BLOCK):
            v, d = _column(self.ast, list(map(float, xs[k:k + COLUMN_BLOCK])), slopes)
            values += v
            derivs += d if slopes else ()
        return values, derivs

    def column(self, xs: Sequence[float]) -> tuple[list[float], list[float]]:
        """(values, derivatives) at every x, the floats of one call per x.
        A fault raises whatever the column walk raises, for ratio.columns
        to replay."""
        return self._walk(xs, True)

    def values(self, xs: Sequence[float]) -> list[float]:
        """column(xs)'s values, with the derivatives computed only where a
        fault can depend on them.  A fault raises as column does, for
        ratio.values to replay."""
        return self._walk(xs, False)[0]

    def __repr__(self) -> str:
        return f"ExprFn({self.label!r})"


def expr_fn(text: str) -> ExprFn:
    """Parse source text straight to a callable (value, derivative) pair."""
    return ExprFn(parse(text), label=text.strip())
