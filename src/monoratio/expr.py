"""Forward-mode evaluation of parsed expressions (``syntax``) on
(value, derivative) float pairs; nothing is rewritten symbolically.  A
column of points runs through loops compiled from the AST (source
transformation), with the same float operations as the scalar walk.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .errors import ByState
# the syntax names stay importable from here
from .syntax import (Binary, Call2, Const, Expr, ParseError, Unary, Var,  # noqa: F401
                     format_expr, parse)


class DomainFault(ByState, ArithmeticError):
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
# Column evaluation: the scalar walk compiled to straight-line loops
#
# An ExprFn turns its AST into Python source once, at construction: a loop
# over the points whose body does the scalar walk's float operations in the
# scalar walk's order, and a values-only twin that skips the derivatives.
# The (node type, op) pairs only select the fixed templates below, and the
# constants enter through a tuple argument, so no text of the AST reaches
# the source.
#
# A body raises wherever the scalar walk faults (math's ValueError or
# OverflowError, ZeroDivisionError, _Fault), and it may also raise where the
# scalar walk has a special case (sqrt at zero).  Either way ratio.columns
# and ratio.values replay the column point by point, which gives the scalar
# floats or raises the scalar walk's DomainFault at the first faulting x:
# the fault rules live in the scalar walk alone.

# (node type, op) -> the statements of its value and of its derivative, over
# the operands' values {a} {b}, their derivatives {da} {db} and the node's
# own names {v} {d}
_SOURCE = {
    (Unary, "neg"): ("{v} = -{a}", "{d} = -{da}"),
    (Unary, "sin"): ("{v} = sin({a})", "{d} = cos({a}) * {da}"),
    (Unary, "cos"): ("{v} = cos({a})", "{d} = -sin({a}) * {da}"),
    (Unary, "exp"): ("{v} = exp({a})", "{d} = {v} * {da}"),
    (Unary, "log"): ("{v} = log({a})", "{d} = {da} / {a}"),
    # the slope divides by zero at zero (0.0 / 0.0 too), so the values-only
    # loop raises there as well
    (Unary, "sqrt"): ("{v} = sqrt({a})\nif {v} == 0.0: raise ZeroDivisionError",
                      "{d} = {da} / (2.0 * {v})"),
    (Unary, "abs"): ("{v} = abs({a})",
                     "{d} = (1.0 if {a} > 0.0 else (-1.0 if {a} < 0.0 else 0.0)) * {da}"),
    (Unary, "atan"): ("{v} = atan({a})", "{d} = {da} / (1.0 + {a} * {a})"),
    (Unary, "tanh"): ("{v} = tanh({a})", "{d} = (1.0 - {v} * {v}) * {da}"),
    (Binary, "+"): ("{v} = {a} + {b}", "{d} = {da} + {db}"),
    (Binary, "-"): ("{v} = {a} - {b}", "{d} = {da} - {db}"),
    (Binary, "*"): ("{v} = {a} * {b}", "{d} = {da} * {b} + {a} * {db}"),
    (Binary, "/"): ("i{v} = 1.0 / {b}\n{v} = {a} * i{v}",
                    "{d} = ({da} * {b} - {a} * {db}) * i{v} * i{v}"),
    # ties take the left argument's derivative
    (Call2, "min"): ("{v} = {a} if {a} <= {b} else {b}", "{d} = {da} if {a} <= {b} else {db}"),
    (Call2, "max"): ("{v} = {a} if {a} >= {b} else {b}", "{d} = {da} if {a} >= {b} else {db}"),
    # _d_pow reads the derivatives, so a ^ and its operands always carry them
    (Binary, "^"): ("{v}, {d} = _d_pow({a}, {da}, {b}, {db})", ""),
}

# a ^ c for a constant c: _d_pow's formula where its constant-exponent case
# computes a ** c and c * a ** (c - 1.0) * da, else _d_pow itself
_POW_CONST = """if {a} {cmp} 0.0:
    {v} = {a} ** {b}
    {d} = {b} * {a} ** ({b} - 1.0) * {da}
else:
    {v}, {d} = _d_pow({a}, {da}, {b}, 0.0)"""

_LOOP_GLOBALS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
                 "sqrt": math.sqrt, "atan": math.atan, "tanh": math.tanh, "_d_pow": _d_pow}


def _pow_fast_cmp(c) -> str:
    """The bases a for which _d_pow's constant-exponent case takes the
    formula: a > 0.0, or a != 0.0 when c is integral and not -0.0 (its
    negative-base branch raises a to int(round(c)), which float ** int
    computes as float ** float)."""
    integral = math.isfinite(c) and c == round(c) and (c != 0.0 or math.copysign(1.0, c) > 0.0)
    return "!=" if integral else ">"


def _emit(node: Expr, slopes: bool, lines: list[str], consts: list) -> tuple[str, str]:
    """Append the statements that compute node at the point x; return the
    names (or literals) holding its value and, with slopes, its derivative
    (else "")."""
    if isinstance(node, Var):
        return "x", "1.0"
    if isinstance(node, Const):
        consts.append(node.value)
        return f"c{len(consts) - 1}", "0.0"
    key = (type(node), getattr(node, "op", None))
    if key not in _SOURCE:
        raise ValueError(f"unknown expression node {node!r}")
    slopes = slopes or key == (Binary, "^")
    if isinstance(node, Unary):
        a, da = _emit(node.arg, slopes, lines, consts)
        b = db = ""
    else:
        a, da = _emit(node.lhs, slopes, lines, consts)
        b, db = _emit(node.rhs, slopes, lines, consts)
    names = {"a": a, "da": da, "b": b, "db": db, "v": f"v{len(lines)}", "d": f"d{len(lines)}"}
    if key == (Binary, "^") and isinstance(node.rhs, Const):
        source = _POW_CONST
        names["cmp"] = _pow_fast_cmp(node.rhs.value)
    else:
        value, slope = _SOURCE[key]
        source = f"{value}\n{slope}" if slopes and slope else value
    lines += source.format(**names).split("\n")
    return names["v"], names["d"] if slopes else ""


def _loop_source(ast: Expr) -> tuple[str, tuple]:
    """The source of the two loops over ast, column(xs, consts) and
    values(xs, consts), and the constants tuple they read."""
    lines: list[str] = []
    for name, slopes in (("column", True), ("values", False)):
        consts: list = []
        body: list[str] = []
        v, d = _emit(ast, slopes, body, consts)
        lines += [f"def {name}(xs, consts):",
                  f"    ({''.join(f'c{k}, ' for k in range(len(consts)))}) = consts",
                  "    values, derivs = [], []",
                  "    value, deriv = values.append, derivs.append",
                  "    for x in map(float, xs):",
                  *(f"        {line}" for line in body),
                  f"        value({v})",
                  *([f"        deriv({d})"] if slopes else []),
                  f"    return values{', derivs' if slopes else ''}"]
    return "\n".join(lines) + "\n", tuple(consts)


def _compile_loops(ast: Expr) -> tuple[tuple, Callable, Callable]:
    """(constants, column loop, values loop) of ast, compiled together."""
    source, consts = _loop_source(ast)
    namespace = dict(_LOOP_GLOBALS)
    exec(compile(source, "<monoratio.expr loops>", "exec"), namespace)
    # popped, so that no cycle through the loops' globals outlives the ExprFn
    return consts, namespace.pop("column"), namespace.pop("values")


def _check_finite(xs: Sequence[float]) -> None:
    # a finite sum clears every x in one C-level pass
    if not math.isfinite(sum(xs)) and not all(map(math.isfinite, xs)):
        raise ValueError("x must be finite")


class ExprFn:
    """Adapter turning a parsed AST into a differentiable-function callable.
    Construction compiles the column loops, so an unknown op raises there."""

    __slots__ = ("ast", "label", "_consts", "_column", "_values")

    def __init__(self, ast: Expr, label: str | None = None):
        self._consts, self._column, self._values = _compile_loops(ast)
        self.ast = ast
        self.label = label if label is not None else format_expr(ast)

    def __getstate__(self):
        # a copy compiles its own loops from the AST
        return getattr(self, "__dict__", None), {"ast": self.ast, "label": self.label}

    def __setstate__(self, state):
        attrs, slots = state
        for name, value in {**(attrs or {}), **slots}.items():
            setattr(self, name, value)
        self._consts, self._column, self._values = _compile_loops(self.ast)

    def __call__(self, x: float) -> tuple[float, float]:
        return _eval_checked(self.ast, x)

    def column(self, xs: Sequence[float]) -> tuple[list[float], list[float]]:
        """(values, derivatives) at every x, the floats of one call per x.
        ValueError up front if an x is not finite; a fault raises whatever
        the compiled loop raises, for ratio.columns to replay."""
        _check_finite(xs)
        return self._column(xs, self._consts)

    def values(self, xs: Sequence[float]) -> list[float]:
        """column(xs)'s values, with the derivatives computed only where a
        fault can depend on them.  A fault raises as column does, for
        ratio.values to replay."""
        _check_finite(xs)
        return self._values(xs, self._consts)

    def __repr__(self) -> str:
        return f"ExprFn({self.label!r})"


def expr_fn(text: str) -> ExprFn:
    """Parse source text straight to a callable (value, derivative) pair."""
    return ExprFn(parse(text), label=text.strip())
