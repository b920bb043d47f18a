"""sympy as an independent derivative oracle for the forward-mode
evaluator: the symbolic derivative of the printed expression, evaluated at
30 digits, must match ExprFn's derivative within 1e-9 relative on random
expression trees."""

import random

import pytest

from monoratio.expr import Binary, Call2, Const, ExprFn, Unary, Var, parse

from helpers import format_expr, pick_usable_point, random_ast

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x", real=True)
_UNARY = {"neg": lambda u: -u, "sin": sympy.sin, "cos": sympy.cos,
          "exp": sympy.exp, "log": sympy.log, "sqrt": sympy.sqrt,
          "abs": sympy.Abs, "atan": sympy.atan, "tanh": sympy.tanh}
_BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": lambda a, b: a / b,
           "^": lambda a, b: a ** b, "min": sympy.Min, "max": sympy.Max}


def _to_sympy(node):
    """The tree rebuilt node by node: the printed text reads "-x^2" as
    (-x)^2, which sympy's Python-grammar parser would read as -(x^2)."""
    if isinstance(node, Const):
        return sympy.Rational(node.value)  # the exact binary value
    if isinstance(node, Var):
        return X
    if isinstance(node, Unary):
        return _UNARY[node.op](_to_sympy(node.arg))
    assert isinstance(node, (Binary, Call2))
    return _BINARY[node.op](_to_sympy(node.lhs), _to_sympy(node.rhs))


def test_sympy_derivatives_match_eval_dual():
    rng = random.Random(1729)
    checked = 0
    while checked < 300:
        ast = random_ast(rng, rng.randint(1, 5))
        fn = ExprFn(ast)
        spot = pick_usable_point(fn, rng)
        if spot is None:
            continue
        x = spot[0]
        h = _to_sympy(parse(format_expr(ast)))
        ref = sympy.diff(h, X).evalf(30, subs={X: sympy.Rational(x)})
        assert ref.is_real and ref.is_finite, (format_expr(ast), x, ref)
        dual = fn(x)[1]
        assert abs(dual - float(ref)) <= 1e-9 * (1.0 + abs(float(ref))), (format_expr(ast), x, dual, ref)
        checked += 1
