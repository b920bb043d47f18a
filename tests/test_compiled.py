"""The loops ExprFn compiles from its AST: op validation before any source
is compiled, constants kept out of the source, bit-identical columns on
hand-built constants, pickling, and the reflections' single replay."""

import copy
import math
import pickle
import struct

import pytest

from monoratio import expr
from monoratio.construct import G_TEMPLATES, StaircaseFn
from monoratio.expr import (Binary, Call2, Const, DomainFault, ExprFn, Unary, Var,
                            _loop_source, parse)
from monoratio.ratio import columns, mirrored, negated, values
from monoratio.syntax import BINARY_FUNCTIONS, UNARY_FUNCTIONS
import monoratio as mr

from test_columns import _by_column, _by_values, _per_point, _values_of


def _pack(floats):
    # signed zeros count; a NaN does not keep its sign: CPython's float
    # multiply returns either operand's NaN when both are NaN, depending on
    # whether the interpreter has specialised the instruction yet, so one
    # evaluator alone gives both signs of (-nan) * nan
    return struct.pack(f"<{len(floats)}d", *(math.nan if v != v else v for v in floats))


def _bits(result):
    """A (values, derivatives) result packed as doubles, or a fault as
    its x (packed) and reason."""
    a, b = result
    if isinstance(b, str):
        return _pack([a]), b
    return _pack(a), _pack(b)


@pytest.mark.parametrize("ast", [
    Unary("__import__('os')", Var()),
    Binary("**", Var(), Const(2.0)),
    Binary("+", Var(), Unary("exec", Var())),
    Call2("sum", Var(), Const(1.0)),
    Unary("neg", "x"),
], ids=repr)
def test_unknown_op_raises_at_construction_before_compiling(monkeypatch, ast):
    def forbidden(*args):
        raise AssertionError("source compiled or executed")

    monkeypatch.setattr(expr, "compile", forbidden, raising=False)
    monkeypatch.setattr(expr, "exec", forbidden, raising=False)
    with pytest.raises((ValueError, TypeError), match="unknown|not an expression"):
        ExprFn(ast)


def test_source_holds_no_constant_text_and_only_table_names():
    source, consts = _loop_source(parse("123.456*x^2.75 + min(x, 7e-5)/sqrt(x + 31)"))
    assert consts == (123.456, 2.75, 7e-05, 31.0)
    for text in ("123", "456", "2.75", "7e", "31"):
        assert text not in source
    # every function of the language has a template
    for op in UNARY_FUNCTIONS:
        assert _loop_source(Unary(op, Var()))[0].count("def ") == 2
    for op in BINARY_FUNCTIONS:
        assert _loop_source(Call2(op, Var(), Var()))[0].count("def ") == 2


_SPECIALS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 1e308, 5e-324, -2.0, 3.0)


def _special_asts(c):
    k = Const(c)
    return [
        k, Binary("^", Var(), k), Binary("^", Binary("-", Var(), Const(1.0)), k),
        Binary("^", k, Var()), Binary("*", Var(), k), Binary("/", k, Var()),
        Binary("-", k, Var()), Binary("+", Binary("*", k, Var()), k),
        Call2("min", Var(), k), Call2("max", k, Var()), Unary("sqrt", Binary("*", k, Var())),
        Unary("log", Binary("+", Var(), k)), Unary("exp", Binary("*", k, Var())),
        Unary("abs", Binary("-", k, Var())), Unary("tanh", Binary("*", k, Var())),
        Unary("atan", Binary("*", k, Var())), Unary("cos", Binary("^", Var(), k)),
        Binary("^", Unary("sin", Var()), k),
    ]


_SPECIAL_XS = [-3.0, -2.0, -1.0, -0.5, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 700.0]


@pytest.mark.parametrize("c", _SPECIALS, ids=repr)
def test_hand_built_constants_match_per_point_calls_bit_for_bit(c):
    for ast in _special_asts(c):
        fn = ExprFn(ast, label="c")  # format_expr cannot print nan or inf
        for xs in (_SPECIAL_XS, [x for x in _SPECIAL_XS if x > 0.0], [0.5, 1.0, 2.0]):
            expected = _per_point(fn, xs)
            assert _bits(_by_column(fn, xs)) == _bits(expected), (ast, xs)
            assert _bits(_by_values(fn, xs)) == _bits(_values_of(expected)), (ast, xs)
            # the compiled loops, where they return, return those floats
            try:
                assert _bits(fn.column(xs)) == _bits(expected), (ast, xs)
            except (ArithmeticError, ValueError):
                pass
            try:
                assert _bits((fn.values(xs), [])) == _bits(_values_of(expected)), (ast, xs)
            except (ArithmeticError, ValueError):
                pass


class _CountingExprFn(ExprFn):
    """An ExprFn that counts its scalar calls."""

    def __init__(self, ast):
        super().__init__(ast)
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return super().__call__(x)


@pytest.mark.parametrize("copier", [lambda fn: pickle.loads(pickle.dumps(fn)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_exprfn_copies_round_trip(copier):
    ast = parse("exp(-x)*sin(3*x) + x^2.5/(1 + x^2)")
    counting = _CountingExprFn(ast)
    counting.calls = 5
    for fn in (ExprFn(ast, label="f"), counting):
        twin = copier(fn)
        # a subclass stays itself, with its attributes, and its own loops
        assert type(twin) is type(fn) and twin is not fn
        assert getattr(twin, "__dict__", None) == getattr(fn, "__dict__", None)
        assert (twin.ast, twin.label) == (fn.ast, fn.label)
        assert twin._column is not fn._column
        xs = [0.1 * k for k in range(1, 40)]
        assert _bits(twin.column(xs)) == _bits(fn.column(xs))
        assert twin.values(xs) == fn.values(xs)
        assert twin(0.7) == fn(0.7)
    assert twin.calls == 6 and counting.calls == 6


@pytest.mark.parametrize("read", [columns, values], ids=["columns", "values"])
def test_reflections_replay_a_fault_once(read):
    xs = [1.0 + 0.01 * k for k in range(200)] + [-1.0]  # log faults at the last
    fn = _CountingExprFn(parse("log(x)"))
    with pytest.raises(DomainFault):
        read(fn, xs)
    assert fn.calls == 201
    fn.calls = 0
    with pytest.raises(DomainFault):
        read(negated(fn), xs)
    assert fn.calls == 201
    fn.calls = 0
    with pytest.raises(DomainFault, match="at x = -1.0"):
        read(negated(mirrored(fn)), [-x for x in xs])
    assert fn.calls == 201


def test_reflections_have_the_fast_paths_of_what_they_wrap():
    def plain(x):
        return x, 1.0

    template = G_TEMPLATES[1][0]
    staircase = StaircaseFn(mr.StaircaseSpec())
    for wrap in (negated, mirrored):
        for fn, has in ((plain, ()), (template, ("column",)), (staircase, ("values",)),
                        (mr.expr_fn("x"), ("column", "values"))):
            wrapped = wrap(fn)
            assert tuple(m for m in ("column", "values") if hasattr(wrapped, m)) == has
