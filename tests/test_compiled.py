"""The loop ExprFn compiles from its AST: op validation before any source
is compiled, constants kept out of the source, one loop per shape, shared
by the trees of that shape, a repeated subtree computed once, bit-identical columns on hand-built
constants, deep copies, and faults read through the reflections with no
call per x."""

import copy
import itertools
import math
import struct
import sys
import threading

import pytest

from monoratio import expr
from monoratio.construct import G_TEMPLATES, StaircaseFn
from monoratio.expr import (Binary, Call2, Const, DomainFault, ExprFn, Unary, Var,
                            _loop_source, parse)
from monoratio.ratio import columns, values
from monoratio.syntax import BINARY_FUNCTIONS, UNARY_FUNCTIONS
import monoratio as mr

from helpers import mirrored, negated
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
    assert consts == (123.456, 0.0, 2.75, 0.0, 7e-05, 0.0, 31.0, 0.0)
    for text in ("123", "456", "2.75", "7e", "31"):
        assert text not in source
    # every function of the language has a template
    for op in UNARY_FUNCTIONS:
        assert _loop_source(Unary(op, Var()))[0].count("def ") == 1
    for op in BINARY_FUNCTIONS:
        assert _loop_source(Call2(op, Var(), Var()))[0].count("def ") == 1


def test_each_shape_compiles_one_loop():
    # the column loop is the only one, repeats, sqrt and powers included:
    # ratio.values reads a value alone from it
    for text in ("exp(x)*exp(x) + exp(x)", "(exp(x))^2", "x^0.5 + sqrt(x + 2)", "x^(x - 1)"):
        source, _ = _loop_source(parse(text))
        assert source.count("def ") == 1 and source.startswith("def column("), text
        fn = ExprFn(parse(text))
        assert fn._column is expr._shape_loop(source) and not hasattr(fn, "values")


_SPECIALS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 1e308, 5e-324, -2.0, 3.0)


def _special_asts(k):
    """Trees that read the leaf k (a literal or a negated one) in every
    template that takes an operand."""
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


def _negated(c):
    return Unary("neg", Const(c))


def _negated_per_point(c):
    # c + -0.0 is c bit for bit, so this negates c at each point, where
    # _negated(c) reads -c and -0.0 from its constant slots
    return Unary("neg", Binary("+", Const(c), Const(-0.0)))


@pytest.mark.parametrize("c", _SPECIALS, ids=repr)
def test_hand_built_constants_match_per_point_calls_bit_for_bit(c):
    cases = [(ast, None) for ast in _special_asts(Const(c))]
    cases += zip(_special_asts(_negated(c)), _special_asts(_negated_per_point(c)))
    for ast, unfolded in cases:
        fn = ExprFn(ast)
        for xs in (_SPECIAL_XS, [x for x in _SPECIAL_XS if x > 0.0], [0.5, 1.0, 2.0]):
            expected = _per_point(fn, xs)
            if unfolded is not None:
                reference = _per_point(ExprFn(unfolded), xs)
                assert _bits(expected) == _bits(reference), (ast, xs)
            assert _bits(_by_column(fn, xs)) == _bits(expected), (ast, xs)
            assert _bits(_by_values(fn, xs)) == _bits(_values_of(expected)), (ast, xs)
            # the compiled loop, where it returns, returns those floats
            try:
                assert _bits(fn.column(xs)) == _bits(expected), (ast, xs)
            except (ArithmeticError, ValueError):
                pass


def test_trees_of_one_shape_share_their_loops():
    leaves = [leaf(c) for leaf in (Const, _negated) for c in _SPECIALS]
    for template in zip(*(_special_asts(k) for k in leaves)):
        fns = [ExprFn(ast, label="c") for ast in template]
        shapes = {}
        for fn in fns:
            first = shapes.setdefault(_loop_source(fn.ast)[0], fn)
            assert fn._column is first._column
        # a constant exponent selects its template by c alone: integral c,
        # non-integral c, and a negated literal, which is no Const
        assert len({id(fn._column) for fn in fns}) == len(shapes) <= 3
    assert ExprFn(parse("(-1.5)*exp(x)"))._column is ExprFn(parse("1.5*exp(x)"))._column
    assert ExprFn(parse("x^(-2)"))._column is ExprFn(parse("x^(-0.5)"))._column
    assert ExprFn(parse("x^2"))._column is not ExprFn(parse("x^(-2)"))._column


def test_a_repeated_subtree_is_computed_once_per_loop():
    assert _loop_source(parse("exp(x)*exp(x) + exp(x)"))[0].count("exp(") == 1
    assert " d0 = " in _loop_source(parse("(exp(x))^2"))[0]
    # twins of one shape whose constants differ share no subtree
    assert ExprFn(parse("exp(2*x) + exp(3*x)"))._column is not \
        ExprFn(parse("exp(2*x) + exp(2*x)"))._column


def _nested(op, depth):
    ast = Var()
    for _ in range(depth):
        ast = Unary(op, ast)
    return ast


def test_a_shape_evicted_from_the_cache_still_evaluates():
    ast = parse("exp(-x)*sin(3*x) + x^2.5/(1 + x^2)")
    fn = ExprFn(ast)
    xs = [0.1 * k for k in range(1, 40)]
    expected = _bits(fn.column(xs))
    for a, b in itertools.product(range(12), repeat=2):  # 144 other shapes
        ExprFn(Binary("*", _nested("sin", a), _nested("cos", b)))
    info = expr._shape_loop.cache_info()
    assert info.currsize == expr._SHAPES < 144
    twin = ExprFn(ast)
    assert expr._shape_loop.cache_info().misses == info.misses + 1
    assert twin._column is not fn._column
    assert _bits(fn.column(xs)) == _bits(twin.column(xs)) == expected


def test_threads_that_share_shapes_read_the_same_floats():
    texts = [f"({c})*sin(x) + exp({c}*x)^{k}" for c in ("0.5", "-1.5", "2") for k in ("2", "2.5")]
    xs = [0.1 * k for k in range(1, 40)]
    expected = [_bits(ExprFn(parse(t)).column(xs)) for t in texts]
    results = []

    def work():
        results.append([_bits(ExprFn(parse(t)).column(xs)) for t in texts])

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    expr._shape_loop.cache_clear()  # so that the threads race on the misses
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * len(threads)
    assert expr._shape_loop.cache_info().currsize == 2  # integral and other k


class _CountingExprFn(ExprFn):
    """An ExprFn that counts its scalar calls."""

    def __init__(self, ast):
        super().__init__(ast)
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return super().__call__(x)


@pytest.mark.parametrize("copier", [copy.deepcopy], ids=["deepcopy"])
def test_exprfn_copies_round_trip(copier):
    ast = parse("exp(-x)*sin(3*x) + x^2.5/(1 + x^2)")
    counting = _CountingExprFn(ast)
    counting.calls = 5
    for fn in (ExprFn(ast, label="f"), counting):
        twin = copier(fn)
        # a subclass stays itself, with its attributes, and shares the loops
        # of its shape
        assert type(twin) is type(fn) and twin is not fn
        assert getattr(twin, "__dict__", None) == getattr(fn, "__dict__", None)
        assert (twin.ast, twin.label) == (fn.ast, fn.label)
        assert twin._column is fn._column
        xs = [0.1 * k for k in range(1, 40)]
        assert _bits(twin.column(xs)) == _bits(fn.column(xs))
        assert values(twin, xs) == values(fn, xs)
        assert twin(0.7) == fn(0.7)
    assert twin.calls == 6 and counting.calls == 6


@pytest.mark.parametrize("read", [columns, values], ids=["columns", "values"])
def test_reflections_raise_a_fault_with_no_scalar_call(read):
    xs = [1.0 + 0.01 * k for k in range(200)] + [-1.0]  # log faults at the last
    fn = _CountingExprFn(parse("log(x)"))
    for wrapped, points in ((fn, xs), (negated(fn), xs),
                            (negated(mirrored(fn)), [-x for x in xs])):
        with pytest.raises(DomainFault, match=r"^log of non-positive argument at x = -1.0$"):
            read(wrapped, points)
    assert fn.calls == 0


def test_reflections_have_the_fast_paths_of_what_they_wrap():
    def plain(x):
        return x, 1.0

    template = G_TEMPLATES[1][0]
    staircase = StaircaseFn(mr.StaircaseSpec())
    for wrap in (negated, mirrored):
        for fn, has in ((plain, ()), (template, ("column",)), (staircase, ("values",)),
                        (mr.expr_fn("x"), ("column",))):
            wrapped = wrap(fn)
            assert tuple(m for m in ("column", "values") if hasattr(wrapped, m)) == has
