import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoratio.expr import (Binary, Call2, Const, DomainFault, Dual, ExprFn,
                            ParseError, Unary, Var, eval_dual, format_expr,
                            parse)

from helpers import central_fd, pick_usable_point, random_ast


def test_parse_add_pow_sin():
    assert parse("x^2 + sin(x)") == Binary(
        "+", Binary("^", Var(), Const(2.0)), Unary("sin", Var()))


def test_parse_exp_neg_div():
    assert parse("exp(-x)/x") == Binary(
        "/", Unary("exp", Unary("neg", Var())), Var())


def test_parse_error_offset():
    with pytest.raises(ParseError) as exc:
        parse("x +* 2")
    assert exc.value.offset == 3


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("foo(x)")
    with pytest.raises(ParseError):
        parse("y + 1")


def test_parse_empty():
    with pytest.raises(ParseError):
        parse("   ")


def test_parse_trailing_garbage():
    with pytest.raises(ParseError) as exc:
        parse("x + 1) ")
    assert exc.value.offset == 5


def test_pow_right_associative():
    assert parse("2^3^2") == Binary("^", Const(2.0),
                                    Binary("^", Const(3.0), Const(2.0)))


def test_unary_minus_binds_inside_pow_base():
    # per the grammar, "-x^2" reads as (-x)^2
    assert parse("-x^2") == Binary("^", Unary("neg", Var()), Const(2.0))
    assert parse("-(x^2)") == Unary("neg", Binary("^", Var(), Const(2.0)))
    assert parse("x^-2") == Binary("^", Var(), Unary("neg", Const(2.0)))


def test_min_max_parse():
    assert parse("min(x, 2)") == Call2("min", Var(), Const(2.0))
    with pytest.raises(ParseError):
        parse("min(x)")


def test_eval_square():
    d = eval_dual(parse("x^2"), 3.0)
    assert d.value == 9.0 and d.deriv == 6.0


def test_eval_exp_at_zero():
    d = eval_dual(parse("exp(x)"), 0.0)
    assert d.value == 1.0 and d.deriv == 1.0


def test_eval_x_sin_x():
    # product rule: sin(1) + cos(1) = 1.3817732906760363, checked against
    # a central finite difference
    d = eval_dual(parse("x*sin(x)"), 1.0)
    assert d.value == pytest.approx(0.841471, abs=1e-6)
    assert d.deriv == pytest.approx(1.381773, abs=1e-6)
    fd = central_fd(parse("x*sin(x)"), 1.0, 1e-6)
    assert abs(d.deriv - fd) <= 1e-6


def test_eval_constant_derivative_exact_zero():
    assert eval_dual(parse("3.5"), 1.7).deriv == 0.0
    assert eval_dual(parse("sin(2) + exp(1)"), -4.0).deriv == 0.0


def test_eval_variable_derivative_exact_one():
    assert eval_dual(parse("x"), 123.456).deriv == 1.0


def test_domain_faults_carry_x():
    with pytest.raises(DomainFault) as exc:
        eval_dual(parse("log(x)"), -1.0)
    assert exc.value.x == -1.0
    with pytest.raises(DomainFault):
        eval_dual(parse("1/x"), 0.0)
    with pytest.raises(DomainFault):
        eval_dual(parse("0^(x - 2)"), 1.0)  # zero to a negative power
    with pytest.raises(DomainFault):
        eval_dual(parse("sqrt(x)"), -0.5)


def test_abs_derivative_zero_at_zero():
    assert eval_dual(parse("abs(x)"), 0.0).deriv == 0.0
    assert eval_dual(parse("abs(x)"), -2.0).deriv == -1.0


def test_min_max_tie_takes_left():
    assert eval_dual(parse("min(x, x)"), 1.0).deriv == 1.0
    assert eval_dual(parse("max(2*x, x)"), 2.0).deriv == 2.0
    assert eval_dual(parse("max(2*x, x)"), -2.0).deriv == 1.0


def test_expr_fn_protocol():
    fn = ExprFn(parse("x^3"))
    v, d = fn(2.0)
    assert v == 8.0 and d == 12.0
    assert fn.label == "x^3"


# --- dual number laws ---------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(finite, finite, finite, finite)
def test_dual_product_rule(a, da, b, db):
    p = Dual(a, da) * Dual(b, db)
    assert p.value == a * b
    assert p.deriv == da * b + a * db


@given(finite, finite, finite, finite)
def test_dual_sum_linearity(a, da, b, db):
    s = Dual(a, da) + Dual(b, db)
    assert s.value == a + b and s.deriv == da + db
    d = Dual(a, da) - Dual(b, db)
    assert d.value == a - b and d.deriv == da - db


moderate = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(moderate, moderate, st.floats(min_value=0.1, max_value=1e3), moderate)
def test_dual_division_inverts_product(a, da, b, db):
    q = Dual(a, da) / Dual(b, db)
    back = q * Dual(b, db)
    assert back.value == pytest.approx(a, rel=1e-12, abs=1e-12)
    assert back.deriv == pytest.approx(da, rel=1e-9, abs=1e-6)


# --- print/parse round trip ----------------------------------------------

_consts = st.floats(min_value=0.0, max_value=100.0,
                    allow_nan=False, allow_infinity=False).map(Const)
_atoms = st.one_of(_consts, st.just(Var()))


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: Binary(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(("neg", "sin", "cos", "exp", "log",
                                   "sqrt", "abs", "atan", "tanh")),
                  children).map(lambda t: Unary(t[0], t[1])),
        st.tuples(st.sampled_from(("min", "max")), children, children).map(
            lambda t: Call2(t[0], t[1], t[2])),
    )


_asts = st.recursive(_atoms, _extend, max_leaves=25)


@given(_asts)
@settings(max_examples=300)
def test_print_parse_round_trip(tree):
    assert parse(format_expr(tree)) == tree


def test_round_trip_on_sources():
    for src in ("x^2 + sin(x)", "exp(-x)/x", "-x^2", "1/(x + 4)",
                "min(x, 2)*max(x, -1)", "2^3^x", "(x + 1)*(x - 1)"):
        ast = parse(src)
        assert parse(format_expr(ast)) == ast


def test_dual_vs_finite_difference_sweep():
    # smoke-sized version of the full acceptance sweep
    rng = random.Random(7)
    checked = 0
    while checked < 150:
        ast = random_ast(rng, rng.randint(1, 5))
        spot = pick_usable_point(ast, rng)
        if spot is None:
            continue
        x, h = spot
        dual = eval_dual(ast, x).deriv
        fd = central_fd(ast, x, h)
        assert abs(dual - fd) <= 1e-5 * (1.0 + abs(dual)), format_expr(ast)
        checked += 1
