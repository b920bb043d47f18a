"""sample_table's pair pass (ExprFn.table_with, one compiled loop over f's
and g's trees) against its column reads: the five columns must agree bit
for bit wherever the pass returns, and every error must be the one the
column reads raise, with the same type, message and x; the pass is taken
for an ExprFn pair alone."""

import random
import sys
from pathlib import Path

import pytest

import monoratio as mr
from monoratio import expr
from monoratio.expr import Binary, Const, ExprFn, Unary, Var
from monoratio.ratio import FunctionPair, _analysis_grid, columns

from helpers import UNARY_OPS, random_ast
from test_ratio import _CountedReads

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import ExprAnalyze  # noqa: E402


def _hex(columns):
    return [[v.hex() for v in column] for column in columns]


def _reference(f, g, xs):
    """The five columns from f's and g's own column reads, by sample_table's
    expressions."""
    gv, gd = columns(g, xs)
    fv, fd = columns(f, xs)
    return (fv, gv, [a / b for a, b in zip(fv, gv)], [a / b for a, b in zip(fd, gd)],
            [(ap * b - a * bp) / abs(bp) for a, ap, b, bp in zip(fv, fd, gv, gd)])


def _outcome(pair):
    """sample_table's five columns as bits, or its error's type, message and x."""
    try:
        table = mr.sample_table(pair)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err), getattr(err, "x", None)
    return _hex((table.f_values, table.g_values, table.r, table.rho, table.rho_tilde))


def _by_columns(pair):
    """pair with f behind a wrapper that has no table_with: sample_table
    reads its columns."""
    return FunctionPair(_CountedReads(pair.f), pair.g, pair.window, pair.sign_gg,
                        pair.sign_gprime, pair.grid_n)


def _grid(pair):
    return _analysis_grid(pair.window.lo, pair.window.length / pair.grid_n, pair.grid_n)


def test_the_pair_pass_matches_the_column_reads_on_expr_analyze():
    workload = ExprAnalyze(3)
    for i in range(300):
        case = workload.case_input(i)
        f, g = mr.expr_fn(case.f_text), mr.expr_fn(case.g_text)
        pair = mr.make_pair(f, g, mr.Interval(*case.window))
        table = f.table_with(g, _grid(pair))
        assert table is not None, case
        assert _hex(table) == _hex(_reference(f, g, _grid(pair))), case
        if i % 10 == 0:  # and the tables, sign-flip chase included
            assert _outcome(pair) == _outcome(_by_columns(pair)), case


def _sharing(rng, g):
    """An f that reads g's tree: as a whole, under a function, twice, or
    beside a signed-zero literal."""
    c = Const(round(rng.uniform(-3.0, 3.0), 4))
    h = Unary(rng.choice(UNARY_OPS), g)
    zero = rng.choice((Const(-0.0), Const(0.0), Unary("neg", Const(0.0))))
    return rng.choice([
        g, h, random_ast(rng, 3),
        Binary("+", h, Binary("*", c, g)),
        Binary("*", g, Binary("+", g, c)),
        Binary("+", Binary("*", zero, g), Binary("-", h, zero)),
        Binary("/", Binary("^", g, Const(float(rng.randint(0, 3)))), Binary("+", Var(), c)),
    ])


def test_the_pair_pass_matches_the_column_reads_on_random_pairs():
    rng = random.Random(20261022)
    taken = faults = 0
    for _ in range(400):
        g = random_ast(rng, rng.randint(1, 4))
        f = _sharing(rng, g)
        lo = round(rng.uniform(-3.0, 2.0), 3)
        window = mr.Interval(lo, lo + rng.choice((0.5, 1.0, 3.0)))
        # no make_pair: its g check would turn most faults away first
        pair = FunctionPair(ExprFn(f), ExprFn(g), window, 1, 1, rng.choice((256, 2048)))
        table = pair.f.table_with(pair.g, _grid(pair))
        if table is not None:
            taken += 1
            assert _hex(table) == _hex(_reference(pair.f, pair.g, _grid(pair))), (f, g)
        outcome = _outcome(pair)
        faults += not isinstance(outcome, list)
        assert outcome == _outcome(_by_columns(pair)), (f, g, window)
    assert taken >= 100 and faults >= 100  # both paths were exercised


def _pair(f, g, lo=0.0, hi=1.0, n=256):
    return FunctionPair(mr.expr_fn(f), mr.expr_fn(g), mr.Interval(lo, hi), 1, 1, n)


@pytest.mark.parametrize("f, g, lo, error, message, at", [
    # f faults from x = 0.3 on, g from 0.7 on: g's fault wins, as g is read first
    ("x + sqrt(0.3 - x)", "exp(x) + sqrt(0.7 - x)", 0.0, mr.DomainFault,
     "sqrt of negative argument", 0.701171875),
    # g is exactly 0 at the grid point 128.5/256: r divides by it
    ("exp(x)", "x - 0.501953125", 0.0, ZeroDivisionError, "float division by zero", None),
    # test_sample_table_rejects_non_finite_samples' two cases
    ("exp(400)*exp(400)*x", "exp(x)", 0.0, mr.ValidationError, "r takes", 0.5 / 256),
    ("exp(709)*x", "exp(x)", 1.0, mr.ValidationError, "rho-tilde takes", 1.0 + 0.5 / 256),
    # g is NaN at one grid point: g is named, not the r it spoils
    ("x", "exp(x) + 0*(1e300*exp(700 - 1e12*(x - 0.501953125)^2))", 0.0,
     mr.ValidationError, "g takes the non-finite value nan", 0.501953125),
])
def test_a_fault_is_the_column_reads_fault(f, g, lo, error, message, at):
    pair = _pair(f, g, lo, lo + 1.0)
    assert pair.f.table_with(pair.g, _grid(pair)) is None
    outcome = _outcome(pair)
    assert outcome == _outcome(_by_columns(pair))
    assert outcome[0] is error and outcome[1].startswith(message) and outcome[2] == at


class _Runs:
    """Counts the runs of the loops looked up from here on, which are pair
    loops (an ExprFn looks its column loop up when it is made), and the
    ExprFn.column reads of more than one point (a scalar call, such as the
    sign-flip chase's, is a column of one)."""

    def __init__(self, monkeypatch):
        self.loops = self.reads = 0
        shape_loop, column = expr._shape_loop, ExprFn.column

        def counted_shape_loop(source):
            loop = shape_loop(source)

            def run(*args):
                self.loops += 1
                return loop(*args)
            return run

        def counted_column(fn, xs):
            self.reads += len(xs) > 1
            return column(fn, xs)

        monkeypatch.setattr(expr, "_shape_loop", counted_shape_loop)
        monkeypatch.setattr(ExprFn, "column", counted_column)


def test_an_expression_pair_runs_one_loop_and_no_column_read(monkeypatch):
    pair = mr.make_pair(mr.expr_fn("x^2 + 1"), mr.expr_fn("exp(x)"), mr.Interval(0.0, 1.0), 256)
    runs = _Runs(monkeypatch)
    mr.sample_table(pair)
    assert (runs.loops, runs.reads) == (1, 0)


def test_other_pairs_keep_their_column_reads(monkeypatch, staircase_pair):
    window = mr.Interval(0.0, 1.0)
    f, g = _CountedReads(mr.expr_fn("x^2 + 1")), _CountedReads(mr.expr_fn("exp(x)"))
    counted = mr.make_pair(f, g, window, 256)
    template = mr.make_pair(mr.expr_fn("x^2 + 1"), mr.construct.G_TEMPLATES[1][0], window, 256)
    constructed, _, _ = staircase_pair
    tables = [mr.sample_table(p) for p in (counted, template, constructed)]
    runs = _Runs(monkeypatch)
    f.reads = g.reads = 0
    assert _outcome(counted) == _outcome(_by_columns(counted))
    assert (f.reads, g.reads, f.calls, g.calls) == (2, 2, 0, 0)
    assert (runs.loops, runs.reads) == (0, 4)  # each pair read by two columns
    for pair, table in zip((template, constructed), tables[1:]):
        runs.loops = runs.reads = 0
        again = mr.sample_table(pair)
        assert (runs.loops, runs.reads) == (0, 1), pair  # one ExprFn column: f's, or g's
        assert again == table
