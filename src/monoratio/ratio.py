"""Validated (f, g) pairs on a finite window and the derived quantities
r = f/g, rho = f'/g', and rho-tilde = (f'g - fg')/|g'|.

The standing assumptions are that g and g' never vanish on the window and
keep a constant sign.  Validation is sampling-based (Chebyshev-spaced
points, denser near the endpoints where degeneration typically happens);
it is not a certified enclosure.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import ne, truediv
from typing import Callable, Sequence

from .intervals import Interval

# Anything callable as x -> (value, derivative).  One may also have a
# column(xs) -> (values, derivatives) method, which columns() prefers, and
# a values(xs) -> values method, which values() prefers.  Either method is
# a fast path: when it returns, it returns the floats of one call per x,
# and wherever a call faults it raises an ArithmeticError or ValueError,
# not necessarily that call's (it may raise one elsewhere too).  columns()
# and values() then replay xs one call per x, in xs order, which gives the
# per-point floats or the first faulting x's own error.  Any other
# exception propagates.
DifferentiableFn = Callable[[float], tuple[float, float]]

# "nonzero" means above this times max(1, largest sample magnitude)
ZERO_REL_TOL = 1e-12


class ValidationError(ValueError):
    """A standing assumption failed at a concrete point."""

    def __init__(self, x: float, message: str):
        self.x = x
        super().__init__(f"{message} near x = {x:.9g}")


class ZeroG(ValidationError):
    def __init__(self, x: float):
        super().__init__(x, "g takes the zero value")


class ZeroGPrime(ValidationError):
    def __init__(self, x: float):
        super().__init__(x, "g' takes the zero value")


class SignChange(ValidationError):
    """Sign flip between adjacent samples with no small-magnitude root
    in between (typically a pole)."""

    def __init__(self, x: float, what: str):
        super().__init__(x, f"sign of {what} changes discontinuously")


class BadBracket(ValueError):
    """refine_sign_change called without a sign change in the bracket."""


@dataclass(frozen=True)
class FunctionPair:
    """A validated (f, g) bundle: the unit of analysis.

    sign_gg is the constant sign of g*g' over the window, the row selector
    of the monotonicity rule tables; sign_gprime the constant sign of g'.
    """

    f: DifferentiableFn
    g: DifferentiableFn
    window: Interval
    sign_gg: int
    sign_gprime: int
    grid_n: int


@lru_cache(maxsize=4)
def _chebyshev_cosines(n: int) -> tuple[float, ...]:
    """cos(pi (2k + 1) / 2n) for k = n - 1 down to 0: ascending.  The
    pipeline asks for two n alone (256 and 2048), whatever the window."""
    return tuple(math.cos(math.pi * (2 * k + 1) / (2 * n)) for k in reversed(range(n)))


def _chebyshev_points(window: Interval, n: int) -> list[float]:
    mid, half = window.midpoint, 0.5 * window.length
    return [mid + half * c for c in _chebyshev_cosines(n)]


def refine_sign_change(probe: Callable[[float], float], bracket: tuple[float, float],
                       xtol: float) -> float:
    """Bisect probe's sign change inside bracket down to xtol.

    The probe must have opposite (or zero) signs at the bracket ends;
    BadBracket otherwise.  Returns the midpoint of the final bracket.
    """
    lo, hi = bracket
    if hi < lo:
        lo, hi = hi, lo
    flo, fhi = probe(lo), probe(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BadBracket(f"probe has the same sign at both bracket ends ({lo:g}, {hi:g})")
    for _ in range(200):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        fm = probe(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def columns(fn: DifferentiableFn, xs: Sequence[float]) -> tuple[list[float], list[float]]:
    """(values, derivatives) of fn at every x, the floats one call per x
    gives, or the first faulting x's error: fn.column(xs) when fn has that
    method and it returns, else one call per x."""
    column = getattr(fn, "column", None)
    if column is not None:
        try:
            return column(xs)
        except (ArithmeticError, ValueError):
            pass
    return _pointwise(fn, xs)


def _pointwise(fn: DifferentiableFn, xs: Sequence[float]) -> tuple[list[float], list[float]]:
    """(values, derivatives) of fn at every x, by one call per x in xs order."""
    pairs = list(map(fn, xs))
    return [v for v, _ in pairs], [d for _, d in pairs]


def values(fn: DifferentiableFn, xs: Sequence[float]) -> list[float]:
    """The values of columns(fn, xs), faults included: fn.values(xs) when
    fn has that method and it returns, which computes no derivative it
    need not."""
    only_values = getattr(fn, "values", None)
    if only_values is None:
        return columns(fn, xs)[0]
    try:
        return only_values(xs)
    except (ArithmeticError, ValueError):
        return _pointwise(fn, xs)[0]


def _chase_sign_flips(xs: list[float], window: Interval, tracks) -> None:
    """Bisect each sign flip between adjacent samples, scanning the tracks
    together in x order.  A track is (values, probe, name, zero_error).
    A crossing where |probe| <= 1e-6 * max(1, max |values|) is a root,
    raised as zero_error(root) unless zero_error is None (roots allowed);
    any other flip, or an arithmetic fault of the probe inside the
    bracket, is a SignChange: typically a pole."""
    xtol = 1e-9 * (1.0 + window.length)
    flips = []
    for k, (values, *_) in enumerate(tracks):
        # one sign throughout, the common case, costs three C-level passes;
        # a NaN makes min/max order-dependent, so it takes the scan below
        if not math.isnan(sum(values)) and (min(values) > 0.0 or max(values) <= 0.0):
            continue
        positive = [v > 0.0 for v in values]
        flips += ((i, k) for i in compress(range(len(xs) - 1),
                                           map(ne, positive, positive[1:])))
    for i, k in sorted(flips):
        values, probe, name, zero_error = tracks[k]
        try:
            root = refine_sign_change(probe, (xs[i], xs[i + 1]), xtol)
            small = abs(probe(root)) <= 1e-6 * max(1.0, max(map(abs, values)))
        except ArithmeticError as err:  # e.g. a DomainFault on the pole
            raise SignChange(getattr(err, "x", xs[i]), name) from None
        if not small:
            raise SignChange(root, name)
        if zero_error is not None:
            raise zero_error(root)


def check_g_assumptions(g: DifferentiableFn, window: Interval, n: int) -> tuple[int, int]:
    """Validate g != 0, g' != 0, constant signs, on n Chebyshev samples.

    Returns (sign of g, sign of g').  A sign flip between adjacent samples
    is chased down by bisection: a small-magnitude root reports ZeroG /
    ZeroGPrime at the located crossing, anything else is a SignChange.
    """
    xs = _chebyshev_points(window, n)
    values, derivs = columns(g, xs)

    for column, zero_error in ((values, ZeroG), (derivs, ZeroGPrime)):
        tol = ZERO_REL_TOL * max(1.0, max(map(abs, column)))
        # one C-level pass; a NaN first sample makes min NaN, so that too
        # takes the walk to the first sample at or below tol
        if not min(map(abs, column)) > tol:
            for x, v in zip(xs, column):
                if abs(v) <= tol:
                    raise zero_error(x)

    _chase_sign_flips(xs, window, ((values, lambda t: g(t)[0], "g", ZeroG),
                                   (derivs, lambda t: g(t)[1], "g'", ZeroGPrime)))

    sign_g = 1 if values[0] > 0.0 else -1
    sign_gp = 1 if derivs[0] > 0.0 else -1
    return sign_g, sign_gp


def check_grid(lo: float, hi: float, grid_n: int) -> None:
    """Reject an analysis grid the pipeline cannot resolve: the window
    must be finite with lo < hi, grid_n at least 64, and the grid step
    above 64 ulps of max(|lo|, |hi|), so the sign check's finite-difference
    probes at a sixteenth of a step stay distinct from the sample x."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"window must be finite with lo < hi, got ({lo}, {hi})")
    if grid_n < 64:
        raise ValueError(f"grid_n must be at least 64, got {grid_n}")
    if (hi - lo) / grid_n <= 64.0 * math.ulp(max(abs(lo), abs(hi))):
        raise ValueError(f"window ({lo}, {hi}) is too narrow for a {grid_n}-point "
                         "grid: the step must exceed 64 ulps of max(|lo|, |hi|)")


def make_pair(f: DifferentiableFn, g: DifferentiableFn, window: Interval,
              grid_n: int = 2048) -> FunctionPair:
    """Bundle f and g after validating the grid (check_grid) and the
    standing assumptions on g."""
    check_grid(window.lo, window.hi, grid_n)
    sign_g, sign_gp = check_g_assumptions(g, window, grid_n)
    return FunctionPair(f=f, g=g, window=window, sign_gg=sign_g * sign_gp,
                        sign_gprime=sign_gp, grid_n=grid_n)


def ratio_at(pair: FunctionPair, x: float) -> float:
    """r(x) = f(x)/g(x)."""
    fv, _ = pair.f(x)
    gv, _ = pair.g(x)
    return fv / gv


def rho_at(pair: FunctionPair, x: float) -> float:
    """rho(x) = f'(x)/g'(x)."""
    _, fd = pair.f(x)
    _, gd = pair.g(x)
    return fd / gd


def rho_tilde_at(pair: FunctionPair, x: float) -> float:
    """rho-tilde(x) = (f'g - fg')/|g'|, algebraically r' g^2/|g'|.

    Computed from the product form rather than a finite difference of r,
    which removes one layer of approximation and the cancellation in r'.
    """
    fv, fd = pair.f(x)
    gv, gd = pair.g(x)
    return (fd * gv - fv * gd) / abs(gd)


@dataclass(frozen=True)
class SampleTable:
    """One shared evaluation pass over the analysis grid."""

    xs: list[float]
    f_values: list[float]
    g_values: list[float]
    r: list[float]
    rho: list[float]
    rho_tilde: list[float]

    @property
    def step(self) -> float:
        return self.xs[1] - self.xs[0]


def sample_table(pair: FunctionPair, n: int | None = None) -> SampleTable:
    """Evaluate f and g on n uniform interior points (inset from the window
    endpoints by half a step) and derive r, rho, rho-tilde, all of which
    must be finite (ValidationError at the first x where one is not).  A
    sign flip of f that is not a continuous zero crossing is a SignChange."""
    n = pair.grid_n if n is None else n
    if n < 2:
        raise ValueError("n must be >= 2")
    lo, step = pair.window.lo, pair.window.length / n
    xs = [lo + (i + 0.5) * step for i in range(n)]
    fv, fd = columns(pair.f, xs)
    gv, gd = columns(pair.g, xs)
    r = list(map(truediv, fv, gv))
    rho = list(map(truediv, fd, gd))
    rho_t = [(ap * b - a * bp) / abs(bp) for a, ap, b, bp in zip(fv, fd, gv, gd)]
    for name, column in (("r", r), ("rho", rho), ("rho-tilde", rho_t)):
        if not all(map(math.isfinite, column)):
            i = next(i for i, v in enumerate(column) if not math.isfinite(v))
            raise ValidationError(xs[i], f"{name} takes the non-finite value {column[i]!r}")
    # f may cross zero, but a sign flip it does not cross continuously (a
    # pole between grid points) breaks the analysis
    _chase_sign_flips(xs, pair.window, ((fv, lambda t: pair.f(t)[0], "f", None),))
    return SampleTable(xs, fv, gv, r, rho, rho_t)


def median_abs(values: Sequence[float]) -> float:
    return statistics.median(map(abs, values))


def negated(fn: DifferentiableFn) -> DifferentiableFn:
    """x -> -f(x), for vertical reflection."""

    def wrapped(x: float) -> tuple[float, float]:
        v, d = fn(x)
        return -v, -d

    def column(xs: Sequence[float]) -> tuple[list[float], list[float]]:
        values, derivs = columns(fn, xs)
        return [-v for v in values], [-d for d in derivs]

    wrapped.label = f"-({getattr(fn, 'label', 'f')})"
    wrapped.column = column
    wrapped.values = lambda xs: [-v for v in values(fn, xs)]
    return wrapped


def mirrored(fn: DifferentiableFn) -> DifferentiableFn:
    """x -> f(-x), for horizontal reflection (chain rule flips the slope)."""

    def wrapped(x: float) -> tuple[float, float]:
        v, d = fn(-x)
        return v, -d

    def column(xs: Sequence[float]) -> tuple[list[float], list[float]]:
        # fn sees the points in ascending order when xs ascend; a fault
        # there names the last faulting x of xs, which columns() replays
        values, derivs = columns(fn, [-x for x in reversed(xs)])
        return values[::-1], [-d for d in reversed(derivs)]

    wrapped.label = f"({getattr(fn, 'label', 'f')})|x->-x"
    wrapped.column = column
    wrapped.values = lambda xs: values(fn, [-x for x in reversed(xs)])[::-1]
    return wrapped
