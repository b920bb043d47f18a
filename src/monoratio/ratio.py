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
from functools import cached_property, lru_cache
from itertools import compress
from operator import lt, ne, sub, truediv
from typing import Callable, Sequence

from .intervals import Interval

# Anything callable as x -> (value, derivative).  One may also have a
# column(xs) -> (values, derivatives) method, which columns() prefers, and
# a values(xs) -> values method, which values() prefers.  Either method is
# a fast path, held to one contract: it returns the floats of one call per
# x, or raises the error that the first faulting x, in xs order, raises
# itself.  columns() and values() pass its result or its error on.  The
# one exception is a constructed f, whose column reads g's column, then
# rho's, and so raises g's first fault, else rho's (construct.ConstructedFn).
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
def _chebyshev_grid(mid: float, half: float, n: int) -> tuple[float, ...]:
    """One window's points, mid + half cos(pi (2k + 1) / 2n) for k = n - 1
    down to 0, ascending; 32n bytes, 4 * 8 MiB at GRID_N_MAX.  Copied by
    _chebyshev_points, so no caller's fast path can alter the cache."""
    return tuple(mid + half * math.cos(math.pi * (2 * k + 1) / (2 * n))
                 for k in reversed(range(n)))


def _chebyshev_points(window: Interval, n: int) -> list[float]:
    return list(_chebyshev_grid(window.midpoint, 0.5 * window.length, n))


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
    method, else one call per x."""
    column = getattr(fn, "column", None)
    return _pointwise(fn, xs) if column is None else column(xs)


def _pointwise(fn: DifferentiableFn, xs: Sequence[float]) -> tuple[list[float], list[float]]:
    """(values, derivatives) of fn at every x, by one call per x in xs order."""
    pairs = list(map(fn, xs))
    return [v for v, _ in pairs], [d for _, d in pairs]


def values(fn: DifferentiableFn, xs: Sequence[float]) -> list[float]:
    """The values of columns(fn, xs), faults included: fn.values(xs) when
    fn has that method, which computes no derivative it need not."""
    only_values = getattr(fn, "values", None)
    return columns(fn, xs)[0] if only_values is None else only_values(xs)


def first_non_finite(column: Sequence[float]) -> int | None:
    """The index of column's first sample that is not finite, or None.  A
    finite sum, the common case, clears the column in one C-level pass; a
    non-finite one holds such a sample or finite ones whose sum overflows,
    hence the scan."""
    if math.isfinite(sum(column)):
        return None
    return next((i for i, v in enumerate(column) if not math.isfinite(v)), None)


def _extremes(column: Sequence[float]) -> tuple[float, float] | None:
    """(min, max) of the column; None if its sum is NaN, as any NaN sample makes it."""
    return None if math.isnan(sum(column)) else (min(column), max(column))


def _chase_sign_flips(xs: list[float], window: Interval, tracks) -> None:
    """Bisect each sign flip between adjacent samples, scanning the tracks
    together in x order.  A track is (values, _extremes(values), probe,
    name, zero_error).  A crossing where |probe| <= 1e-6 * max(1, max
    |values|) is a root, raised as zero_error(root) unless zero_error is
    None (roots allowed); any other flip, or an arithmetic fault of the
    probe inside the bracket, is a SignChange: typically a pole."""
    xtol = 1e-9 * (1.0 + window.length)
    flips = []
    for k, (values, extremes, *_) in enumerate(tracks):
        # one sign throughout, the common case, needs no scan
        if extremes is not None and (extremes[0] > 0.0 or extremes[1] <= 0.0):
            continue
        positive = [v > 0.0 for v in values]
        flips += ((i, k) for i in compress(range(len(xs) - 1),
                                           map(ne, positive, positive[1:])))
    for i, k in sorted(flips):
        values, extremes, probe, name, zero_error = tracks[k]
        # max |v| is max(hi, -lo), read from the extremes unless a NaN voids them
        biggest = max(map(abs, values)) if extremes is None else max(extremes[1], -extremes[0])
        try:
            root = refine_sign_change(probe, (xs[i], xs[i + 1]), xtol)
            small = abs(probe(root)) <= 1e-6 * max(1.0, biggest)
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
    tracks = ((values, _extremes(values), lambda t: g(t)[0], "g", ZeroG),
              (derivs, _extremes(derivs), lambda t: g(t)[1], "g'", ZeroGPrime))

    for column, extremes, *_, zero_error in tracks:
        if extremes is None:  # a NaN column: max |v| taken in order, then the walk
            tol = ZERO_REL_TOL * max(1.0, max(map(abs, column)))
        else:
            # max |v| is max(hi, -lo); min |v| is max(lo, -hi) for one
            # sign and at most 0 for both: above tol, no sample is a zero
            lo, hi = extremes
            tol = ZERO_REL_TOL * max(1.0, hi, -lo)
            if max(lo, -hi) > tol:
                continue
        for x, v in zip(xs, column):
            if abs(v) <= tol:
                raise zero_error(x)

    _chase_sign_flips(xs, window, tracks)

    sign_g = 1 if values[0] > 0.0 else -1
    sign_gp = 1 if derivs[0] > 0.0 else -1
    return sign_g, sign_gp


# the largest analysis grid: a case's allocations peak near 370 bytes per
# point, about 100 MB at this size
GRID_N_MAX = 1 << 18


def check_grid(lo: float, hi: float, grid_n: int) -> None:
    """Reject an analysis grid the pipeline cannot resolve or afford: the
    window must be finite with lo < hi, grid_n between 64 and GRID_N_MAX,
    and the grid step above 64 ulps of max(|lo|, |hi|), so the sign check's
    finite-difference probes at a sixteenth of a step stay distinct from
    the sample x."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"window must be finite with lo < hi, got ({lo}, {hi})")
    if not 64 <= grid_n <= GRID_N_MAX:
        raise ValueError(f"grid_n must be between 64 and {GRID_N_MAX}, got {grid_n}")
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


class Grid(tuple):
    """A tuple of strictly increasing x's.  Making one checks the ascent,
    so the Columns made over one grid (check_pair's three) skip their own
    check, and its largest cell is computed once, when first read."""

    def __new__(cls, xs: Sequence[float]):
        grid = super().__new__(cls, xs)
        if not all(map(lt, grid, grid[1:])):
            raise ValueError("sample x's must be strictly increasing")
        return grid

    @cached_property
    def max_cell(self) -> float:
        return max(map(sub, self[1:], self))


# the floats depend on (lo, step, n) alone, so that is the key; lo = -0.0
# shares 0.0's entry, whose floats it would give
@lru_cache(maxsize=4)
def _analysis_grid(lo: float, step: float, n: int) -> Grid:
    """sample_table's n points, inset by half a step: one Grid per (window, n),
    ascent checked and max_cell taken once; 32n bytes, 4 * 8 MiB at GRID_N_MAX."""
    return Grid([lo + (i + 0.5) * step for i in range(n)])


@dataclass(frozen=True)
class SampleTable:
    """One shared evaluation pass over the analysis grid."""

    xs: Grid
    f_values: list[float]
    g_values: list[float]
    r: list[float]
    rho: list[float]
    rho_tilde: list[float]

    @property
    def step(self) -> float:
        return self.xs[1] - self.xs[0]


def sample_table(pair: FunctionPair, n: int | None = None) -> SampleTable:
    """Evaluate f and g on the n points of _analysis_grid, one Grid per window
    and n that reports share, and derive r, rho, rho-tilde, all finite (else
    a ValidationError at the first x where one is not).  A sign flip of f
    that is not a continuous zero crossing is a SignChange.  g's column is
    read once, first, and handed to a constructed f."""
    n = pair.grid_n if n is None else n
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > GRID_N_MAX:  # the memory guard: check_grid raises its ceiling error
        check_grid(pair.window.lo, pair.window.hi, n)
    xs = _analysis_grid(pair.window.lo, pair.window.length / n, n)
    gv, gd = columns(pair.g, xs)
    column_with = getattr(pair.f, "column_with", None)  # on a constructed f
    fv, fd = (column_with(xs, gd) if column_with and getattr(pair.f, "g", None) is pair.g
              else columns(pair.f, xs))
    r = list(map(truediv, fv, gv))
    rho = list(map(truediv, fd, gd))
    rho_t = [(ap * b - a * bp) / abs(bp) for a, ap, b, bp in zip(fv, fd, gv, gd)]
    for name, column in (("r", r), ("rho", rho), ("rho-tilde", rho_t)):
        i = first_non_finite(column)
        if i is not None:
            raise ValidationError(xs[i], f"{name} takes the non-finite value {column[i]!r}")
    # f may cross zero, but a sign flip it does not cross continuously (a
    # pole between grid points) breaks the analysis
    _chase_sign_flips(xs, pair.window, ((fv, _extremes(fv), lambda t: pair.f(t)[0], "f", None),))
    return SampleTable(xs, fv, gv, r, rho, rho_t)


def median_abs(values: Sequence[float]) -> float:
    return statistics.median(map(abs, values))
