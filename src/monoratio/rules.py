"""Executable monotonicity rule tables and the full pair-analysis pipeline.

The rules: with sign(g*g') constant, a monotone derivative ratio rho
forces the ratio r = f/g into a one-switch family --

    rho rises,  g*g' > 0  ->  r falls-then-rises (DownUp family)
    rho falls,  g*g' > 0  ->  r rises-then-falls (UpDown family)
    rho rises,  g*g' < 0  ->  r rises-then-falls
    rho falls,  g*g' < 0  ->  r falls-then-rises

-- with the switch sitting on the flat [c, d] where rho-tilde vanishes.
rho-tilde's own direction matches rho's when g*g' > 0 and mirrors it when
g*g' < 0.  RULE_ROWS holds these four rows, the one table that
``monoratio tables`` prints.  check_pair measures all of this on a
concrete pair and compares observation against the prediction of the
RULE_ROWS row that rho's observed direction and sign(g*g') select.
"""

from __future__ import annotations

import functools
import math
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, repeat
from operator import add, ge, le, lt, mul, sub, truediv
from typing import ClassVar, Sequence

from .intervals import Interval
from .patterns import (Column, Pattern, PatternKind, Unclassifiable,
                       detect_direction, detect_mics, detect_pattern, level0_set)
from .ratio import (FunctionPair, SampleTable, median_abs, ratio_at, rho_at,
                    rho_tilde_at, sample_table, values)


class Direction(str, Enum):
    UP = "Up"
    DOWN = "Down"


@dataclass(frozen=True)
class RuleRow:
    rho_dir: Direction
    sign_gg: int
    r_family: PatternKind
    rho_tilde_dir: Direction


RULE_ROWS: tuple[RuleRow, ...] = (
    RuleRow(Direction.UP, 1, PatternKind.DOWN_UP, Direction.UP),
    RuleRow(Direction.DOWN, 1, PatternKind.UP_DOWN, Direction.DOWN),
    RuleRow(Direction.UP, -1, PatternKind.UP_DOWN, Direction.DOWN),
    RuleRow(Direction.DOWN, -1, PatternKind.DOWN_UP, Direction.UP),
)

# the names of a report's checks, in report order
CHECK_NAMES = ("prop1", "prop2", "uniqueness", "sign_identity")


@dataclass(frozen=True)
class Tolerances:
    """Every tolerance the pipeline uses, echoed into reports.  Only
    tol_zero is settable; the others are fixed class constants.

    The zero and constancy bands scale with a column's 1 + median |value|.
    tol_flat is deliberately much tighter than tol_zero: a ratio leaves
    its constancy value quadratically, so a detected flat edge moves like
    sqrt(tolerance), and localizing endpoints to ~1e-3 needs a flatness
    band around 1e-9.  The quantities are constant to ~1e-12 relative on
    true flats, leaving three orders of headroom.
    """

    tol_zero: float = 1e-7                   # zero band of rho and rho-tilde
    tol_flat: ClassVar[float] = 1e-9         # constancy band for m.i.c. detection
    min_ic_steps: ClassVar[float] = 3.0      # shortest constancy run, in grid steps
    switch_tol: ClassVar[float] = 1e-3       # switch agreement, in x; the window must be longer
    mic_match_steps: ClassVar[float] = 2.0   # r-mic vs rho-mic agreement, in grid steps
    residual_tol: ClassVar[float] = 1e-6     # r - (K1 + C/g) residual on rho's flats
    c_tol: ClassVar[float] = 1e-6            # |C| below this counts as zero
    fd_shrink: ClassVar[float] = 16.0        # sign-check FD step = grid step / fd_shrink

    def __post_init__(self):
        # at 1 or above the zero band covers at least the median magnitude
        if not (math.isfinite(self.tol_zero) and 0.0 <= self.tol_zero < 1.0):
            raise ValueError(f"tol_zero must be finite and in [0, 1), got {self.tol_zero!r}")

    def as_dict(self) -> dict[str, float]:
        """All eight values, in declaration order."""
        return {name: getattr(self, name) for name in type(self).__annotations__}


@dataclass(frozen=True)
class MicFit:
    """Least-squares fit of r = K1 + C/g on one constancy interval of rho."""

    interval: Interval
    k1: float
    c: float
    residual: float
    is_r_mic: bool


@dataclass(frozen=True)
class AnalysisReport:
    f_label: str
    g_label: str
    window: Interval
    grid_n: int
    sign_gg: int
    rho_pattern: PatternKind | None
    rho_dir: Direction | None
    constant_rho: bool
    predicted_family: PatternKind | None
    predicted_rho_tilde_dir: Direction | None
    observed_pattern: Pattern | None
    rho_tilde_pattern: PatternKind | None
    level0: Interval | None
    mics_r: tuple[Interval, ...]
    mics_rho: tuple[Interval, ...]
    mics_rho_tilde: tuple[Interval, ...]
    mic_fits: tuple[MicFit, ...]
    # (name, ok) per check, in report order: a tuple, so the report hashes
    checks: tuple[tuple[str, bool], ...]
    sign_violations: int
    failure: str | None
    tolerances: Tolerances
    # the samples every check read, for a caller that dumps them; not part
    # of the report's value, so to_dict, == and hash leave it out
    table: SampleTable = field(repr=False, compare=False)

    @property
    def all_ok(self) -> bool:
        return self.failure is None and all(ok for _, ok in self.checks)

    def to_dict(self) -> dict:
        def iv(interval: Interval | None):
            return None if interval is None else [interval.lo, interval.hi]

        def mics(intervals: tuple[Interval, ...]):
            return [[m.lo, m.hi] for m in intervals]

        return {
            "pair": {"f": self.f_label, "g": self.g_label},
            "window": [self.window.lo, self.window.hi],
            "grid_n": self.grid_n,
            "sign_gg": self.sign_gg,
            "rho_pattern": self.rho_pattern.value if self.rho_pattern else None,
            "constant_rho": self.constant_rho,
            "predicted_family": self.predicted_family.value if self.predicted_family else None,
            "predicted_rho_tilde": (self.predicted_rho_tilde_dir.value
                                    if self.predicted_rho_tilde_dir else None),
            "observed_pattern": self.observed_pattern.kind.value if self.observed_pattern else None,
            "rho_tilde_pattern": self.rho_tilde_pattern.value if self.rho_tilde_pattern else None,
            "switch": iv(self.observed_pattern.switch) if self.observed_pattern else None,
            "level0": iv(self.level0),
            "mics": {
                "r": mics(self.mics_r),
                "rho": mics(self.mics_rho),
                "rho_tilde": mics(self.mics_rho_tilde),
            },
            "checks": dict(self.checks),
            "sign_violations": self.sign_violations,
            "failure": self.failure,
            "tolerances": self.tolerances.as_dict(),
        }


def _check_prop1(observed: Pattern | None, family: PatternKind | None,
                 constant_rho: bool) -> bool:
    """r's observed kind lies in the predicted family.  The switch is
    rho-tilde's level-0 set by construction (level0_set reads it off the
    pattern), so only the kind is compared."""
    if observed is None or family is None:
        return False
    kind = observed.kind
    # the other family's composite fails (the degenerate kinds fit either),
    # and so does any composite when rho is constant: r = K1 + C/g is then
    # monotone or constant
    return (kind not in (PatternKind.DOWN_UP, PatternKind.UP_DOWN)
            or (kind is family and not constant_rho))


def _inside(table: SampleTable, interval: Interval) -> range:
    """Indices of the samples inside the interval (the grid ascends strictly)."""
    return range(bisect_left(table.xs, interval.lo), bisect_right(table.xs, interval.hi))


def _fit_on_interval(table: SampleTable, idx: range) -> tuple[float, float, float]:
    """Fit r = K1 + C/g over the samples idx; returns (K1, C, max residual)."""
    k1 = statistics.median(table.rho[i] for i in idx)
    errors = [table.r[i] - k1 for i in idx]
    weights = [1.0 / table.g_values[i] for i in idx]
    denom = sum(w * w for w in weights)
    c = sum(e * w for e, w in zip(errors, weights)) / denom
    residual = max(abs(e - c * w) for e, w in zip(errors, weights))
    return k1, c, residual


def _check_prop2(table: SampleTable, mics_r: tuple[Interval, ...],
                 mics_rho: tuple[Interval, ...], tol: Tolerances) -> tuple[bool, tuple[MicFit, ...]]:
    """r's constancy interval (if any) must coincide with one of rho's, and
    on every flat of rho, r = K1 + C/g must hold with C vanishing exactly
    on the flat that is r's constancy interval."""
    match_tol = tol.mic_match_steps * table.step
    mic_r = mics_r[0] if len(mics_r) == 1 else None
    ok = len(mics_r) <= 1
    fits = []
    matched = False
    for j in mics_rho:
        inside = _inside(table, j)
        if len(inside) < 4:  # too few samples to fit
            continue
        k1, c, residual = _fit_on_interval(table, inside)
        scale = 1.0 + median_abs(table.r[inside.start:inside.stop])
        is_r_mic = (mic_r is not None
                    and abs(j.lo - mic_r.lo) <= match_tol
                    and abs(j.hi - mic_r.hi) <= match_tol)
        matched = matched or is_r_mic
        fits.append(MicFit(j, k1, c, residual, is_r_mic))
        if residual > tol.residual_tol * scale:
            ok = False
        if is_r_mic != (abs(c) <= tol.c_tol * scale):
            ok = False
    if mic_r is not None and not matched:
        ok = False
    return ok, tuple(fits)


def _check_sign_identity(pair: FunctionPair, grid: Sequence[float], r: Sequence[float],
                         runs: Sequence[tuple[int, int, int]],
                         fd_step: float) -> tuple[bool, int]:
    """sign(r') = sign(rho-tilde), given as the (sign, first, last) runs of
    its signs at the grid's x's, wherever rho-tilde is clear of zero, with
    r the table's finite samples there.

    A kept sample is decided from the table when both grid neighbours are
    kept with its sign and r[i+1] - r[i-1] has that sign too.  Every other
    kept sample (a window edge, a neighbour of the band or of a sign
    change, a two-cell difference against its sign) has r' probed by a
    central finite difference with a step well below the grid spacing, so
    curvature near a crossing cannot flip the compared sign; r is read
    there from values, one column a side, and nothing is read when no
    sample is left.  The table's evidence is at grid scale: an r that
    wiggles inside each cell against rho-tilde, while its two-cell
    differences keep rho-tilde's sign, passes where the stencil fails it."""
    # the indices the table cannot decide, ascending, and their signs
    stencil, kept = [], []
    for s, first, last in runs:
        if s == 0:
            continue
        # a run's ends border another sign or the window; its inside is
        # undecided where the two-cell difference is 0 or against s
        steps = map(sub, r[first + 2:last + 1], r[first:last - 1])
        n = len(stencil)
        stencil.append(first)
        stencil += compress(range(first + 1, last), map(ge if s > 0 else le, repeat(0.0), steps))
        if last > first:
            stencil.append(last)
        kept += repeat(s, len(stencil) - n)
    if not stencil:
        return True, 0

    def r_column(shift) -> list[float]:
        shifted = list(map(shift, xs, repeat(fd_step)))
        return list(map(truediv, values(pair.f, shifted), values(pair.g, shifted)))

    xs = list(map(grid.__getitem__, stencil))
    r_hi, r_lo = r_column(add), r_column(sub)
    fd = map(truediv, map(sub, r_hi, r_lo), repeat(2.0 * fd_step))
    # a quotient agrees with rho-tilde's sign s when quotient * s is above
    # 0; a zero or NaN quotient is a violation against either sign
    violations = len(kept) - sum(map(lt, repeat(0.0), map(mul, fd, kept)))
    return violations == 0, violations


def check_pair(pair: FunctionPair, tol: Tolerances | None = None) -> AnalysisReport:
    """Run the full analysis pipeline on a validated pair.

    Requires rho monotone on the window and the window longer than
    switch_tol (prop1 could not fail on a shorter one); if not, the report
    carries the failure, prop1 and prop2 are False and so is all_ok.  A
    failed check is never silently passed; the report records exactly
    what was measured.
    """
    tol = tol or Tolerances()
    table = sample_table(pair, pair.grid_n)
    xs = table.xs
    step = table.step
    window = pair.window
    failure = None
    if window.length <= tol.switch_tol:
        failure = (f"window length {window.length:.6g} is not above switch_tol "
                   f"{tol.switch_tol:g}, so the switch check cannot fail")

    # every band is a tolerance times its column's 1 + median |value|
    scale_r, scale_rho, scale_rt = (1.0 + median_abs(column)
                                    for column in (table.r, table.rho, table.rho_tilde))
    tol_rt = tol.tol_zero * scale_rt
    min_ic_len = tol.min_ic_steps * step
    rho_tilde = functools.partial(rho_tilde_at, pair)
    # one summary per column, read by every detector: the differences and
    # rho-tilde's signs are taken once, and sample_table tested the values
    r_col, rho_col, rt_col = (Column(xs, column, finite=True)
                              for column in (table.r, table.rho, table.rho_tilde))

    rho_pattern = None
    try:
        rho_pattern = detect_direction(xs, rho_col, tol.tol_zero * scale_rho)
    except Unclassifiable as err:
        failure = failure or f"rho unclassifiable: {err}"

    constant_rho = rho_pattern is PatternKind.CONSTANT
    if rho_pattern in (PatternKind.INCREASING, PatternKind.CONSTANT):
        rho_dir = Direction.UP  # a constant rho counts as both; Up + flag
    elif rho_pattern is PatternKind.DECREASING:
        rho_dir = Direction.DOWN
    else:
        rho_dir = None
        failure = failure or "rho is not monotone on the window"

    predicted_family = predicted_rt_dir = None
    if rho_dir is not None:
        row = next(row for row in RULE_ROWS
                   if row.rho_dir is rho_dir and row.sign_gg == pair.sign_gg)
        predicted_family, predicted_rt_dir = row.r_family, row.rho_tilde_dir

    observed = rt_pattern = None
    try:
        observed = detect_pattern(xs, rt_col, tol_rt, window=window, probe=rho_tilde)
    except Unclassifiable as err:
        failure = failure or f"r pattern unclassifiable from rho-tilde signs: {err}"
    try:
        rt_pattern = detect_direction(xs, rt_col, tol_rt)
    except Unclassifiable as err:
        failure = failure or f"rho-tilde unclassifiable: {err}"

    level0 = level0_set(observed)

    mics_r = detect_mics(xs, r_col, tol.tol_flat * scale_r, min_ic_len,
                         probe=functools.partial(ratio_at, pair))
    mics_rho = detect_mics(xs, rho_col, tol.tol_flat * scale_rho, min_ic_len,
                           probe=functools.partial(rho_at, pair))
    mics_rt = detect_mics(xs, rt_col, tol.tol_flat * scale_rt, min_ic_len,
                          probe=rho_tilde)
    runs = rt_col.runs(tol_rt)  # detect_pattern's, grouped once
    # the differences go before the sign check, which would otherwise
    # allocate on top of them, above the peak that r's m.i.c. sweep sets
    del r_col, rho_col, rt_col

    prop1 = failure is None and _check_prop1(observed, predicted_family, constant_rho)
    prop2, fits = _check_prop2(table, mics_r, mics_rho, tol)
    prop2 = prop2 and failure is None
    uniqueness = len(mics_r) <= 1
    sign_ok, violations = _check_sign_identity(pair, xs, table.r, runs, step / tol.fd_shrink)

    return AnalysisReport(
        f_label=getattr(pair.f, "label", "f"),
        g_label=getattr(pair.g, "label", "g"),
        window=window,
        grid_n=pair.grid_n,
        sign_gg=pair.sign_gg,
        rho_pattern=rho_pattern,
        rho_dir=rho_dir,
        constant_rho=constant_rho,
        predicted_family=predicted_family,
        predicted_rho_tilde_dir=predicted_rt_dir,
        observed_pattern=observed,
        rho_tilde_pattern=rt_pattern,
        level0=level0,
        mics_r=mics_r,
        mics_rho=mics_rho,
        mics_rho_tilde=mics_rt,
        mic_fits=fits,
        checks=tuple(zip(CHECK_NAMES, (prop1, prop2, uniqueness, sign_ok))),
        sign_violations=violations,
        failure=failure,
        tolerances=tol,
        table=table,
    )
