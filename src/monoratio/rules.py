"""Executable monotonicity rule tables and the full pair-analysis pipeline.

The rules: with sign(g*g') constant, a monotone derivative ratio rho
forces the ratio r = f/g into a one-switch family --

    rho rises,  g*g' > 0  ->  r falls-then-rises (DownUp family)
    rho falls,  g*g' > 0  ->  r rises-then-falls (UpDown family)
    rho rises,  g*g' < 0  ->  r rises-then-falls
    rho falls,  g*g' < 0  ->  r falls-then-rises

-- with the switch sitting on the flat [c, d] where rho-tilde vanishes.
rho-tilde's own direction matches rho's when g*g' > 0 and mirrors it when
g*g' < 0.  check_pair measures all of this on a concrete pair and compares
observation against prediction.
"""

from __future__ import annotations

import functools
import math
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress, repeat
from operator import add, le, lt, not_, sub, truediv
from typing import ClassVar

from .expr import COLUMN_BLOCK
from .intervals import Interval
from .patterns import (NonInterval, Pattern, PatternKind, Unclassifiable,
                       detect_mics, detect_pattern, level0_set)
from .ratio import (FunctionPair, SampleTable, median_abs, mirrored, negated,
                    ratio_at, rho_at, rho_tilde_at, sample_table, values)


class Direction(str, Enum):
    UP = "Up"
    DOWN = "Down"


class Family(str, Enum):
    DOWN_UP = "DownUp"
    UP_DOWN = "UpDown"

    def mirrored(self) -> "Family":
        return Family.UP_DOWN if self is Family.DOWN_UP else Family.DOWN_UP


def predict_r_family(rho_dir: Direction, sign_gg: int) -> Family:
    """Predicted one-switch family of r from rho's direction and sign(gg')."""
    if (rho_dir is Direction.UP) == (sign_gg > 0):
        return Family.DOWN_UP
    return Family.UP_DOWN


def predict_rho_tilde_dir(rho_dir: Direction, sign_gg: int) -> Direction:
    """rho-tilde runs with rho when g*g' > 0, against it when g*g' < 0."""
    if sign_gg > 0:
        return rho_dir
    return Direction.DOWN if rho_dir is Direction.UP else Direction.UP


@dataclass(frozen=True)
class RuleRow:
    rho_dir: Direction
    sign_gg: int
    r_family: Family
    rho_tilde_dir: Direction


RULE_ROWS: tuple[RuleRow, ...] = tuple(
    RuleRow(d, s, predict_r_family(d, s), predict_rho_tilde_dir(d, s))
    for d, s in ((Direction.UP, 1), (Direction.DOWN, 1),
                 (Direction.UP, -1), (Direction.DOWN, -1)))


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
    switch_tol: ClassVar[float] = 1e-3       # switch vs level-0 endpoint agreement, in x
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
    rho_pattern: Pattern | None
    rho_dir: Direction | None
    constant_rho: bool
    predicted_family: Family | None
    predicted_rho_tilde_dir: Direction | None
    observed_pattern: Pattern | None
    rho_tilde_pattern: Pattern | None
    level0: Interval | None
    mics_r: tuple[Interval, ...]
    mics_rho: tuple[Interval, ...]
    mics_rho_tilde: tuple[Interval, ...]
    mic_fits: tuple[MicFit, ...]
    prop1_ok: bool
    prop2_ok: bool
    uniqueness_ok: bool
    sign_identity_ok: bool
    sign_violations: int
    failure: str | None
    tolerances: Tolerances

    @property
    def all_ok(self) -> bool:
        return (self.failure is None and self.prop1_ok and self.prop2_ok
                and self.uniqueness_ok and self.sign_identity_ok)

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
            "rho_pattern": self.rho_pattern.kind.value if self.rho_pattern else None,
            "constant_rho": self.constant_rho,
            "predicted_family": self.predicted_family.value if self.predicted_family else None,
            "predicted_rho_tilde": (self.predicted_rho_tilde_dir.value
                                    if self.predicted_rho_tilde_dir else None),
            "observed_pattern": self.observed_pattern.kind.value if self.observed_pattern else None,
            "rho_tilde_pattern": self.rho_tilde_pattern.kind.value if self.rho_tilde_pattern else None,
            "switch": iv(self.observed_pattern.switch) if self.observed_pattern else None,
            "level0": iv(self.level0),
            "mics": {
                "r": mics(self.mics_r),
                "rho": mics(self.mics_rho),
                "rho_tilde": mics(self.mics_rho_tilde),
            },
            "checks": {
                "prop1": self.prop1_ok,
                "prop2": self.prop2_ok,
                "uniqueness": self.uniqueness_ok,
                "sign_identity": self.sign_identity_ok,
            },
            "sign_violations": self.sign_violations,
            "failure": self.failure,
            "tolerances": self.tolerances.as_dict(),
        }


def _check_prop1(observed: Pattern | None, family: Family | None,
                 constant_rho: bool, level0: Interval | None,
                 switch_tol: float) -> bool:
    if observed is None or family is None:
        return False
    kind = observed.kind
    if kind.value == family.mirrored().value:
        # the other family's composite; the degenerate kinds fit either
        return False
    if constant_rho and kind in (PatternKind.DOWN_UP, PatternKind.UP_DOWN):
        # constant rho makes r = K1 + C/g, which is monotone or constant
        return False
    if level0 is None:
        return kind in (PatternKind.INCREASING, PatternKind.DECREASING)
    switch = observed.switch
    return (abs(switch.lo - level0.lo) <= switch_tol
            and abs(switch.hi - level0.hi) <= switch_tol)


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


def _check_sign_identity(pair: FunctionPair, table: SampleTable, tol_abs: float,
                         fd_step: float) -> tuple[bool, int]:
    """sign(r') = sign(rho-tilde) wherever rho-tilde is clear of zero; r' is
    probed by a central finite difference with a step well below the grid
    spacing, so curvature near a crossing cannot flip the compared sign.
    r is evaluated from values alone on the shifted points, COLUMN_BLOCK
    samples at a time."""

    def r_column(xs: list[float]) -> list[float]:
        return list(map(truediv, values(pair.f, xs), values(pair.g, xs)))

    violations = 0
    for k in range(0, len(table.xs), COLUMN_BLOCK):
        rts = table.rho_tilde[k:k + COLUMN_BLOCK]
        kept = list(map(lt, repeat(tol_abs), map(abs, rts)))
        xs = list(compress(table.xs[k:k + COLUMN_BLOCK], kept))
        r_hi = r_column(list(map(add, xs, repeat(fd_step))))
        r_lo = r_column(list(map(sub, xs, repeat(fd_step))))
        fd = list(map(truediv, map(sub, r_hi, r_lo), repeat(2.0 * fd_step)))
        # a kept rho-tilde is nonzero; against rho-tilde > 0 a quotient
        # that is not above 0 is a violation, against rho-tilde < 0 one
        # that is 0 or above
        rising = list(map(lt, repeat(0.0), compress(rts, kept)))
        up = list(compress(fd, rising))
        violations += (len(up) - sum(map(lt, repeat(0.0), up))
                       + sum(map(le, repeat(0.0), compress(fd, map(not_, rising)))))
    return violations == 0, violations


def check_pair(pair: FunctionPair, tol: Tolerances | None = None) -> AnalysisReport:
    """Run the full analysis pipeline on a validated pair.

    Requires rho monotone on the window and the window longer than
    switch_tol (prop1 could not fail on a shorter one); if not, the report
    carries the failure and every check flag stays False.  A failed check
    is never silently passed; the report records exactly what was measured.
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

    rho_pattern = None
    try:
        rho_pattern = detect_pattern(xs, table.rho, tol.tol_zero * scale_rho, mode="diffs",
                                     window=window)
    except Unclassifiable as err:
        failure = failure or f"rho unclassifiable: {err}"

    constant_rho = rho_pattern is not None and rho_pattern.kind is PatternKind.CONSTANT
    if rho_pattern is not None and rho_pattern.kind in (
            PatternKind.INCREASING, PatternKind.CONSTANT):
        rho_dir = Direction.UP  # a constant rho counts as both; Up + flag
    elif rho_pattern is not None and rho_pattern.kind is PatternKind.DECREASING:
        rho_dir = Direction.DOWN
    else:
        rho_dir = None
        failure = failure or "rho is not monotone on the window"

    predicted_family = predicted_rt_dir = None
    if rho_dir is not None:
        predicted_family = predict_r_family(rho_dir, pair.sign_gg)
        predicted_rt_dir = predict_rho_tilde_dir(rho_dir, pair.sign_gg)

    observed = rt_pattern = None
    try:
        observed = detect_pattern(xs, table.rho_tilde, tol_rt, mode="values",
                                  window=window, probe=rho_tilde)
    except Unclassifiable as err:
        failure = failure or f"r pattern unclassifiable from rho-tilde signs: {err}"
    try:
        rt_pattern = detect_pattern(xs, table.rho_tilde, tol_rt, mode="diffs",
                                    window=window)
    except Unclassifiable as err:
        failure = failure or f"rho-tilde unclassifiable: {err}"

    level0 = None
    try:
        level0 = level0_set(xs, table.rho_tilde, tol_rt, rho_tilde, window)
    except NonInterval as err:
        failure = failure or str(err)

    mics_r = detect_mics(xs, table.r, tol.tol_flat * scale_r, min_ic_len,
                         probe=functools.partial(ratio_at, pair))
    mics_rho = detect_mics(xs, table.rho, tol.tol_flat * scale_rho, min_ic_len,
                           probe=functools.partial(rho_at, pair))
    mics_rt = detect_mics(xs, table.rho_tilde, tol.tol_flat * scale_rt, min_ic_len,
                          probe=rho_tilde)

    prop1 = failure is None and _check_prop1(observed, predicted_family,
                                             constant_rho, level0, tol.switch_tol)
    prop2, fits = _check_prop2(table, mics_r, mics_rho, tol)
    prop2 = prop2 and failure is None
    uniqueness = len(mics_r) <= 1
    sign_ok, violations = _check_sign_identity(pair, table, tol_rt,
                                               step / tol.fd_shrink)

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
        prop1_ok=prop1,
        prop2_ok=prop2,
        uniqueness_ok=uniqueness,
        sign_identity_ok=sign_ok,
        sign_violations=violations,
        failure=failure,
        tolerances=tol,
    )


def reflect(pair: FunctionPair, axis: str) -> FunctionPair:
    """Reflect a pair vertically (f -> -f) or horizontally (x -> -x, window
    mirrored, flipping the signs of g' and g*g').  Both keep g valid, so g
    is not validated again."""
    if axis == "vertical":
        return replace(pair, f=negated(pair.f))
    if axis == "horizontal":
        return replace(pair, f=mirrored(pair.f), g=mirrored(pair.g),
                       window=pair.window.mirrored(), sign_gprime=-pair.sign_gprime,
                       sign_gg=-pair.sign_gg)
    raise ValueError(f"axis must be 'vertical' or 'horizontal', got {axis!r}")
