"""Outside-in tracing: spans and evaluation counts recorded from the
benchmark's side of each layer boundary, kept in memory.

The tracer substitutes module attributes while it is installed:

* span wrappers on the public functions each layer is called through
  (``SPAN_POINTS``), recording name, start, end, parent span and case id;
* timing wrappers on ``__call__`` of the two evaluator classes
  (``CALL_POINTS``), counting and timing every query without a span each;
* role counters around the ``f``/``g``/``rho`` callables handed to
  ``construct_f``, ``make_pair`` and ``check_pair``, so each span knows
  how many evaluations of each role happened inside it.

A name that no longer exists marks its layer absent instead of failing,
so a refactor that moves a function shows up as a missing layer.
"""

from __future__ import annotations

import dataclasses
import importlib
from time import perf_counter

ROLES = ("f", "g", "rho")

# (layer, module, attribute, span name, (role, argument position) of the
# callable arguments to count).  construct_f's g is left uncounted, so the
# g count is of the pair's own g and not of the constructor's internals.
SPAN_POINTS = (
    ("rules", "monoratio.rules", "check_pair", "rules.check_pair", ()),
    ("ratio", "monoratio.rules", "sample_table", "ratio.sample_table", ()),
    ("patterns", "monoratio.rules", "detect_pattern", "patterns.detect_pattern", ()),
    ("patterns", "monoratio.rules", "detect_mics", "patterns.detect_mics", ()),
    ("patterns", "monoratio.rules", "level0_set", "patterns.level0_set", ()),
    ("construct", "monoratio.construct", "construct_f", "construct.construct_f",
     (("rho", 1),)),
    ("ratio", "monoratio.construct", "make_pair", "ratio.make_pair", (("f", 0), ("g", 1))),
    ("ratio", "monoratio.ratio", "make_pair", "ratio.make_pair", (("f", 0), ("g", 1))),
    ("expr", "monoratio.expr", "parse", "expr.parse", ()),
)

# (layer, module, class whose instances are the evaluators)
CALL_POINTS = (
    ("expr", "monoratio.expr", "ExprFn"),
    ("construct", "monoratio.construct", "ConstructedFn"),
)



@dataclasses.dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    case: object
    counts0: tuple[int, ...]  # role counts when the span opened
    end: float = 0.0
    counts1: tuple[int, ...] = ()  # ... and when it closed
    extra: tuple | None = None  # check_pair: (grid_n, all_ok)

    @property
    def evals(self) -> list[int]:
        return [b - a for a, b in zip(self.counts0, self.counts1)]


class Counted:
    """A callable that counts its calls under a role and forwards every
    other attribute (``label``, ``breakpoints`` ...) to the wrapped one."""

    __slots__ = ("fn", "role", "counts")

    def __init__(self, fn, role: str, counts: dict):
        self.fn, self.role, self.counts = fn, role, counts

    def __call__(self, x):
        self.counts[self.role] += 1
        return self.fn(x)

    def __getattr__(self, name):
        return getattr(self.fn, name)


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.counts = {role: 0 for role in ROLES}
        self.calls = {point[2]: [0, 0.0] for point in CALL_POINTS}  # [n, s]
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.case_id = None
        self.absent: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def counted(self, fn, role: str):
        if isinstance(fn, Counted):
            return fn
        return Counted(fn, role, self.counts)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.case_id,
                               tuple(self.counts.values())))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, sid: int, extra=None) -> None:
        span = self.spans[sid]
        span.end = perf_counter()
        span.counts1 = tuple(self.counts.values())
        span.extra = extra
        self.stack.pop()

    def case(self, case_id, body):
        """Run body() as one traced case; returns its result."""
        self.case_id = case_id
        sid = self.open("case")
        try:
            return body()
        finally:
            self.close(sid)
            self.case_id = None

    # -- installing --------------------------------------------------------

    def _span_wrapper(self, name: str, orig, roles):
        is_check = name == "rules.check_pair"

        def wrapped(*args, **kwargs):
            args = list(args)
            for role, k in roles:
                if k < len(args):
                    args[k] = self.counted(args[k], role)
                elif role in kwargs:
                    kwargs[role] = self.counted(kwargs[role], role)
            if is_check:
                args[0] = self._counted_pair(args[0])
            sid = self.open(name)
            result = extra = None
            try:
                result = orig(*args, **kwargs)
            finally:
                if is_check and result is not None:
                    extra = (args[0].grid_n, bool(getattr(result, "all_ok", True)))
                self.close(sid, extra)
            return result
        return wrapped

    def _counted_pair(self, pair):
        # pairs built outside a wrapped make_pair still get counted inputs
        if isinstance(pair.f, Counted) and isinstance(pair.g, Counted):
            return pair
        return dataclasses.replace(pair, f=self.counted(pair.f, "f"),
                                   g=self.counted(pair.g, "g"))

    def _call_wrapper(self, orig, slot: list):
        def __call__(obj, x):
            t0 = perf_counter()
            try:
                return orig(obj, x)
            finally:
                slot[0] += 1
                slot[1] += perf_counter() - t0
        return __call__

    def _substitute(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer, module, attr, name, roles in SPAN_POINTS:
            mod = _module(module)
            if mod is None or not callable(getattr(mod, attr, None)):
                self.absent.add(layer)
                continue
            self._substitute(mod, attr, self._span_wrapper(name, getattr(mod, attr), roles))
        for layer, module, cls_name in CALL_POINTS:
            cls = getattr(_module(module), cls_name, None)
            if not isinstance(cls, type) or "__call__" not in vars(cls):
                self.absent.add(layer)
                continue
            self._substitute(cls, "__call__",
                             self._call_wrapper(vars(cls)["__call__"], self.calls[cls_name]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- reporting ---------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """Per-case means of every per-layer metric over the traced cases."""
        cases = sum(1 for s in self.spans if s.name == "case")
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        time_s: dict[str, float] = {}
        self_s: dict[str, float] = {}
        evals: dict[str, list[int]] = {}
        samples = failed = 0
        for sid, s in enumerate(self.spans):
            dur = s.end - s.start
            time_s[s.name] = time_s.get(s.name, 0.0) + dur
            self_s[s.name] = self_s.get(s.name, 0.0) + dur - child_time[sid]
            evals[s.name] = [a + b for a, b in zip(evals.get(s.name, [0, 0, 0]), s.evals)]
            if s.extra is not None:
                samples += s.extra[0]
                failed += not s.extra[1]

        def per_case(value):
            return value / cases if cases else 0.0

        def ms(name):
            return per_case(1e3 * time_s.get(name, 0.0))

        def count(name, role):
            return per_case(evals.get(name, [0, 0, 0])[ROLES.index(role)])

        def mean_us(cls_name):
            n, total = self.calls[cls_name]
            return 1e6 * total / n if n else 0.0

        pattern_spans = ("patterns.detect_pattern", "patterns.detect_mics",
                         "patterns.level0_set")
        f_in_check = evals.get("rules.check_pair", [0, 0, 0])[0]
        metrics = {
            "expr.eval_calls": per_case(self.calls["ExprFn"][0]),
            "expr.eval_us": mean_us("ExprFn"),
            "expr.parse_us": per_case(1e6 * time_s.get("expr.parse", 0.0)),
            "ratio.make_pair_ms": ms("ratio.make_pair"),
            "ratio.sample_table_ms": ms("ratio.sample_table"),
            "ratio.g_evals": count("ratio.make_pair", "g") + count("ratio.sample_table", "g"),
            "construct.build_ms": ms("construct.construct_f"),
            "construct.build_integrand_evals": count("construct.construct_f", "rho"),
            "construct.query_us": mean_us("ConstructedFn"),
            "construct.queries": per_case(self.calls["ConstructedFn"][0]),
            "patterns.detect_pattern_ms": ms("patterns.detect_pattern"),
            "patterns.detect_mics_ms": ms("patterns.detect_mics"),
            "patterns.level0_ms": ms("patterns.level0_set"),
            "patterns.probe_evals": sum(count(n, "f") for n in pattern_spans),
            "rules.check_pair_ms": ms("rules.check_pair"),
            "rules.check_pair_self_ms": per_case(1e3 * self_s.get("rules.check_pair", 0.0)),
            "rules.f_evals": per_case(f_in_check),
            "rules.f_evals_per_sample": f_in_check / samples if samples else 0.0,
            "rules.failed_reports": per_case(failed),
        }
        return metrics


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None

