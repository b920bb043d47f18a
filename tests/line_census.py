"""Line census of ``src/monoratio``: the statement lines that only the tests
reach, not the command-line corpus.

    python tests/line_census.py            # corpus, then tier-1 under the tracer (~6 min)
    python tests/line_census.py --corpus   # the corpus alone (about a minute)

The corpus is the README's command-line examples, ``verify --seed 0 --cases
64``, ``tables`` and ``tables --json``, each run through ``cli.main`` in a
scratch directory.  Any command whose exit code differs from the README's
makes the script exit 1.  With no flag the tier-1 suite then runs in the same
process, and the lines it reaches that no corpus command reaches are printed
per file, grouped by the function that holds them.  Error paths show up
there too: the corpus only runs commands that succeed.

Lines are traced with ``sys.settrace``, so no coverage package is needed.
Under the tracer the suite runs several times slower, so its wall-time
budgets may fail; the census reads which lines ran, not whether tests passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import monoratio  # noqa: E402
from monoratio.cli import main  # noqa: E402

SRC = Path(monoratio.__file__).parent

# the README's staircase example
STAIRCASE = {"flats": [[-1.0, 1.0]], "slopes": [1.0, 1.0], "direction": "up",
             "anchor_value": 0.0}

# (argv, the exit code the README gives it)
CORPUS = [
    (["analyze", "--f", "x^2", "--g", "x", "--window", "0.1", "10"], 0),
    (["analyze", "--f", "exp(-x)", "--g", "x", "--window", "0.5", "4", "--csv", "samples.csv"], 0),
    (["construct", "--g", "exp(x)", "--staircase", "stair.json", "--z", "0", "--window", "-2", "2"], 0),
    (["construct", "--g", "exp(x)", "--rho", "atan(x)", "--z", "0", "--window", "-2", "2"], 0),
    (["verify", "--seed", "42", "--cases", "500"], 0),
    (["verify", "--seed", "0", "--cases", "64"], 0),
    (["tables"], 0),
    (["tables", "--json"], 0),
]


class LineTracer:
    """Collects (file, line) for every line run in a file under SRC."""

    def __init__(self):
        self.hits: set[tuple[str, int]] = set()
        self._ours: dict[types.CodeType, bool] = {}

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        code = frame.f_code
        ours = self._ours.get(code)
        if ours is None:
            ours = self._ours[code] = Path(code.co_filename).parent == SRC
        return self._line if ours else None

    @contextlib.contextmanager
    def tracing(self):
        sys.settrace(self._call)
        try:
            yield self.hits
        finally:
            sys.settrace(None)


def run_corpus(tracer: LineTracer) -> list[str]:
    """Run the corpus under the tracer; returns one line per command whose
    exit code differs from the README's."""
    os.environ.pop("MONOTONE_RATIO_THREADS", None)  # keep every case in this process
    wrong = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            Path("stair.json").write_text(json.dumps(STAIRCASE))
            for argv, expected in CORPUS:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    with tracer.tracing():
                        code = main(argv)
                if code != expected:
                    wrong.append(f"monoratio {' '.join(argv)}: exit {code}, expected {expected}"
                                 f"{': ' + err.getvalue().strip() if err.getvalue() else ''}")
        finally:
            os.chdir(cwd)
    return wrong


def _owners(path: Path) -> dict[int, str]:
    """Each line of the file's code, mapped to the innermost function that holds it."""
    owners: dict[int, str] = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:  # outer code objects come first, so inner ones overwrite them
        code = todo.pop(0)
        name = getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line is not None:
                owners[line] = name
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return owners


def _spans(lines: list[int]) -> str:
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(corpus: set, tests: set) -> str:
    only = sorted(tests - corpus)
    out = [f"{len(corpus)} src lines reached by the corpus, {len(tests)} by tier-1, "
           f"{len(only)} by tier-1 alone"]
    for path in sorted({p for p, _ in only}):
        owners = _owners(Path(path))
        by_owner: dict[str, list[int]] = {}
        for p, line in only:
            if p == path:
                by_owner.setdefault(owners.get(line, "<module>"), []).append(line)
        out.append(str(Path(path).relative_to(ROOT)))
        out += [f"  {name}: {_spans(lines)}"
                for name, lines in sorted(by_owner.items(), key=lambda item: item[1][0])]
    return "\n".join(out)


def run_tests(tracer: LineTracer) -> int:
    import pytest
    from hypothesis import settings

    # traced examples run past hypothesis's default 200 ms deadline
    settings.register_profile("line-census", deadline=None)
    settings.load_profile("line-census")
    os.chdir(ROOT)
    with tracer.tracing():
        return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


def main_census(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", action="store_true",
                        help="run the corpus alone and check its exit codes")
    args = parser.parse_args(argv)

    corpus = LineTracer()
    wrong = run_corpus(corpus)
    for line in wrong:
        print(f"error: {line}", file=sys.stderr)
    print(f"corpus: {len(CORPUS)} commands, {len(corpus.hits)} src lines reached")
    if args.corpus or wrong:
        return 1 if wrong else 0
    tests = LineTracer()
    status = run_tests(tests)
    print(f"tier-1 under the tracer exited {status}")
    print(report(corpus.hits, tests.hits))
    return 0


if __name__ == "__main__":
    sys.exit(main_census())
