"""Run the tier-1 suite in process under a line tracer and list each src line it never runs.

Usage, from anywhere: ``python scripts/line_coverage.py``.

The tracer is ``sys.settrace``, so no coverage package is needed; it roughly
doubles the suite's time, and slows a tight Python loop up to tenfold.  A line of ``src/stratlearn/*.py`` is executable
when some code object compiled from its file maps an instruction to it.  Each
executable line that no in-process test runs is printed as
``file:line: text``; lines run only by a child process (the subprocess tests
of the CLI) count as missed.  The exit status is 1 when a missed line is not
named in ``ALLOWED`` or an ``ALLOWED`` entry names no missed line, else 0,
unless pytest stopped short of running the suite, when it is pytest's.  A test
that fails under the tracer is reported but does not set the status: the
untraced run is the suite's verdict, and the tracer's slowdown can push a test
past its wall-clock limit.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "stratlearn"

# Missed lines that stay, named by file and stripped text, each with its reason.
ALLOWED = {
    ("cli.py", "raise SystemExit(main())"):
        "the __main__ guard runs only in a child process (python -m stratlearn.cli), which the tracer does not see",
}


def executable_lines(path: Path) -> set[int]:
    """Every line that an instruction of ``path``'s compiled code objects maps to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return lines


def traced_run() -> tuple[int, set[tuple[str, int]]]:
    """Run the tier-1 suite under the tracer; return its exit code and the (real path, line) pairs run in src."""
    hits: set[tuple[str, int]] = set()
    ours: dict[str, bool] = {}
    src = str(SRC.resolve()) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(src)
        if not ours[name]:
            return None
        hits.add((name, frame.f_lineno))
        return local

    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(REPO), str(REPO)])
    finally:
        sys.settrace(None)
    return int(code), {(os.path.realpath(name), line) for name, line in hits}


def main() -> int:
    code, hits = traced_run()
    missed, executable = [], 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        executable += len(lines)
        real = os.path.realpath(path)
        missed += [(path, line, text[line - 1].strip()) for line in sorted(lines) if (real, line) not in hits]
    unlisted = 0
    for path, line, line_text in missed:
        reason = ALLOWED.get((path.name, line_text))
        unlisted += reason is None
        print(f"{path.relative_to(REPO)}:{line}: {line_text}" + (f"  [allowed: {reason}]" if reason else ""))
    stale = sorted(set(ALLOWED) - {(path.name, line_text) for path, _, line_text in missed})
    for name, line_text in stale:
        print(f"allowlist entry names no missed line of {name}: {line_text!r}")
    print(f"{executable - len(missed)} of {executable} executable src lines run; "
          f"{unlisted} missed and not allowed, {len(stale)} stale allowlist entries")
    if code == pytest.ExitCode.TESTS_FAILED:
        print("some tests failed under the tracer; the untraced run of the suite judges them")
    elif code != pytest.ExitCode.OK:
        return code
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
