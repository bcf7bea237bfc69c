"""Opt-in line tracer: which executable lines of the package did no test run?

A stdlib-only pytest plugin built on ``sys.settrace``; no coverage package
is needed. Run it from the repository root with

    PYTHONPATH=src:tests python -m pytest -p linecov

and the terminal summary lists, per module of ``fafsp``, the line ranges
that hold executable code no test reached. Tracing slows the suite about
threefold, so the plain ``pytest`` run leaves it off.

A line counts as executable when the compiled module maps some bytecode to
it. A function's first line is left out: the interpreter reports no line
event for it when the function runs, and the statement that defines the
function is counted on its own. Lines run only in a child process, such as
a demo script, count as not run.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
from pathlib import Path


def _executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line is not None)
        if co is not code:
            lines.discard(co.co_firstlineno)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    lines.discard(0)                    # the module's entry, before its first line
    return lines


def _ranges(lines: list[int]) -> str:
    """'3-5, 9' for [3, 4, 5, 9]."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


class LineTracer:
    """Records each (file, line) run in a module under ``root``."""

    def __init__(self, root: Path):
        self.root = str(root) + os.sep    # a prefix of the package's files only
        self.ran: set[tuple[str, int]] = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.root):
            return self._local
        return None

    def start(self) -> None:
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def missed(self) -> dict[Path, list[int]]:
        """Each module's executable lines that did not run, by path."""
        out = {}
        for path in sorted(Path(self.root).rglob("*.py")):
            ran = {line for f, line in self.ran if f == str(path)}
            left = sorted(_executable_lines(path) - ran)
            if left:
                out[path] = left
        return out

    def pytest_terminal_summary(self, terminalreporter):
        self.stop()
        missed = self.missed()
        terminalreporter.section("lines no test ran")
        for path, lines in missed.items():
            name = path.relative_to(Path(self.root).parent)
            terminalreporter.write_line(f"{name}: {_ranges(lines)}")
        terminalreporter.write_line(f"{sum(map(len, missed.values()))} executable lines not run")

    def pytest_unconfigure(self, config):
        self.stop()


def pytest_configure(config):
    if "fafsp" in sys.modules:
        raise RuntimeError("linecov must start before fafsp is imported")
    tracer = LineTracer(Path(importlib.util.find_spec("fafsp").origin).parent)
    config.pluginmanager.register(tracer, "linecov-tracer")
    tracer.start()
