"""Statements in ``src/cotlearn`` that no test executes: a pytest plugin.

Run it over the suite, or any part of it, with

    PYTHONPATH=src:tests python -m pytest -q -p linecov

It traces with the standard library alone (``sys.settrace`` and
``threading.settrace``), and only in frames whose code lies in
``src/cotlearn``. When the test run ends it prints, per module, each
statement that no line event reached, and then the modules no test
imported. Statements are found with ``ast``: a simple statement counts as
run when any of its lines ran, a compound one when its header did.
Docstrings and other bare constants are no statements. Code that runs only
in a subprocess (``python -m cotlearn.cli``, a worker pool) is not seen.
Tracing slows the suite several times over.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cotlearn"
_PREFIX = str(SRC) + os.sep
# each code file name seen, mapped to its resolved path when it lies in SRC, else to None
_resolved: dict[str, str | None] = {}
_lines: defaultdict[str, set[int]] = defaultdict(set)


def _trace_line(frame, event, arg):
    if event == "line":
        _lines[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_line


def _trace_call(frame, event, arg):
    """Trace the lines of library frames only; every other frame runs untraced."""
    name = frame.f_code.co_filename
    if name not in _resolved:
        path = os.path.realpath(name)
        _resolved[name] = path if path.startswith(_PREFIX) else None
    return _trace_line if _resolved[name] else None


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests():
    """Start tracing before ``conftest.py`` or any test module imports the library."""
    sys.settrace(_trace_call)
    threading.settrace(_trace_call)


def _statements(tree: ast.Module):
    """Each statement with the lines that show it ran: all its lines when it
    is simple, its header (decorators included) when it holds a body."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
        yield node, range(first, max(first, last) + 1)


def _unexecuted(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    source = path.read_text()
    lines = source.splitlines()
    missed = {node.lineno for node, span in _statements(ast.parse(source, str(path))) if ran.isdisjoint(span)}
    return [(n, lines[n - 1].strip()) for n in sorted(missed)]


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    loaded = {os.path.realpath(m.__file__) for m in list(sys.modules.values()) if getattr(m, "__file__", None)}
    ran = defaultdict(set)
    for name, lines in _lines.items():
        ran[_resolved[name]] |= lines
    write = terminalreporter.write_line
    terminalreporter.section("statements no test executed (linecov)")
    never = []
    for path in sorted(SRC.glob("*.py")):
        name = path.relative_to(SRC.parents[1])
        if str(path) not in loaded:
            never.append(name)
            continue
        for lineno, text in _unexecuted(path, ran[str(path)]):
            write(f"{name}:{lineno}: {text}")
    for name in never:
        write(f"{name}: never imported")
