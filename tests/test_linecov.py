"""The line tracer ``tests/linecov.py`` reports what a test run does not reach."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

from cotlearn.seqcore import TokenSeq

ROOT = Path(__file__).resolve().parents[1]

ONE_TEST = '''
from cotlearn.seqcore import BINARY


def test_render():
    assert BINARY.seq([0, 1]).render() == "0,1"
'''


def _body_line(method) -> int:
    """The line of a one-statement method's body."""
    lines, first = inspect.getsourcelines(method)
    return first + len(lines) - 1


def test_report_names_the_statements_one_test_does_not_reach(tmp_path):
    """A test that renders a sequence and never appends to one: the report
    names the body of ``TokenSeq.append``, not that of ``TokenSeq.render``,
    and lists ``circomp``, which ``seqcore`` does not import, as never
    imported."""
    (tmp_path / "test_one.py").write_text(ONE_TEST)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "linecov", "-p", "no:cacheprovider", "test_one.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = proc.stdout.split("statements no test executed (linecov)")[1].splitlines()
    missed = {line.split(": ", 1)[0] for line in report}
    assert f"src/cotlearn/seqcore.py:{_body_line(TokenSeq.append)}" in missed
    assert f"src/cotlearn/seqcore.py:{_body_line(TokenSeq.render)}" not in missed
    assert "src/cotlearn/circomp.py: never imported" in report
