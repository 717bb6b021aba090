"""Print every statement of ``src/blindgi`` that the tier-1 suite never runs.

Runs ``pytest -q --continue-on-collection-errors`` in this process under
``sys.settrace``, with line events only in ``src/blindgi`` frames, and prints
``file:line  text`` for each statement (docstrings aside) none of whose lines
ran; a compound statement counts by its header.  Extra arguments go to
pytest (``python3 scripts/unrun_lines.py tests/test_cli.py``); the exit
status is pytest's.

``python3 scripts/unrun_lines.py --runs`` traces the runs of
``scripts/run_digests.py`` instead of the suite: every subcommand over three
optical cases and four ensemble kinds, and the in-process route, in a
temporary directory.  What it lists is the code no such run executes (error
paths, rare input branches); the exit status is ``run_digests.py``'s.
"""

import ast
import contextlib
import glob
import io
import os
import runpy
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "blindgi")
ran: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(SRC + os.sep) else None


def unrun(path: str) -> list[tuple[int, str]]:
    """(line, text) of each statement in ``path`` with no traced line."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            continue
        body = [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = body[0].lineno - 1 if body else node.end_lineno
        if not any((path, line) in ran for line in range(first, last + 1)):
            found.append((node.lineno, source.splitlines()[node.lineno - 1].strip()))
    return sorted(found)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    if sys.argv[1:] == ["--runs"]:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            sys.argv = ["run_digests.py", os.path.join(tmp, "runs")]
            sys.settrace(_calls)
            try:
                runpy.run_path(os.path.join(ROOT, "scripts", "run_digests.py"),
                               run_name="__main__")
            except SystemExit as exc:
                status = exc.code
            sys.settrace(None)
            os.chdir(ROOT)
    else:
        import pytest

        sys.settrace(_calls)
        status = pytest.main(["-q", "--continue-on-collection-errors", *sys.argv[1:]])
        sys.settrace(None)
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        for line, text in unrun(path):
            print(f"{os.path.relpath(path, ROOT)}:{line}  {text}")
    sys.exit(status)  # run_digests.py exits with a message when a run fails
