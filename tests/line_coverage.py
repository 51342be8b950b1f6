"""Line coverage of src/linkrank by the test suite, from the standard
library alone.  It runs the suite in this process under a line tracer
(sys.settrace, and threading.settrace for any thread a test starts),
takes the executable lines of each package module from the co_lines() of
its compiled code, and exits 1, listing them, when a line never ran.  Run
from the repository root:

    PYTHONPATH=src python tests/line_coverage.py

Lines that run only in a child process are not traced, so two places are
exempt: __main__.py, and the BrokenPipeError handler of cli.main, found
by its AST, which only the closed-pipe test reaches, through
python -m linkrank.  The file is not named test_*.py, so pytest does not
collect it.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "linkrank"


def _executable_lines(code):
    # the lines of a code object and of every code object nested in it
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _executable_lines(const)
    return lines


def _handler_lines(tree):
    # the lines of cli.main's BrokenPipeError handler, its except clause
    # included
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    return {line for node in ast.walk(main)
            if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name)
            and node.type.id == "BrokenPipeError"
            for line in range(node.lineno, node.end_lineno + 1)}


def main():
    ran = set()
    inside = {}

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        # called on each new frame: trace its lines only inside the package
        filename = frame.f_code.co_filename
        keep = inside.get(filename)
        if keep is None:
            keep = inside[filename] = Path(filename).resolve().parent == PACKAGE
        return local(frame, event, arg) if keep else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(TESTS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status:
        print(f"the suite failed (pytest exit {status}); coverage not checked")
        return int(status)
    executed = {}
    for filename, line in ran:
        executed.setdefault(Path(filename).resolve(), set()).add(line)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__main__.py":
            continue
        source = path.read_text()
        lines = _executable_lines(compile(source, str(path), "exec"))
        lines -= executed.get(path, set())
        if path.name == "cli.py":
            lines -= _handler_lines(ast.parse(source))
        missed += [f"{path.relative_to(TESTS.parent)}:{line}" for line in sorted(lines)]
    if missed:
        print(f"{len(missed)} lines of src/linkrank never ran:", *missed, sep="\n  ")
        return 1
    print("every executable line of src/linkrank ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
