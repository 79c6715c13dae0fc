"""Statements of `src/segtransfer` that the test suite never runs.

    python3 experiments/untested.py [PYTEST_ARGS ...]

Runs pytest in this process (default arguments: `-q -p no:cacheprovider`
and the repo's `tests/`) under `sys.settrace` and `threading.settrace`,
tracing only frames whose code lives in `src/segtransfer`, then prints,
per module, every statement that never ran: its line and source.  The
statements come from `ast`: every statement node but docstrings, `def`s,
`class`es and imports.  A statement counts as run when a line event fell
on any line of it, or, for a compound statement (`if`, `for`, `with`,
...), on its header.  Forked children are not traced: the body of the
SLIC workers that `toy_pipeline._superpixel_bits` forks shows up as never
run, though the tests run it.  Exits with pytest's status.  Uses the
standard library and pytest only.
"""

import ast
import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "segtransfer")
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _is_docstring(node, parent) -> bool:
    return (isinstance(parent, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _blocks(node):
    """The statements of every block that node holds (a lambda's body is no block)."""
    for name in ("body", "orelse", "finalbody", "handlers"):
        block = getattr(node, name, None)
        if isinstance(block, list):
            yield from block


def statements(source: str):
    """(first line, lines that count as running it) of every statement of a module."""
    for parent in ast.walk(ast.parse(source)):
        for node in _blocks(parent):
            if isinstance(node, ast.ExceptHandler):
                continue  # its body is a block of its own
            if isinstance(node, _SKIPPED) or _is_docstring(node, parent):
                continue
            # a compound statement's header ends where its first block starts
            inner = list(_blocks(node))
            last = min(s.lineno for s in inner) - 1 if inner else node.end_lineno
            yield node.lineno, range(node.lineno, max(last, node.lineno) + 1)


def main(argv=None) -> int:
    prefix = PACKAGE + os.sep
    ran = {}  # file -> set of lines

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(list(argv or DEFAULT_ARGS))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read()
        lines = source.splitlines()
        hit = ran.get(path, set())
        missed = sorted({first for first, span in statements(source) if hit.isdisjoint(span)})
        total += len(missed)
        if missed:
            print(f"{os.path.relpath(path, ROOT)}: {len(missed)} never run")
            for line in missed:
                print(f"  {line:4d}  {lines[line - 1].strip()}")
    print(f"{total} statements never run (forked children are not traced)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
