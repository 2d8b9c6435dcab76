"""Executed-statement gate: run Tier-1 in-process under a line tracer and
list every statement of `src/pgtool` that no test runs.

    python tests/run_trace.py

`sys.settrace` and `threading.settrace` install a tracer before pytest
imports the package; it returns a local line tracer only for code under
`src/pgtool`.  An `ast` statement counts as run when its first line, or
its first decorator line, had a line event.  Docstrings and `global` /
`nonlocal` statements emit none and are not counted.  Exit 0 when Tier-1
passes and every unrun statement is in `ALLOWED`; exit 1 when a test
fails, a statement outside `ALLOWED` never runs, or an `ALLOWED` entry
names no unrun statement.  Only the standard library and pytest are
used.  The traced run takes several minutes.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pgtool"

# (file, statement text): statements that cannot run
ALLOWED = {
    # collineations act transitively on ordered triangles, so every oval
    # family counted through one triangle scales to a whole census
    ("arcs.py", 'raise RuntimeError(f"{n_t} sets through T do not scale to a census")'),
    # every GF(p^k) has an irreducible monic polynomial of degree k
    ("fields.py", 'raise AssertionError("no irreducible polynomial found")  # cannot happen'),
    # the command-line entry, run only as a script
    ("cli.py", "sys.exit(main())"),
}


def statements(path: Path):
    """(line, text) of each counted statement: the line whose event marks
    it as run, and its first source line, stripped."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if id(node) in docstrings:
            continue
        decorators = getattr(node, "decorator_list", None)
        line = decorators[0].lineno if decorators else node.lineno
        yield line, lines[node.lineno - 1].strip()


def main() -> int:
    if "pgtool" in sys.modules:
        print("pgtool was imported before the tracer started")
        return 1
    prefix = str(PACKAGE) + os.sep
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    imported = getattr(sys.modules.get("pgtool"), "__file__", "")
    if not imported.startswith(prefix):
        print(f"pgtool was imported from {imported!r}, not from {PACKAGE}")
        return 1

    unrun, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in sorted(statements(path)):
            total += 1
            if (str(path), line) not in seen:
                unrun.append((path.name, line, text))
    print(f"{len(unrun)} of {total} statements under {PACKAGE.relative_to(ROOT)} never ran")
    for name, line, text in unrun:
        print(f"  {'allowed ' if (name, text) in ALLOWED else 'UNRUN   '} {name}:{line}: {text}")
    stale = ALLOWED - {(name, text) for name, _, text in unrun}
    for name, text in sorted(stale):
        print(f"  STALE    {name}: {text} is allowed but ran or is gone")
    if code != 0:
        print(f"pytest exited {int(code)}")
    missing = [u for u in unrun if (u[0], u[2]) not in ALLOWED]
    return 1 if code != 0 or missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
