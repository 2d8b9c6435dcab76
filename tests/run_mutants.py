"""Run the mutation gates of `tests/mutants.py`.

    python tests/run_mutants.py [NAME ...]

The tree (`src/`, `tests/`, `perfbench/`, `pyproject.toml`) is copied to
a temporary directory, and the named tests must pass there first.  Then
each entry is applied to the copy alone, its tests run there, and the
file is restored.  pytest runs inside the copy: `pyproject.toml` puts
`src` in front of `PYTHONPATH`, so from the repository root the tests
would import the unmutated tree.  Exit 0 when every mutant makes a named
test fail; exit 1 when one survives, or when an old text does not occur
exactly once in its file.  Only the standard library and pytest are used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS  # tests/, the script's own directory, is on sys.path

ROOT = Path(__file__).resolve().parent.parent


def _pytest(tree: Path, node_ids) -> int:
    # no bytecode is written, so a mutated file is never run from a stale .pyc
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or m["name"] in names]
    bad = [m["name"] for m in mutants if not m["tests"]]
    bad += [m["name"] for m in mutants if (ROOT / m["file"]).read_text().count(m["old"]) != 1]
    if bad:
        print("stale or empty entries:", *bad, sep="\n  ")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        if _pytest(tree, sorted({t for m in mutants for t in m["tests"]})) != 0:
            print("the named tests fail on the unmutated tree")
            return 1
        survived = []
        for m in mutants:
            path = tree / m["file"]
            text = path.read_text()
            path.write_text(text.replace(m["old"], m["new"]))
            start = time.perf_counter()
            code = _pytest(tree, m["tests"])
            path.write_text(text)
            # 1 is pytest's "tests failed"; an import error or a wrong node id is not a kill
            print(f"{'killed' if code == 1 else 'SURVIVED'} ({time.perf_counter() - start:.1f}s) {m['name']}")
            if code != 1:
                survived.append(m["name"])
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
