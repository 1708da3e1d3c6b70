"""Mutation harness for the pruning rules of the exact solvers.

A prune that is unsound but rarely fires keeps every value test green, so each
rule below is broken on purpose and the tests must notice. For each mutant the
harness copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, checks that the mutant's source fragment occurs exactly once in its
module, replaces it, and runs the mutant's test files with ``-x``. The mutant
is killed when they fail. Before any mutant, the same test files must pass on
an unmutated copy, so that a failure is the mutant's doing.

Run from the repository root, with pytest installed::

    python tools/mutants.py

Exit status 0 when every mutant is killed; 1 when one survives, a fragment is
missing or repeated, or the unmutated tests fail. A change that moves or
rewrites a fragment updates this list with it, and a change that adds a prune
adds a mutant that makes it unsound. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # path under src/chiomega
    fragment: str
    replacement: str
    why: str
    tests: tuple[str, ...]  # test files under tests/ that must kill it


MUTANTS = (
    Mutant(
        "a", "extremal.py",
        "floor.witness.num_edges())",
        "floor.witness.num_edges() - 1)",
        "the floor of f exact claims one edge fewer than its witness has, so it "
        "prunes the record itself and the walk finds no graph",
        ("test_extremal.py",),
    ),
    Mutant(
        "b", "extremal.py",
        "_cannot_win(chi, omega, child_edges, bar)",
        "_cannot_win(chi, omega, child_edges + 1, bar)",
        "the exact-chi skip also drops a child that ties the incumbent on ratio "
        "and edges, which the graph6 tie-break may prefer",
        ("test_extremal.py",),
    ),
    Mutant(
        "c", "extremal.py",
        "    if node_budget is None:\n        floor = max_ratio_search(n)",
        "    if True:\n        floor = max_ratio_search(n)",
        "a budgeted run also starts at the floor, so the incumbent it reports at "
        "a cut is no longer that of the bare walk",
        ("test_cli_transcript.py",),
    ),
    Mutant(
        "d", "extremal.py",
        "if _cannot_win(chi, omega, child_edges, bar):",
        "if False:",
        "without the exact-chi skip, _prefer alone takes a child that loses to "
        "the floor, so the bar drops below the floor and the floor spares fewer solves",
        ("test_extremal.py",),
    ),
    Mutant(
        "e", "extremal.py",
        "_color_sort(adj, (1 << n) - 1)[1][-1] + 1, None",
        "_color_sort(adj, (1 << n) - 1)[1][-1], None",
        "the label-order greedy parent bound forgets the new vertex's colour",
        ("test_extremal.py",),
    ),
    Mutant(
        "f", "extremal.py",
        "yield max(greedy) + 1, None",
        "yield max(greedy), None",
        "the DSATUR parent bound forgets the new vertex's colour",
        ("test_extremal.py",),
    ),
    Mutant(
        "g", "extremal.py",
        "yield chi + 1, _classes(colors)",
        "yield chi, _classes(colors)",
        "the exact parent bound forgets the new vertex's colour",
        ("test_extremal.py",),
    ),
    Mutant(
        "h", "extremal.py",
        "_cannot_win(up + 1, lo, edges, bar)",
        "_cannot_win(up, lo, edges, bar)",
        "the grandparent bound on a parent forgets its children's new colour",
        ("test_extremal.py",),
    ),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(dest: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1",
               COLUMNS="200")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    return subprocess.run(argv + [f"tests/{t}" for t in tests], cwd=dest, env=env,
                          capture_output=True, text=True)


def _tail(proc: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-lines:])


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory(prefix="chiomega-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        tests = tuple(sorted({t for m in MUTANTS for t in m.tests}))
        proc = _pytest(base, tests)
        if proc.returncode != 0:
            print(f"the unmutated copy fails {', '.join(tests)}:\n{_tail(proc)}")
            return 1
        for m in MUTANTS:
            work = Path(tmp) / m.name
            _copy(work)
            path = work / "src" / "chiomega" / m.module
            source = path.read_text()
            count = source.count(m.fragment)
            if count != 1:
                print(f"{m.name}: the fragment occurs {count} times in {m.module}: {m.fragment!r}")
                failed = True
                continue
            path.write_text(source.replace(m.fragment, m.replacement))
            start = time.perf_counter()
            proc = _pytest(work, m.tests)
            took = time.perf_counter() - start
            if proc.returncode == 0:
                print(f"{m.name}: SURVIVED in {took:.1f} s ({m.why})\n{_tail(proc)}")
                failed = True
            else:
                killer = next((line for line in proc.stdout.splitlines()
                               if line.startswith("FAILED ")), "failed")
                print(f"{m.name}: killed in {took:.1f} s, {killer}")
            shutil.rmtree(work)
    print(f"{len(MUTANTS)} mutants, {'not all' if failed else 'all'} killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
