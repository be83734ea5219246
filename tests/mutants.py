"""Mutants of the packed kernels, each with the tests that must kill it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each entry names a module of ``src/tamari``, an exact old text that occurs
once in it, the new text, and the test node ids that must fail once the
old text is replaced.  The script copies ``src``, ``tests``, ``perfbench``,
the README and ``pyproject.toml`` to a temporary directory, applies one
mutant at a time to the copy, and runs ``python -m pytest -x -q`` on its
ids there, so the checkout and its hypothesis database stay untouched.
It prints each mutant as killed or survived and exits 1 when any survived
or its tests could not run.  pytest does not collect this file; ``test_mutants.py``
checks that every old text still occurs exactly once.
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

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    module: str  # file name under src/tamari
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = {
    "fixed link tests the wrong operand for the leaf x": Mutant(
        "poly.py",
        "            if value is leaf:\n                return f\n",
        "            if f is leaf:\n                return f\n",
        ("tests/test_packed.py::test_top_tree_polynomials[3]",
         "tests/test_poly.py::test_tamari_poly_bivar")),
    "sized link tests the wrong operand for the leaf x": Mutant(
        "poly.py",
        "        if value is leaf:\n            return f\n",
        "        if f is leaf:\n            return f\n",
        ("tests/test_packed.py::test_fixed_and_sized_folds_agree_on_trees"
         "[100]",)),
    "mirror takes the children left to right": Mutant(
        "poly.py",
        "return lambda left, right: top(link(right, left))",
        "return lambda left, right: top(link(left, right))",
        ("tests/test_packed.py::test_top_tree_polynomials[3]",)),
    "slope shifts by twice the step": Mutant(
        "poly.py",
        "while shifted := out >> step:",
        "while shifted := out >> 2 * step:",
        ("tests/test_packed.py::test_pack_unpack_and_slope",)),
    "unpacking keeps zero slots": Mutant(
        "poly.py",
        "enumerate(slots, shift)\n                      if c}",
        "enumerate(slots, shift)}",
        ("tests/test_packed.py::test_pack_unpack_and_slope",)),
    "limit back at 216 bits": Mutant(
        "poly.py",
        "_SIZED_FOLD_BITS = 232",
        "_SIZED_FOLD_BITS = 216",
        ("tests/test_packed.py::test_small_trees_skip_the_sized_fold",)),
    "limit raised to 248 bits": Mutant(
        "poly.py",
        "_SIZED_FOLD_BITS = 232",
        "_SIZED_FOLD_BITS = 248",
        ("tests/test_packed.py::test_large_bivar_polynomial[119]",)),
    "b-refined limit at half the bits": Mutant(
        "poly.py",
        "// (5 if bivar else 2)",
        "// (4 if bivar else 2)",
        ("tests/test_packed.py::test_large_bivar_polynomial[48]",)),
    "postfix code of a binary node takes its subtrees swapped": Mutant(
        "trees.py",
        "stack += node.left, node.right",
        "stack += node.right, node.left",
        ("tests/test_packed.py::test_top_tree_polynomials[3]",)),
}


def run(mutant: Mutant, copy: Path) -> str:
    """Apply ``mutant`` to the copy, run its tests, restore the file, and
    say how the tests ended."""
    target = copy / "src" / "tamari" / mutant.module
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return "not applied: the old text does not occur exactly once"
    target.write_text(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed (timed out)"
    finally:
        target.write_text(text)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"error: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}"


def main(names: list[str]) -> int:
    unknown = set(names) - MUTANTS.keys()
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for item in COPIED:
            source = ROOT / item
            if source.is_dir():
                shutil.copytree(source, copy / item, ignore=shutil.
                                ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy(source, copy / item)
        for name in names or MUTANTS:
            start = time.perf_counter()
            outcome = run(MUTANTS[name], copy)
            failed += not outcome.startswith("killed")
            print(f"{time.perf_counter() - start:6.1f} s  {name}: {outcome}",
                  flush=True)
    print(f"{failed} of {len(names or MUTANTS)} mutants not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
