"""The mutant catalogue of ``mutants.py`` still applies to the code.

Running the catalogue takes minutes, so tier-1 only checks that it cannot
rot silently: each old text occurs exactly once in its module, and pytest
collects every test id that must kill a mutant, so each names an existing
file, a test function defined in it and, where given, one of its
parameter sets.
"""

import os
import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_applies_once(name):
    mutant = MUTANTS[name]
    text = (ROOT / "src" / "tamari" / mutant.module).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_every_test_id_is_collected():
    ids = sorted({node for mutant in MUTANTS.values()
                  for node in mutant.tests})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
         "no:cacheprovider", *ids],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
