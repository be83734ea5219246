"""The mutant catalogue of ``mutants.py`` still applies to the code.

Running the catalogue takes minutes, so tier-1 only checks that it cannot
rot silently: each old text occurs exactly once in its module, and each
test that must kill a mutant is still defined in its file.
"""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_applies_once(name):
    mutant = MUTANTS[name]
    text = (ROOT / "src" / "tamari" / mutant.module).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    for node in mutant.tests:
        path, function = re.fullmatch(r"([\w/]+\.py)::(\w+)(\[.*\])?",
                                      node).group(1, 2)
        assert f"\ndef {function}(" in (ROOT / path).read_text()
