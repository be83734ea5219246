"""The mutant catalogue of ``mutants.py`` still applies to the code.

Running the catalogue takes minutes, so tier-1 only checks that it cannot
rot silently: each old text occurs exactly once in its module (the known
survivors' too), and pytest collects every test id that must kill a
mutant under the catalogue's hypothesis profile, so each names an
existing file, a test function defined in it and, where given, one of its
parameter sets.  It also checks that the profile does not shrink, and, on
canned pytest reports, that a mutant counts as killed only when each of
its ids failed.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import Phase, settings

from mutants import MUTANTS, PROFILE, ROOT, SURVIVORS, not_failed


@pytest.mark.parametrize("name", sorted(MUTANTS.keys() | SURVIVORS.keys()))
def test_each_mutant_applies_once(name):
    mutant = MUTANTS.get(name) or SURVIVORS[name]
    text = (ROOT / "src" / "tamari" / mutant.module).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_every_test_id_is_collected():
    ids = sorted({node for mutant in MUTANTS.values()
                  for node in mutant.tests})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
         "no:cacheprovider", f"--hypothesis-profile={PROFILE}", *ids],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_the_catalogue_profile_does_not_shrink():
    phases = settings.get_profile(PROFILE).phases
    assert Phase.shrink not in phases
    assert Phase.generate in phases


REPORT = """\
F.FE                                                                    [100%]
================================== FAILURES ==================================
________________________ test_top_tree_polynomials[3] ________________________
E       assert Polynomial(x^3) == Polynomial(x + x^2)
========================== short test summary info ===========================
FAILED tests/test_packed.py::test_top_tree_polynomials[3] - assert Polynomi...
FAILED tests/test_poly.py::test_phi_series[12] - AssertionError
ERROR tests/test_deep_trees.py::test_comb - RecursionError: maximum recursi...
2 failed, 1 passed, 1 error in 0.61s
"""


@pytest.mark.parametrize("ids, passed", [
    pytest.param(("tests/test_packed.py::test_top_tree_polynomials[3]",
                  "tests/test_deep_trees.py::test_comb"), [],
                 id="a failure and an error"),
    pytest.param(("tests/test_packed.py::test_top_tree_polynomials[3]",
                  "tests/test_packed.py::test_top_tree_polynomials[4]"),
                 ["tests/test_packed.py::test_top_tree_polynomials[4]"],
                 id="one id passed"),
    # a function id stands for its parameter sets, and fails with any
    pytest.param(("tests/test_poly.py::test_phi_series",), [],
                 id="a function failed through one parameter set"),
    pytest.param(("tests/test_poly.py::test_phi",),
                 ["tests/test_poly.py::test_phi"], id="a prefix only"),
    pytest.param(("tests/test_packed.py::test_top_tree_polynomials[3",),
                 ["tests/test_packed.py::test_top_tree_polynomials[3"],
                 id="a parameter prefix only"),
])
def test_a_mutant_is_killed_only_when_every_id_fails(ids, passed):
    assert not_failed(ids, REPORT) == passed
    assert not_failed(ids, "3 passed in 0.40s\n") == list(ids)
