"""Hypothesis settings profiles of the test suite.

``mutants`` drops the shrink phase.  ``mutants.py`` loads it with
``--hypothesis-profile=mutants``: a mutant is killed as soon as its tests
fail, so shrinking the failing example would only cost time.  Without the
option hypothesis keeps its default profile, shrinking included.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))
