"""The README's library example runs, and names everything exported.

The top-level package exports only what the README's Library overview
uses or names; everything else is imported from its module.
"""

import doctest
import re
from pathlib import Path

import tamari

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def library_example() -> str:
    """The ``python`` fenced block under the "Library overview" heading,
    without its fences (doctest would read a closing fence as output)."""
    section = README.split("## Library overview", 1)[1]
    match = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert match, "no python block under Library overview"
    return match.group(1)


def test_library_example_passes_as_a_doctest():
    test = doctest.DocTestParser().get_doctest(
        library_example(), {}, "README.md", "README.md", 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def test_every_export_is_named_in_the_readme():
    missing = [name for name in tamari.__all__
               if not re.search(rf"\b{name}\b", README)]
    assert not missing
