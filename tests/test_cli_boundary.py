"""The CLI reaches the library only through its public names.

The benchmark's tracer wraps the public functions of each library module
and charges their time to that module's layer; work the CLI did through a
private name (``poly._chain_poly``, ``from .trees import _postfix``) would
be charged to the CLI instead.  This guard reads ``cli.py``'s syntax tree
for the two ways a private name of a package module can be reached: as an
attribute of a module the CLI imports, or as a name imported from one.
"""

import ast
from pathlib import Path

from tamari import cli


def _is_package(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "tamari"


def private_reads(source: str) -> list[str]:
    """The private names of package modules that ``source`` reads."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module or '.'}.{alias.name}")
                if node.module is None or node.module == "tamari":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.split(".")[0] == "tamari")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) > 1 \
                and isinstance(node.args[0], ast.Name) \
                and node.args[0].id in modules \
                and isinstance(node.args[1], ast.Constant) \
                and str(node.args[1].value).startswith("_"):
            found.append(f"{node.args[0].id}.{node.args[1].value}")
    return found


def test_cli_reads_no_private_name_of_a_library_module():
    assert private_reads(Path(cli.__file__).read_text()) == []


def test_the_guard_sees_each_way_in():
    source = "\n".join([
        "import argparse",
        "from . import poly, trees as t",
        "from .mtamari import _path_code, path_count",
        "from tamari.order import _closure",
        "poly._chain_poly(code)",
        "t._postfix(tree)",
        "getattr(poly, '_slope')",
        "argparse._HelpAction",  # not a package module
        "poly.text_tamari_poly(text)",
    ])
    assert sorted(private_reads(source)) == [
        "mtamari._path_code", "poly._chain_poly", "poly._slope", "t._postfix",
        "tamari.order._closure"]
