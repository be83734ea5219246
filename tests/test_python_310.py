"""The package keeps to what Python 3.10, the oldest version that
``pyproject.toml`` admits, can run.

Both checks read the source, so they run under any newer interpreter: the
grammar is 3.10's, and every ``int.to_bytes``/``int.from_bytes`` call names
its byte order, which only 3.11 made optional, also where ``map`` calls it.
"""

import ast
from pathlib import Path

import pytest

import tamari

SOURCE = Path(tamari.__file__).parent
MODULES = sorted(SOURCE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_parses_as_python_310(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _is_conversion(node):
    return isinstance(node, ast.Attribute) and \
        node.attr in ("to_bytes", "from_bytes")


def _without_byte_order(tree):
    """The lines of the to_bytes/from_bytes calls that leave the byte
    order to its default: the order is the second positional argument or
    the ``byteorder`` keyword, or when ``map`` calls the conversion, the
    items of a second iterable."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (_is_conversion(node.func)
                 and len(node.args) < 2
                 and not any(k.arg == "byteorder" for k in node.keywords)
                 or isinstance(node.func, ast.Name)
                 and node.func.id == "map" and len(node.args) < 3
                 and node.args and _is_conversion(node.args[0]))]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_byte_conversions_name_their_byte_order(path):
    assert _without_byte_order(ast.parse(path.read_text())) == []


def test_the_byte_order_scan_sees_a_default():
    tree = ast.parse("a.to_bytes(4)\nint.from_bytes(b)\n"
                     "a.to_bytes(4, 'big')\n"
                     "int.from_bytes(b, byteorder='little')\n"
                     "map(int.from_bytes, chunks)\n"
                     "map(int.from_bytes, chunks, repeat('little'))")
    assert _without_byte_order(tree) == [1, 2, 5]
