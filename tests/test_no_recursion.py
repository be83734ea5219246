"""No function of the package refers to itself, apart from a few whose
recursion depth a size cap bounds.

Tree walks run on explicit stacks so that trees of any depth work under
the default recursion limit; this guard keeps recursion from coming back.
A function counts as recursive when its body (nested functions included)
names it, as a plain name or as ``self.<name>`` or ``cls.<name>``.
"""

import ast
from pathlib import Path

import tamari

SOURCE = Path(tamari.__file__).parent

# the recursive functions that may stay, each with the bound on its depth
ALLOWED = {
    "order.bst_relation.walk":
        "the oracle's own forest builder, kept apart from the code it checks; "
        "sylvester_class caps its trees at PERM_CAP",
    "order.linear_extensions_of_relation.extend":
        "depth n, at most max_n (PERM_CAP unless raised)",
    "trees._trees_of_size":
        "depth n; the trees are enumerated only up to the CLI caps",
    "compose._posets_of_size":
        "depth n; interval-posets are enumerated only up to ENUMERATION_CAP",
    "mtamari.path_upset":
        "depth of a rotation chain, bounded by the paths of one size",
}


def _names_itself(node, name):
    if isinstance(node, ast.Attribute):  # a method through self or cls
        return node.attr == name and isinstance(node.value, ast.Name) and (
            node.value.id in ("self", "cls"))
    return isinstance(node, ast.Name) and node.id == name


def _refers_to(function, name):
    return any(_names_itself(node, name)
               for statement in function.body for node in ast.walk(statement))


def _recursive_functions(node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            qualname = f"{prefix}.{child.name}"
            is_function = not isinstance(child, ast.ClassDef)
            if is_function and _refers_to(child, child.name):
                yield qualname
            yield from _recursive_functions(child, qualname)
        else:
            yield from _recursive_functions(child, prefix)


def recursive_functions():
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(_recursive_functions(tree, path.stem))
    return found


def test_only_size_capped_functions_recurse():
    assert recursive_functions() == set(ALLOWED)


def test_the_guard_sees_recursion():
    source = ("def f(n):\n    return f(n - 1) if n else 0\n"
              "def g():\n    def walk(t):\n        walk(t)\n"
              "class C:\n    def m(self):\n        return self.m()\n"
              "    def __init__(self):\n        super().__init__()\n"
              "def h():\n    return 0\n")
    assert set(_recursive_functions(ast.parse(source), "x")) == {
        "x.f", "x.g.walk", "x.C.m"}
