"""No function of the package recurses, apart from a few whose recursion
depth a size cap bounds.

Tree walks run on explicit stacks so that trees of any depth work under
the default recursion limit; this guard keeps recursion from coming back.
It reports cycles.  A function, method or nested function whose body
(nested functions included) names it, as a plain name or as
``self.<name>`` or ``cls.<name>``, is a cycle of one.  Among a module's
top-level functions, a function calls each one whose name its body reads,
and every function on a cycle of such calls is reported with the others on
it, so a recursion routed through a helper shows too.
"""

import ast
from pathlib import Path

import tamari

SOURCE = Path(tamari.__file__).parent

# the cycles that may stay, each with the bound on its depth
ALLOWED = {
    ("order.bst_relation.walk",):
        "the oracle's own forest builder, kept apart from the code it checks; "
        "sylvester_class caps its trees at PERM_CAP",
    ("order.linear_extensions_of_relation.extend",):
        "depth n, at most max_n (PERM_CAP unless raised)",
    ("trees._trees_of_size",):
        "depth n; the trees are enumerated only up to the CLI caps",
    ("compose._bottoms", "compose._posets_of_size", "compose._terms"):
        "depth n; interval-posets are enumerated only up to ENUMERATION_CAP",
    ("mtamari.path_upset",):
        "depth of a rotation chain, bounded by the paths of one size",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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
        if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
            qualname = f"{prefix}.{child.name}"
            is_function = not isinstance(child, ast.ClassDef)
            if is_function and _refers_to(child, child.name):
                yield qualname
            yield from _recursive_functions(child, qualname)
        else:
            yield from _recursive_functions(child, prefix)


def _call_cycles(module, stem):
    """The cycles of calls among a module's top-level functions, each as
    the sorted qualified names of its members; a function calls each one
    whose name its body reads."""
    functions = {child.name: child for child in module.body
                 if isinstance(child, FUNCTIONS)}
    calls = {name: {node.id for statement in function.body
                    for node in ast.walk(statement)
                    if isinstance(node, ast.Name) and node.id in functions}
             for name, function in functions.items()}
    reach = {}  # the functions each one reaches by one call or more
    for name in functions:
        seen, stack = set(), [name]
        while stack:
            new = calls[stack.pop()] - seen
            seen |= new
            stack += new
        reach[name] = seen
    for name, seen in reach.items():
        if name in seen:
            yield tuple(sorted(f"{stem}.{other}" for other in seen
                               if name in reach[other]))


def cycles(module, stem):
    found = set(_call_cycles(module, stem))
    members = {qualname for cycle in found for qualname in cycle}
    return found | {(qualname,) for qualname in _recursive_functions(
        module, stem) if qualname not in members}


def recursive_cycles():
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        found |= cycles(ast.parse(path.read_text(), filename=str(path)),
                        path.stem)
    return found


def test_only_size_capped_functions_recurse():
    assert recursive_cycles() == set(ALLOWED)


def test_the_guard_sees_recursion():
    source = ("def f(n):\n    return f(n - 1) if n else 0\n"
              "def g():\n    def walk(t):\n        walk(t)\n"
              "class C:\n    def m(self):\n        return self.m()\n"
              "    def __init__(self):\n        super().__init__()\n"
              "def h():\n    return f(0) + p(1)\n"
              "def p(n):\n    return q(n)\n"
              "def q(n):\n    return p(n - 1) if n else 0\n")
    assert cycles(ast.parse(source), "x") == {
        ("x.f",), ("x.g.walk",), ("x.C.m",), ("x.p", "x.q")}
