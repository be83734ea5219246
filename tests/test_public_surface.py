"""Every public function of the package has a use outside its own body.

A public name is a top-level function of a module, or a method of a
top-level class, whose name does not start with an underscore.  It is in
use when another function, method or module-level statement of the
package or of the benchmark (``perfbench/*.py``) names it as an
identifier, or when the README names it in backticks.  The few names kept
without such a use are listed in ``KEPT``, each with its reason; the
rest is dead surface, and is deleted or moved into the tests.
"""

import ast
import re
from pathlib import Path

import tamari

SOURCE = Path(tamari.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# the public names that stay without a caller, each with the reason
KEPT = {
    "intervalposet.inc_forest":
        "the increasing forest of a tree, one half of an interval-poset",
    "intervalposet.dec_forest":
        "the decreasing forest of a tree, the other half",
    "intervalposet.intersect": "the intersection of two intervals",
    "intervalposet.is_decreasing_refinement":
        "the paper's decreasing refinement order on interval-posets",
    "intervalposet.is_increasing_refinement":
        "the paper's increasing refinement order on interval-posets",
    "mtamari.parse_ballot_path": "the parser of the ballot-path text format",
    "order.parse_permutation": "the parser of the permutation text format",
    "order.weak_leq": "the weak-order oracle for linear extensions",
    "poly.bilinear_B": "the paper's bilinear form B(f, g)",
}


def _identifiers(node):
    """The names a scope uses: attributes, imports and the loaded names it
    does not bind itself (a parameter, a local or a nested definition of
    the same name is not a use)."""
    nodes = list(ast.walk(node))
    bound = {child.arg for child in nodes if isinstance(child, ast.arg)}
    bound.update(child.id for child in nodes if isinstance(child, ast.Name)
                 and not isinstance(child.ctx, ast.Load))
    bound.update(child.name for child in nodes[1:] if isinstance(
        child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    for child in nodes:
        if isinstance(child, ast.Name):
            if child.id not in bound:
                yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.rpartition(".")[2]


def _scopes(module, stem):
    """(qualified name, node) for each top-level function, each method of a
    top-level class and every other statement, which takes the name of its
    class or module."""
    for node in module.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, ast.FunctionDef)
                yield f"{stem}.{node.name}" + (
                    f".{item.name}" if method else ""), item
        else:
            yield f"{stem}.{getattr(node, 'name', '')}", node


def unused_public_functions(modules, readme):
    """The qualified names of the public functions that no other scope
    names and the README does not name in backticks.  ``modules`` maps a
    module's name to its source and whether its functions are checked;
    the benchmark's are read only for their uses."""
    ticked = {word for span in re.findall(r"`([^`\n]+)`", readme)
              for word in re.findall(r"[A-Za-z_]\w*", span)}
    uses, public = {}, []
    for stem, (source, defines) in modules.items():
        for qualname, node in _scopes(ast.parse(source), stem):
            uses.setdefault(qualname, set()).update(_identifiers(node))
            if defines and isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_"):
                public.append((qualname, node.name))
    return {qualname for qualname, name in public
            if name not in ticked and not any(
                name in names for scope, names in uses.items()
                if scope != qualname)}


def package_and_benchmark():
    modules = {path.stem: (path.read_text(), True)
               for path in sorted(SOURCE.glob("*.py"))}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        modules[f"perfbench/{path.stem}"] = (path.read_text(), False)
    return modules


def test_every_public_function_is_used_or_kept():
    unused = unused_public_functions(package_and_benchmark(),
                                     (ROOT / "README.md").read_text())
    assert unused == set(KEPT)


def test_the_guard_sees_unused_names():
    library = ("def used():\n    return 0\n"
               "def unused():\n    return used()\n"
               "def itself():\n    return itself()\n"
               "def documented():\n    return 0\n"
               "class C:\n    def method(self):\n        return 0\n"
               "    def caller(self):\n        return self.method()\n"
               "    def _private(self):\n        return 0\n"
               "def shadowed():\n    return 0\n"
               "def _parameter(shadowed):\n    return shadowed\n"
               "def _local():\n    shadowed = 1\n    return shadowed\n")
    modules = {"lib": (library, True),
               "bench": ("from lib import C\nC().caller()\n", False)}
    assert unused_public_functions(modules, "calls `documented()`") == {
        "lib.unused", "lib.itself", "lib.shadowed"}
