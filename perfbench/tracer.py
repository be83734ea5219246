"""Span tracing around the public functions of each ``tamari`` module.

The tracer replaces every public module-level function of a layer with a
wrapper, wherever the function is bound: in its own module, in the package
namespace, and in the modules that import it with ``from .x import y``.
A span is recorded only when a call crosses into a layer from outside it,
so recursion and calls within one module cost no spans; this is the layer
boundary the per-layer metrics are defined on.  Classes and their methods
(``Polynomial`` operators, ``IntervalPoset._trusted``) are left alone, so
their time counts as self time of the calling layer.

Spans live in flat arrays while the run lasts and are written out once,
when it ends.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from functools import wraps
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "poly", "compose", "intervalposet", "trees", "order",
          "mtamari")


class Tracer:
    """Holds spans and domain counters for one traced phase."""

    def __init__(self, lib):
        self.lib = lib
        self.active = False
        self.op_id = -1
        self.counts: Counter = Counter()
        self.names: list[str] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._id = array("q")
        self._parent = array("q")
        self._name = array("i")
        self._op = array("q")
        self._t0 = array("d")
        self._t1 = array("d")
        self._upset = None
        self._upset_start = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer, in every binding."""
        replacements = {}
        for layer in LAYERS:
            module = sys.modules.get(f"tamari.{layer}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if name.startswith("_") or not _is_function(obj, module):
                    continue
                replacements[id(obj)] = self._wrap(layer, name, obj)
                if layer == "order" and name == "tamari_upset":
                    self._upset = obj
        for modname, module in list(sys.modules.items()):
            if modname != "tamari" and not modname.startswith("tamari."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def _wrap(self, layer: str, name: str, fn):
        name_idx = len(self.names)
        self.names.append(f"{layer}.{name}")
        hook = _hook_for(self, layer, name)
        # the upset cache is read through every call, boundary or not
        count_inside = layer == "order" and name == "tamari_upset"
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (stack and stack[-1][1] == layer):
                result = fn(*args, **kwargs)
                if count_inside and self.active:
                    hook(result)
                return result
            span = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append((span, layer))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._id.append(span)
                self._parent.append(parent)
                self._name.append(name_idx)
                self._op.append(self.op_id)
                self._t0.append(t0)
                self._t1.append(t1)
                self.counts[f"{layer}.calls"] += 1
            if hook is not None:
                hook(result)
            return result

        return traced

    # -- phase control ------------------------------------------------------

    def start(self) -> None:
        if self._upset is not None:
            self._upset_start = self._upset.cache_info()

    def note_cli(self, result) -> None:
        """Counters the CLI reports through its exit code and stdout."""
        self.counts["cli.out_bytes"] += len(result.out.encode())
        if result.code in (1, 2):
            self.counts[f"cli.exit_{result.code}"] += 1

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer span time minus the time covered by child spans."""
        count = self._next_id
        duration = array("d", bytes(8 * count))
        covered = array("d", bytes(8 * count))
        for span, parent, t0, t1 in zip(self._id, self._parent,
                                        self._t0, self._t1):
            duration[span] = t1 - t0
            if parent >= 0:
                covered[parent] += t1 - t0
        layer_of = array("i", [LAYERS.index(n.split(".")[0])
                               for n in self.names])
        totals = [0.0] * len(LAYERS)
        for span, name_idx in zip(self._id, self._name):
            totals[layer_of[name_idx]] += duration[span] - covered[span]
        return dict(zip(LAYERS, totals))

    def upset_hit_ratio(self) -> float:
        if self._upset is None or self._upset_start is None:
            return 0.0
        now = self._upset.cache_info()
        hits = now.hits - self._upset_start.hits
        misses = now.misses - self._upset_start.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated rows, one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id\tparent\top\tname\tstart_s\tend_s\n")
            names = self.names
            for row in zip(self._id, self._parent, self._op, self._name,
                           self._t0, self._t1):
                out.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{names[row[3]]}"
                          f"\t{row[4]!r}\t{row[5]!r}\n")


def _is_function(obj, module) -> bool:
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def _hook_for(tracer: Tracer, layer: str, name: str):
    """The counter update for one wrapped function, or None."""
    lib = tracer.lib
    counts = tracer.counts
    if layer == "poly":
        polynomial = lib.poly.Polynomial

        def poly_hook(result):
            if isinstance(result, polynomial):
                terms = result.terms()
                counts["poly.terms_out"] += len(terms)
                if name == "phi_series":
                    counts["poly.degrees_solved"] += 1 + max(
                        (key[1] for key, _ in terms), default=-1)
        return poly_hook
    if layer in ("compose", "intervalposet"):
        poset_class = lib.intervalposet.IntervalPoset

        def poset_hook(result):
            if isinstance(result, poset_class):
                posets = [result]
            elif isinstance(result, (list, tuple)):
                posets = [p for p in result if isinstance(p, poset_class)]
            else:
                posets = []
            if layer == "compose":
                counts["compose.posets_out"] += len(posets)
            counts["intervalposet.relations_out"] += sum(
                len(p.relations) for p in posets)
            if name == "make_interval":
                counts["intervalposet.make_interval_attempts"] += 1
                counts["intervalposet.make_interval_accepts"] += (
                    result is not None)
        return poset_hook
    if layer == "trees":
        tree_class = lib.trees.BinaryTree

        def trees_hook(result):
            if isinstance(result, tree_class):
                counts["trees.trees_out"] += 1
            elif isinstance(result, (list, tuple, set, frozenset)):
                counts["trees.trees_out"] += sum(
                    isinstance(t, tree_class) for t in result)
        return trees_hook
    if layer == "order" and name == "tamari_upset":
        def upset_hook(result):
            counts["order.upset_trees"] += len(result)
        return upset_hook
    if layer == "mtamari":
        path_class = lib.mtamari.BallotPath
        key = ("mtamari.covers_out" if name == "path_rotation_covers"
               else "mtamari.paths_out")

        def paths_hook(result):
            if isinstance(result, path_class):
                counts[key] += 1
            elif isinstance(result, (list, tuple, set, frozenset)):
                counts[key] += sum(isinstance(p, path_class) for p in result)
        return paths_hook
    return None
