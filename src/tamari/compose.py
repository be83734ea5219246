"""Composition of interval-posets, its inverse, and recursive generation.

Composing posets I1 (size k1) and I2 (size k2) yields the formal sum of all
interval-posets of size k1+k2+1 in which vertices 1..k1 carry exactly I1,
vertices k1+2..n carry I2 shifted up by k1+1, every vertex of I1 precedes
the new vertex k1+1, and k1+1 precedes nothing above it.  The free choice
is how many of I2's decreasing-forest roots v1 < v2 < ... hang below the new
vertex, and the absorbed roots must form a prefix of that list, so a poset
with m roots contributes m+1 terms.
"""

from __future__ import annotations

from functools import cache

from .intervalposet import IntervalPoset, _decreasing_roots
from .trees import BinaryTree


def compose(i1: IntervalPoset, i2: IntervalPoset) -> list[IntervalPoset]:
    """All terms of the composition, ordered by absorbed-root count."""
    k1 = i1.n
    n = k1 + i2.n + 1
    new = k1 + 1
    shifted = {(a + new, b + new) for a, b in i2.relations}
    base = set(i1.relations) | shifted | {(i, new) for i in range(1, new)}
    out = [IntervalPoset._trusted(n, frozenset(base))]
    for root in _decreasing_roots(i2):
        v = root + new
        # hanging v below the new vertex drags v's whole lower set with it
        base.add((v, new))
        base.update((w, new) for w, u in shifted if u == v)
        out.append(IntervalPoset._trusted(n, frozenset(base)))
    return out


def decompose(poset: IntervalPoset) -> tuple[IntervalPoset, IntervalPoset]:
    """The unique (I1, I2) whose composition contains ``poset``.

    The split vertex is the largest k preceded by every smaller vertex; the
    parts are the label ranges on both sides of k, the right one shifted
    down to start at 1.
    """
    if poset.n == 0:
        raise ValueError("cannot decompose the empty poset")
    rels = poset.relations
    k = max(k for k in range(1, poset.n + 1)
            if all((i, k) in rels for i in range(1, k)))
    left = frozenset((a, b) for a, b in rels if a < k and b < k)
    right = frozenset((a - k, b - k) for a, b in rels if a > k and b > k)
    return (IntervalPoset._trusted(k - 1, left),
            IntervalPoset._trusted(poset.n - k, right))


@cache
def _posets_of_size(n: int) -> tuple[IntervalPoset, ...]:
    if n == 0:
        return (IntervalPoset._trusted(0, frozenset()),)
    out: list[IntervalPoset] = []
    for k1 in range(n):
        for i1 in _posets_of_size(k1):
            for i2 in _posets_of_size(n - 1 - k1):
                out.extend(compose(i1, i2))
    out.sort(key=lambda p: sorted(p.relations))
    return tuple(out)


def enumerate_interval_posets(n: int) -> list[IntervalPoset]:
    """All interval-posets of size n, generated through the composition
    recursion (each appears exactly once), in canonical order."""
    if n < 0:
        raise ValueError("size must be non-negative")
    return list(_posets_of_size(n))


def initial_interval_sum(tree: BinaryTree) -> list[IntervalPoset]:
    """All interval-posets whose increasing part is the increasing forest
    of ``tree``: one poset per tree below it in the Tamari order."""
    if not tree:
        return [IntervalPoset._trusted(0, frozenset())]
    out: list[IntervalPoset] = []
    for i1 in initial_interval_sum(tree.left):
        for i2 in initial_interval_sum(tree.right):
            out.extend(compose(i1, i2))
    return out
