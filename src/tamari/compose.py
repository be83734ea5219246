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

from .intervalposet import IntervalPoset
from .trees import BinaryTree, _fold, _postfix


def compose(i1: IntervalPoset, i2: IntervalPoset) -> list[IntervalPoset]:
    """All terms of the composition, ordered by absorbed-root count.

    Each decreasing component of I2 is the label range from its root (its
    least label) to the next root minus one: v > r precedes r only if every
    label between them does, by decreasing closure.  So each term is the
    last one with the new vertex ORed into one more run of rows.
    """
    k1 = i1.n
    n = k1 + i2.n + 1
    new = 1 << k1  # the new vertex k1 + 1
    rows = ([row | new for row in i1.succ] + [0]
            + [row << (k1 + 1) for row in i2.succ])
    out, below = [], 0  # below: I2's labels under the row's
    for w, row in enumerate(i2.succ, k1 + 1):
        if not row & below:  # a root: the rows so far are one term
            out.append(IntervalPoset._trusted(n, tuple(rows)))
        rows[w] |= new
        below = below << 1 | 1
    out.append(IntervalPoset._trusted(n, tuple(rows)))
    return out


def decompose(poset: IntervalPoset) -> tuple[IntervalPoset, IntervalPoset]:
    """The unique (I1, I2) whose composition contains ``poset``.

    The split vertex k is the upper tree's root, the largest label that 1
    precedes or is: in compose(I1, I2) all of I1 precedes k1 + 1, and no
    vertex up to k1 + 1 precedes a larger one, so k = k1 + 1 and the root's
    left subtree is exactly 1..k-1.  The parts are the label ranges on both
    sides of k, the right one shifted down to start at 1.
    """
    if poset.n == 0:
        raise ValueError("cannot decompose the empty poset")
    succ = poset.succ
    k = (succ[0] | 1).bit_length()
    low = (1 << (k - 1)) - 1
    left = tuple([row & low for row in succ[:k - 1]])
    right = tuple([row >> k for row in succ[k:]])
    return (IntervalPoset._trusted(k - 1, left),
            IntervalPoset._trusted(poset.n - k, right))


@cache
def _posets_of_size(n: int) -> tuple[IntervalPoset, ...]:
    if n == 0:
        return (IntervalPoset._trusted(0, ()),)
    out: list[IntervalPoset] = []
    for k1 in range(n):
        for i1 in _posets_of_size(k1):
            for i2 in _posets_of_size(n - 1 - k1):
                out.extend(compose(i1, i2))
    out.sort(key=_canonical_key(n))
    return tuple(out)


def _canonical_key(n: int):
    """An int sort key on size-n posets that orders like sorted(p.relations).

    Rows bit-reversed and packed with row 1 on top put the pair (a, b) at
    bit n*n - (a-1)*n - b of R, so reading R downward lists pairs in order.
    So read, full ^ R ('0' marks a present pair) down to R's lowest pair
    lb = R & -R orders like the sorted lists: where two first differ, the
    list holding the pair reads '0', and a list that ends first reads a
    proper prefix.  Padded with zeros, (full ^ R) & -lb keeps every other
    comparison and ties a prefix at most; shifted above every lb, minus
    lb, ties go to the shorter.  R = 0 gets 0, the least: no poset holds
    (1, 1), so every other key is positive.
    """
    rev = [int(f"{row:0{n}b}"[::-1], 2) for row in range(1 << n)]
    shift, full = n * n + 1, (1 << n * n) - 1

    def key(poset: IntervalPoset) -> int:
        packed = 0
        for row in poset.succ:
            packed = packed << n | rev[row]
        low = packed & -packed
        return (((full ^ packed) & -low) << shift) - low

    return key


def enumerate_interval_posets(n: int) -> list[IntervalPoset]:
    """All interval-posets of size n, generated through the composition
    recursion (each appears exactly once), in canonical order."""
    if n < 0:
        raise ValueError("size must be non-negative")
    return list(_posets_of_size(n))


def initial_interval_sum(tree: BinaryTree) -> list[IntervalPoset]:
    """All interval-posets whose increasing part is the increasing forest
    of ``tree``: one poset per tree below it in the Tamari order."""
    return _fold(_postfix(tree), [IntervalPoset._trusted(0, ())],
                 lambda left, right: [p for i1 in left for i2 in right
                                      for p in compose(i1, i2)])
