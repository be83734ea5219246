"""Brute-force order oracles: weak order on permutations, Tamari order on trees.

Everything here is deliberately naive (full enumeration, breadth-first
closure) and size-capped; these routines are the ground truth against which
the structured algorithms are checked.  Permutations are tuples of the
values 1..n.
"""

from __future__ import annotations

import re
from collections import deque
from functools import cache

from .trees import BinaryTree, enumerate_trees, tamari_covers_up

PERM_CAP = 7
TREE_ORACLE_CAP = 8

Permutation = tuple[int, ...]


class CapacityError(ValueError):
    """Raised when a size-capped routine is asked to exceed its size cap."""


def _check_permutation(p: Permutation) -> None:
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")


def coinv(p: Permutation) -> frozenset[tuple[int, int]]:
    """Co-inversion set {(p[i], p[j]) : i < j, p[i] > p[j]}."""
    _check_permutation(p)
    return frozenset((p[i], p[j]) for i in range(len(p))
                     for j in range(i + 1, len(p)) if p[i] > p[j])


def weak_leq(p: Permutation, q: Permutation) -> bool:
    """Right weak order: p <= q iff coinv(p) is a subset of coinv(q)."""
    if len(p) != len(q):
        raise ValueError("permutations must have the same size")
    return coinv(p) <= coinv(q)


def linear_extensions_of_relation(n: int, prec,
                                  max_n: int = PERM_CAP) -> list[Permutation]:
    """All permutations of 1..n compatible with the precedence pairs.

    ``prec`` is an iterable of pairs (a, b) of labels in 1..n meaning a
    must appear before b; any other pair raises ValueError.  Output is in
    lexicographic order.
    """
    if n > max_n:
        raise CapacityError(f"linear extension enumeration capped at n={max_n}")
    preds = [0] * (n + 1)  # bit a of preds[b] is set when a precedes b
    for a, b in prec:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"pair ({a}, {b}) is not in 1..{n}")
        preds[b] |= 1 << a
    # every prefix, one level at a time; each level stays in lexicographic
    # order, since each prefix grows by its next labels in ascending order
    level: list[tuple[Permutation, int]] = [((), 0)]
    for _ in range(n):
        level = [(word + (v,), placed | 1 << v) for word, placed in level
                 for v in range(1, n + 1)
                 if not placed >> v & 1 and not preds[v] & ~placed]
    return [word for word, _ in level]


def bst_relation(tree: BinaryTree) -> set[tuple[int, int]]:
    """The binary-search-tree poset of a tree: a precedes b iff a sits in
    the subtree rooted at b (labels are in-order positions)."""
    pairs: set[tuple[int, int]] = set()
    stack = [(tree, 1)]  # a subtree and its first label
    while stack:
        t, lo = stack.pop()
        if t:
            root = lo + t.left.size
            pairs.update((a, root) for a in range(lo, lo + t.size)
                         if a != root)
            stack += (t.left, lo), (t.right, root + 1)
    return pairs


def sylvester_class(tree: BinaryTree) -> set[Permutation]:
    """All linear extensions of the tree's binary-search-tree poset."""
    if tree.size > PERM_CAP:
        raise CapacityError(f"sylvester classes capped at size {PERM_CAP}")
    return set(linear_extensions_of_relation(tree.size, bst_relation(tree)))


@cache
def tamari_upset(tree: BinaryTree) -> frozenset[BinaryTree]:
    """Breadth-first closure of covers-up: all trees >= ``tree``."""
    seen = {tree}
    queue = deque([tree])
    while queue:
        for cover in tamari_covers_up(queue.popleft()):
            if cover not in seen:
                seen.add(cover)
                queue.append(cover)
    return frozenset(seen)


def tamari_leq_oracle(t: BinaryTree, u: BinaryTree) -> bool:
    """t <= u in the Tamari order, by breadth-first rotation closure."""
    if t.size != u.size:
        raise ValueError("trees must have the same size")
    if t == u:
        return True
    return u in tamari_upset(t)


def count_intervals_bruteforce(n: int, max_n: int = TREE_ORACLE_CAP) -> int:
    """Number of pairs T <= U among size-n trees, by exhaustive closure."""
    if n > max_n:
        raise CapacityError(f"brute-force interval counting capped at n={max_n}")
    return sum(len(tamari_upset(t)) for t in enumerate_trees(n))


def format_permutation(p: Permutation) -> str:
    """Digit string for n <= 9, comma-separated values beyond."""
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def parse_permutation(text: str) -> Permutation:
    """Inverse of :func:`format_permutation`: a string of ASCII digits, one
    value each, or runs of ASCII digits separated by commas."""
    s = text.strip()
    if not re.fullmatch(r"[0-9]+(,[0-9]+)*", s):
        raise ValueError(f"not a permutation string: {text!r}")
    p = tuple(map(int, s.split(",") if "," in s else s))
    _check_permutation(p)
    return p
