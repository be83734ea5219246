"""Interval-posets: posets on {1..n} encoding intervals of the Tamari lattice.

A poset relation (written a prec b) says that a must come before b in every
linear extension.  A poset on {1..n} is an interval-poset when both closure
axioms hold:

* increasing closure: a prec c with a < c forces b prec c for all a < b < c;
* decreasing closure: c prec a with a < c forces b prec a for all a < b < c.

The decreasing relations alone then form the poset of a unique binary search
tree (the lower end of the interval) and the increasing relations that of
another (the upper end).  The interval [T, T'] is the union of the decreasing
forest of T and the increasing forest of T'.

A poset is the tuple of its rows, one closed successor mask per vertex:
bit b-1 of ``p[a-1]`` is set iff a prec b, and its size is ``len(p)``.
Arbitrary relations are closed by a Warshall pass and checked along
neighbouring rows; a union of two forests needs one test at each vertex's
two nearest successors.  The text format serializes the transitive
reduction.
"""

from __future__ import annotations

import re
from functools import cache
from operator import le

from .order import (PERM_CAP, TREE_ORACLE_CAP, CapacityError, Permutation,
                    linear_extensions_of_relation)
from .poly import Polynomial
from .trees import (BinaryTree, _bracket_vectors, _literals, _trees_of_size,
                    _vector_tree)


class IntervalPosetError(ValueError):
    """Validation failure; carries the violated axiom and a witness."""

    def __init__(self, message: str, axiom: str, witness: tuple):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


def _labels(mask: int):
    """The labels whose bits are set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _span(lo: int, hi: int) -> int:
    """Mask of the labels lo..hi (empty when lo > hi)."""
    return (1 << hi) - (1 << (lo - 1)) if lo <= hi else 0


def _through_nearest(succ, a: int) -> int:
    """OR of the rows of a's nearest successors below and above it (the
    largest smaller and smallest larger label in its row; 0 if none).  In
    an interval-poset each side is a chain led by that vertex, so in a
    closed poset these are the relations of a implied through another."""
    row = succ[a - 1]
    below, above = row & _span(1, a - 1), row >> a
    implied = succ[below.bit_length() - 1] if below else 0
    if above:
        implied |= succ[a + (above & -above).bit_length() - 1]
    return implied


class IntervalPoset(tuple):
    """Immutable interval-poset: the tuple of its closed successor masks,
    bit b-1 of ``p[a-1]`` set iff a prec b.  Equal only to a poset with the
    same rows (never to a plain tuple), unordered, and true even when
    empty: test emptiness with ``len``."""

    __slots__ = ()

    def __new__(cls, n: int, relations=()):
        return validate(n, relations)

    n = property(len)

    @property
    def relations(self) -> frozenset[tuple[int, int]]:
        """Every (a, b) with a prec b, derived from the masks."""
        return frozenset((a, b) for a, row in enumerate(self, 1)
                         for b in _labels(row))

    def covers(self) -> list[tuple[int, int]]:
        """Transitive reduction, sorted by (a, b)."""
        return [(a, b) for a, row in enumerate(self, 1)
                for b in _labels(row & ~_through_nearest(self, a))]

    def to_text(self) -> str:
        header = f"n={len(self)}"
        body = ",".join(f"{a}<{b}" for a, b in self.covers())
        return f"{header}\n{body}"

    @classmethod
    def from_text(cls, text: str) -> IntervalPoset:
        """Inverse of :meth:`to_text`; numbers are ASCII digits only."""
        lines = text.strip().splitlines()
        header = re.fullmatch(r"n=([0-9]+)", lines[0]) if lines else None
        if header is None:
            raise ValueError("poset text must start with an 'n=<int>' line, "
                             f"got {lines[0] if lines else ''!r}")
        if len(lines) > 2:
            raise ValueError("poset text takes one line of relations, "
                             f"got {len(lines) - 1}")
        pairs = []
        body = lines[1].strip() if len(lines) > 1 else ""
        if body:
            for token in body.split(","):
                relation = re.fullmatch(r"([0-9]+)<([0-9]+)", token)
                if relation is None:
                    raise ValueError(f"malformed relation token {token!r}")
                pairs.append((int(relation[1]), int(relation[2])))
        return cls(int(header[1]), pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalPoset) and tuple.__eq__(self, other)

    __hash__ = tuple.__hash__
    # as for any object: != negates ==, and there is no order
    __ne__, __lt__, __le__ = object.__ne__, object.__lt__, object.__le__
    __gt__, __ge__ = object.__gt__, object.__ge__

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"<IntervalPoset {self.to_text().replace(chr(10), ' ')}>"


# builds a poset from rows already closed and axiom-clean, in one C call, as
# _new(IntervalPoset, rows): 229 ns for 7 rows (238 ns as a types.MethodType,
# 285 ns as a functools.partial; 2-core x86_64, Python 3.11.7)
_new = tuple.__new__
_EMPTY_POSET = _new(IntervalPoset, ())  # shared, never built again


def _close_and_check(n: int, succ: list[int]) -> IntervalPoset:
    """Close the masks in place and check antisymmetry and both axioms:
    p prec q with q > p+1 breaks increasing closure iff row p+1 misses q
    or p+1 prec q breaks it, so one pass down the rows marks them all."""
    for k in range(n):
        bit, row = 1 << k, succ[k]
        for a in range(n):
            if succ[a] & bit:
                succ[a] |= row
    for a in range(n):
        bit = 1 << a
        if succ[a] & bit:
            b = next(v for v in _labels(succ[a] ^ bit) if succ[v - 1] & bit)
            raise IntervalPosetError(
                f"antisymmetry violated: cycle through {a + 1} and {b}",
                "antisymmetry", (a + 1, b))
    bad = [0] * n  # bit q-1 of bad[p-1] set: p prec q breaks an axiom
    for a in range(n - 3, -1, -1):
        bad[a] = succ[a] >> a + 2 << a + 2 & (bad[a + 1] | ~succ[a + 1])
    # a smaller q that row p-1 holds but a label between misses makes row
    # p-1 fail first, so on this side only row p-1 itself is tested
    for a in range(2, n):
        bad[a] |= succ[a] & (1 << a - 1) - 1 & ~succ[a - 1]
    for p, row in enumerate(bad, 1):
        if row:
            q = (row & -row).bit_length()
            b = min(p, q) + 1
            while succ[b - 1] >> q - 1 & 1:
                b += 1
            axiom = "increasing-closure" if p < q else "decreasing-closure"
            witness = (p, b, q) if p < q else (q, b, p)
            raise IntervalPosetError(
                f"{axiom} violated: {p}<{q} needs {b}<{q}, "
                f"witness {witness}", axiom, witness)
    return _new(IntervalPoset, succ)


def validate(n: int, relations) -> IntervalPoset:
    """Close the given relation pairs and check the interval-poset axioms.

    Returns the poset, or raises :class:`IntervalPosetError` naming the
    first violated axiom with a concrete witness: a pair for an antisymmetry
    failure, a triple (a, b, c) with a < b < c for a closure failure.
    """
    if n < 0:
        raise ValueError("size must be non-negative")
    succ = [0] * n
    for a, b in relations:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"relation ({a},{b}) out of range 1..{n}")
        if a == b:
            raise IntervalPosetError(
                f"antisymmetry violated: reflexive relation {a}<{a}",
                "antisymmetry", (a, a))
        succ[a - 1] |= 1 << (b - 1)
    return _close_and_check(n, succ)


def _forest_masks(tree: BinaryTree, increasing: bool) -> list[int]:
    """Each vertex's successors in one forest of the tree: the ancestors
    whose left subtree holds it (increasing) or whose right one does."""
    succ = [0] * tree.size
    stack = [(tree, 1, 0)]  # a subtree, its first label, its ancestors' mask
    while stack:
        t, lo, above = stack.pop()
        if t:
            root = lo + t.left.size
            succ[root - 1] = above
            bit = 1 << (root - 1)
            stack += ((t.left, lo, above | bit if increasing else above),
                      (t.right, root + 1, above if increasing else above | bit))
    return succ


def inc_forest(tree: BinaryTree) -> IntervalPoset:
    """Increasing part of the tree's BST poset: a prec b iff a < b and a
    lies in the subtree rooted at b."""
    return _new(IntervalPoset, _forest_masks(tree, increasing=True))


def dec_forest(tree: BinaryTree) -> IntervalPoset:
    """Decreasing part: b prec a iff b > a and b lies in a's subtree."""
    return _new(IntervalPoset, _forest_masks(tree, increasing=False))


def make_interval(lower: BinaryTree, upper: BinaryTree) -> IntervalPoset | None:
    """The interval-poset of [lower, upper], or None when incomparable.

    It is the union of dec_forest(lower) and inc_forest(upper), accepted
    when each row contains those of its two nearest successors (2n mask
    tests, :func:`_through_nearest`).  A forest row is the chain of the
    vertex's ancestors in that forest, nearest first, so these tests make
    the union closed.  A closed union of the forests satisfies both axioms
    (each part is one forest) and is antisymmetric (no row holds its own
    vertex).  By the bijection, the union is closed exactly when
    lower <= upper, and its endpoints are then lower and upper.
    """
    if lower.size != upper.size:
        raise ValueError("trees must have the same size")
    succ = [d | i for d, i in zip(_forest_masks(lower, increasing=False),
                                  _forest_masks(upper, increasing=True))]
    if any(_through_nearest(succ, v) & ~row for v, row in enumerate(succ, 1)):
        return None
    return _new(IntervalPoset, succ)


def intersect(i1: IntervalPoset, i2: IntervalPoset) -> IntervalPoset | None:
    """Interval intersection: union of relations, or None when empty."""
    if len(i1) != len(i2):
        raise ValueError("posets must have the same size")
    try:
        return _close_and_check(len(i1), [a | b for a, b in zip(i1, i2)])
    except IntervalPosetError:
        return None


def interval_contains(outer: IntervalPoset, inner: IntervalPoset) -> bool:
    """Whether the interval of ``inner`` sits inside that of ``outer``.

    The smaller interval carries the larger relation set, so this is the
    subset test relations(outer) <= relations(inner).
    """
    if len(outer) != len(inner):
        raise ValueError("posets must have the same size")
    return not any(o & ~i for o, i in zip(outer, inner))


def is_decreasing_refinement(base: IntervalPoset, refined: IntervalPoset) -> bool:
    """All of base's relations hold in refined and every new relation is
    decreasing; equivalently the two intervals share their upper tree and
    refined's lower tree is weakly higher.  Once base's rows are contained
    in refined's, the XOR of the two rows of a holds a's new relations."""
    return interval_contains(base, refined) and not any(
        (b ^ r) >> a for a, (b, r) in enumerate(zip(base, refined), 1))


def is_increasing_refinement(base: IntervalPoset, refined: IntervalPoset) -> bool:
    """Mirror of :func:`is_decreasing_refinement`: new relations increasing,
    shared lower tree, weakly lower upper tree."""
    return interval_contains(base, refined) and not any(
        (b ^ r) & _span(1, a - 1)
        for a, (b, r) in enumerate(zip(base, refined), 1))


def linear_extensions(poset: IntervalPoset,
                      max_n: int = PERM_CAP) -> list[Permutation]:
    """All permutations compatible with the poset, in lexicographic order
    (capped at size 7)."""
    return linear_extensions_of_relation(len(poset), poset.relations,
                                         max_n=max_n)


def _lower_vector(poset: IntervalPoset) -> list[int]:
    """The bracket vector of the lower tree (right-subtree sizes by 0-based
    label), read off the rows with no tree built.  In the lower tree a
    larger label b precedes a exactly when b lies in a's right subtree;
    these b run on from a+1 (decreasing closure), so a's end jumps to the
    end of the label after it while that label precedes a."""
    n = len(poset)
    end = list(range(n))  # 0-based, as the labels of the bracket vectors
    for a in range(n - 2, -1, -1):
        while end[a] < n - 1 and poset[end[a] + 1] >> a & 1:
            end[a] = end[end[a] + 1]
    return [e - a for a, e in enumerate(end)]


def _upper_vector(poset: IntervalPoset) -> list[int]:
    """The bracket vector of the upper tree, read off the rows.  In the
    upper tree a precedes a larger label b exactly when a lies in b's left
    subtree, so a's right subtree ends just below the smallest larger
    label a precedes, or at n."""
    return [(above & -above).bit_length() - 1 if (above := row >> a)
            else len(poset) - a for a, row in enumerate(poset, 1)]


def lower_tree(poset: IntervalPoset) -> BinaryTree:
    """The tree whose decreasing forest matches the poset's decreasing part."""
    return _vector_tree(_lower_vector(poset))


def upper_tree(poset: IntervalPoset) -> BinaryTree:
    """The tree whose increasing forest matches the poset's increasing part."""
    return _vector_tree(_upper_vector(poset))


def _interval_positions(poset: IntervalPoset, max_n: int) -> list[int]:
    """The positions in :func:`~tamari.trees.enumerate_trees` (n) of the
    trees between the poset's lower and upper trees: those whose bracket
    vector lies componentwise between the two ends' (Huang and Tamari,
    1972)."""
    if len(poset) > max_n:
        raise CapacityError(f"interval tree listing capped at n={max_n}")
    lo, hi = _lower_vector(poset), _upper_vector(poset)
    return [i for i, v in enumerate(_bracket_vectors(len(poset)))
            if all(map(le, lo, v)) and all(map(le, v, hi))]


def trees_in_interval(poset: IntervalPoset,
                      max_n: int = TREE_ORACLE_CAP) -> list[BinaryTree]:
    """All trees between the poset's lower and upper trees, in canonical
    order."""
    positions = _interval_positions(poset, max_n)  # checks the cap first
    elements = _trees_of_size(len(poset))
    return [elements[i] for i in positions]


def interval_literals(poset: IntervalPoset,
                      max_n: int = TREE_ORACLE_CAP) -> list[str]:
    """The literals of :func:`trees_in_interval` (poset), in that order,
    taken from the table of literals of the poset's size, so no tree is
    formatted."""
    positions = _interval_positions(poset, max_n)  # checks the cap first
    literals = _literals(len(poset))
    return [literals[i] for i in positions]


_stat = cache(Polynomial.monomial)  # Polynomial is immutable: share them


def stat_monomial(poset: IntervalPoset) -> Polynomial:
    """The statistic monomial x^(decreasing components) * y^n * b^(vertices
    with an incoming decreasing relation), read in one pass over the rows.
    A component's root is its least label, the one row with no smaller
    successor, so x counts the contacts: the lower tree's left border."""
    roots = targets = below = 0  # below: the labels smaller than the row's
    for row in poset:
        if down := row & below:
            targets |= down
        else:
            roots += 1
        below = below << 1 | 1
    return _stat(1, roots, len(poset), targets.bit_count())
