"""Interval-posets: posets on {1..n} encoding intervals of the Tamari lattice.

A poset relation (written a prec b, stored as the pair (a, b)) says that a
must come before b in every linear extension.  A poset on {1..n} is an
interval-poset when both closure axioms hold:

* increasing closure: a prec c with a < c forces b prec c for all a < b < c;
* decreasing closure: c prec a with a < c forces b prec a for all a < b < c.

The decreasing relations alone then form the poset of a unique binary search
tree (the lower end of the interval) and the increasing relations that of
another (the upper end).  Relations are stored transitively closed; the text
format serializes the transitive reduction.
"""

from __future__ import annotations

from .order import (PERM_CAP, TREE_ORACLE_CAP, CapacityError, Permutation,
                    linear_extensions_of_relation, tamari_leq_oracle)
from .poly import Polynomial
from .trees import EMPTY, BinaryTree, enumerate_trees

Relation = frozenset[tuple[int, int]]


class IntervalPosetError(ValueError):
    """Validation failure; carries the violated axiom and a witness."""

    def __init__(self, message: str, axiom: str, witness: tuple):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class IntervalPoset:
    """Immutable interval-poset with transitively closed relation set."""

    __slots__ = ("n", "relations", "_hash")

    def __init__(self, n: int, relations=()):
        checked = validate(n, relations)
        self.n = checked.n
        self.relations = checked.relations
        self._hash = checked._hash

    @classmethod
    def _trusted(cls, n: int, relations: Relation) -> IntervalPoset:
        # internal: relations must already be closed and axiom-clean
        poset = object.__new__(cls)
        poset.n = n
        poset.relations = relations
        poset._hash = hash((n, relations))
        return poset

    def prec(self, a: int, b: int) -> bool:
        return (a, b) in self.relations

    def increasing_relations(self) -> set[tuple[int, int]]:
        return {(a, b) for a, b in self.relations if a < b}

    def decreasing_relations(self) -> set[tuple[int, int]]:
        return {(a, b) for a, b in self.relations if a > b}

    def covers(self) -> list[tuple[int, int]]:
        """Transitive reduction, sorted by (a, b)."""
        rels = self.relations
        return sorted((a, b) for a, b in rels
                      if not any((a, c) in rels and (c, b) in rels
                                 for c in range(1, self.n + 1)))

    def to_text(self) -> str:
        header = f"n={self.n}"
        body = ",".join(f"{a}<{b}" for a, b in self.covers())
        return f"{header}\n{body}"

    @classmethod
    def from_text(cls, text: str) -> IntervalPoset:
        lines = text.strip().splitlines()
        if not lines or not lines[0].startswith("n="):
            raise ValueError("poset text must start with an 'n=<int>' line")
        if len(lines) > 2:
            raise ValueError("poset text takes one line of relations, "
                             f"got {len(lines) - 1}")
        n = int(lines[0][2:])
        pairs = []
        body = lines[1].strip() if len(lines) > 1 else ""
        if body:
            for token in body.split(","):
                a, sep, b = token.partition("<")
                if not sep or not a.isdigit() or not b.isdigit():
                    raise ValueError(f"malformed relation token {token!r}")
                pairs.append((int(a), int(b)))
        return cls(n, pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalPoset):
            return NotImplemented
        return self.n == other.n and self.relations == other.relations

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<IntervalPoset {self.to_text().replace(chr(10), ' ')}>"


def _transitive_closure(n: int, pairs) -> Relation:
    succ: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for a, b in pairs:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"relation ({a},{b}) out of range 1..{n}")
        if a == b:
            raise IntervalPosetError(
                f"antisymmetry violated: reflexive relation {a}<{a}",
                "antisymmetry", (a, a))
        succ[a].add(b)
    for k in range(1, n + 1):
        for a in range(1, n + 1):
            if k in succ[a]:
                succ[a] |= succ[k]
    for a in range(1, n + 1):
        if a in succ[a]:
            b = min(v for v in succ[a] if v != a and a in succ[v])
            raise IntervalPosetError(
                f"antisymmetry violated: cycle through {a} and {b}",
                "antisymmetry", (a, b))
    return frozenset((a, b) for a in range(1, n + 1) for b in succ[a])


def validate(n: int, relations) -> IntervalPoset:
    """Close the given relation pairs and check the interval-poset axioms.

    Returns the poset, or raises :class:`IntervalPosetError` naming the
    first violated axiom with a concrete witness: a pair for an antisymmetry
    failure, a triple (a, b, c) with a < b < c for a closure failure.
    """
    if n < 0:
        raise ValueError("size must be non-negative")
    closed = _transitive_closure(n, relations)
    for p, q in sorted(closed):
        lo, hi = min(p, q), max(p, q)
        for b in range(lo + 1, hi):
            if (b, q) not in closed:
                axiom = "increasing-closure" if p < q else "decreasing-closure"
                witness = (p, b, q) if p < q else (q, b, p)
                raise IntervalPosetError(
                    f"{axiom} violated: {p}<{q} needs {b}<{q}, "
                    f"witness {witness}", axiom, witness)
    return IntervalPoset._trusted(n, closed)


def _forest_relations(tree: BinaryTree, increasing: bool) -> set[tuple[int, int]]:
    pairs: set[tuple[int, int]] = set()

    def walk(t: BinaryTree, lo: int) -> None:
        if not t:
            return
        root = lo + t.left.size
        hi = lo + t.size - 1
        if increasing:
            pairs.update((a, root) for a in range(lo, root))
        else:
            pairs.update((b, root) for b in range(root + 1, hi + 1))
        walk(t.left, lo)
        walk(t.right, root + 1)

    walk(tree, 1)
    return pairs


def inc_forest(tree: BinaryTree) -> IntervalPoset:
    """Increasing part of the tree's BST poset: a prec b iff a < b and a
    lies in the subtree rooted at b."""
    return IntervalPoset._trusted(
        tree.size, frozenset(_forest_relations(tree, increasing=True)))


def dec_forest(tree: BinaryTree) -> IntervalPoset:
    """Decreasing part: b prec a iff b > a and b lies in a's subtree."""
    return IntervalPoset._trusted(
        tree.size, frozenset(_forest_relations(tree, increasing=False)))


def make_interval(lower: BinaryTree, upper: BinaryTree) -> IntervalPoset | None:
    """The interval-poset of [lower, upper], or None when incomparable.

    Takes the closure of dec_forest(lower) with inc_forest(upper) and keeps
    it only if it is a valid interval-poset reproducing both endpoints.
    """
    if lower.size != upper.size:
        raise ValueError("trees must have the same size")
    pairs = (_forest_relations(lower, increasing=False)
             | _forest_relations(upper, increasing=True))
    try:
        poset = validate(lower.size, pairs)
    except IntervalPosetError:
        return None
    if lower_tree(poset) != lower or upper_tree(poset) != upper:
        return None
    return poset


def lower_tree(poset: IntervalPoset) -> BinaryTree:
    """The tree whose decreasing forest matches the poset's decreasing part.

    The root of the tree on a label range is the smallest label r such that
    every larger label in the range sits below r; the two sides recurse.
    """
    dec = poset.decreasing_relations()

    def build(labels: list[int]) -> BinaryTree:
        if not labels:
            return EMPTY
        root = next(r for r in labels
                    if all((b, r) in dec for b in labels if b > r))
        i = labels.index(root)
        return BinaryTree(build(labels[:i]), build(labels[i + 1:]))

    return build(list(range(1, poset.n + 1)))


def upper_tree(poset: IntervalPoset) -> BinaryTree:
    """Mirror reconstruction from the increasing part: the root of a label
    range is the largest label with every smaller label below it."""
    inc = poset.increasing_relations()

    def build(labels: list[int]) -> BinaryTree:
        if not labels:
            return EMPTY
        root = next(r for r in reversed(labels)
                    if all((a, r) in inc for a in labels if a < r))
        i = labels.index(root)
        return BinaryTree(build(labels[:i]), build(labels[i + 1:]))

    return build(list(range(1, poset.n + 1)))


def intersect(i1: IntervalPoset, i2: IntervalPoset) -> IntervalPoset | None:
    """Interval intersection: union of relations, or None when empty."""
    if i1.n != i2.n:
        raise ValueError("posets must have the same size")
    try:
        return validate(i1.n, i1.relations | i2.relations)
    except IntervalPosetError:
        return None


def interval_contains(outer: IntervalPoset, inner: IntervalPoset) -> bool:
    """Whether the interval of ``inner`` sits inside that of ``outer``.

    The smaller interval carries the larger relation set, so this is the
    subset test relations(outer) <= relations(inner).
    """
    if outer.n != inner.n:
        raise ValueError("posets must have the same size")
    return outer.relations <= inner.relations


def is_decreasing_refinement(base: IntervalPoset, refined: IntervalPoset) -> bool:
    """All of base's relations hold in refined and every new relation is
    decreasing; equivalently the two intervals share their upper tree and
    refined's lower tree is weakly higher."""
    if base.n != refined.n:
        raise ValueError("posets must have the same size")
    return (base.relations <= refined.relations
            and all(a > b for a, b in refined.relations - base.relations))


def is_increasing_refinement(base: IntervalPoset, refined: IntervalPoset) -> bool:
    """Mirror of :func:`is_decreasing_refinement`: new relations increasing,
    shared lower tree, weakly lower upper tree."""
    if base.n != refined.n:
        raise ValueError("posets must have the same size")
    return (base.relations <= refined.relations
            and all(a < b for a, b in refined.relations - base.relations))


def linear_extensions(poset: IntervalPoset,
                      max_n: int = PERM_CAP) -> set[Permutation]:
    """All permutations compatible with the poset (capped at size 7)."""
    return set(linear_extensions_of_relation(poset.n, poset.relations,
                                             max_n=max_n))


def trees_in_interval(poset: IntervalPoset,
                      max_n: int = TREE_ORACLE_CAP) -> list[BinaryTree]:
    """All trees between the poset's lower and upper trees, oracle-filtered,
    in canonical order."""
    if poset.n > max_n:
        raise CapacityError(f"interval tree listing capped at n={max_n}")
    lo, hi = lower_tree(poset), upper_tree(poset)
    return [t for t in enumerate_trees(poset.n)
            if tamari_leq_oracle(lo, t) and tamari_leq_oracle(t, hi)]


def _decreasing_roots(poset: IntervalPoset) -> list[int]:
    """Roots of the decreasing forest, ascending.

    Decreasing closure makes the smaller labels that a vertex precedes a
    chain, so the decreasing relations form a forest poset.  In each
    component the root is the only vertex that precedes no smaller label,
    and it is also the component's minimal label.
    """
    inner = {a for a, b in poset.relations if a > b}
    return [v for v in range(1, poset.n + 1) if v not in inner]


def decreasing_components(poset: IntervalPoset) -> int:
    """Number of connected components of the decreasing forest, counting
    isolated vertices; equals the lower tree's left border count."""
    return len(_decreasing_roots(poset))


def stat_monomial(poset: IntervalPoset) -> Polynomial:
    """The statistic monomial x^(decreasing components) * y^n * b^(vertices
    with an incoming decreasing relation)."""
    targets = {b for a, b in poset.relations if a > b}
    return Polynomial.monomial(1, ex=decreasing_components(poset),
                               ey=poset.n, eb=len(targets))
