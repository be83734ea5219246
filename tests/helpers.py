"""Shared brute-force oracles and reference routes for the test suite.

The order oracles recompute data from the covering relation by closure,
independently of the structured algorithms under test, and cache per size
so exhaustive suites stay fast.  The series and tree-polynomial references
redo on sparse polynomials what the package does on packed integers, and
the interval-poset references redo on frozensets of (a, b) pairs what the
package does on per-vertex successor masks.
"""

from functools import cache
from math import comb

from tamari.intervalposet import IntervalPosetError
from tamari.mtamari import (BallotPath, MAryTree, enumerate_ballot_paths,
                            multilinear_Bm, path_upset)
from tamari.order import sylvester_class, tamari_upset
from tamari.poly import ONE, X, Polynomial, bilinear_B, delta
from tamari.trees import EMPTY, BinaryTree, enumerate_trees


@cache
def tree_upsets(n: int) -> dict[BinaryTree, frozenset[BinaryTree]]:
    return {t: tamari_upset(t) for t in enumerate_trees(n)}


@cache
def tree_leq_pairs(n: int) -> frozenset[tuple[BinaryTree, BinaryTree]]:
    return frozenset((t, u) for t, ups in tree_upsets(n).items() for u in ups)


@cache
def tree_downsets(n: int) -> dict[BinaryTree, frozenset[BinaryTree]]:
    ups = tree_upsets(n)
    trees = enumerate_trees(n)
    return {t: frozenset(u for u in trees if t in ups[u]) for t in trees}


@cache
def sylvester_classes(n: int) -> dict[BinaryTree, frozenset]:
    return {t: frozenset(sylvester_class(t)) for t in enumerate_trees(n)}


@cache
def path_upsets(m: int, n: int) -> dict[BallotPath, frozenset[BallotPath]]:
    return {p: path_upset(p) for p in enumerate_ballot_paths(m, n)}


@cache
def path_downset_sizes(m: int, n: int) -> dict[BallotPath, int]:
    ups = path_upsets(m, n)
    paths = enumerate_ballot_paths(m, n)
    return {p: sum(1 for q in paths if p in ups[q]) for p in paths}


def greedy_max_extension(n: int, relations) -> tuple[int, ...]:
    """Coinversion-maximal linear extension: always place the largest value
    whose predecessors are all placed."""
    preds = {v: set() for v in range(1, n + 1)}
    for a, b in relations:
        preds[b].add(a)
    placed: set[int] = set()
    word = []
    while len(word) < n:
        v = max(v for v in range(1, n + 1)
                if v not in placed and preds[v] <= placed)
        placed.add(v)
        word.append(v)
    return tuple(word)


def left_comb(depth: int, base: BinaryTree = EMPTY) -> BinaryTree:
    t = base
    for _ in range(depth):
        t = BinaryTree(t, EMPTY)
    return t


def right_comb(depth: int) -> BinaryTree:
    t = EMPTY
    for _ in range(depth):
        t = BinaryTree(EMPTY, t)
    return t


def mirror(tree: BinaryTree) -> BinaryTree:
    """Left-right mirror image."""
    if not tree:
        return EMPTY
    return BinaryTree(mirror(tree.right), mirror(tree.left))


def phi_series_fixed_point(max_degree: int) -> Polynomial:
    """Phi = B(Phi, Phi) + 1 by fixed-point iteration: each round of B
    raises the y-degree, so max_degree + 1 truncated rounds suffice."""
    phi = ONE
    for _ in range(max_degree + 1):
        phi = (bilinear_B(phi, phi) + ONE).truncate_y(max_degree)
    return phi


def phi_m_series_fixed_point(m: int, max_degree: int) -> Polynomial:
    """Phi = x + B(Phi, ..., Phi) with m+1 arguments, iterated likewise."""
    phi = X
    for _ in range(max_degree + 1):
        phi = (X + multilinear_Bm([phi] * (m + 1))).truncate_y(max_degree)
    return phi


def tree_poly_sparse(tree: BinaryTree, weight: Polynomial = ONE) -> Polynomial:
    """x * L * (R + weight * delta(R)) at every node: weight 1 gives
    tamari_poly, weight b gives tamari_poly_bivar."""
    if not tree:
        return ONE
    right = tree_poly_sparse(tree.right, weight)
    return X * tree_poly_sparse(tree.left, weight) * (right + weight * delta(right))


def mary_poly_sparse(tree: MAryTree) -> Polynomial:
    """x on leaves, the chained slope form on each node's children."""
    if tree.is_leaf:
        return X
    return multilinear_Bm([mary_poly_sparse(c) for c in tree.children])


def mtamari_interval_count(m: int, n: int) -> int:
    """Intervals of the m-Tamari lattice of size n, by the closed form
    (m+1)/(n(mn+1)) * C((m+1)^2 n + m, n-1) of Bousquet-Melou, Fusy and
    Preville-Ratelle (arXiv:1106.1498)."""
    if n == 0:
        return 1
    count, rest = divmod((m + 1) * comb((m + 1) ** 2 * n + m, n - 1),
                         n * (m * n + 1))
    assert rest == 0
    return count


def transitive_closure_sparse(n: int, pairs) -> frozenset[tuple[int, int]]:
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


def validate_sparse(n: int, relations) -> frozenset[tuple[int, int]]:
    """The closed relation set of a valid interval-poset, or the same
    IntervalPosetError (axiom, witness, message) that validate raises."""
    if n < 0:
        raise ValueError("size must be non-negative")
    closed = transitive_closure_sparse(n, relations)
    for p, q in sorted(closed):
        lo, hi = min(p, q), max(p, q)
        for b in range(lo + 1, hi):
            if (b, q) not in closed:
                axiom = "increasing-closure" if p < q else "decreasing-closure"
                witness = (p, b, q) if p < q else (q, b, p)
                raise IntervalPosetError(
                    f"{axiom} violated: {p}<{q} needs {b}<{q}, "
                    f"witness {witness}", axiom, witness)
    return closed


def decreasing_roots_sparse(n: int, relations) -> list[int]:
    inner = {a for a, b in relations if a > b}
    return [v for v in range(1, n + 1) if v not in inner]


def compose_sparse(k1: int, rels1, k2: int, rels2) -> list[tuple[int, frozenset]]:
    """(size, relations) of every composition term, by absorbed-root count."""
    n = k1 + k2 + 1
    new = k1 + 1
    shifted = {(a + new, b + new) for a, b in rels2}
    base = set(rels1) | shifted | {(i, new) for i in range(1, new)}
    out = [(n, frozenset(base))]
    for root in decreasing_roots_sparse(k2, rels2):
        v = root + new
        base.add((v, new))
        base.update((w, new) for w, u in shifted if u == v)
        out.append((n, frozenset(base)))
    return out


def decompose_sparse(n: int, rels) -> tuple[tuple[int, frozenset],
                                            tuple[int, frozenset]]:
    """(size, relations) of the two factors of the unique decomposition."""
    k = max(k for k in range(1, n + 1)
            if all((i, k) in rels for i in range(1, k)))
    left = frozenset((a, b) for a, b in rels if a < k and b < k)
    right = frozenset((a - k, b - k) for a, b in rels if a > k and b > k)
    return (k - 1, left), (n - k, right)
