"""Shared brute-force oracles and reference routes for the test suite.

The order oracles recompute data from the covering relation by closure,
independently of the structured algorithms under test, and cache per size
so exhaustive suites stay fast.  The series and tree-polynomial references
redo on sparse polynomials what the package does on dense coefficient
lists.
"""

from functools import cache
from math import comb

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
