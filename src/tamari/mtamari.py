"""m-ballot paths, the rotation lattice on them, and their counting routes.

An m-ballot path takes n north and m*n east steps from the origin and stays
weakly above the line x = m*y; m=1 gives Dyck paths.  Rotation swaps an east
step that is immediately followed by a north step with the shortest factor
after it that is a translated m-ballot word; repeated rotation generates the
m-Tamari lattice.

Paths correspond to trees whose internal nodes have m+1 children, via a
prefix reading taken right to left: each node contributes a north step, each
leaf an east step, and the trailing east step is dropped.  Applying the
chained slope form to the children of every node (and x to every leaf)
yields a counting polynomial for the path's lower set, checked here at x=1.

The m-Tamari series comes from the solver in :mod:`tamari.poly`, whose m = 1
case is Chapoton's equation for Tamari intervals, the path polynomials from
its tree fold, and the path counts of one size from that fold shared by
all the trees of that size, each on polynomials in x packed into single
ints.
"""

from __future__ import annotations

import re
from functools import cache
from operator import attrgetter

from .poly import (Polynomial, _chain_fold, _fuss_catalan, _series_layers,
                   _slot_sum, _slot_width, _times_slope, _to_polynomial)
from .trees import _ballot_walk, _fold, _postfix


class BallotPath:
    """Immutable m-ballot path; ``steps`` is a word over {N, E}."""

    __slots__ = ("m", "steps", "_hash")

    def __init__(self, m: int, steps: str):
        if m < 1:
            raise ValueError("slope parameter m must be at least 1")
        bad = set(steps) - {"N", "E"}
        if bad:
            raise ValueError(f"path may only contain N and E, got {bad!r}")
        norths = easts = 0
        for i, step in enumerate(steps):
            if step == "N":
                norths += 1
            else:
                easts += 1
            if easts > m * norths:
                raise ValueError(f"path dips below x = {m}y at position {i}")
        if easts != m * norths:
            raise ValueError(f"expected {m} east steps per north step")
        self.m = m
        self.steps = steps
        self._hash = hash((m, steps))

    @classmethod
    def _trusted(cls, m: int, steps: str) -> BallotPath:
        # internal: ``steps`` must already be an m-ballot word
        path = object.__new__(cls)
        path.m = m
        path.steps = steps
        path._hash = hash((m, steps))
        return path

    @property
    def n(self) -> int:
        return len(self.steps) // (self.m + 1)

    def to_text(self) -> str:
        return f"m={self.m}:{self.steps}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, BallotPath):
            return NotImplemented
        return self.m == other.m and self.steps == other.steps

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<BallotPath {self.to_text()}>"


def parse_ballot_path(text: str) -> BallotPath:
    """Parse the ``m=<int>:<word>`` form; m is ASCII digits only."""
    head, sep, word = text.strip().partition(":")
    slope = re.fullmatch(r"m=([0-9]+)", head)
    if not sep or slope is None:
        raise ValueError(f"expected 'm=<int>:<word>', got {text!r}")
    return BallotPath(int(slope[1]), word)


def enumerate_ballot_paths(m: int, n: int) -> list[BallotPath]:
    """All m-ballot paths of size n, N-before-E lexicographic order."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    return list(_ballot_paths(m, n))


@cache
def _ballot_paths(m: int, n: int) -> tuple[BallotPath, ...]:
    """The paths :func:`enumerate_ballot_paths` lists, built once per m and
    n, so that one size's paths are the same objects in every listing and
    in the :func:`path_upset` cache: the ballot-word walk
    :func:`tamari.trees._ballot_walk` with the word as its state."""
    words = _ballot_walk(m, n, "", lambda w: w + "N", lambda w: w + "E")
    return tuple([BallotPath._trusted(m, word) for word in words])


def path_rotation_covers(path: BallotPath) -> set[BallotPath]:
    """One rotation step: for each east step followed by a north step, swap
    it with the shortest following factor whose east deficit returns to
    zero (a translated m-ballot word)."""
    word, m = path.steps, path.m
    covers = set()
    for i in range(len(word) - 1):
        if word[i] == "E" and word[i + 1] == "N":
            deficit = 0
            for j in range(i + 1, len(word)):
                deficit += m if word[j] == "N" else -1
                if deficit == 0:
                    break
            rotated = word[:i] + word[i + 1:j + 1] + "E" + word[j + 1:]
            covers.add(BallotPath._trusted(m, rotated))
    return covers


@cache
def path_upset(path: BallotPath) -> frozenset[BallotPath]:
    """All paths reachable from ``path`` by rotations, itself included."""
    return frozenset({path}.union(*map(path_upset, path_rotation_covers(path))))


class MAryTree:
    """Immutable tree whose internal nodes have a fixed number of children;
    a leaf has none."""

    __slots__ = ("children", "_hash")

    def __init__(self, children: tuple[MAryTree, ...] = ()):
        self.children = tuple(children)
        self._hash = hash(tuple(c._hash for c in self.children))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __eq__(self, other) -> bool:
        if not isinstance(other, MAryTree):
            return NotImplemented
        # the postfix code determines the tree
        return self._hash == other._hash and (
            _postfix(self, _mary_children) == _postfix(other, _mary_children))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return _fold(_postfix(self, _mary_children), "Leaf",
                     lambda *parts: f"Node({', '.join(parts)})")


LEAF = MAryTree()
_mary_children = attrgetter("children")


def path_to_mary_prefix(path: BallotPath) -> MAryTree:
    """The tree whose right-to-left prefix reading gives the path."""
    return _fold(_path_code(path), LEAF, lambda *children: MAryTree(children))


def _path_code(path: BallotPath) -> list[int]:
    """The postfix code of :func:`path_to_mary_prefix`'s tree: the word
    plus the dropped trailing east step, read backwards, with E a leaf
    and N a node whose m+1 children are the last m+1 trees read.  The
    ballot condition is what makes this code close exactly at the last
    step."""
    arity = path.m + 1
    return [arity if step == "N" else 0
            for step in reversed(path.steps + "E")]


def path_counts(m: int, n: int) -> dict[str, int]:
    """The number of paths below each m-ballot path of size n, itself
    included, by the path's step word: :func:`mary_tamari_poly` of the
    path's tree at x = y = 1, from one fold of every tree of up to n nodes,
    with no tree object and no polynomial.

    The fold is :func:`tamari.poly._chain_fold`'s, shared: the trees of one
    size are nodes over the chains of m+1 children of one size less, and
    the chain over a node's last j children is the first of them times D
    of the chain over the other j-1, formed once per such pair and read
    by every tree that ends in it.  A chain over leaves is x, and
    D(x) = 1, so a chain whose first child holds all its nodes is that
    child's value.  Every tree and chain carries its children's readings
    from last to first, and a tree's reading (its path word and the
    dropped trailing east step) is N and then its root chain's.

    Width: a chain over a node's last j children has s < n nodes between
    them, and with leaves for the first m+1-j children it becomes the root
    chain of a tree of s+1 <= n nodes.  A leaf in front turns a chain c
    into x * D(c), or leaves it when c = x, and D(c)(1) >= c(1), as c is
    divisible by x, so the chain's value at x = 1 is at most that tree's,
    which counts the paths below a path of size s+1: at most the
    Fuss-Catalan count C((m+1)n, n) / (mn+1) (see
    :func:`tamari.poly._fuss_catalan`).  The coefficients are
    non-negative, so that bound covers every coefficient of every chain and
    every partial sum that :func:`tamari.poly._slope` forms, and one width
    holds every chain.  Each count, a root chain's value at x = 1, is below
    2^width, and :func:`tamari.poly._slot_sum` reads it off with one
    remainder."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    width = _slot_width(_fuss_catalan(m + 1, n))

    def link(t, r):  # t * D(r), each (power, packed, reading); D(x) = 1
        lower = t[1]
        if r[1] != 1 or r[0] != 1:
            lower = _times_slope(lower, r[0], r[1], width)
        return t[0], lower, r[2] + t[2]

    # sizes[s][j]: the chains over j+1 children with s nodes between them,
    # which for j = 0 are the trees of s nodes; over leaves each is x
    sizes = [[[(1, 1, "E" * j)] for j in range(1, m + 2)]]
    for s in range(n):
        chains = sizes[s]  # all of them for s = 0, else only the trees
        for j in range(len(chains), m + 1):
            chains.append([link(t, r) for i in range(s + 1)
                           for t in sizes[i][0] for r in sizes[s - i][j - 1]])
        sizes.append([[(power + 1, packed, "N" + word)
                       for power, packed, word in chains[m]]])
    return {word[:-1]: _slot_sum(packed, width)
            for _, packed, word in sizes[n][0]}


def phi_m_series(m: int, max_degree: int) -> Polynomial:
    """The m-Tamari interval series through y^max_degree, the solution of
    Phi = x + B(Phi, ..., Phi) with m+1 arguments.

    The chained form nests C_1 = Phi and C_(j+1) = Phi * delta(C_j), so
    Phi = x + xy * Phi * delta(C_m).  Phi is x times the series that
    :mod:`tamari.poly` solves degree by degree for every m; at m = 1 that
    series is :func:`tamari.poly.phi_series`.
    """
    if m < 1:
        raise ValueError("slope parameter m must be at least 1")
    if max_degree < 0:
        raise ValueError("series order must be non-negative")
    return _to_polynomial(*_series_layers(m, max_degree), shift=1)


def mary_tamari_poly(tree: MAryTree) -> Polynomial:
    """Counting polynomial of a prefix-read tree: x on leaves, the chained
    slope form on each node's children in left-to-right order, and y on
    each node: :func:`tamari.poly._chain_fold`'s value times y^(nodes)."""
    code = _postfix(tree, _mary_children)
    power, packed, width = _chain_fold(code)
    return _to_polynomial([0] * (len(code) - code.count(0)) + [packed], width,
                          power)
