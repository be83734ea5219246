"""m-ballot paths, the rotation lattice on them, and the m-linear machinery.

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
case is Chapoton's equation for Tamari intervals, and the path polynomials
from its tree fold, both on polynomials in x packed into single ints.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter

from .poly import (Polynomial, X, Y, _chain_poly, _series_layers,
                   _to_polynomial, delta)
from .trees import _fold, _postfix


class BallotPath:
    """Immutable m-ballot path; ``steps`` is a word over {N, E}."""

    __slots__ = ("m", "steps")

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
        return hash((self.m, self.steps))

    def __repr__(self) -> str:
        return f"<BallotPath {self.to_text()}>"


def parse_ballot_path(text: str) -> BallotPath:
    """Parse the ``m=<int>:<word>`` form."""
    head, sep, word = text.strip().partition(":")
    if not sep or not head.startswith("m="):
        raise ValueError(f"expected 'm=<int>:<word>', got {text!r}")
    return BallotPath(int(head[2:]), word)


def enumerate_ballot_paths(m: int, n: int) -> list[BallotPath]:
    """All m-ballot paths of size n, N-before-E lexicographic order."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    out: list[BallotPath] = []
    word: list[str] = []

    def extend(norths: int, easts: int) -> None:
        if norths == n and easts == m * n:
            out.append(BallotPath(m, "".join(word)))
            return
        if norths < n:
            word.append("N")
            extend(norths + 1, easts)
            word.pop()
        if easts < m * norths:
            word.append("E")
            extend(norths, easts + 1)
            word.pop()

    extend(0, 0)
    return out


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
            covers.add(BallotPath(m, rotated))
    return covers


@cache
def path_upset(path: BallotPath) -> frozenset[BallotPath]:
    """All paths reachable from ``path`` by rotations, itself included."""
    return frozenset({path}.union(*map(path_upset, path_rotation_covers(path))))


def path_leq(lower: BallotPath, upper: BallotPath) -> bool:
    """Reachability of ``upper`` from ``lower`` by rotations."""
    if lower.m != upper.m or lower.n != upper.n:
        raise ValueError("paths must share m and size")
    return upper in path_upset(lower)


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
    """The tree whose right-to-left prefix reading gives the path.

    Reads the word plus the dropped trailing east step backwards, which is
    a postfix code: E is a leaf, and N takes the last m+1 trees read as its
    children.  The ballot condition is what makes this code close exactly
    at the last step.
    """
    arity = path.m + 1
    code = (arity if step == "N" else 0 for step in reversed(path.steps + "E"))
    return _fold(code, LEAF, lambda *children: MAryTree(children))


def mary_to_path_prefix(tree: MAryTree, m: int) -> BallotPath:
    """Inverse reading: emit N per node and E per leaf, children right to
    left (the postorder reversed), and drop the final east step."""
    code = _postfix(tree, _mary_children)
    bad = next((k for k in code if k not in (0, m + 1)), None)
    if bad is not None:
        raise ValueError(f"expected {m + 1} children, got {bad}")
    return BallotPath(m, "".join("N" if k else "E" for k in reversed(code[1:])))


def multilinear_Bm(polys: list[Polynomial]) -> Polynomial:
    """The chained slope form xy * f1 * D(f2 * D(... * D(fk)...)) on k
    arguments, with k-1 nested slope operators; a single argument gives
    xy * f1.  The m-Tamari recursion applies it to m+1 series."""
    if not polys:
        raise ValueError("the form needs at least one polynomial")
    chain = polys[-1]
    for f in reversed(polys[:-1]):
        chain = f * delta(chain)
    return X * Y * chain


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
    slope form on each node's children in left-to-right order."""
    return _chain_poly(_postfix(tree, _mary_children), mary=True)


def fuss_catalan(m: int, n: int) -> int:
    """Path count by dynamic programming over lattice points (independent
    of the path generator)."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    # ways[j] = paths with the current number of north steps and j east steps
    ways = [1] + [0] * (m * n)
    for i in range(1, n + 1):
        acc = 0
        for j in range(m * n + 1):
            acc += ways[j]
            ways[j] = acc if j <= m * i else 0
    return ways[m * n] if n else 1
