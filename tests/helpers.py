"""Shared brute-force oracles and reference routes for the test suite.

The order oracles recompute data from the covering relation by closure,
independently of the structured algorithms under test, and cache per size
so exhaustive suites stay fast.  The series and tree-polynomial references
redo on sparse polynomials what the package does on packed integers, and
the interval-poset references redo on frozensets of (a, b) pairs what the
package does on per-vertex successor masks.  The chained m-ary form, the
inverse prefix reading and the lattice-point path count are references
that only the tests use.
"""

from functools import cache
from itertools import accumulate
from math import comb, factorial

from tamari.intervalposet import IntervalPosetError, dec_forest, inc_forest
from tamari.mtamari import (BallotPath, MAryTree, _mary_children, _path_code,
                            enumerate_ballot_paths, path_upset)
from tamari.order import sylvester_class, tamari_leq_oracle, tamari_upset
from tamari.poly import (ONE, X, Y, Polynomial, _chain_fold, _slot_sum,
                         bilinear_B, delta)
from tamari.trees import (EMPTY, BinaryTree, _postfix, enumerate_trees,
                          tamari_covers_up)


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


def rotation_cover_edges(n: int) -> list[tuple[int, int]]:
    """The covers of the Tamari lattice on enumerate_trees(n) as sorted
    index pairs, by rotating every tree at every label and finding each
    rotated tree by equality."""
    elements = enumerate_trees(n)
    index = {t: i for i, t in enumerate(elements)}
    return sorted((index[t], index[u])
                  for t in elements for u in tamari_covers_up(t))


def bracket_vector(tree: BinaryTree) -> list[int]:
    """The size of each node's right subtree, by 0-based in-order label,
    read by walking one tree of any depth."""
    sizes = [0] * tree.size
    stack = [(tree, 0)]  # a subtree and the 0-based label of its first node
    while stack:
        t, lo = stack.pop()
        if t:
            root = lo + t.left.size
            sizes[root] = t.right.size
            stack += ((t.left, lo), (t.right, root + 1))
    return sizes


def oracle_trees_in_interval(poset) -> list[BinaryTree]:
    """The trees of an interval-poset's interval in canonical order, by
    rotation closure from its lower tree and to its upper tree.  The ends
    are found by search: the trees whose decreasing and increasing forests
    are the poset's rows on that side."""
    elements = enumerate_trees(poset.n)
    down = [row & (1 << a - 1) - 1 for a, row in enumerate(poset, 1)]
    up = [row >> a << a for a, row in enumerate(poset, 1)]
    lo = next(t for t in elements if list(dec_forest(t)) == down)
    hi = next(t for t in elements if list(inc_forest(t)) == up)
    return [t for t in elements
            if tamari_leq_oracle(lo, t) and tamari_leq_oracle(t, hi)]


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


def path_count(path: BallotPath) -> int:
    """The number of paths below ``path``, itself included, as the tree
    fold counts them: mary_tamari_poly of the path's tree at x = y = 1,
    folded from that one path's code, the reference for path_counts.

    That value is the sum of the slots of the root's packed chain, below
    2^width by the bound _chain_fold packs at, so _slot_sum reads it off
    exactly with one remainder."""
    _, packed, width = _chain_fold(_path_code(path))
    return _slot_sum(packed, width)


def mary_to_path_prefix(tree: MAryTree, m: int) -> BallotPath:
    """Inverse of path_to_mary_prefix: emit N per node and E per leaf,
    children right to left (the postorder reversed), and drop the final
    east step."""
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


def fuss_catalan(m: int, n: int) -> int:
    """The number of m-ballot paths of size n, by dynamic programming over
    lattice points, independent of the path generator."""
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


def random_ballot(rng, m: int, n: int) -> str:
    """A uniform m-ballot word with n north steps, by the cycle lemma:
    shuffle n steps of +m and mn+1 steps of -1, start just after the first
    lowest prefix, and drop the final -1."""
    steps = [m] * n + [-1] * (m * n + 1)
    rng.shuffle(steps)
    heights = list(accumulate(steps))
    cut = heights.index(min(heights)) + 1
    steps = steps[cut:] + steps[:cut]
    return "".join("N" if s > 0 else "E" for s in steps[:-1])


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


def chapoton_count_factorial(n: int) -> int:
    """Chapoton's interval count 2*(4n+1)! / ((n+1)!*(3n+2)!), from the
    factorials as the formula states it."""
    return (2 * factorial(4 * n + 1)
            // (factorial(n + 1) * factorial(3 * n + 2)))


def contact_count(n: int, k: int) -> int:
    """The number of intervals of size n whose lower tree has k contacts
    (the coefficient of x^k y^n in Phi), for 1 <= k <= n, by the closed
    form k * C(2k+2, k+1) * (4n-2k-1)! / ((n-k)! * (3n-k+1)!)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    count, rest = divmod(k * comb(2 * k + 2, k + 1)
                         * factorial(4 * n - 2 * k - 1),
                         factorial(n - k) * factorial(3 * n - k + 1))
    assert rest == 0
    return count


def pack_poset(relations, width: int) -> int:
    """An interval-poset as the enumeration packs it: the pair (a, b) at
    bit width*width - (a-1)*width - b, read off the pair set."""
    return sum(1 << width * width - (a - 1) * width - b for a, b in relations)


def unpack_relations(packed: int, width: int) -> frozenset[tuple[int, int]]:
    """Inverse of :func:`pack_poset`: the pairs whose bits are set."""
    pairs = []
    while packed:
        low = packed & -packed
        q = width * width - (low.bit_length() - 1) - 1  # (a-1)*width + b-1
        pairs.append((q // width + 1, q % width + 1))
        packed ^= low
    return frozenset(pairs)


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
