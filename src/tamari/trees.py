"""Planar binary trees, right rotation and the Tamari covering relation.

Trees are pure shapes: the label of a node is its 1-based position in the
in-order traversal, which is the unique labelling turning the shape into a
binary search tree (left subtree labels <= node label < right subtree
labels).  All values are immutable; every operation returns new trees.

Two text forms are supported: the literal grammar ``_`` (empty) and
``[L,R]`` (node), and Dyck words over ``{N, E}`` obtained by reading the
tree in postfix order, emitting N for each empty subtree and E for each
node, and dropping the leading N.

Tree walks run on explicit stacks, most of them as folds over the tree's
postfix code (:func:`_postfix`), so trees of any depth parse, print and
fold.  The text parsers check their input and yield that code
(:func:`_parse_code`), which a caller can fold into a tree or straight
into a value.  The trees of one size, their bracket vectors and their
literals are each one fold along the Dyck words of that size, walked once
per process by :func:`_ballot_walk`, the walk that also lists the ballot
paths of :mod:`tamari.mtamari`.
"""

from __future__ import annotations

from functools import cache


class BinaryTree:
    """Immutable binary tree shape with cached size and hash.

    ``BinaryTree()`` is the empty tree; ``BinaryTree(left, right)`` grafts
    two trees onto a new root.  Truth value is non-emptiness.
    """

    __slots__ = ("left", "right", "size", "_hash")

    def __init__(self, left: BinaryTree | None = None,
                 right: BinaryTree | None = None):
        if (left is None) != (right is None):
            raise ValueError("a node takes two subtrees; use EMPTY, not None")
        self.left = left
        self.right = right
        if left is None or right is None:
            self.size = 0
            self._hash = hash(("BinaryTree", 0))
        else:
            self.size = left.size + right.size + 1
            self._hash = hash((left._hash, self.size, right._hash))

    def __bool__(self) -> bool:
        return self.size > 0

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryTree):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a.size != b.size or a._hash != b._hash:
                return False
            if a.size and a is not b:
                pairs += ((a.left, b.left), (a.right, b.right))
        return True

    def __repr__(self) -> str:
        return format_tree(self)


EMPTY = BinaryTree()


def _postfix(root, children=None) -> list[int]:
    """The postfix code of the tree under ``root``: the child count of each
    node in postorder, the children taken in the order ``children(node)``
    lists them, or without ``children``, a binary tree's left and right
    subtrees.  The nodes popped from an explicit stack come rightmost
    subtree first; reversed, that is the postorder."""
    code, stack = [], [root]
    while stack:
        node = stack.pop()
        if children:
            kids = children(node)
            code.append(len(kids))
            stack += kids
        elif node.size:  # binary nodes, the common case, call nothing
            code.append(2)
            stack += node.left, node.right
        else:
            code.append(0)
    code.reverse()
    return code


def _fold(code, leaf, combine):
    """Fold a tree given by its postfix code: a count of 0 (a leaf or an
    empty subtree) stands for ``leaf``, and a count k > 0 for ``combine``
    of the values of the last k subtrees."""
    values = []
    for k in code:
        if k == 2:  # binary nodes, the common case, allocate no argument list
            right = values.pop()
            values[-1] = combine(values[-1], right)
        elif k:
            values[-k:] = [combine(*values[-k:])]
        else:
            values.append(leaf)
    return values[0]


def left_border_count(tree: BinaryTree) -> int:
    """Number of nodes on the leftmost spine (root, root.left, ...)."""
    count = 0
    while tree:
        count += 1
        tree = tree.left
    return count


def rotate_right_at(tree: BinaryTree, label: int) -> BinaryTree | None:
    """Right rotation at the node with the given in-order label.

    The node y with that label must have a non-empty left subtree x; the
    local pattern y(x(A,B),C) is rewritten to x(A,y(B,C)).  Returns None
    when the rotation does not apply (empty left subtree).
    """
    if not 1 <= label <= tree.size:
        raise ValueError(f"label {label} out of range 1..{tree.size}")
    path = []  # the nodes above y, each with whether the descent went left
    t, lo = tree, 1
    while (root := lo + t.left.size) != label:
        path.append((t, label < root))
        t, lo = (t.left, lo) if label < root else (t.right, root + 1)
    if not t.left:
        return None
    x = t.left
    out = BinaryTree(x.left, BinaryTree(x.right, t.right))
    for t, went_left in reversed(path):
        out = BinaryTree(out, t.right) if went_left else BinaryTree(t.left, out)
    return out


def tamari_covers_up(tree: BinaryTree) -> list[BinaryTree]:
    """All trees one right rotation above ``tree``, ordered by the label
    rotated at; distinct labels give distinct trees."""
    rotated = (rotate_right_at(tree, label) for label in range(1, tree.size + 1))
    return [u for u in rotated if u is not None]


def _ballot_walk(m: int, n: int, start, north, east) -> tuple:
    """The states at the ends of the m-ballot words with n north steps, in
    N-before-E order: ``start`` stepped by ``north`` at each N and ``east``
    at each E.  A prefix on the stack ends in a north step (or is empty),
    and is stepped once for all its words: the next prefixes add k east
    steps and a north step, k from 0 to the slack m * norths - easts, each
    stepped from the one before.  At n north steps, east steps pad it."""
    if n < 0:
        raise ValueError("size must be non-negative")
    ends, stack = [], [(start, 0, 0)]  # (state, north steps, east steps)
    while stack:
        state, norths, easts = stack.pop()
        states = [state]  # after 0, 1, ..., slack more east steps
        for _ in range(m * norths - easts):
            states.append(east(states[-1]))
        if norths == n:
            ends.append(states[-1])
        else:  # k = 0 pushed last, so the prefixes pop in N-before-E order
            stack += [(north(states[k]), norths + 1, easts + k)
                      for k in range(len(states) - 1, -1, -1)]
    return tuple(ends)


def _dyck_fold(n: int, leaf, combine) -> tuple:
    """The fold of each tree of :func:`enumerate_trees` (n), in that order,
    along its Dyck word (an m = 1 ballot word), on a linked stack of the
    values of the subtrees read: it starts with the empty subtree whose N
    the word drops, N pushes ``leaf`` and E combines the top two values."""
    def east(stack):
        right, (left, below) = stack
        return combine(left, right), below

    return tuple([value for value, _ in _ballot_walk(
        1, n, (leaf, None), lambda stack: (leaf, stack), east)])


@cache
def _bracket_vectors(n: int) -> tuple[tuple[int, ...], ...]:
    """The bracket vectors of :func:`enumerate_trees` (n), in that order,
    built once per size: each tree's right-subtree sizes by in-order label.
    A node's vector is its left subtree's, then the size of its right
    subtree (its vector's length), then its right subtree's."""
    return _dyck_fold(n, (), lambda left, right: left + (len(right),) + right)


def _vector_tree(vector) -> BinaryTree:
    """The tree of a bracket vector (right-subtree sizes by 0-based label),
    built in one pass over the labels.  A node waits on a stack with its
    left subtree and the label at which its right subtree ends; at that
    label, the tree built since it waited is its right subtree.  The tree
    built since the nearest waiting node is the next label's left subtree."""
    waiting, done = [], EMPTY
    for label, size in enumerate(vector):
        waiting.append((done, label + size))
        done = EMPTY
        while waiting and waiting[-1][1] == label:
            done = BinaryTree(waiting.pop()[0], done)
    return done


@cache
def _literals(n: int) -> tuple[str, ...]:
    """The literals of :func:`enumerate_trees` (n), in that order, built
    once per size: each is :func:`format_tree` of its tree, joined from its
    subtrees' literals."""
    return _dyck_fold(n, "_", _node_literal)


def format_trees(n: int) -> list[str]:
    """The literals of :func:`enumerate_trees` (n), in that order: each is
    :func:`format_tree` of its tree."""
    return list(_literals(n))


def tamari_cover_edges(n: int) -> list[tuple[int, int]]:
    """The covers of the Tamari lattice on :func:`enumerate_trees` (n): the
    sorted pairs (i, j) with tree j one right rotation above tree i, the
    pairs :func:`tamari_covers_up` gives, read off the bracket vectors
    :func:`_bracket_vectors` folds along the enumeration's Dyck words.

    In a bracket vector v (right subtree sizes by 0-based label) the
    subtree of node z ends at label z + v[z].  The subtrees ending at y - 1
    are those of the right spine of y's left subtree, so node y has a left
    child exactly when some z has z + v[z] = y - 1, and that child x is
    the smallest such z.  The right rotation at y, y(x(A,B),C) to
    x(A,y(B,C)), changes one entry: x's right subtree becomes y(B,C), so
    v[x] grows by v[y] + 1.
    """
    vectors = _bracket_vectors(n)
    index = {v: i for i, v in enumerate(vectors)}
    edges = []
    for i, v in enumerate(vectors):
        child = {}  # subtree end -> the smallest node whose subtree ends there
        for z in range(n - 1, -1, -1):
            child[z + v[z]] = z
        for end, x in child.items():
            if end < n - 1:  # node end + 1 has the left child x
                w = list(v)
                w[x] += v[end + 1] + 1
                edges.append((i, index[tuple(w)]))
    edges.sort()
    return edges


def canonical_key(tree: BinaryTree) -> str:
    """Sort key realizing the canonical order: Dyck word with N < E."""
    return to_dyck(tree).translate(_DYCK_ORDER)


_DYCK_ORDER = str.maketrans("NE", "01")


@cache
def _trees_of_size(n: int) -> tuple[BinaryTree, ...]:
    return _dyck_fold(n, EMPTY, BinaryTree)


def enumerate_trees(n: int) -> list[BinaryTree]:
    """All binary trees of n nodes, ordered by :func:`canonical_key`."""
    return list(_trees_of_size(n))


def to_dyck(tree: BinaryTree) -> str:
    """Postfix reading of the tree as a Dyck word over {N, E}."""
    return "".join(["E" if k else "N" for k in _postfix(tree)][1:])


def from_dyck(word: str) -> BinaryTree:
    """The unique tree whose postfix reading is ``word``."""
    bad = set(word) - {"N", "E"}
    if bad:
        raise ValueError(f"Dyck word may only contain N and E, got {bad!r}")
    return _fold(_dyck_code(word), EMPTY, BinaryTree)


def _dyck_code(word: str) -> bytes:
    """The postfix code of a word over {N, E}, checked to be a Dyck word."""
    height = 0
    for i, step in enumerate(word):
        height += 1 if step == "N" else -1
        if height < 0:
            raise ValueError(f"invalid Dyck word: E-surplus at position {i}")
    if height != 0:
        raise ValueError("invalid Dyck word: unequal N and E counts")
    return ("N" + word).encode().translate(_CODES)


# postfix readings to child counts: N and _ are empty subtrees, E and ] nodes
_CODES = bytes.maketrans(b"NE_]", b"\0\2\0\2")


def format_tree(tree: BinaryTree) -> str:
    return _literal(_postfix(tree))


def _literal(code) -> str:
    """The ``_`` / ``[L,R]`` literal of a binary tree's postfix code."""
    return _fold(code, "_", _node_literal)


def _node_literal(left: str, right: str) -> str:
    return f"[{left},{right}]"


def normal_literal(text: str) -> str:
    """The literal of the tree a literal or Dyck word reads: that is
    ``format_tree(parse_tree(text))``, rendered from the parsed code."""
    return _literal(_parse_code(text))


def parse_tree(text: str) -> BinaryTree:
    """Parse a tree literal (``_`` / ``[L,R]``) or a Dyck word."""
    return _fold(_parse_code(text), EMPTY, BinaryTree)


def _parse_code(text: str) -> bytes:
    """The checked postfix code of the tree :func:`parse_tree` reads."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty tree literal")
    if s[0] in "_[":
        return _literal_code(s)
    if set(s) <= {"N", "E"}:
        return _dyck_code(s)
    pos = next(i for i, c in enumerate(s) if c not in "NE")
    raise ValueError(f"unrecognized character at position {pos}: {s[pos]!r}")


def _literal_code(s: str) -> bytes:
    """Check ``_`` / ``[L,R]`` against a stack of what must come next: a
    tree (None) or the separator that closes a pending node.  The postfix
    code is the literal's ``_`` (empty subtrees) and ``]`` (nodes)."""
    expect: list[str | None] = [None]
    for pos, c in enumerate(s):
        if not expect:
            raise ValueError(f"trailing characters at position {pos}")
        wanted = expect.pop()
        if wanted is None and c == "[":
            expect += ("]", None, ",", None)
        elif wanted is None and c != "_":
            raise ValueError(f"expected '_' or '[' at position {pos}, got {c!r}")
        elif wanted is not None and c != wanted:
            raise ValueError(f"expected {wanted!r} at position {pos}")
    if expect and expect[-1] is None:
        raise ValueError(f"unexpected end of literal at position {len(s)}")
    if expect:
        raise ValueError(f"expected {expect[-1]!r} at position {len(s)}")
    return s.encode().translate(_CODES, b"[,")
