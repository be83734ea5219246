"""Planar binary trees, right rotation and the Tamari covering relation.

Trees are pure shapes: the label of a node is its 1-based position in the
in-order traversal, which is the unique labelling turning the shape into a
binary search tree (left subtree labels <= node label < right subtree
labels).  All values are immutable; every operation returns new trees.

Two text forms are supported: the literal grammar ``_`` (empty) and
``[L,R]`` (node), and Dyck words over ``{N, E}`` obtained by reading the
tree in postfix order, emitting N for each empty subtree and E for each
node, and dropping the leading N.
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
        if self is other:
            return True
        if not isinstance(other, BinaryTree):
            return NotImplemented
        if self.size != other.size or self._hash != other._hash:
            return False
        if self.size == 0:
            return True
        return self.left == other.left and self.right == other.right

    def __repr__(self) -> str:
        return format_tree(self)


EMPTY = BinaryTree()


def node(left: BinaryTree, right: BinaryTree) -> BinaryTree:
    return BinaryTree(left, right)


def left_border_count(tree: BinaryTree) -> int:
    """Number of nodes on the leftmost spine (root, root.left, ...)."""
    count = 0
    while tree:
        count += 1
        tree = tree.left
    return count


def right_border_count(tree: BinaryTree) -> int:
    """Number of nodes on the rightmost spine."""
    count = 0
    while tree:
        count += 1
        tree = tree.right
    return count


def rotate_right_at(tree: BinaryTree, label: int) -> BinaryTree | None:
    """Right rotation at the node with the given in-order label.

    The node y with that label must have a non-empty left subtree x; the
    local pattern y(x(A,B),C) is rewritten to x(A,y(B,C)).  Returns None
    when the rotation does not apply (empty left subtree).
    """
    if not 1 <= label <= tree.size:
        raise ValueError(f"label {label} out of range 1..{tree.size}")

    def go(t: BinaryTree, lo: int) -> BinaryTree | None:
        root = lo + t.left.size
        if label < root:
            new_left = go(t.left, lo)
            return None if new_left is None else BinaryTree(new_left, t.right)
        if label > root:
            new_right = go(t.right, root + 1)
            return None if new_right is None else BinaryTree(t.left, new_right)
        if not t.left:
            return None
        x = t.left
        return BinaryTree(x.left, BinaryTree(x.right, t.right))

    return go(tree, 1)


def tamari_covers_up(tree: BinaryTree) -> list[BinaryTree]:
    """All trees one right rotation above ``tree``, in canonical order."""
    seen = set()
    for label in range(1, tree.size + 1):
        rotated = rotate_right_at(tree, label)
        if rotated is not None:
            seen.add(rotated)
    return sorted(seen, key=canonical_key)


def canonical_key(tree: BinaryTree) -> str:
    """Sort key realizing the canonical order: Dyck word with N < E."""
    return to_dyck(tree).translate(_DYCK_ORDER)


_DYCK_ORDER = str.maketrans("NE", "01")


@cache
def _trees_of_size(n: int) -> tuple[BinaryTree, ...]:
    if n == 0:
        return (EMPTY,)
    out = []
    for left_size in range(n):
        for left in _trees_of_size(left_size):
            for right in _trees_of_size(n - 1 - left_size):
                out.append(BinaryTree(left, right))
    out.sort(key=canonical_key)
    return tuple(out)


def enumerate_trees(n: int) -> list[BinaryTree]:
    """All binary trees with n nodes, in canonical order."""
    if n < 0:
        raise ValueError("size must be non-negative")
    return list(_trees_of_size(n))


def to_dyck(tree: BinaryTree) -> str:
    """Postfix reading of the tree as a Dyck word over {N, E}."""
    out: list[str] = []

    def walk(t: BinaryTree) -> None:
        if not t:
            out.append("N")
            return
        walk(t.left)
        walk(t.right)
        out.append("E")

    walk(tree)
    return "".join(out[1:])


def from_dyck(word: str) -> BinaryTree:
    """The unique tree whose postfix reading is ``word``."""
    bad = set(word) - {"N", "E"}
    if bad:
        raise ValueError(f"Dyck word may only contain N and E, got {bad!r}")
    height = 0
    for i, step in enumerate(word):
        height += 1 if step == "N" else -1
        if height < 0:
            raise ValueError(f"invalid Dyck word: E-surplus at position {i}")
    if height != 0:
        raise ValueError("invalid Dyck word: unequal N and E counts")
    # parse the postfix reading back, with the dropped leading N restored
    stack: list[BinaryTree] = []
    for step in "N" + word:
        if step == "N":
            stack.append(EMPTY)
        else:
            right = stack.pop()
            left = stack.pop()
            stack.append(BinaryTree(left, right))
    assert len(stack) == 1
    return stack[0]


def format_tree(tree: BinaryTree) -> str:
    if not tree:
        return "_"
    return f"[{format_tree(tree.left)},{format_tree(tree.right)}]"


def parse_tree(text: str) -> BinaryTree:
    """Parse a tree literal (``_`` / ``[L,R]``) or a Dyck word."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty tree literal")
    if s[0] in "_[":
        tree, pos = _parse_literal(s, 0)
        if pos != len(s):
            raise ValueError(f"trailing characters at position {pos}")
        return tree
    if set(s) <= {"N", "E"}:
        return from_dyck(s)
    pos = next(i for i, c in enumerate(s) if c not in "NE")
    raise ValueError(f"unrecognized character at position {pos}: {s[pos]!r}")


def _parse_literal(s: str, pos: int) -> tuple[BinaryTree, int]:
    if pos >= len(s):
        raise ValueError(f"unexpected end of literal at position {pos}")
    if s[pos] == "_":
        return EMPTY, pos + 1
    if s[pos] != "[":
        raise ValueError(f"expected '_' or '[' at position {pos}, got {s[pos]!r}")
    left, pos = _parse_literal(s, pos + 1)
    if pos >= len(s) or s[pos] != ",":
        raise ValueError(f"expected ',' at position {pos}")
    right, pos = _parse_literal(s, pos + 1)
    if pos >= len(s) or s[pos] != "]":
        raise ValueError(f"expected ']' at position {pos}")
    return BinaryTree(left, right), pos + 1
