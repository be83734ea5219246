"""Composition of interval-posets, its inverse, and recursive generation.

Composing posets I1 (size k1) and I2 (size k2) yields the formal sum of all
interval-posets of size k1+k2+1 in which vertices 1..k1 carry exactly I1,
vertices k1+2..n carry I2 shifted up by k1+1, every vertex of I1 precedes
the new vertex k1+1, and k1+1 precedes nothing above it.  The free choice
is how many of I2's decreasing-forest roots v1 < v2 < ... hang below the new
vertex, and the absorbed roots must form a prefix of that list, so a poset
with m roots contributes m+1 terms.

Enumeration runs this recursion on packed ints and builds posets, each
the tuple of its rows (:class:`IntervalPoset`), only for its result,
in two passes over the sorted keys: one turns each key back into its
packed rows in place, the next unpacks the rows.  Every size is packed at
one width, W = 16, which bounds the sizes enumerated to 0..16 (there are
about 1.25e13 interval-posets of size 17): the pair (a, b) sits at bit
W*W - (a-1)*W - b, so row 1 is on top and each row fills a W-bit slot
bit-reversed.  Relabelling every vertex up by s moves each pair s*(W+1)
bits down, so a term of compose(I1, I2) is I1 ORed with the column of the
new vertex k1+1, ORed with a term of compose(empty, I2) shifted right by
k1*(W+1).

Read from the top, a packed R lists its pairs in the order of
sorted(relations), and rows n+1..W are empty, so one int sort gives the
canonical order once R, shifted down by (W-n)*W bits to its n*W bits of
rows, becomes the key (((FULL ^ R) & -low) << (n*W + 1)) - low, with
low = R & -R its last pair and FULL the n*W one-bits.  Where two lists
first differ, the one holding the pair reads 0 in FULL ^ R, so its key is
smaller.  The mask -low clears the bits past a list's end, so a proper
prefix keys at most as high as a list it starts, and minus low, below the
shifted part, puts the shorter first on a tie.  R = 0 keys to 0, the
least: no poset holds (1, 1), so every other key is positive.  A key
gives R back: low = -key mod 2**(n*W + 1).
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from struct import Struct

from .intervalposet import _EMPTY_POSET, IntervalPoset, _labels, _new
from .trees import BinaryTree, _fold, _postfix

_W = 16  # the packing width, and the largest size enumerated
_REVERSED = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def compose(i1: IntervalPoset, i2: IntervalPoset) -> list[IntervalPoset]:
    """All terms of the composition, ordered by absorbed-root count.

    Each decreasing component of I2 is the label range from its root (its
    least label) to the next root minus one: v > r precedes r only if every
    label between them does, by decreasing closure.  So each term is the
    last one with the new vertex ORed into one more run of rows.
    """
    k1 = len(i1)
    new = 1 << k1  # the new vertex k1 + 1
    rows = ([row | new for row in i1] + [0]
            + [row << (k1 + 1) for row in i2])
    out, below = [], 0  # below: I2's labels under the row's
    for w, row in enumerate(i2, k1 + 1):
        if not row & below:  # a root: the rows so far are one term
            out.append(_new(IntervalPoset, rows))
        rows[w] |= new
        below = below << 1 | 1
    out.append(_new(IntervalPoset, rows))
    return out


def decompose(poset: IntervalPoset) -> tuple[IntervalPoset, IntervalPoset]:
    """The unique (I1, I2) whose composition contains ``poset``.

    The split vertex k is the upper tree's root, the largest label that 1
    precedes or is: in compose(I1, I2) all of I1 precedes k1 + 1, and no
    vertex up to k1 + 1 precedes a larger one, so k = k1 + 1 and the root's
    left subtree is exactly 1..k-1.  The parts are the label ranges on both
    sides of k, the right one shifted down to start at 1.  An empty side
    is the shared empty poset, not a new one: three in four splits at
    n = 7 and n = 8 fall at vertex 1 or at vertex n.
    """
    if not (n := len(poset)):
        raise ValueError("cannot decompose the empty poset")
    k = (poset[0] | 1).bit_length()
    low = (1 << (k - 1)) - 1
    return (_new(IntervalPoset, [row & low for row in poset[:k - 1]])
            if k > 1 else _EMPTY_POSET,
            _new(IntervalPoset, [row >> k for row in poset[k:]])
            if k < n else _EMPTY_POSET)


def _column(rows: int) -> int:
    """The bits of the pairs (a, 1) for a = 1..rows, the top bit of each
    of those rows' slots."""
    return sum(1 << _W * (_W - a) - 1 for a in range(rows))


# _bottoms' root test: the pairs (v, b) with 1 < b < v, and every bit of
# every slot but its top one, column 1
_LOWER = sum(1 << _W * (_W - v + 1) - b
             for v in range(3, _W + 1) for b in range(2, v))
_SPREAD = (1 << _W * _W) - 1 - _column(_W)


@cache
def _prefixes(roots: int, rows: int) -> tuple[int, ...]:
    """The vertices that precede the new vertex 1 in each term of
    compose(empty, I2), as column-1 bits one row down: I2's rows above
    each root, and then all of them.  ``roots`` and ``rows`` mark I2's
    roots and all its rows by their column-1 bits."""
    return tuple(rows >> label << label >> _W
                 for label in (*_labels(roots), 0))


def _bottoms(k2: int) -> list[int]:
    """Every term of compose(empty, I2) over the size-k2 posets I2, packed.

    A term is I2 moved one row and one column down, with vertex 1 under a
    prefix of its decreasing components.  A row is a root when it holds no
    pair (v, b) with b < v: adding 0111..1 to every slot carries into the
    slot's top bit exactly when such a pair sits past column 1.
    """
    rows = _column(k2)
    return [(i2 >> _W + 1) | absorbed
            for i2 in _posets_of_size(k2)
            for absorbed in _prefixes(
                rows & ~((i2 & _LOWER) + _SPREAD | i2), rows)]


def _terms(n: int, k1: int, tops) -> list[int]:
    """The packed terms of compose(I1, I2) for every I1 in ``tops`` (size
    k1) and every I2 of size n-1-k1: I1 under the column of k1+1, ORed
    with a bottom relabelled up by k1."""
    bottoms = _bottoms(n - 1 - k1)
    if not k1:  # I1 is empty: the bottoms are the terms, and ORs would copy
        return bottoms
    column = _column(k1) >> k1
    shift = k1 * (_W + 1)
    bottoms = [bottom >> shift for bottom in bottoms]
    return [top | bottom for top in [i1 | column for i1 in tops]
            for bottom in bottoms]


@cache
def _posets_of_size(n: int) -> tuple[int, ...]:
    """Every interval-poset of size n, packed, in composition order."""
    return tuple(chain.from_iterable(_top_level(n)))


def _top_level(n: int):
    """The packed size-n posets in one list per k1, none of them cached."""
    if n < 0:
        raise ValueError("size must be non-negative")
    if n > _W:
        raise ValueError(f"interval-posets are enumerated up to size {_W}")
    if n == 0:
        return [(0,)]
    return (_terms(n, k1, _posets_of_size(k1)) for k1 in range(n))


def _decode_sorted(n: int, parts) -> list[IntervalPoset]:
    """The size-n posets packed in the lists ``parts``, as posets in
    canonical order: one int sort of their keys, one pass that turns each
    key back into its R in place, and one that turns each R into its
    poset.  The Rs are freed in the order they were made, so whole memory
    pools empty for the posets, where keys freed in sorted order would
    leave every pool in use.  Bit-reversing R's big-endian bytes turns
    each row's slot into its little-endian successor mask."""
    drop, size = (_W - n) * _W, n * _W // 8
    full, shift = (1 << n * _W) - 1, n * _W + 1
    keys = [(((full ^ (r := packed >> drop)) & -(low := r & -r)) << shift)
            - low for part in parts for packed in part]
    keys.sort()
    below = (1 << shift) - 1
    for i, key in enumerate(keys):
        keys[i] = (full ^ (key + (low := -key & below)) >> shift) & -low
    unpack = Struct(f"<{n}H").unpack_from
    for i, packed in enumerate(keys):
        keys[i] = _new(IntervalPoset, unpack(
            packed.to_bytes(size, "big").translate(_REVERSED)))
    return keys


def enumerate_interval_posets(n: int) -> list[IntervalPoset]:
    """All interval-posets of size n, generated through the composition
    recursion (each appears exactly once), in canonical order, for sizes
    up to 16."""
    return _decode_sorted(n, _top_level(n))


@cache
def count_interval_posets(n: int) -> int:
    """The number of interval-posets of size n, by generating each one
    through the composition recursion, packed: no object is built, and
    the terms of each k1 are dropped once counted.  Only the count is
    kept, so asking again costs nothing.  Sizes go up to 16."""
    return sum(map(len, _top_level(n)))


def initial_interval_sum(tree: BinaryTree) -> list[IntervalPoset]:
    """All interval-posets whose increasing part is the increasing forest
    of ``tree``: one poset per tree below it in the Tamari order."""
    return _fold(_postfix(tree), [_EMPTY_POSET],
                 lambda left, right: [p for i1 in left for i2 in right
                                      for p in compose(i1, i2)])
