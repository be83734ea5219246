"""Trees far deeper than the interpreter's recursion limit.

Every walk over a tree runs on an explicit stack, so these run under the
default recursion limit; each would raise RecursionError if a walk
recursed once per level.
"""

import sys

import pytest

from helpers import left_comb, right_comb
from tamari.intervalposet import dec_forest, inc_forest, lower_tree, upper_tree
from tamari.mtamari import (LEAF, BallotPath, MAryTree, mary_tamari_poly,
                            mary_to_path_prefix, path_to_mary_prefix)
from tamari.poly import (Polynomial, tamari_poly, tamari_poly_bivar,
                         tamari_poly_mirror)
from tamari.trees import (EMPTY, BinaryTree, format_tree, from_dyck,
                          parse_tree, rotate_right_at, to_dyck)

DEPTH = 10_000
LEAF_NODE = BinaryTree(EMPTY, EMPTY)


def left_literal(depth):
    return "[" * depth + "_" + ",_]" * depth


def right_literal(depth):
    return "[_," * depth + "_" + "]" * depth


def test_limit_is_below_the_depth():
    assert sys.getrecursionlimit() < DEPTH


@pytest.mark.parametrize("comb, literal, word", [
    (left_comb, left_literal(DEPTH), "NE" * DEPTH),
    (right_comb, right_literal(DEPTH), "N" * DEPTH + "E" * DEPTH),
], ids=["left", "right"])
def test_combs_round_trip(comb, literal, word):
    tree = comb(DEPTH)
    assert format_tree(tree) == literal
    assert to_dyck(tree) == word
    for text in (literal, word):
        parsed = parse_tree(text)
        assert parsed == tree
        assert format_tree(parsed) == literal
        assert to_dyck(parsed) == word
    assert from_dyck(word) == tree


def test_separately_built_combs_are_equal():
    for comb in (left_comb, right_comb):
        a, b = comb(DEPTH), comb(DEPTH)
        assert a is not b
        assert a == b and hash(a) == hash(b)
    assert left_comb(DEPTH) != right_comb(DEPTH)
    assert left_comb(DEPTH) != left_comb(DEPTH - 2, base=BinaryTree(EMPTY, LEAF_NODE))


def test_rotation_at_the_root_and_the_deepest_labels():
    tree = left_comb(DEPTH)
    assert rotate_right_at(tree, DEPTH) == BinaryTree(left_comb(DEPTH - 2),
                                                      LEAF_NODE)
    assert rotate_right_at(tree, 1) is None  # the deepest node has no left child
    assert rotate_right_at(tree, 2) == left_comb(
        DEPTH - 2, base=BinaryTree(EMPTY, LEAF_NODE))
    assert rotate_right_at(right_comb(DEPTH), DEPTH) is None


def test_comb_polynomials():
    x_depth = Polynomial.monomial(1, ex=DEPTH)
    assert tamari_poly(left_comb(DEPTH)) == x_depth
    assert tamari_poly_mirror(right_comb(DEPTH)) == x_depth
    assert tamari_poly_bivar(left_comb(DEPTH)).subs(b=1) == x_depth


def test_deep_spine_below_a_right_child():
    # one slope of x^DEPTH: dense, but with one-byte coefficients, so its
    # slots must not be sized for the C(2n, n) bound of a general tree
    expected = Polynomial({(i, 0, 0): 1 for i in range(1, DEPTH + 2)})
    assert tamari_poly(BinaryTree(EMPTY, left_comb(DEPTH))) == expected
    assert tamari_poly_mirror(BinaryTree(right_comb(DEPTH), EMPTY)) == expected
    deep = path_to_mary_prefix(BallotPath(1, "NE" * DEPTH))
    assert mary_tamari_poly(MAryTree((LEAF, deep))) == Polynomial(
        {(i, DEPTH + 1, 0): 1 for i in range(2, DEPTH + 3)})


def test_deep_ballot_path_round_trips():
    for m, word in ((1, "N" * DEPTH + "E" * DEPTH),
                    (1, "NE" * DEPTH),
                    (2, "N" * DEPTH + "E" * (2 * DEPTH))):
        path = BallotPath(m, word)
        tree = path_to_mary_prefix(path)
        assert mary_to_path_prefix(tree, m) == path
        assert tree == path_to_mary_prefix(BallotPath(m, word))
        assert repr(tree).count("Node") == DEPTH


def test_deep_mary_polynomials():
    expected = Polynomial.monomial(1, ex=DEPTH + 1, ey=DEPTH)
    for m, word in ((1, "NE" * DEPTH), (2, "NEE" * DEPTH)):
        assert mary_tamari_poly(path_to_mary_prefix(BallotPath(m, word))) == expected


def test_deep_forests_round_trip():
    for tree in (left_comb(DEPTH), right_comb(DEPTH)):
        assert lower_tree(dec_forest(tree)) == tree
        assert upper_tree(inc_forest(tree)) == tree
