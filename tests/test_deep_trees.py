"""Trees far deeper than the interpreter's recursion limit.

Every walk over a tree runs on an explicit stack, so these run under the
default recursion limit; each would raise RecursionError if a walk
recursed once per level.
"""

import json
import random
import sys

import pytest

from helpers import (bracket_vector, left_comb, mary_to_path_prefix,
                     right_comb, validate_sparse)
from tamari.cli import main
from tamari.compose import compose, decompose
from tamari.intervalposet import (IntervalPoset, IntervalPosetError,
                                  _lower_vector, _upper_vector, dec_forest,
                                  inc_forest, interval_literals, intersect,
                                  lower_tree, make_interval,
                                  trees_in_interval, upper_tree, validate)
from tamari.mtamari import (LEAF, BallotPath, MAryTree, mary_tamari_poly,
                            path_to_mary_prefix)
from tamari.order import CapacityError, bst_relation
from tamari.poly import (Polynomial, tamari_poly, tamari_poly_bivar,
                         tamari_poly_mirror)
from tamari.trees import (EMPTY, BinaryTree, format_tree, from_dyck,
                          parse_tree, rotate_right_at, to_dyck)

DEPTH = 10_000
# posets read from text or intersected are still closed by a Warshall pass
# of n^2 row tests, so they are checked at a size of their own
INTERVAL_SIZE = 1_000
# an interval's extensions and the oracle's forest are quadratic in the
# size, so they too run at a size of their own past the recursion limit
EXTENSIONS_SIZE = 1_100
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


def test_deep_intervals():
    left, right = left_comb(DEPTH), right_comb(DEPTH)
    # a left comb's increasing forest is the chain 1<2<...<n; the whole
    # lattice, from the left comb to the right comb, relates nothing
    chain = ",".join(f"{v}<{v + 1}" for v in range(1, DEPTH))
    assert make_interval(left, left).to_text() == f"n={DEPTH}\n{chain}"
    assert make_interval(left, right).to_text() == f"n={DEPTH}\n"
    assert make_interval(right, left) is None


def random_tree(rng, n):
    """A uniform tree of n nodes: the rotation of a shuffled word of n N and
    n + 1 E that starts after its first lowest prefix (the cycle lemma) is
    a Dyck word followed by one E."""
    steps = ["N"] * n + ["E"] * (n + 1)
    rng.shuffle(steps)
    height, low, start = 0, 0, 0
    for i, step in enumerate(steps):
        height += 1 if step == "N" else -1
        if height < low:
            low, start = height, i + 1
    return from_dyck("".join(steps[start:] + steps[:start])[:-1])


def test_deep_end_vectors():
    left, right = left_comb(DEPTH), right_comb(DEPTH)
    tree = random_tree(random.Random(23), DEPTH)
    for lower, upper in ((left, right), (left, left), (right, right),
                         (tree, tree)):
        poset = make_interval(lower, upper)
        assert _lower_vector(poset) == bracket_vector(lower)
        assert _upper_vector(poset) == bracket_vector(upper)


@pytest.mark.parametrize("tree", [
    left_comb(INTERVAL_SIZE), random_tree(random.Random(29), INTERVAL_SIZE),
], ids=["left-comb", "random"])
def test_large_one_tree_interval_read_and_intersected(tree):
    poset = make_interval(tree, tree)
    assert IntervalPoset.from_text(poset.to_text()) == poset
    whole = make_interval(left_comb(INTERVAL_SIZE), right_comb(INTERVAL_SIZE))
    assert intersect(poset, whole) == poset


def _closure_failure(check, n, pairs):
    with pytest.raises(IntervalPosetError) as info:
        check(n, pairs)
    return info.value.axiom, info.value.witness


@pytest.mark.parametrize("n", [8, INTERVAL_SIZE])
def test_increasing_failure_carried_down_the_rows(n):
    # a chain 1<2<...<n-1 and n-2<n: 1<n holds, and n-1 is the only label
    # between that misses n, a failure carried from row n-2 to row 1
    pairs = [(a, a + 1) for a in range(1, n - 1)] + [(n - 2, n)]
    expected = ("increasing-closure", (1, n - 1, n))
    assert _closure_failure(validate, n, pairs) == expected
    if n == 8:
        assert _closure_failure(validate_sparse, n, pairs) == expected


@pytest.mark.parametrize("n", [8, INTERVAL_SIZE])
def test_decreasing_failure_at_the_lowest_row(n):
    # a chain n<...<3<2 and 3<1: every label from 3 up precedes 1, but 2
    # does not, so row 3 fails first, at its neighbour
    pairs = [(a + 1, a) for a in range(2, n)] + [(3, 1)]
    expected = ("decreasing-closure", (1, 2, 3))
    assert _closure_failure(validate, n, pairs) == expected
    if n == 8:
        assert _closure_failure(validate_sparse, n, pairs) == expected


def test_deep_listings_are_refused_before_any_enumeration():
    whole = make_interval(left_comb(DEPTH), right_comb(DEPTH))
    for listing in (trees_in_interval, interval_literals):
        with pytest.raises(CapacityError, match="capped at n=8"):
            listing(whole)


def test_deep_decompose():
    left, right = left_comb(DEPTH), right_comb(DEPTH)
    # the whole lattice splits at the right comb's root, vertex 1
    i1, i2 = decompose(make_interval(left, right))
    assert i1.n == 0
    assert i2 == make_interval(left_comb(DEPTH - 1), right_comb(DEPTH - 1))
    # the left comb's chain splits at its top vertex, the root
    chain = make_interval(left, left)
    i1, i2 = decompose(chain)
    assert i1 == make_interval(left_comb(DEPTH - 1), left_comb(DEPTH - 1))
    assert i2.n == 0
    assert compose(i1, i2) == [chain]


def test_deep_compose():
    # the right comb's chain n<...<2<1 has one decreasing root, so two terms
    chain = make_interval(right_comb(DEPTH - 1), right_comb(DEPTH - 1))
    empty = make_interval(EMPTY, EMPTY)
    first, second = compose(empty, chain)
    assert tuple(first) == (0,) + tuple(row << 1 for row in chain)
    assert second == make_interval(right_comb(DEPTH), right_comb(DEPTH))


def test_deep_interval_command(capsys):
    literal = left_literal(DEPTH)
    assert main(["interval", literal, literal]) == 0
    assert capsys.readouterr().out.startswith(f"n={DEPTH}\n1<2,2<3,")


def test_deep_extensions_command(capsys):
    literal = left_literal(EXTENSIONS_SIZE)
    assert main(["interval", literal, literal, "--extensions", "--max-n",
                 str(EXTENSIONS_SIZE)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("1,2,3,")


def test_deep_bst_relation():
    n = EXTENSIONS_SIZE
    assert bst_relation(left_comb(n)) == {
        (a, b) for b in range(1, n + 1) for a in range(1, b)}


@pytest.mark.parametrize("argv, out", [
    (["poly", left_literal(DEPTH)], f"x^{DEPTH}\n"),
    (["poly", "NE" * DEPTH], f"x^{DEPTH}\n"),
    (["poly", right_literal(DEPTH), "--mirror"], f"x^{DEPTH}\n"),
    (["poly", "N" * DEPTH + "E" * DEPTH, "--mirror"], f"x^{DEPTH}\n"),
    (["poly", left_literal(DEPTH), "--bivar", "--at-one"], "1\n"),
], ids=["left-literal", "left-dyck", "right-literal-mirror",
        "right-dyck-mirror", "left-bivar-at-one"])
def test_deep_poly_command(capsys, argv, out):
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def test_deep_poly_command_json(capsys):
    assert main(["poly", "NE" * DEPTH, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "poly", "variant": "standard",
        "polynomial": f"x^{DEPTH}", "tree": left_literal(DEPTH)}
